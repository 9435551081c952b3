"""Event-queue ordering property.

Randomized raw entries must come out of the dispatch loop behind
``run()`` in the sorted ``(time, priority, insertion)`` order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from tests.sim.test_engine import _delays, _queue


@given(st.lists(st.tuples(_delays, st.sampled_from([0, 1])),
                min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_raw_schedulers_pop_in_same_order(entries):
    engine = Engine()
    fired = []
    for index, (when, priority) in enumerate(entries):
        _queue(engine, when, priority, (when, priority, index), fired)
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(entries)
