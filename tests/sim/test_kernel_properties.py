"""Property-based stress tests of the DES kernel.

Random process populations hammer a resource; invariants that must hold
regardless of schedule: capacity is never exceeded, every process
finishes, grants are FIFO, and busy-time accounting matches an
independent tally.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource


workload = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),   # arrival offset
        st.floats(min_value=0.01, max_value=5.0),   # hold duration
    ),
    min_size=1, max_size=40,
)


@given(st.integers(min_value=1, max_value=5), workload)
@settings(max_examples=80, deadline=None)
def test_resource_invariants_under_random_load(capacity, jobs):
    engine = Engine()
    resource = Resource(engine, capacity)
    in_use_samples = []
    finished = []
    busy_tally = {"area": 0.0}
    last = {"t": 0.0, "n": 0}

    def account():
        now = engine.now
        busy_tally["area"] += last["n"] * (now - last["t"])
        last["t"] = now

    def job(arrival, hold, index):
        yield engine.timeout(arrival)
        request = resource.request()
        yield request
        account()
        last["n"] += 1
        in_use_samples.append(last["n"])
        yield engine.timeout(hold)
        account()
        last["n"] -= 1
        resource.release(request)
        finished.append(index)

    for index, (arrival, hold) in enumerate(jobs):
        engine.process(job(arrival, hold, index))
    engine.run()
    account()

    assert sorted(finished) == list(range(len(jobs)))       # no starvation
    assert all(n <= capacity for n in in_use_samples)       # capacity bound
    assert last["n"] == 0                                   # all released
    assert resource.request().triggered                     # none queued
    assert abs(resource.busy_time() - busy_tally["area"]) < 1e-6


@given(workload)
@settings(max_examples=60, deadline=None)
def test_single_slot_grants_are_fifo(jobs):
    engine = Engine()
    resource = Resource(engine, 1)
    queued_order = []
    granted_order = []

    def job(arrival, hold, index):
        yield engine.timeout(arrival)
        queued_order.append((engine.now, index))
        request = resource.request()
        yield request
        granted_order.append(index)
        yield engine.timeout(hold)
        resource.release(request)

    for index, (arrival, hold) in enumerate(jobs):
        engine.process(job(arrival, hold, index))
    engine.run()
    # Grants must follow request order (stable for simultaneous arrivals
    # because process creation order breaks ties deterministically).
    expected = [index for _, index in sorted(
        queued_order, key=lambda pair: (pair[0],
                                        queued_order.index(pair)))]
    assert granted_order == expected


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=60))
@settings(max_examples=80, deadline=None)
def test_clock_is_monotone_over_random_timeouts(delays):
    engine = Engine()
    observed = []
    for delay in delays:
        engine.timeout(delay).add_callback(
            lambda _e: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert engine.now == max(delays)
