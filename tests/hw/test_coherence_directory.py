"""The compiled coherence directory against the dict oracle.

Random scripts of ``note_read``/``note_write``/``note_eviction`` run on
:class:`repro.hw.coherence.CoherenceDirectory` (``dir_t`` in the walk
kernel) and on ``tests/hw/reference_coherence.py``.  After every step
the return values, the three counters and ``sharer_count`` must agree;
the invalidation hook must see the same calls; the caches the compiled
directory invalidates itself (:meth:`CoherenceDirectory.attach`) must
end like the caches the oracle's hook invalidates; and the tables must
hold the same sharers, owners and stolen lines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import SetAssociativeCache
from repro.hw.coherence import MAX_PROCESSORS, CoherenceDirectory
from repro.hw.machine import CacheConfig

from tests.hw.reference_coherence import ReferenceDirectory

_L2 = CacheConfig("l2", 16 * 4 * 128, 128, 4)
_L3 = CacheConfig("l3", 32 * 8 * 128, 128, 8)

#: Mostly four lines on four CPUs, so reads, thefts and evictions of
#: one line interleave; sometimes any line or CPU.
_line = st.one_of(st.integers(0, 3), st.integers(0, 3),
                  st.integers(0, 2 ** 64 - 1))
_cpu = st.one_of(st.integers(0, 3), st.integers(0, MAX_PROCESSORS - 1))
_step = st.tuples(st.sampled_from(["read", "write", "evict"]), _cpu, _line,
                  st.booleans())


def _caches(processors, lines):
    caches = []
    for _ in range(processors):
        l2, l3 = SetAssociativeCache(_L2), SetAssociativeCache(_L3)
        for line in lines:
            l3.access(line * 128)
            l2.access(line * 128, write=line % 3 == 0)
        caches.append((l2, l3))
    return caches


def _state(caches):
    return [(l2._sets, l3._sets, l2.invalidations, l3.invalidations)
            for l2, l3 in caches]


@given(processors=st.sampled_from([1, 2, 3, 4, MAX_PROCESSORS]),
       script=st.lists(_step, min_size=20, max_size=200))
@settings(max_examples=80, deadline=None)
def test_directory_matches_dict_oracle(processors, script):
    lines = sorted({line for _, _, line, _ in script if line < 4})
    compiled_caches = _caches(processors, lines)
    oracle_caches = _caches(processors, lines)
    compiled_calls, oracle_calls = [], []

    def oracle_hook(cpu, line):
        oracle_calls.append((cpu, line))
        for cache in oracle_caches[cpu]:
            cache.invalidate_line(line)

    compiled = CoherenceDirectory(
        processors, lambda cpu, line: compiled_calls.append((cpu, line)))
    for cpu, (l2, l3) in enumerate(compiled_caches):
        compiled.attach(cpu, l2, l3)
    oracle = ReferenceDirectory(processors, oracle_hook)
    for kind, cpu, line, was_miss in script:
        cpu %= processors
        if kind == "read":
            assert (compiled.note_read(cpu, line, was_miss)
                    == oracle.note_read(cpu, line, was_miss))
        elif kind == "write":
            assert (compiled.note_write(cpu, line, was_miss)
                    == oracle.note_write(cpu, line, was_miss))
        else:
            compiled.note_eviction(cpu, line)
            oracle.note_eviction(cpu, line)
        assert compiled.sharer_count(line) == oracle.sharer_count(line)
        for name in ("invalidations", "interventions", "coherence_misses"):
            assert getattr(compiled, name) == getattr(oracle, name), name
    assert compiled_calls == oracle_calls
    assert _state(compiled_caches) == _state(oracle_caches)
    for name in ("_sharers", "_modified", "_stolen"):
        assert getattr(compiled, name) == getattr(oracle, name), name


def test_table_grows_past_its_first_size():
    compiled, oracle = CoherenceDirectory(4), ReferenceDirectory(4)
    for line in range(5000):
        for directory in (compiled, oracle):
            directory.note_read(line % 4, line * 7919, True)
            directory.note_write((line + 1) % 4, line * 7919, line % 2)
    assert compiled._c.table_bits > 8
    for name in ("_sharers", "_modified", "_stolen", "invalidations",
                 "interventions", "coherence_misses"):
        assert getattr(compiled, name) == getattr(oracle, name), name


def test_processor_and_line_bounds():
    with pytest.raises(ValueError):
        CoherenceDirectory(MAX_PROCESSORS + 1)
    directory = CoherenceDirectory(2)
    with pytest.raises(OverflowError):
        directory.note_read(0, -1, True)
    with pytest.raises(OverflowError):
        directory.note_write(1, 2 ** 64, False)
    assert directory._sharers == {} and directory.invalidations == 0
