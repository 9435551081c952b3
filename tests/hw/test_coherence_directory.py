"""The compiled coherence directory against the dict oracle.

Random scripts of reads and writes run on
:class:`repro.hw.coherence.CoherenceDirectory` (``dir_t`` in the walk
kernel, driven through ``dir_read``/``dir_write``) and on
``tests/hw/reference_coherence.py``.  After every step the return
values, the three counters and the line's sharers must agree; the
caches the compiled directory invalidates itself
(:meth:`CoherenceDirectory.attach`) must end like the caches the
oracle's hook invalidates; and the tables must hold the same sharers,
owners and stolen lines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import SetAssociativeCache
from repro.hw.coherence import MAX_PROCESSORS, CoherenceDirectory
from repro.hw.machine import CacheConfig

from tests.hw import kernel_driver
from tests.hw.reference_coherence import ReferenceDirectory

_L2 = CacheConfig("l2", 16 * 4 * 128, 128, 4)
_L3 = CacheConfig("l3", 32 * 8 * 128, 128, 8)

#: Mostly four lines on four CPUs, so reads and thefts of one line
#: interleave; sometimes any line or CPU.
_line = st.one_of(st.integers(0, 3), st.integers(0, 3),
                  st.integers(0, 2 ** 64 - 1))
_cpu = st.one_of(st.integers(0, 3), st.integers(0, MAX_PROCESSORS - 1))
_step = st.tuples(st.sampled_from(["read", "write"]), _cpu, _line,
                  st.booleans())


def _caches(processors, lines):
    caches = []
    for _ in range(processors):
        l2, l3 = SetAssociativeCache(_L2), SetAssociativeCache(_L3)
        for line in lines:
            kernel_driver.access(l3, line * 128)
            kernel_driver.access(l2, line * 128, write=line % 3 == 0)
        caches.append((l2, l3))
    return caches


def _state(caches):
    return [(kernel_driver.sets(l2), kernel_driver.sets(l3),
             kernel_driver.stats(l2), kernel_driver.stats(l3))
            for l2, l3 in caches]


@given(processors=st.sampled_from([1, 2, 3, 4, MAX_PROCESSORS]),
       script=st.lists(_step, min_size=20, max_size=200))
@settings(max_examples=80, deadline=None)
def test_directory_matches_dict_oracle(processors, script):
    lines = sorted({line for _, _, line, _ in script if line < 4})
    compiled_caches = _caches(processors, lines)
    oracle_caches = _caches(processors, lines)

    def oracle_hook(cpu, line):
        for cache in oracle_caches[cpu]:
            kernel_driver.invalidate_line(cache, line)

    compiled = CoherenceDirectory(processors)
    for cpu, (l2, l3) in enumerate(compiled_caches):
        compiled.attach(cpu, l2, l3)
    oracle = ReferenceDirectory(processors, oracle_hook)
    for kind, cpu, line, was_miss in script:
        cpu %= processors
        if kind == "read":
            assert (kernel_driver.read(compiled, cpu, line, was_miss)
                    == oracle.note_read(cpu, line, was_miss))
        else:
            assert (kernel_driver.write(compiled, cpu, line, was_miss)
                    == oracle.note_write(cpu, line, was_miss))
        assert (kernel_driver.tables(compiled)[0].get(line)
                == oracle._sharers.get(line))
        for name in ("invalidations", "interventions", "coherence_misses"):
            assert getattr(compiled, name) == getattr(oracle, name), name
    assert _state(compiled_caches) == _state(oracle_caches)
    assert (kernel_driver.tables(compiled)
            == kernel_driver.reference_tables(oracle))


def test_table_grows_past_its_first_size():
    compiled, oracle = CoherenceDirectory(4), ReferenceDirectory(4)
    for line in range(5000):
        kernel_driver.read(compiled, line % 4, line * 7919, True)
        kernel_driver.write(compiled, (line + 1) % 4, line * 7919, line % 2)
        oracle.note_read(line % 4, line * 7919, True)
        oracle.note_write((line + 1) % 4, line * 7919, line % 2)
    assert compiled._c.table_bits > 8
    assert (kernel_driver.tables(compiled)
            == kernel_driver.reference_tables(oracle))
    for name in ("invalidations", "interventions", "coherence_misses"):
        assert getattr(compiled, name) == getattr(oracle, name), name


def test_processor_and_line_bounds():
    with pytest.raises(ValueError):
        CoherenceDirectory(MAX_PROCESSORS + 1)
    directory = CoherenceDirectory(2)
    with pytest.raises(OverflowError):
        kernel_driver.read(directory, 0, -1, True)
    with pytest.raises(OverflowError):
        kernel_driver.write(directory, 1, 2 ** 64, False)
    assert kernel_driver.tables(directory) == ({}, {}, [set(), set()])
    assert directory.invalidations == 0
