"""Bit-identity of the batched reference walks vs one-reference walks.

``SmpHierarchy.access_run`` / ``fetch_run`` / ``branch_run`` walk a
whole run in one kernel call; their contract (see the comment block in
:mod:`repro.hw.hierarchy`) is that walking a run leaves *exactly* the
state and counters that issuing the same references one at a time
would.  These tests replay identical randomized streams through two
hierarchies — one a reference at a time, one in runs — and compare
everything observable: split counts, cache statistics, raw set
contents, predictor tables, and the coherence directory.
"""

from random import Random

import pytest

from repro.hw.hierarchy import SmpHierarchy
from repro.hw.machine import XEON_MP_QUAD
from tests.hw import kernel_driver

_PROCESSORS = 2
_SCALE = 1


def _pair():
    return (SmpHierarchy(XEON_MP_QUAD, _PROCESSORS, _SCALE),
            SmpHierarchy(XEON_MP_QUAD, _PROCESSORS, _SCALE))


def _data_stream(seed, count=4000, lines=900):
    """(cpu, address, write, shared) with heavy line reuse and sharing."""
    rng = Random(seed)
    line_bytes = XEON_MP_QUAD.l2.line_bytes
    stream = []
    for _ in range(count):
        address = rng.randrange(lines) * line_bytes + rng.randrange(line_bytes)
        stream.append((rng.randrange(_PROCESSORS), address,
                       rng.random() < 0.3, rng.random() < 0.4))
    return stream


def _chunks(stream, rng):
    """Split a stream into randomly sized batches (1..64 references)."""
    index = 0
    while index < len(stream):
        size = rng.randrange(1, 65)
        yield stream[index:index + size]
        index += size


def _packed(refs):
    return [(address << 2) | (write << 1) | shared
            for address, write, shared in refs]


def _assert_same_state(reference, batched):
    assert (batched.merged_counts().as_counter_dict()
            == reference.merged_counts().as_counter_dict())
    for ref_cpu, bat_cpu in zip(reference.cpus, batched.cpus):
        for name in ("tc", "l2", "l3"):
            ref_cache = getattr(ref_cpu, name)
            bat_cache = getattr(bat_cpu, name)
            assert (kernel_driver.sets(bat_cache)
                    == kernel_driver.sets(ref_cache)), name
            assert (kernel_driver.stats(bat_cache)
                    == kernel_driver.stats(ref_cache)), name
        assert (kernel_driver.sets(bat_cpu.dtlb._cache)
                == kernel_driver.sets(ref_cpu.dtlb._cache))
        assert (kernel_driver.stats(bat_cpu.dtlb._cache)
                == kernel_driver.stats(ref_cpu.dtlb._cache))
        assert (kernel_driver.table(bat_cpu.predictor)
                == kernel_driver.table(ref_cpu.predictor))
    ref_dir, bat_dir = reference.directory, batched.directory
    assert bat_dir.coherence_misses == ref_dir.coherence_misses
    assert bat_dir.invalidations == ref_dir.invalidations
    assert bat_dir.interventions == ref_dir.interventions
    assert kernel_driver.tables(bat_dir) == kernel_driver.tables(ref_dir)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_access_run_matches_per_access(seed, kernel):
    reference, batched = _pair()
    stream = _data_stream(seed)
    # A run is per-cpu, so chunk the stream and split each chunk by cpu;
    # the reference replays the *same* resulting order (directory
    # transitions are order-sensitive across CPUs — the interleaved
    # one-reference-per-run case is covered separately below).
    for chunk in _chunks(stream, Random(seed + 100)):
        for cpu in range(_PROCESSORS):
            refs = [(address, write, shared)
                    for c, address, write, shared in chunk if c == cpu]
            for address, write, shared in refs:
                reference.data_access(cpu, address, write, kernel,
                                      shared=shared)
            if refs:
                batched.access_run(cpu, _packed(refs), kernel)
    _assert_same_state(reference, batched)


@pytest.mark.parametrize("kernel", [False, True])
def test_access_run_interleaved_coherence(kernel):
    # One-reference runs: the batched path must agree even when every
    # directory transition interleaves across CPUs.
    reference, batched = _pair()
    stream = _data_stream(seed=7, count=1500, lines=200)
    for cpu, address, write, shared in stream:
        reference.data_access(cpu, address, write, kernel, shared=shared)
        batched.access_run(cpu, _packed([(address, write, shared)]), kernel)
    _assert_same_state(reference, batched)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("seed", [11, 12])
def test_fetch_run_matches_per_fetch(seed, kernel):
    reference, batched = _pair()
    rng = Random(seed)
    line_bytes = XEON_MP_QUAD.tc.line_bytes
    stream = [(rng.randrange(_PROCESSORS),
               rng.randrange(1200) * line_bytes)
              for _ in range(4000)]
    for cpu, address in stream:
        kernel_driver.fetch(reference.cpus[cpu], address, kernel)
    for chunk in _chunks(stream, Random(seed + 100)):
        for cpu in range(_PROCESSORS):
            run = [address for c, address in chunk if c == cpu]
            if run:
                batched.fetch_run(cpu, run, kernel)
    _assert_same_state(reference, batched)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("seed", [21, 22])
def test_branch_run_matches_per_branch(seed, kernel):
    reference, batched = _pair()
    rng = Random(seed)
    stream = [(rng.randrange(_PROCESSORS), rng.randrange(3000),
               rng.random() < 0.6)
              for _ in range(6000)]
    for cpu, site, taken in stream:
        kernel_driver.branch(reference.cpus[cpu], site, taken, kernel)
    for chunk in _chunks(stream, Random(seed + 100)):
        for cpu in range(_PROCESSORS):
            run = [(site << 1) | taken
                   for c, site, taken in chunk if c == cpu]
            if run:
                batched.branch_run(cpu, run, kernel)
    _assert_same_state(reference, batched)


def test_mixed_walks_share_state_with_mixed_singles():
    # Data, fetch, and branch traffic interleaved: the unified L2/L3
    # state seen by fetches must reflect earlier batched data writes.
    reference, batched = _pair()
    rng = Random(99)
    line_bytes = XEON_MP_QUAD.l2.line_bytes
    for _ in range(60):
        data = _data_stream(rng.randrange(1 << 30), count=150, lines=300)
        for cpu in range(_PROCESSORS):
            refs = [(address, write, shared)
                    for c, address, write, shared in data if c == cpu]
            for address, write, shared in refs:
                reference.data_access(cpu, address, write, False,
                                      shared=shared)
            if refs:
                batched.access_run(cpu, _packed(refs), False)
        cpu = rng.randrange(_PROCESSORS)
        fetches = [rng.randrange(400) * line_bytes for _ in range(80)]
        for address in fetches:
            kernel_driver.fetch(reference.cpus[cpu], address, True)
        batched.fetch_run(cpu, fetches, True)
        branches = [(rng.randrange(500) << 1) | (rng.random() < 0.5)
                    for _ in range(40)]
        for code in branches:
            kernel_driver.branch(reference.cpus[cpu], code >> 1, code & 1,
                                 False)
        batched.branch_run(cpu, branches, False)
    _assert_same_state(reference, batched)
