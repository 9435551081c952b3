"""Tests for the coherence directory and the SMP cache hierarchy."""

import pytest

from repro.hw.cache import SetAssociativeCache
from repro.hw.coherence import CoherenceDirectory
from repro.hw.hierarchy import (
    CpuHierarchy,
    SmpHierarchy,
    scaled_cache_config,
)
from repro.hw.machine import CacheConfig, XEON_MP_QUAD

from tests.hw import kernel_driver


def _sharers(directory, line: int) -> int:
    """Number of CPUs the directory lists as holding ``line``."""
    return bin(kernel_driver.tables(directory)[0].get(line, 0)).count("1")


def _attached(processors: int, lines):
    """A directory whose CPUs' L2 and L3 all hold ``lines``."""
    directory = CoherenceDirectory(processors)
    caches = []
    for cpu in range(processors):
        l2, l3 = (SetAssociativeCache(CacheConfig(name, size, 128, 4))
                  for name, size in (("L2", 4096), ("L3", 16384)))
        for line in lines:
            kernel_driver.access(l3, line * 128)
            kernel_driver.access(l2, line * 128)
        directory.attach(cpu, l2, l3)
        caches.append((l2, l3))
    return directory, caches


def _holds(caches, line: int) -> list[bool]:
    """Per CPU, whether its L2 and L3 still hold ``line``."""
    return [all(line in kernel_driver.sets(cache)[line % cache.config.num_sets]
                for cache in pair) for pair in caches]


class TestCoherenceDirectory:
    def test_write_invalidates_remote_sharers(self):
        directory, caches = _attached(2, [7])
        kernel_driver.read(directory, 0, line=7, was_miss=True)
        kernel_driver.read(directory, 1, line=7, was_miss=True)
        assert _sharers(directory, 7) == 2
        kernel_driver.write(directory, 0, line=7, was_miss=False)
        assert _holds(caches, 7) == [True, False]
        assert directory.invalidations == 1
        assert _sharers(directory, 7) == 1

    def test_miss_after_theft_is_coherence_miss(self):
        directory = CoherenceDirectory(2)
        kernel_driver.read(directory, 1, line=3, was_miss=True)
        # cpu 0 steals the line from cpu 1
        kernel_driver.write(directory, 0, line=3, was_miss=True)
        assert kernel_driver.read(directory, 1, line=3, was_miss=True)
        assert directory.coherence_misses == 1

    def test_read_of_remote_modified_is_intervention(self):
        directory = CoherenceDirectory(2)
        kernel_driver.write(directory, 0, line=9, was_miss=True)
        kernel_driver.read(directory, 1, line=9, was_miss=True)
        assert directory.interventions == 1

    def test_own_write_does_not_self_invalidate(self):
        directory, caches = _attached(2, [5])
        kernel_driver.read(directory, 0, line=5, was_miss=True)
        kernel_driver.write(directory, 0, line=5, was_miss=False)
        assert _holds(caches, 5) == [True, True]
        assert directory.invalidations == 0

    def test_cpu_range_validated(self):
        directory, ((l2, l3), _) = _attached(2, [])
        with pytest.raises(ValueError):
            directory.attach(5, l2, l3)
        with pytest.raises(ValueError):
            CoherenceDirectory(0)


class TestScaledCacheConfig:
    def test_scale_one_is_identity(self):
        assert scaled_cache_config(XEON_MP_QUAD.l3, 1) == XEON_MP_QUAD.l3

    def test_scale_divides_lines(self):
        scaled = scaled_cache_config(XEON_MP_QUAD.l3, 8)
        assert scaled.total_lines == XEON_MP_QUAD.l3.total_lines // 8
        assert scaled.line_bytes == XEON_MP_QUAD.l3.line_bytes
        assert scaled.associativity == XEON_MP_QUAD.l3.associativity

    def test_never_below_one_set(self):
        tiny = scaled_cache_config(CacheConfig("t", 1024, 64, 4), 1000)
        assert tiny.total_lines == 4  # one full set survives

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_cache_config(XEON_MP_QUAD.l3, 0)


class TestCpuHierarchy:
    def test_data_miss_chain(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        kernel_driver.data_ref(cpu, 0x10000, write=False, kernel=False)
        assert cpu.counts.l2_misses.user == cpu.counts.l3_misses.user == 1
        kernel_driver.data_ref(cpu, 0x10000, write=False, kernel=False)
        assert cpu.counts.l2_misses.user == 1
        assert cpu.counts.l3_misses.user == 1
        assert cpu.counts.data_refs.user == 2

    def test_kernel_counts_split(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        kernel_driver.data_ref(cpu, 0x1000, write=False, kernel=True)
        kernel_driver.data_ref(cpu, 0x2000, write=False, kernel=False)
        assert cpu.counts.data_refs.kernel == 1
        assert cpu.counts.data_refs.user == 1
        assert cpu.counts.data_refs.total == 2

    def test_l2_hit_after_l3_fill(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        kernel_driver.data_ref(cpu, 0x40, write=False, kernel=False)
        # Second access hits L2 without touching L3 counters.
        before = cpu.counts.l3_misses.total
        kernel_driver.data_ref(cpu, 0x40, write=False, kernel=False)
        assert cpu.counts.l3_misses.total == before

    def test_fetch_counts_tc_misses(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        kernel_driver.fetch(cpu, 0x100, kernel=False)  # cold: TC miss
        assert cpu.counts.tc_misses.user == 1
        kernel_driver.fetch(cpu, 0x100, kernel=False)
        assert cpu.counts.tc_misses.user == 1
        assert cpu.counts.code_refs.user == 2

    def test_context_switch_flushes_dtlb(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        kernel_driver.data_ref(cpu, 0x5000, write=False, kernel=False)
        misses_before = cpu.counts.tlb_misses.total
        kernel_driver.context_switch(cpu)
        kernel_driver.data_ref(cpu, 0x5000, write=False, kernel=False)
        assert cpu.counts.tlb_misses.total == misses_before + 1
        assert cpu.counts.context_switches == 1

    def test_branch_counting(self):
        cpu = CpuHierarchy(XEON_MP_QUAD, cpu=0, scale=8)
        for _ in range(10):
            kernel_driver.branch(cpu, pc=3, taken=True, kernel=False)
        assert cpu.counts.branches.user == 10
        assert cpu.counts.mispredicts.user <= 10


class TestSmpHierarchy:
    def test_processor_bound_validated(self):
        with pytest.raises(ValueError):
            SmpHierarchy(XEON_MP_QUAD, processors=5)
        with pytest.raises(ValueError):
            SmpHierarchy(XEON_MP_QUAD, processors=0)

    def test_shared_write_invalidates_other_cpu(self):
        smp = SmpHierarchy(XEON_MP_QUAD, processors=2, scale=8)
        address = 0x8000
        smp.data_access(0, address, write=False, kernel=False, shared=True)
        smp.data_access(1, address, write=False, kernel=False, shared=True)
        # CPU1 writes: CPU0's copy must be invalidated.
        smp.data_access(1, address, write=True, kernel=False, shared=True)
        assert smp.directory.invalidations == 1
        # CPU0's re-read misses and is classified as a coherence miss.
        smp.data_access(0, address, write=False, kernel=False, shared=True)
        assert smp.cpus[0].counts.coherence_misses.user == 1

    def test_private_lines_never_engage_directory(self):
        smp = SmpHierarchy(XEON_MP_QUAD, processors=2, scale=8)
        smp.data_access(0, 0x9000, write=True, kernel=False, shared=False)
        smp.data_access(1, 0x9000, write=True, kernel=False, shared=False)
        assert smp.directory.invalidations == 0

    def test_single_processor_skips_coherence(self):
        smp = SmpHierarchy(XEON_MP_QUAD, processors=1, scale=8)
        smp.data_access(0, 0x9000, write=True, kernel=False, shared=True)
        assert smp.directory.invalidations == 0

    def test_merged_counts_sum_cpus(self):
        smp = SmpHierarchy(XEON_MP_QUAD, processors=2, scale=8)
        smp.data_access(0, 0x100, write=False, kernel=False)
        smp.data_access(1, 0x200, write=False, kernel=True)
        kernel_driver.fetch(smp.cpus[0], 0x300, kernel=False)
        kernel_driver.context_switch(smp.cpus[1])
        merged = smp.merged_counts()
        assert merged.data_refs.total == 2
        assert merged.data_refs.kernel == 1
        assert merged.code_refs.total == 1
        assert merged.context_switches == 1
