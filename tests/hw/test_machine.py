"""Tests for machine configurations."""

import pytest

from repro.hw.machine import (
    BusConfig,
    CacheConfig,
    DiskConfig,
    ITANIUM2_QUAD,
    MachineConfig,
    StallCosts,
    TlbConfig,
    XEON_MP_QUAD,
    machine_by_name,
)


class TestXeonPreset:
    def test_paper_parameters(self):
        m = XEON_MP_QUAD
        assert m.frequency_hz == 1.6e9
        assert m.max_processors == 4
        assert m.l2.size_bytes == 256 * 1024
        assert m.l3.size_bytes == 1024 * 1024
        assert m.disks.count == 26
        assert m.memory_bytes == 4 * 1024**3
        assert m.os_reserved_bytes == 1 * 1024**3

    def test_table3_stall_costs(self):
        costs = XEON_MP_QUAD.costs
        assert costs.instruction == 0.5
        assert costs.branch_mispredict == 20
        assert costs.tlb_miss == 20
        assert costs.tc_miss == 20
        assert costs.l2_miss == 16
        assert costs.l3_miss == 300
        assert XEON_MP_QUAD.bus.base_transaction_cycles == 102

    def test_sga_is_memory_minus_os(self):
        assert XEON_MP_QUAD.sga_bytes == 3 * 1024**3


class TestItanium2Preset:
    def test_section63_differences(self):
        x, i = XEON_MP_QUAD, ITANIUM2_QUAD
        assert i.l3.size_bytes == 3 * x.l3.size_bytes
        # ~50% more bus bandwidth == two-thirds the per-transaction occupancy
        assert i.bus.occupancy_cycles == pytest.approx(
            x.bus.occupancy_cycles / 1.5)
        assert i.disks.count == 34
        assert i.memory_bytes == 16 * 1024**3

    def test_stall_costs_shared_with_xeon(self):
        assert ITANIUM2_QUAD.costs == XEON_MP_QUAD.costs


class TestLookup:
    def test_by_name(self):
        assert machine_by_name("xeon-mp-quad") is XEON_MP_QUAD
        assert machine_by_name("itanium2-quad") is ITANIUM2_QUAD

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known machines"):
            machine_by_name("pentium-66")


class TestDerivedConfigs:
    def test_with_l3_size(self):
        doubled = XEON_MP_QUAD.with_l3_size(2 * 1024 * 1024)
        assert doubled.l3.size_bytes == 2 * 1024 * 1024
        assert doubled.l2 == XEON_MP_QUAD.l2
        assert "l3=2048KB" in doubled.name

    def test_with_disks(self):
        more = XEON_MP_QUAD.with_disks(52)
        assert more.disks.count == 52
        assert more.disks.service_time_s == XEON_MP_QUAD.disks.service_time_s


class TestValidation:
    def test_cache_geometry(self):
        assert CacheConfig("c", 1024, 64, 2).num_sets == 8

    def test_tlb_validation(self):
        with pytest.raises(ValueError):
            TlbConfig(entries=0, associativity=1)
        with pytest.raises(ValueError):
            TlbConfig(entries=10, associativity=3)
        with pytest.raises(ValueError):
            TlbConfig(entries=64, associativity=64, page_bytes=1000)

    def test_bus_validation(self):
        with pytest.raises(ValueError):
            BusConfig(base_transaction_cycles=0)
        with pytest.raises(ValueError):
            BusConfig(max_utilization=1.5)
        with pytest.raises(ValueError):
            BusConfig(queue_weight=-1)

    def test_disk_validation(self):
        with pytest.raises(ValueError):
            DiskConfig(count=0)
        with pytest.raises(ValueError):
            DiskConfig(service_time_s=0)

    def test_machine_validation(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(XEON_MP_QUAD, os_reserved_bytes=8 * 1024**3)
        with pytest.raises(ValueError):
            dataclasses.replace(XEON_MP_QUAD, frequency_hz=0)
