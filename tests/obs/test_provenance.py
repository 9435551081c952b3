"""Tests for counter provenance: metric → events → EMON names → costs."""

import json
from pathlib import Path

import pytest

from repro.emon.events import EVENT_TABLE, emon_sources, event_by_alias
from repro.experiments.records import ConfigResult
from repro.hw.machine import XEON_MP_QUAD
from repro.obs.provenance import (
    PROVENANCE_VERSION,
    CounterProvenance,
    EmonProvenance,
    emon_provenance,
)

GOLDEN = (Path(__file__).resolve().parents[1]
          / "experiments" / "golden" / "config_w50_p2_fast.json")


@pytest.fixture(scope="module")
def golden_result() -> ConfigResult:
    return ConfigResult.from_dict(json.loads(GOLDEN.read_text()))


@pytest.fixture(scope="module")
def provenance(golden_result) -> EmonProvenance:
    return emon_provenance(golden_result)


class TestEmonSources:
    def test_known_alias_resolves(self):
        names = emon_sources("l3_miss")
        assert names == event_by_alias("l3_miss").emon_names
        assert names

    def test_unknown_alias_raises(self):
        with pytest.raises(KeyError):
            emon_sources("not-an-alias")


def _record(provenance, metric: str):
    """The provenance record of one reported metric."""
    return {record.metric: record for record in provenance.records}[metric]


class TestProvenanceRecords:
    EXPECTED_METRICS = [
        "IPX", "CPI", "CPI.Inst", "CPI.Branch", "CPI.TLB", "CPI.TC",
        "CPI.L2", "CPI.L3", "CPI.Other", "L3 MPI", "Bus utilization",
        "Bus-transaction time", "Context switches",
    ]

    def test_covers_every_reported_metric(self, provenance):
        assert [r.metric for r in provenance.records] == self.EXPECTED_METRICS

    def test_values_match_the_result(self, golden_result, provenance):
        assert _record(provenance, "IPX").value == golden_result.system.ipx
        assert _record(provenance, "CPI").value == golden_result.cpi.cpi
        assert (_record(provenance, "L3 MPI").value
                == golden_result.rates.l3_misses_per_instr)

    def test_emon_names_come_from_the_event_table(self, provenance):
        known = {name for event in EVENT_TABLE for name in event.emon_names}
        for record in provenance.records:
            for name in record.emon_names:
                assert name in known, (record.metric, name)

    def test_events_are_table2_aliases(self, provenance):
        aliases = {event.alias for event in EVENT_TABLE}
        for record in provenance.records:
            assert set(record.events) <= aliases, record.metric

    def test_stall_costs_match_table3(self, provenance):
        costs = XEON_MP_QUAD.costs
        assert (_record(provenance, "CPI.Branch").stall_cost_cycles
                == costs.branch_mispredict)
        assert (_record(provenance, "CPI.TLB").stall_cost_cycles
                == costs.tlb_miss)
        assert (_record(provenance, "CPI.L2").stall_cost_cycles
                == costs.l2_miss)

    def test_l3_cost_folds_in_bus_transaction_time(self, golden_result,
                                                   provenance):
        record = _record(provenance, "CPI.L3")
        expected = (XEON_MP_QUAD.costs.l3_miss
                    + golden_result.cpi.bus_transaction_time
                    - XEON_MP_QUAD.bus.base_transaction_cycles)
        assert record.stall_cost_cycles == pytest.approx(expected)

    def test_explicit_machine_object_accepted(self, golden_result):
        direct = emon_provenance(golden_result, machine=XEON_MP_QUAD)
        assert direct.machine == XEON_MP_QUAD.name


class TestSerialization:
    def test_dict_round_trip(self, provenance):
        rebuilt = EmonProvenance.from_dict(provenance.to_dict())
        assert rebuilt == provenance

    def test_version_mismatch_rejected(self, provenance):
        data = provenance.to_dict()
        data["provenance_version"] = PROVENANCE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            EmonProvenance.from_dict(data)

    def test_counter_record_round_trip(self):
        record = CounterProvenance(
            metric="m", value=1.5, unit="u", formula="f",
            events=("l3_miss",), emon_names=("A", "B"),
            stall_cost_cycles=None)
        assert CounterProvenance.from_dict(record.to_dict()) == record

    def test_rows_shape(self, provenance):
        rows = provenance.rows()
        assert len(rows) == len(provenance.records)
        assert all(len(row) == 6 for row in rows)
