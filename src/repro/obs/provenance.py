"""Counter provenance: reported metric → raw EMON events → stall costs.

The paper's reported quantities are never raw counter reads: IPX divides
``instr_retired`` by committed transactions, each Figure 12 CPI
component multiplies an event count by a Table 3 stall cost, and the L3
term folds in the measured IOQ bus-transaction time (Table 4).  A
:class:`CounterProvenance` record makes that chain explicit for one
metric — its value, the Table 4 formula that produced it, the Table 2
event aliases it consumed, the raw EMON event names behind those
aliases, and the Table 3 stall cost applied — and an
:class:`EmonProvenance` bundles the records for one
:class:`~repro.experiments.records.ConfigResult`.

This is the audit trail ``python -m repro report`` renders in its
"counter provenance" dashboard section.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.emon.events import emon_sources

if TYPE_CHECKING:  # heavy imports stay lazy: repro.sim modules import
    # repro.obs.tracing, and the package __init__ pulls this module in.
    from repro.experiments.records import ConfigResult
    from repro.hw.machine import MachineConfig

#: Provenance records serialization generation.
PROVENANCE_VERSION = 1


@dataclass(frozen=True)
class CounterProvenance:
    """One reported metric traced back to its measurement inputs."""

    metric: str
    value: float
    unit: str
    #: The derivation, in Table 4 notation.
    formula: str
    #: Table 2 event aliases consumed by the formula.
    events: tuple[str, ...]
    #: Raw EMON event names behind those aliases.
    emon_names: tuple[str, ...]
    #: Table 3 stall cost applied (cycles/event), when one applies.
    stall_cost_cycles: Optional[float] = None

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CounterProvenance":
        """Rebuild a record from its :meth:`to_dict` payload."""
        return cls(
            metric=data["metric"],
            value=data["value"],
            unit=data["unit"],
            formula=data["formula"],
            events=tuple(data["events"]),
            emon_names=tuple(data["emon_names"]),
            stall_cost_cycles=data.get("stall_cost_cycles"),
        )


@dataclass(frozen=True)
class EmonProvenance:
    """All counter-provenance records of one configuration result."""

    machine: str
    records: tuple[CounterProvenance, ...]
    provenance_version: int = PROVENANCE_VERSION

    def rows(self) -> list[list]:
        """Table rows: metric, value, formula, events, EMON names, cost."""
        rows = []
        for r in self.records:
            rows.append([
                r.metric,
                f"{r.value:.4g} {r.unit}".strip(),
                r.formula,
                " + ".join(r.events),
                " + ".join(r.emon_names),
                "" if r.stall_cost_cycles is None
                else f"{r.stall_cost_cycles:g}",
            ])
        return rows

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return {
            "provenance_version": self.provenance_version,
            "machine": self.machine,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EmonProvenance":
        """Rebuild provenance from its :meth:`to_dict` payload."""
        version = data.get("provenance_version", 0)
        if version != PROVENANCE_VERSION:
            raise ValueError(
                f"provenance has version {version}, "
                f"this build reads {PROVENANCE_VERSION}")
        return cls(
            machine=data["machine"],
            records=tuple(CounterProvenance.from_dict(r)
                          for r in data["records"]),
        )


def _record(metric: str, value: float, unit: str, formula: str,
            events: Sequence[str],
            stall_cost_cycles: Optional[float] = None) -> CounterProvenance:
    """Build one record, resolving raw EMON names from Table 2 aliases."""
    names: list[str] = []
    for alias in events:
        for name in emon_sources(alias):
            if name not in names:
                names.append(name)
    return CounterProvenance(
        metric=metric, value=value, unit=unit, formula=formula,
        events=tuple(events), emon_names=tuple(names),
        stall_cost_cycles=stall_cost_cycles)


def emon_provenance(result: "ConfigResult",
                    machine: Optional["MachineConfig"] = None
                    ) -> EmonProvenance:
    """Trace every reported counter of ``result`` back to its sources.

    ``machine`` defaults to looking the result's machine name up in the
    preset table; pass the object explicitly for derived machines
    (ablation variants carry names the preset table does not know).
    """
    if machine is None:
        from repro.hw.machine import machine_by_name

        machine = machine_by_name(result.machine)
    costs = machine.costs
    rates = result.rates
    breakdown = result.cpi.breakdown
    base_bus = machine.bus.base_transaction_cycles
    l3_penalty = (costs.l3_miss + result.cpi.bus_transaction_time - base_bus)

    records = (
        _record("IPX", result.system.ipx, "instr/txn",
                "instr_retired / committed transactions (user + OS)",
                ["instructions"]),
        _record("CPI", result.cpi.cpi, "cycles/instr",
                "Clock Cycles / Instructions (fixed-point solution)",
                ["clock_cycles", "instructions"]),
        _record("CPI.Inst", breakdown.inst, "cycles/instr",
                f"Instructions * {costs.instruction:g}",
                ["instructions"], costs.instruction),
        _record("CPI.Branch", breakdown.branch, "cycles/instr",
                f"Branch Mispredictions * {costs.branch_mispredict:g}",
                ["branch_mispredictions"], costs.branch_mispredict),
        _record("CPI.TLB", breakdown.tlb, "cycles/instr",
                f"TLB Miss * {costs.tlb_miss:g}",
                ["tlb_miss"], costs.tlb_miss),
        _record("CPI.TC", breakdown.tc, "cycles/instr",
                f"TC Miss * {costs.tc_miss:g}",
                ["tc_miss"], costs.tc_miss),
        _record("CPI.L2", breakdown.l2, "cycles/instr",
                f"(L2 Miss - L3 Miss) * {costs.l2_miss:g}",
                ["l2_miss", "l3_miss"], costs.l2_miss),
        _record("CPI.L3", breakdown.l3, "cycles/instr",
                f"L3 Miss * ({costs.l3_miss:g} + Bus-Transaction Time "
                f"- {base_bus:g})",
                ["l3_miss", "bus_transaction_time"], l3_penalty),
        _record("CPI.Other", breakdown.other, "cycles/instr",
                "Clock Cycles / Instructions - sum(computed components)",
                ["clock_cycles", "instructions"]),
        _record("L3 MPI", rates.l3_misses_per_instr, "miss/instr",
                "L3 Miss / Instructions",
                ["l3_miss", "instructions"]),
        _record("Bus utilization", result.cpi.bus_utilization, "",
                "FSB data-transfer cycles / elapsed cycles",
                ["bus_utilization"]),
        _record("Bus-transaction time", result.cpi.bus_transaction_time,
                "cycles",
                "IOQ_active_entries / IOQ_allocation (loaded IOQ wait)",
                ["bus_transaction_time"]),
        _record("Context switches", result.system.context_switches_per_txn,
                "cs/txn",
                "os_context_switch / committed transactions",
                ["context_switches"]),
    )
    return EmonProvenance(machine=machine.name, records=records)
