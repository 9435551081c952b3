"""The paper's ODB workload (Section 3.1) as a spec: ``odb-standard``.

Five TPC-C-like transaction types over the standard warehouse schema.
This is the one definition of the default mix: every run that names no
workload executes it, compiled (:func:`repro.workload.compiled_workload`),
and the scenario library lists it beside the YAML scenarios.  It is
written in Python, not YAML, so the default path reads no file and
imports no YAML parser.

User path lengths are per-type calibration constants whose mix-weighted
mean lands near the paper's ~1.2M user instructions per transaction
(Figure 5); the weighted redo volume averages to its ~6 KB per
transaction.  The spec fingerprint is a cache-key component and the
spec's transaction types feed every golden result, so editing a number
here fails ``tests/workload/test_compiler.py`` and the golden tests.
"""

from __future__ import annotations

from repro.workload.spec import TouchRule, TransactionSpec, WorkloadSpec


def _append(segment: str, count: int, write_prob: float = 0.0) -> TouchRule:
    """Touches in a segment's rolling append window."""
    return TouchRule(segment, count, write_prob, distribution="append")


ODB_STANDARD = WorkloadSpec(
    name="odb-standard",
    description=("The paper's TPC-C-like ODB mix: five transaction types "
                 "over the standard warehouse schema (the built-in "
                 "default, expressed as data)."),
    transactions=(
        TransactionSpec(
            name="new_order", weight=0.45, user_instructions=1450000.0,
            locks=("district",), redo_bytes=7680.0,
            touches=(
                TouchRule("district", 1, write_prob=1.0),
                TouchRule("item", 3, skew=0.8),
                TouchRule("stock", 9, write_prob=0.9, skew=0.55),
                TouchRule("customer", 1, skew=0.7),
                _append("orders", 2, write_prob=1.0),
                _append("order_line", 2, write_prob=1.0),
                _append("new_order", 1, write_prob=1.0),
            )),
        TransactionSpec(
            name="payment", weight=0.43, user_instructions=850000.0,
            locks=("warehouse", "district"), redo_bytes=4608.0,
            touches=(
                TouchRule("warehouse", 1, write_prob=1.0),
                TouchRule("district", 1, write_prob=1.0),
                TouchRule("customer", 2, write_prob=0.5, skew=0.7),
                _append("history", 1, write_prob=1.0),
            )),
        TransactionSpec(
            name="order_status", weight=0.04, user_instructions=600000.0,
            redo_bytes=307.2,
            touches=(
                TouchRule("customer", 2, skew=0.7),
                _append("orders", 2),
                _append("order_line", 2),
            )),
        TransactionSpec(
            name="delivery", weight=0.04, user_instructions=2400000.0,
            districts_touched=10, redo_bytes=9216.0,
            touches=(
                _append("new_order", 2, write_prob=1.0),
                _append("orders", 6, write_prob=1.0),
                _append("order_line", 4, write_prob=0.8),
                TouchRule("customer", 6, write_prob=1.0, skew=0.55),
            )),
        TransactionSpec(
            name="stock_level", weight=0.04, user_instructions=1500000.0,
            redo_bytes=307.2,
            touches=(
                TouchRule("district", 1),
                _append("order_line", 4),
                TouchRule("stock", 12, skew=0.55),
            )),
    ),
)
