"""ODB database sizing and segment layout.

Section 3.1 fixes the physical shape: a warehouse is about 100 MB
including tables and indices; each warehouse has ten districts of three
thousand customers; two 25 GB log files are shared by all warehouses.
The per-warehouse 100 MB is apportioned across table segments with
TPC-C-like proportions (stock dominates), plus one global segment for
the item catalog, which all warehouses share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.blocks import BlockSpace, Segment

WAREHOUSE_BYTES = 100 * 1024 * 1024
LOG_FILE_BYTES = 25 * 1024**3
LOG_FILE_COUNT = 2
ITEM_CATALOG_BYTES = 8 * 1024 * 1024

#: Fraction of each warehouse's bytes per table segment (indices folded
#: into their tables).  STOCK carries 100k rows * ~300 B and dominates.
_WAREHOUSE_SPLIT = {
    "stock": 0.40,
    "customer": 0.24,
    "orders": 0.12,
    "order_line": 0.14,
    "history": 0.06,
    "new_order": 0.02,
}
#: Segments so small they get a single unit regardless of unit size:
#: the warehouse row and the ten district rows.
_SINGLE_UNIT_SEGMENTS = ("warehouse", "district")


def odb_segments(unit_bytes: int = 64 * 1024) -> list[Segment]:
    """The ODB segment list at a given block-unit resolution."""
    if unit_bytes <= 0:
        raise ValueError("unit_bytes must be positive")
    segments = [Segment("item", max(1, ITEM_CATALOG_BYTES // unit_bytes),
                        per_warehouse=False)]
    for name in _SINGLE_UNIT_SEGMENTS:
        segments.append(Segment(name, 1))
    budget = WAREHOUSE_BYTES - len(_SINGLE_UNIT_SEGMENTS) * unit_bytes
    for name, fraction in _WAREHOUSE_SPLIT.items():
        units = max(1, int(budget * fraction) // unit_bytes)
        segments.append(Segment(name, units))
    return segments


@dataclass(frozen=True)
class OdbSchema:
    """A sized ODB database: block space plus logical row counts."""

    warehouses: int
    unit_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.warehouses <= 0:
            raise ValueError("warehouses must be positive")

    def build_block_space(self) -> BlockSpace:
        """The block space sized for this schema."""
        return BlockSpace(self.warehouses, odb_segments(self.unit_bytes),
                          self.unit_bytes)

