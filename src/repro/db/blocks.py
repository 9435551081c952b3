"""Block address space: tables as segments of block units.

The database is a flat space of *block units*.  A unit stands for a run
of physical 8 KB blocks; its size is a resolution knob (DESIGN.md §6) —
byte-denominated outputs are converted through ``unit_bytes``.  Tables
are segments: per-warehouse segments repeat for every warehouse, global
segments (e.g. the ITEM table, which every warehouse shares) appear
once.  Block ids are dense integers, so the buffer cache and disk
striping can hash them directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Segment:
    """A table (or table+index) segment."""

    name: str
    units: int
    per_warehouse: bool = True

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise ValueError(f"segment {self.name!r} must have >= 1 unit")


class BlockSpace:
    """Dense block-unit ids for a set of segments over ``W`` warehouses.

    Layout: all global segments first, then per-warehouse segments
    repeated warehouse-major (warehouse 0's segments, warehouse 1's, ...),
    so one warehouse's data is contiguous — as a real tablespace layout
    clusters it.
    """

    def __init__(self, warehouses: int, segments: list[Segment],
                 unit_bytes: int = 64 * 1024):
        if warehouses <= 0:
            raise ValueError("warehouses must be positive")
        if not segments:
            raise ValueError("at least one segment is required")
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        if unit_bytes <= 0:
            raise ValueError("unit_bytes must be positive")
        self.warehouses = warehouses
        self.unit_bytes = unit_bytes
        self._global_segments = [s for s in segments if not s.per_warehouse]
        self._wh_segments = [s for s in segments if s.per_warehouse]
        self._global_offsets: dict[str, int] = {}
        offset = 0
        for segment in self._global_segments:
            self._global_offsets[segment.name] = offset
            offset += segment.units
        self.global_units = offset
        self._wh_offsets: dict[str, int] = {}
        offset = 0
        for segment in self._wh_segments:
            self._wh_offsets[segment.name] = offset
            offset += segment.units
        self.units_per_warehouse = offset
        self._segments = {s.name: s for s in segments}

    def segment(self, name: str) -> Segment:
        """Look up one named segment; raises ``KeyError`` with the known names."""
        try:
            return self._segments[name]
        except KeyError:
            known = ", ".join(sorted(self._segments))
            raise KeyError(f"unknown segment {name!r}; known: {known}")

    def block_id(self, segment_name: str, warehouse: int, index: int) -> int:
        """The dense id of unit ``index`` of a segment.

        ``warehouse`` is ignored for global segments (pass any value).
        """
        segment = self.segment(segment_name)
        if not 0 <= index < segment.units:
            raise ValueError(
                f"index {index} out of range for {segment_name} "
                f"({segment.units} units)")
        if not segment.per_warehouse:
            return self._global_offsets[segment_name] + index
        if not 0 <= warehouse < self.warehouses:
            raise ValueError(
                f"warehouse {warehouse} out of range (W={self.warehouses})")
        return (self.global_units
                + warehouse * self.units_per_warehouse
                + self._wh_offsets[segment_name] + index)
