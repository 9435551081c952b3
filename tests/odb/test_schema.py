"""Tests for ODB schema sizing."""

import pytest

from repro.db.blocks import BlockSpace
from repro.odb.schema import (
    WAREHOUSE_BYTES,
    odb_segments,
)

from tests.db.reference_blocks import owner_of, total_units


class TestSegments:
    def test_per_warehouse_bytes_close_to_100mb(self):
        unit = 64 * 1024
        segments = [s for s in odb_segments(unit) if s.per_warehouse]
        total = sum(s.units for s in segments) * unit
        assert total == pytest.approx(WAREHOUSE_BYTES, rel=0.05)

    def test_item_catalog_is_global(self):
        segments = {s.name: s for s in odb_segments()}
        assert not segments["item"].per_warehouse
        assert segments["item"].units >= 1

    def test_stock_is_largest_table(self):
        segments = {s.name: s for s in odb_segments()}
        others = [s.units for name, s in segments.items()
                  if s.per_warehouse and name != "stock"]
        assert segments["stock"].units > max(others)

    def test_tiny_tables_get_one_unit(self):
        segments = {s.name: s for s in odb_segments()}
        assert segments["warehouse"].units == 1
        assert segments["district"].units == 1

    def test_finer_units_give_more_units(self):
        coarse = sum(s.units for s in odb_segments(64 * 1024))
        fine = sum(s.units for s in odb_segments(8 * 1024))
        assert fine > 6 * coarse

    def test_unit_bytes_validated(self):
        with pytest.raises(ValueError):
            odb_segments(0)


def odb_space(warehouses, unit_bytes=64 * 1024):
    """The ODB block space, as a run builds it for the ODB layout."""
    return BlockSpace(warehouses, odb_segments(unit_bytes), unit_bytes)


class TestOdbSchema:
    def test_data_bytes_scale_linearly(self):
        def data_bytes(warehouses):
            space = odb_space(warehouses)
            return total_units(space) * space.unit_bytes

        assert data_bytes(100) > 9 * data_bytes(10)

    def test_block_space_round_trip(self):
        space = odb_space(warehouses=3)
        assert space.warehouses == 3
        block = space.block_id("stock", 2, 0)
        assert owner_of(space, block)[0] == "stock"

    def test_working_set_grows_linearly_with_warehouses(self):
        w10 = total_units(odb_space(10))
        w100 = total_units(odb_space(100))
        # Linear growth modulo the fixed global item segment.
        assert w100 > 9 * w10 * 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            odb_space(warehouses=0)
