"""Tests for the block address space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.blocks import BlockSpace, Segment

from tests.db.reference_blocks import owner_of, total_units


def make(warehouses=3):
    segments = [
        Segment("item", 4, per_warehouse=False),
        Segment("warehouse", 1),
        Segment("stock", 10),
    ]
    return BlockSpace(warehouses, segments, unit_bytes=1024)


class TestLayout:
    def test_total_units(self):
        space = make(warehouses=3)
        assert space.global_units == 4
        assert space.units_per_warehouse == 11
        assert total_units(space) == 4 + 3 * 11

    def test_total_bytes(self):
        space = make(warehouses=1)
        assert total_units(space) * space.unit_bytes == (4 + 11) * 1024

    def test_global_segment_ignores_warehouse(self):
        space = make()
        assert space.block_id("item", 0, 2) == space.block_id("item", 2, 2)

    def test_warehouse_data_is_contiguous(self):
        space = make(warehouses=2)
        w0 = [space.block_id("warehouse", 0, 0)] + \
             [space.block_id("stock", 0, i) for i in range(10)]
        assert w0 == list(range(min(w0), min(w0) + 11))

    def test_ids_are_dense_and_unique(self):
        space = make(warehouses=2)
        ids = set()
        for index in range(4):
            ids.add(space.block_id("item", 0, index))
        for warehouse in range(2):
            ids.add(space.block_id("warehouse", warehouse, 0))
            for index in range(10):
                ids.add(space.block_id("stock", warehouse, index))
        assert ids == set(range(total_units(space)))


class TestValidation:
    def test_duplicate_segment_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            BlockSpace(1, [Segment("a", 1), Segment("a", 2)])

    def test_empty_segments(self):
        with pytest.raises(ValueError):
            BlockSpace(1, [])

    def test_nonpositive_warehouses(self):
        with pytest.raises(ValueError):
            BlockSpace(0, [Segment("a", 1)])

    def test_segment_units_positive(self):
        with pytest.raises(ValueError):
            Segment("bad", 0)

    def test_unknown_segment(self):
        with pytest.raises(KeyError, match="known"):
            make().block_id("nope", 0, 0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            make().block_id("stock", 0, 10)

    def test_warehouse_out_of_range(self):
        with pytest.raises(ValueError):
            make(2).block_id("stock", 2, 0)


class TestInverse:
    def test_owner_of_global(self):
        space = make()
        assert owner_of(space, space.block_id("item", 0, 3)) == ("item", -1, 3)

    def test_owner_of_warehouse_unit(self):
        space = make()
        block = space.block_id("stock", 2, 7)
        assert owner_of(space, block) == ("stock", 2, 7)

    def test_owner_of_out_of_range(self):
        with pytest.raises(ValueError):
            owner_of(make(), 10_000)

    @given(st.integers(min_value=1, max_value=5),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, warehouses, data):
        space = make(warehouses)
        block = data.draw(st.integers(0, total_units(space) - 1))
        segment, warehouse, index = owner_of(space, block)
        lookup_wh = max(warehouse, 0)
        assert space.block_id(segment, lookup_wh, index) == block
