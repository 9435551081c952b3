"""The size and the inverse of the block address map, for tests.

:func:`total_units` counts the block ids of a
:class:`~repro.db.blocks.BlockSpace`, and :func:`owner_of` maps one back
to its segment, warehouse and index, so tests can check which segment a
transaction touched.
"""


def total_units(space) -> int:
    """Block ids in the space: the global units, then every warehouse's."""
    return space.global_units + space.warehouses * space.units_per_warehouse


def owner_of(space, block_id: int) -> tuple[str, int, int]:
    """Inverse of :meth:`BlockSpace.block_id`: ``(segment_name,
    warehouse, index)``.

    Global segments report warehouse ``-1``.
    """
    if not 0 <= block_id < total_units(space):
        raise ValueError(f"block id {block_id} out of range")
    if block_id < space.global_units:
        for segment in space._global_segments:
            offset = space._global_offsets[segment.name]
            if offset <= block_id < offset + segment.units:
                return segment.name, -1, block_id - offset
    relative = block_id - space.global_units
    warehouse, within = divmod(relative, space.units_per_warehouse)
    for segment in space._wh_segments:
        offset = space._wh_offsets[segment.name]
        if offset <= within < offset + segment.units:
            return segment.name, warehouse, within - offset
    raise AssertionError("unreachable: dense layout covers all ids")
