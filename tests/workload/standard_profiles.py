"""The paper's ODB mix written out by hand as runtime profiles.

The oracle the compiled ``odb-standard`` spec
(:mod:`repro.workload.standard`) is compared against: the spec must
compile to profiles value-equal to these, which keeps the sampler's
plan caches, the RNG draw order and so every golden metric fixed.
"""

from repro.odb.transactions import TouchSpec, TransactionProfile

STANDARD_PROFILES: tuple[TransactionProfile, ...] = (
    TransactionProfile(
        name="new_order",
        weight=0.45,
        user_instructions=1.45e6,
        touches=(
            TouchSpec("district", 1, write_prob=1.0),
            TouchSpec("item", 3, skew=0.8),
            TouchSpec("stock", 9, write_prob=0.9, skew=0.55),
            TouchSpec("customer", 1, skew=0.7),
            TouchSpec("orders", 2, write_prob=1.0, append_hot=True),
            TouchSpec("order_line", 2, write_prob=1.0, append_hot=True),
            TouchSpec("new_order", 1, write_prob=1.0, append_hot=True),
        ),
        locks_district_row=True,
        redo_bytes=7.5 * 1024,
    ),
    TransactionProfile(
        name="payment",
        weight=0.43,
        user_instructions=0.85e6,
        touches=(
            TouchSpec("warehouse", 1, write_prob=1.0),
            TouchSpec("district", 1, write_prob=1.0),
            TouchSpec("customer", 2, write_prob=0.5, skew=0.7),
            TouchSpec("history", 1, write_prob=1.0, append_hot=True),
        ),
        locks_warehouse_row=True,
        locks_district_row=True,
        redo_bytes=4.5 * 1024,
    ),
    TransactionProfile(
        name="order_status",
        weight=0.04,
        user_instructions=0.6e6,
        touches=(
            TouchSpec("customer", 2, skew=0.7),
            TouchSpec("orders", 2, append_hot=True),
            TouchSpec("order_line", 2, append_hot=True),
        ),
        redo_bytes=0.3 * 1024,
    ),
    TransactionProfile(
        name="delivery",
        weight=0.04,
        user_instructions=2.4e6,
        touches=(
            TouchSpec("new_order", 2, write_prob=1.0, append_hot=True),
            TouchSpec("orders", 6, write_prob=1.0, append_hot=True),
            TouchSpec("order_line", 4, write_prob=0.8, append_hot=True),
            TouchSpec("customer", 6, write_prob=1.0, skew=0.55),
        ),
        districts_touched=10,
        redo_bytes=9.0 * 1024,
    ),
    TransactionProfile(
        name="stock_level",
        weight=0.04,
        user_instructions=1.5e6,
        touches=(
            TouchSpec("district", 1),
            TouchSpec("order_line", 4, append_hot=True),
            TouchSpec("stock", 12, skew=0.55),
        ),
        redo_bytes=0.3 * 1024,
    ),
)
