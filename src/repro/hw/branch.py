"""Branch predictor model.

A bimodal predictor: a table of 2-bit saturating counters indexed by
branch PC.  The paper observes that the branch component of CPI is nearly
flat across workload scaling (Figure 12); in this model that emerges
because the branch working set (database code) does not change with the
number of warehouses — only context-switch-induced state loss perturbs
it, and only slightly.  The table and the prediction counters live in
the compiled walk kernel (:mod:`repro.hw.cwalk`); every counter starts
weakly taken.
"""

from __future__ import annotations

from repro.hw.cwalk import ffi, lib


class BimodalPredictor:
    """A table of 2-bit saturating counters indexed by PC (unsigned)."""

    def __init__(self, table_size: int = 4096):
        if table_size <= 0:
            raise ValueError("predictor table size must be positive")
        self.table_size = table_size
        self._states = ffi.new("uint8_t[]", table_size)
        self._c = ffi.new("predictor_t *",
                          {"table": self._states, "size": table_size})
        lib.predictor_flush(self._c)
