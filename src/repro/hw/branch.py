"""Branch predictor model.

A bimodal predictor: a table of 2-bit saturating counters indexed by
branch PC.  The paper observes that the branch component of CPI is nearly
flat across workload scaling (Figure 12); in this model that emerges
because the branch working set (database code) does not change with the
number of warehouses — only context-switch-induced state loss perturbs
it, and only slightly.  The table lives in the compiled walk kernel
(:mod:`repro.hw.cwalk`); every counter starts weakly taken.
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

    @property
    def predictions(self) -> int:
        """Branches predicted since the last reset_stats()."""
        return self._c.predictions

    @property
    def mispredictions(self) -> int:
        """Wrong predictions since the last reset_stats()."""
        return self._c.mispredictions

    @property
    def _table(self) -> list[int]:
        """A copy of the counter states (0 strongly not taken .. 3)."""
        return ffi.unpack(self._states, self.table_size)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``, train on the outcome; True if correct."""
        return bool(lib.predict(self._c, pc, taken))

    def flush(self) -> None:
        """Reset all counters to weakly taken (context-switch state loss)."""
        lib.predictor_flush(self._c)

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions / predictions (0 when never used)."""
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        """Zero the prediction counters (tables are kept)."""
        self._c.predictions = 0
        self._c.mispredictions = 0
