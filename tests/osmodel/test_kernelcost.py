"""Tests for the kernel path-length model."""

import pytest

from repro.osmodel.kernelcost import KernelCosts


class TestKernelCosts:
    def test_defaults_positive(self):
        costs = KernelCosts()
        assert costs.context_switch > 0
        assert costs.io_submit > 0
        assert costs.io_complete > 0
        assert costs.base_per_txn > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            KernelCosts(context_switch=-1)
