"""The utilization law on the golden grid, at the CPIs the DES ran under.

U = X·D/P: the CPUs' measured utilization U is the throughput X times
the CPU demand per transaction D, shared over the P processors, with
D = (user_ipx·user_cpi + os_ipx·os_cpi)/F (Lazowska et al., 1984,
ch. 3; the paper's iron law is the same identity per instruction).  The
CPIs are the ones the final round's DES ran under: the previous
round's, which the manifest's ``round_deltas`` holds.  With two rounds
that is the first iterate, which the convergence guard admits
unchanged.

The law checks the compiled accounting from the outside.  U is the CPU
resource's busy time; D comes from the instruction counters.  A burst
that books its instructions without holding the CPU for them (or holds
it without booking) moves D and leaves U where it is.  Measured
relative residuals at these settings: 1.4e-4 (W=10), 6.6e-5 (W=100)
and 6.4e-5 (W=800) at P=4, 4e-14 at P=1; the P=4 residual is most
likely bursts that straddle the window's edges (not confirmed here).
The tolerance is 1e-3.
"""

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.runner import run_with_manifest
from repro.hw.machine import XEON_MP_QUAD

POINTS = [(10, 4), (100, 4), (800, 4), (100, 1)]
TOLERANCE = 1e-3


@pytest.mark.parametrize("warehouses,processors", POINTS)
def test_utilization_law_holds_at_the_cpis_the_des_ran_under(
        warehouses, processors):
    assert FAST_SETTINGS.fixed_point_rounds == 2
    result, manifest = run_with_manifest(warehouses, processors,
                                         settings=FAST_SETTINGS,
                                         use_cache=False)
    ran_under = manifest.round_deltas[-2]
    system = result.system
    demand = (system.user_ipx * ran_under["user_cpi"]
              + system.os_ipx * ran_under["os_cpi"]) \
        / XEON_MP_QUAD.frequency_hz
    law = system.tps * demand / processors
    assert abs(system.cpu_utilization - law) \
        <= TOLERANCE * system.cpu_utilization
