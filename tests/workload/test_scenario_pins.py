"""Pinned results of the shipped non-default scenarios.

The goldens and the dispatch digests pin ``odb-standard`` runs end to
end; these pins cover what they do not: fixed and uniform touches and
a custom layout (``banking``), a flat custom store (``key-value``), a
phase schedule on the ODB layout (``order-entry-burst``) and on a
custom layout (``social-feed``), and transient aborts plus a lock
storm under a phased mix, whose abort weights are normalized per phase.

Each phased point runs past its first phase boundary: at W=20, P=2 the
``order-entry-burst`` rounds end near 0.75 s and 0.69 s of simulated
time (first phase 0.5 s), and ``social-feed`` with 2,400 measured
transactions near 0.92 s and 0.90 s (first phase 0.6 s).  A change to
the workload model that shifts one draw or one float changes a
checksum here.
"""

import dataclasses

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.records import payload_checksum
from repro.experiments.runner import run_configuration
from repro.faults import FaultPlan, LockStorm, TransientAborts
from repro.workload import workload_by_name

#: ``social-feed`` needs more transactions than ``FAST_SETTINGS`` run to
#: leave its 0.6 s first phase.
_LONGER = dataclasses.replace(FAST_SETTINGS, measure_txns=2400)

_FAULTS = FaultPlan(seed=7, aborts=TransientAborts(0.05),
                    lock_storms=(LockStorm(start_s=0.1, duration_s=0.6),))


@pytest.mark.parametrize("workload, settings, faults, checksum", [
    ("banking", FAST_SETTINGS, None, "90d4a4cf556b2292"),
    ("key-value", FAST_SETTINGS, None, "95ed455e76596aa7"),
    ("order-entry-burst", FAST_SETTINGS, None, "e2ad45b59888562b"),
    ("social-feed", _LONGER, None, "f0ed17fced659dfb"),
    ("order-entry-burst", FAST_SETTINGS, _FAULTS, "8f024c74bf68d63d"),
], ids=["banking", "key-value", "order-entry-burst", "social-feed",
        "order-entry-burst-faulted"])
def test_scenario_point_is_pinned(workload, settings, faults, checksum):
    result = run_configuration(20, 2, settings=settings, use_cache=False,
                               faults=faults,
                               workload=workload_by_name(workload))
    assert payload_checksum(result.to_dict()) == checksum
