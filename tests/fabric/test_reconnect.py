"""Network-chaos tests on stdio workers: a slow link (latency) must not
expire leases, and an asymmetric partition (the lease is dropped while
heartbeats keep flowing) must be recovered by the driver's lease
deadline — and every sweep stays bit-identical to serial."""

import dataclasses
import json

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import RunSpec, SupervisorPolicy
from repro.experiments.runner import sweep
from repro.fabric import (
    FabricChaosPolicy,
    FabricCoordinator,
    FabricPolicy,
    fabric_run_many,
)

GRID = (10, 25)
PROCESSORS = 1

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)


def canonical(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(scope="module")
def serial_reference():
    return canonical(sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           use_cache=False))


def make_specs():
    return [RunSpec(warehouses=w, processors=PROCESSORS,
                    settings=FAST_SETTINGS) for w in GRID]


def make_coordinator(workers=2, chaos=None, **fabric):
    fabric.setdefault("heartbeat_s", 0.1)
    fabric.setdefault("heartbeat_timeout_s", 1.5)
    return FabricCoordinator(
        chaos=chaos, fabric=FabricPolicy(workers=workers, **fabric))


class TestNetworkChaos:
    def test_latency_injection_converges(self, serial_reference):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=4, latency=1.0, latency_s=0.2,
                                  attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(chaos=chaos)
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference

    def test_asymmetric_partition_expires_lease(self, serial_reference):
        """Partition chaos drops the lease while heartbeats keep
        flowing: only the lease timeout can recover the point."""
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=7, partition=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(chaos=chaos)
        results = fabric_run_many(
            specs, policy=dataclasses.replace(FAST_POLICY,
                                              point_timeout_s=0.5),
            use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "lease-expired" in kinds
        assert "worker-unresponsive" not in kinds
