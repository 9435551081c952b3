"""Reconnect and network-chaos tests: lost channels rejoin with lease
re-validation, half-open sockets and slow-loris peers hit the read
deadline, partitions expire leases — and every sweep stays bit-identical
to serial."""

import dataclasses
import json
import threading

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import RunSpec, SupervisorPolicy
from repro.experiments.runner import sweep
from repro.fabric import (
    FabricChaosPolicy,
    FabricCoordinator,
    FabricPolicy,
    fabric_run_many,
    run_with_reconnect,
)
from repro.obs import metrics as obs_metrics

GRID = (10, 25)
PROCESSORS = 1
SECRET = "reconnect-test-secret"

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)
WORKER_BACKOFF = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
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


@pytest.fixture
def registry():
    registry = obs_metrics.enable_metrics()
    yield registry
    obs_metrics.disable_metrics()


def make_coordinator(workers=2, transport="stdio", chaos=None, **fabric):
    fabric.setdefault("heartbeat_s", 0.1)
    fabric.setdefault("heartbeat_timeout_s", 1.5)
    return FabricCoordinator(
        chaos=chaos,
        fabric=FabricPolicy(workers=workers, transport=transport, **fabric))


def run_bind_sweep(chaos, serial_reference, workers=1, secret=None,
                   max_reconnects=5, final_codes=(0,)):
    """Bind-mode coordinator plus an in-thread external worker driven by
    ``run_with_reconnect`` — the same supervisor loop behind ``repro
    fabric-worker --connect``, without a subprocess."""
    coordinator = make_coordinator(workers=workers, transport="tcp",
                                   bind="127.0.0.1:0", accept_grace_s=10.0,
                                   secret=secret)
    host, port = coordinator.listen().address
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(run_with_reconnect(
            f"{host}:{port}", "roamer", heartbeat_s=0.1, chaos=chaos,
            secret=secret, max_reconnects=max_reconnects,
            policy=WORKER_BACKOFF)),
        daemon=True)
    thread.start()
    results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                              use_cache=False, coordinator=coordinator)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert canonical(results) == serial_reference
    assert len(codes) == 1 and codes[0] in final_codes
    return coordinator


class TestReconnect:
    def test_disconnect_chaos_rejoins_and_converges(
            self, serial_reference, registry):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, disconnect=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = run_bind_sweep(chaos, serial_reference)
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-accepted" in kinds
        assert "worker-reconnected" in kinds
        assert registry.counters.get("fabric.reconnect.attempts", 0) >= 1
        # reconnects surfaced in health for the report's worker section
        assert sum(h.reconnects
                   for h in coordinator.worker_health()) >= 1

    def test_reconnect_with_auth_keeps_session_token(
            self, serial_reference):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, disconnect=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = run_bind_sweep(chaos, serial_reference,
                                     secret=SECRET)
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-reconnected" in kinds
        assert "worker-auth-rejected" not in kinds

    def test_disconnect_every_point_still_converges(
            self, serial_reference, registry):
        """Every point targeted: every result send is followed by a
        dropped channel, so the sweep only converges through repeated
        rejoin-and-revalidate cycles."""
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=2, disconnect=1.0, attempts=1,
                                  targets=tuple(s.key() for s in specs))
        # The final disconnect follows the final result, so the
        # coordinator may finish before the worker rejoins: a clean
        # shutdown (0) and giving-up-after-the-sweep (5) are both fine.
        coordinator = run_bind_sweep(chaos, serial_reference,
                                     final_codes=(0, 5))
        kinds = [e["event"] for e in coordinator.events]
        assert kinds.count("worker-reconnected") >= 1
        assert registry.counters.get("fabric.reconnect.attempts", 0) >= 1


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

    def test_halfopen_socket_detected_by_heartbeat_timeout(
            self, serial_reference):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=5, halfopen=1.0, attempts=1,
                                  delay_s=0.3,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(chaos=chaos,
                                       heartbeat_timeout_s=0.6)
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert ("worker-unresponsive" in kinds
                or "worker-lost" in kinds)

    def test_sloworis_partial_frame_hits_read_deadline(
            self, serial_reference):
        """A worker that starts a frame and stalls is quarantined by the
        TCP read deadline instead of wedging the reader thread."""
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=6, sloworis=1.0, attempts=1,
                                  delay_s=5.0,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(transport="tcp", chaos=chaos,
                                       read_deadline_s=0.4)
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert ("worker-quarantined" in kinds or "worker-lost" in kinds
                or "worker-unresponsive" in kinds)

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
