"""Coordinator state-machine tests over scripted in-process transports:
handshake, dedup, quarantine, lease expiry, and graceful degradation —
no subprocesses, so every failure mode is cheap and deterministic."""

import dataclasses
import json

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    RunSpec,
    SupervisorPolicy,
    SweepFailure,
    execute_point,
)
from repro.experiments.records import payload_checksum
from repro.fabric.coordinator import (
    FabricCoordinator,
    FabricPolicy,
    fabric_run_many,
)
from repro.fabric.protocol import PROTOCOL_VERSION, FrameError
from repro.fabric.transports import CHANNEL_CLOSED, WorkerTransport

GRID = (10, 25)

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.01)


def fast_fabric(**overrides):
    defaults = dict(workers=2, transport="stdio", heartbeat_s=0.05,
                    heartbeat_timeout_s=30.0, handshake_timeout_s=5.0)
    defaults.update(overrides)
    return FabricPolicy(**defaults)


@pytest.fixture(scope="module")
def specs():
    return [RunSpec(warehouses=w, processors=1, settings=FAST_SETTINGS)
            for w in GRID]


@pytest.fixture(scope="module")
def payloads(specs):
    """key -> serialized ConfigResult, computed once for the module."""
    return {spec.key(): execute_point(spec, None, False).result.to_dict()
            for spec in specs}


def canonical(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class FakeTransport(WorkerTransport):
    """A scripted worker: hello on connect, ``on_lease`` on each lease."""

    def __init__(self, name, payloads, protocol=PROTOCOL_VERSION):
        super().__init__(name)
        self.payloads = payloads
        self.sent = []
        self.dead = False
        self.push({"type": "hello", "worker_id": name,
                   "protocol": protocol, "host": "fake", "pid": 1})

    def start(self):
        """No reader thread: frames are pushed by the script."""

    def push(self, item):
        self._frames.put(item)

    def result_frame(self, lease, mutate=None):
        payload = self.payloads[lease["key"]]
        frame = {"type": "result", "lease_id": lease["lease_id"],
                 "key": lease["key"], "result": payload,
                 "checksum": payload_checksum(payload)}
        if mutate:
            mutate(frame)
        return frame

    def on_lease(self, lease):
        self.push(self.result_frame(lease))

    def send(self, message):
        if self.dead or self._closed:
            return False
        self.sent.append(message)
        if message.get("type") == "lease":
            self.on_lease(message)
        return True

    def alive(self):
        return not (self.dead or self._closed)

    def close(self, timeout_s=5.0):
        self._closed = True


def run_coordinator(transports, specs, policy=FAST_POLICY, fabric=None,
                    **kwargs):
    coordinator = FabricCoordinator(transports=transports,
                                    fabric=fabric or fast_fabric())
    results = fabric_run_many(specs, policy=policy, use_cache=False,
                              coordinator=coordinator, **kwargs)
    return coordinator, results


class TestHappyPath:
    def test_results_match_direct_execution(self, specs, payloads):
        transports = [FakeTransport(f"w{i}", payloads) for i in range(2)]
        coordinator, results = run_coordinator(transports, specs)
        expected = [json.dumps(payloads[s.key()], sort_keys=True)
                    for s in specs]
        assert canonical(results) == expected
        kinds = [e["event"] for e in coordinator.events]
        assert kinds.count("worker-ready") == 2
        assert kinds.count("lease-granted") == len(specs)
        health = coordinator.worker_health()
        assert sum(h.completed for h in health) == len(specs)
        # the coordinator drains the fleet on exit
        assert any(m["type"] == "shutdown" for t in transports
                   for m in t.sent)

    def test_on_result_fires_exactly_once_per_point(self, specs, payloads):
        seen = []
        transports = [FakeTransport("w0", payloads)]
        run_coordinator(transports, specs,
                        on_result=lambda spec, result: seen.append(
                            spec.key()))
        assert sorted(seen) == sorted(s.key() for s in specs)


class TestHandshake:
    def test_protocol_mismatch_is_rejected(self, specs, payloads):
        stale = FakeTransport("stale", payloads, protocol=99)
        good = FakeTransport("good", payloads)
        coordinator, results = run_coordinator([stale, good], specs)
        assert all(r is not None for r in results)
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-rejected" in kinds
        assert any(m["type"] == "reject" for m in stale.sent)
        by_name = {h.name: h for h in coordinator.worker_health()}
        assert by_name["stale"].state == "rejected"
        assert by_name["stale"].completed == 0
        assert by_name["good"].completed == len(specs)

    def test_handshake_timeout_loses_the_worker(self, specs, payloads):
        mute = FakeTransport("mute", payloads)
        mute.poll()  # swallow the hello: the worker never says anything
        fabric = fast_fabric(workers=1, handshake_timeout_s=0.05)
        coordinator, results = run_coordinator([mute], specs[:1],
                                               fabric=fabric)
        assert results[0] is not None
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-lost" in kinds
        assert "local-fallback" in kinds


class TestDeduplication:
    def test_duplicate_completion_is_dropped(self, specs, payloads):
        class Replayer(FakeTransport):
            def on_lease(self, lease):
                frame = self.result_frame(lease)
                self.push(frame)
                self.push(dict(frame))

        seen = []
        transports = [Replayer("w0", payloads)]
        coordinator, results = run_coordinator(
            transports, specs,
            on_result=lambda spec, result: seen.append(spec.key()))
        assert all(r is not None for r in results)
        assert sorted(seen) == sorted(s.key() for s in specs)
        kinds = [e["event"] for e in coordinator.events]
        assert kinds.count("duplicate-completion") == len(specs)
        assert coordinator.worker_health()[0].duplicates == len(specs)


class TestQuarantine:
    def test_malformed_frame_quarantines_worker_not_sweep(self, specs,
                                                          payloads):
        class Corruptor(FakeTransport):
            def on_lease(self, lease):
                self.push(FrameError("garbage on the wire"))

        bad = Corruptor("bad", payloads)
        good = FakeTransport("good", payloads)
        coordinator, results = run_coordinator([bad, good], specs)
        assert all(r is not None for r in results)
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-quarantined" in kinds
        by_name = {h.name: h for h in coordinator.worker_health()}
        assert by_name["bad"].state == "quarantined"
        assert by_name["good"].state == "ready"

    def test_checksum_mismatch_quarantines_worker(self, specs, payloads):
        class Liar(FakeTransport):
            def on_lease(self, lease):
                self.push(self.result_frame(
                    lease, mutate=lambda f: f.update(checksum="bogus")))

        bad = Liar("bad", payloads)
        good = FakeTransport("good", payloads)
        coordinator, results = run_coordinator([bad, good], specs)
        assert all(r is not None for r in results)
        by_name = {h.name: h for h in coordinator.worker_health()}
        assert by_name["bad"].state == "quarantined"
        assert by_name["bad"].completed == 0


class TestLeases:
    def test_silent_worker_exhausts_the_retry_budget(self, specs, payloads):
        class Silent(FakeTransport):
            def on_lease(self, lease):
                pass  # accept the lease, never answer

        policy = SupervisorPolicy(max_retries=1, base_backoff_s=0.005,
                                  max_backoff_s=0.01, tick_s=0.01,
                                  point_timeout_s=0.05)
        fabric = fast_fabric(workers=1)
        with pytest.raises(SweepFailure):
            run_coordinator([Silent("w0", payloads)], specs[:1],
                            policy=policy, fabric=fabric)

    def test_late_completion_after_expiry_is_accepted(self, specs,
                                                      payloads):
        class Laggard(FakeTransport):
            def on_lease(self, lease):
                # answer only re-leases (attempt > 0): the first lease
                # expires, the retry of the same point succeeds.
                if lease["attempt"] > 0:
                    self.push(self.result_frame(lease))

        fabric = fast_fabric(workers=1)
        coordinator, results = run_coordinator(
            [Laggard("w0", payloads)], specs[:1], fabric=fabric,
            policy=dataclasses.replace(FAST_POLICY, point_timeout_s=0.05))
        assert results[0] is not None
        kinds = [e["event"] for e in coordinator.events]
        assert "lease-expired" in kinds and "point-retry" in kinds


class TestDegradation:
    def test_all_workers_lost_falls_back_locally(self, specs, payloads):
        class DropDead(FakeTransport):
            def on_lease(self, lease):
                self.dead = True
                self.push(CHANNEL_CLOSED)

        transports = [DropDead(f"w{i}", payloads) for i in range(2)]
        coordinator, results = run_coordinator(transports, specs)
        expected = [json.dumps(payloads[s.key()], sort_keys=True)
                    for s in specs]
        assert canonical(results) == expected
        kinds = [e["event"] for e in coordinator.events]
        assert "local-fallback" in kinds
        assert kinds.count("worker-lost") == 2

    def test_permanently_dark_fleet_is_quarantined_then_fallback(
            self, specs, payloads):
        class Dark(FakeTransport):
            def on_lease(self, lease):
                pass  # holds the lease, never beats, never answers

        fabric = fast_fabric(workers=1, heartbeat_s=0.01,
                             heartbeat_timeout_s=0.03)
        coordinator, results = run_coordinator([Dark("w0", payloads)],
                                               specs[:1], fabric=fabric)
        assert results[0] is not None
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-unresponsive" in kinds
        assert "worker-quarantined" in kinds
        assert "local-fallback" in kinds

    def test_repro_serial_skips_spawning_entirely(self, specs, payloads,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        coordinator = FabricCoordinator(fabric=fast_fabric())
        results = fabric_run_many(specs[:1], policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        expected = [json.dumps(payloads[specs[0].key()], sort_keys=True)]
        assert canonical(results) == expected
        kinds = [e["event"] for e in coordinator.events]
        assert kinds[0] == "local-fallback"
        assert coordinator.worker_health() == []
