"""End-to-end fabric chaos tests with real worker subprocesses: SIGKILL
mid-point, heartbeat blackhole, corrupt frames, protocol skew, and total
fleet loss must all leave sweep results bit-identical to serial and the
journal exactly-once — the PR's acceptance contract."""

import json
import subprocess

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import RunSpec, SupervisorPolicy, run_sweep
from repro.experiments.runner import sweep
from repro.fabric import (
    FabricChaosPolicy,
    FabricCoordinator,
    FabricPolicy,
    fabric_run_many,
    fabric_run_telemetry,
)
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    encode_spec,
    read_frame,
    write_frame,
)
from repro.fabric.transports import (
    StdioTransport,
    worker_command,
    worker_environment,
)

GRID = (10, 25)
PROCESSORS = 1

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)


def canonical(results):
    """Byte-exact serialization, the determinism contract's currency."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(scope="module")
def serial_reference():
    return canonical(sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           use_cache=False))


def make_specs():
    return [RunSpec(warehouses=w, processors=PROCESSORS,
                    settings=FAST_SETTINGS) for w in GRID]


def make_coordinator(workers=3, chaos=None, **fabric):
    defaults = dict(workers=workers, heartbeat_s=0.1,
                    heartbeat_timeout_s=1.5)
    defaults.update(fabric)
    return FabricCoordinator(fabric=FabricPolicy(**defaults), chaos=chaos)


def journal_keys(path):
    """Config keys in journal append order (duplicates included)."""
    return [json.loads(line)["key"]
            for line in path.read_text().splitlines() if line.strip()]


def assert_fleet_reaped(coordinator):
    """Every spawned worker process must be exited and reaped."""
    for runtime in coordinator._workers:
        process = getattr(runtime.transport, "process", None)
        if process is not None:
            assert process.poll() is not None


class TestKillMidSweep:
    def test_sigkilled_worker_requeues_bit_identical_exactly_once(
            self, serial_reference, tmp_path):
        """The acceptance scenario: 3 stdio workers, one SIGKILLed on its
        first lease; the sweep completes bit-identical to serial and the
        re-leased point is journaled exactly once."""
        specs = make_specs()
        victim_key = specs[0].key()
        chaos = FabricChaosPolicy(seed=1, kill=1.0, attempts=1,
                                  targets=(victim_key,))
        coordinator = make_coordinator(workers=3, chaos=chaos)
        journal = tmp_path / "journal.jsonl"
        results = [point.result for point in run_sweep(
            GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
            journal=journal, executor=coordinator, policy=FAST_POLICY)]
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-lost" in kinds and "point-retry" in kinds
        keys = journal_keys(journal)
        assert sorted(keys) == sorted(s.key() for s in specs)
        assert keys.count(victim_key) == 1
        assert_fleet_reaped(coordinator)

    def test_lost_worker_is_visible_in_health(self, serial_reference):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, kill=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(workers=3, chaos=chaos)
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        states = [h.state for h in coordinator.worker_health()]
        assert states.count("lost") == 1
        assert sum(h.completed for h in coordinator.worker_health()
                   if h.state == "ready") == len(specs)


class TestBlackhole:
    def test_blackholed_worker_requeued_and_journal_exactly_once(
            self, serial_reference, tmp_path):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, blackhole=1.0, attempts=1,
                                  delay_s=2.0, targets=(specs[0].key(),))
        coordinator = make_coordinator(workers=2, chaos=chaos,
                                       heartbeat_s=0.1,
                                       heartbeat_timeout_s=0.5)
        journal = tmp_path / "journal.jsonl"
        results = [point.result for point in run_sweep(
            GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
            journal=journal, executor=coordinator, policy=FAST_POLICY)]
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-unresponsive" in kinds and "point-retry" in kinds
        # however the stale-completion race resolves, the journal holds
        # every point exactly once
        keys = journal_keys(journal)
        assert sorted(keys) == sorted(s.key() for s in specs)


class TestCorruptFrames:
    def test_corrupt_frame_quarantines_worker_not_sweep(
            self, serial_reference):
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, corrupt=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(workers=2, chaos=chaos)
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-quarantined" in kinds
        states = [h.state for h in coordinator.worker_health()]
        assert "quarantined" in states and "ready" in states
        assert_fleet_reaped(coordinator)


class TestDuplicateReplay:
    def test_replayed_completions_deduplicated_in_journal(
            self, serial_reference, tmp_path):
        # One worker, duplicate targeted at the first point only: the
        # replayed frame is always drained while the second point is
        # still running, so the dedup count is deterministic (a
        # duplicate of the *final* point can race the sweep's exit).
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, duplicate=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = make_coordinator(workers=1, chaos=chaos)
        journal = tmp_path / "journal.jsonl"
        results = [point.result for point in run_sweep(
            GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
            journal=journal, executor=coordinator, policy=FAST_POLICY)]
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert kinds.count("duplicate-completion") == 1
        keys = journal_keys(journal)
        assert sorted(keys) == sorted(s.key() for s in specs)


class TestTotalLoss:
    def test_whole_fleet_killed_degrades_to_local_supervisor(
            self, serial_reference):
        chaos = FabricChaosPolicy(seed=1, kill=1.0, attempts=1)
        coordinator = make_coordinator(workers=1, chaos=chaos)
        results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-lost" in kinds and "local-fallback" in kinds
        assert_fleet_reaped(coordinator)


class TestHandshakeSkew:
    def test_stale_protocol_worker_rejected_sweep_completes(
            self, serial_reference):
        stale = StdioTransport.launch("stale", heartbeat_s=0.1,
                                      protocol=99)
        good = StdioTransport.launch("good", heartbeat_s=0.1)
        coordinator = FabricCoordinator(
            transports=[stale, good],
            fabric=FabricPolicy(workers=2, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5))
        results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        by_name = {h.name: h for h in coordinator.worker_health()}
        assert by_name["stale"].state == "rejected"
        assert by_name["good"].completed == len(GRID)
        assert_fleet_reaped(coordinator)


class TestTelemetry:
    def test_points_and_manifests_carry_worker_identity(self):
        coordinator = make_coordinator(workers=2)
        points = fabric_run_telemetry(make_specs(), policy=FAST_POLICY,
                                      use_cache=False,
                                      coordinator=coordinator)
        workers = {p.worker for p in points}
        assert all(w.startswith("worker-") for w in workers)
        for point in points:
            assert point.manifest is not None
            assert point.manifest.worker_id == point.worker
            assert point.manifest.worker_host
            assert point.trace  # computed remotely, spans shipped back
        # the flame table keeps each worker's spans on its own track
        from repro.obs.sweep_report import SweepTelemetry

        aggregates = SweepTelemetry(points).phase_aggregates()
        assert {agg.worker for agg in aggregates} == workers


class TestOrphanedWorker:
    def test_worker_exits_when_its_coordinator_vanishes(self):
        # A worker stalled in a point (chaos ``hang`` for a minute) only
        # writes heartbeats; once the coordinator's pipe ends close, the
        # next heartbeat fails and the worker must exit at once, not
        # finish the point for no one.  The wait leaves room for a busy
        # runner's scheduling, yet stays far below the minute-long hang.
        heartbeat_s = 0.25
        chaos = FabricChaosPolicy(hang=1.0, delay_s=60.0)
        process = subprocess.Popen(
            worker_command("worker-orphan", heartbeat_s=heartbeat_s,
                           chaos_json=chaos.to_json()),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_environment())
        try:
            assert read_frame(process.stdout)["type"] == "hello"
            write_frame(process.stdin,
                        {"type": "welcome", "protocol": PROTOCOL_VERSION})
            write_frame(process.stdin, {
                "type": "lease", "lease_id": "lease-0", "key": "point-0",
                "attempt": 0, "spec": encode_spec(make_specs()[0]),
                "use_cache": False})
            # The worker is alive in the hang, beating.
            assert read_frame(process.stdout)["type"] == "heartbeat"
            process.stdin.close()
            process.stdout.close()
            assert process.wait(timeout=5.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
