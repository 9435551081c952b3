"""Authenticated framing tests: HMAC frame signatures, the challenge
nonce handshake, secret resolution, and the end-to-end contract that an
unauthenticated or replayed frame rejects the worker (metric
incremented) without crashing the sweep."""

import json
import subprocess

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import sweep
from repro.experiments.parallel import SupervisorPolicy, run_sweep
from repro.fabric import (
    FabricChaosPolicy,
    FabricCoordinator,
    FabricPolicy,
    fabric_run_many,
)
from repro.fabric.protocol import (
    HEADER_BYTES,
    SECRET_ENV,
    FrameAuthError,
    FrameSigner,
    decode_frame,
    encode_frame,
    resolve_fabric_secret,
)
from repro.fabric.transports import (
    StdioTransport,
    worker_command,
    worker_environment,
)
from repro.obs import metrics as obs_metrics

GRID = (10, 25)
PROCESSORS = 1
SECRET = "tcp-fabric-test-secret"

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)

HEARTBEAT = {"type": "heartbeat", "worker_id": "w0"}


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


class TestFrameSigner:
    def test_signed_roundtrip(self):
        sender, receiver = FrameSigner(SECRET), FrameSigner(SECRET)
        frame = encode_frame(HEARTBEAT, signer=sender)
        assert decode_frame(frame[HEADER_BYTES:],
                            signer=receiver) == HEARTBEAT

    def test_sequence_advances_per_frame(self):
        sender, receiver = FrameSigner(SECRET), FrameSigner(SECRET)
        for expected in range(3):
            assert sender.send_seq == expected
            frame = encode_frame(HEARTBEAT, signer=sender)
            decode_frame(frame[HEADER_BYTES:], signer=receiver)
        assert receiver.recv_seq == 3

    def test_in_session_replay_rejected(self):
        sender, receiver = FrameSigner(SECRET), FrameSigner(SECRET)
        frame = encode_frame(HEARTBEAT, signer=sender)
        decode_frame(frame[HEADER_BYTES:], signer=receiver)
        with pytest.raises(FrameAuthError):
            decode_frame(frame[HEADER_BYTES:], signer=receiver)

    def test_cross_sweep_nonce_rejected(self):
        sender = FrameSigner(SECRET, nonce="sweep-A")
        receiver = FrameSigner(SECRET, nonce="sweep-B")
        frame = encode_frame(HEARTBEAT, signer=sender)
        with pytest.raises(FrameAuthError):
            decode_frame(frame[HEADER_BYTES:], signer=receiver)

    def test_wrong_secret_rejected(self):
        frame = encode_frame(HEARTBEAT, signer=FrameSigner("not-it"))
        with pytest.raises(FrameAuthError):
            decode_frame(frame[HEADER_BYTES:], signer=FrameSigner(SECRET))

    def test_unsigned_frame_on_signed_channel_rejected(self):
        frame = encode_frame(HEARTBEAT)
        with pytest.raises(FrameAuthError):
            decode_frame(frame[HEADER_BYTES:], signer=FrameSigner(SECRET))

    def test_unsigned_channels_stay_wire_compatible(self):
        frame = encode_frame(HEARTBEAT)
        assert decode_frame(frame[HEADER_BYTES:]) == HEARTBEAT


class TestSecretResolution:
    def test_file_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SECRET_ENV, "from-env")
        path = tmp_path / "secret.txt"
        path.write_text("  from-file\n")
        assert resolve_fabric_secret(path) == "from-file"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(SECRET_ENV, "from-env")
        assert resolve_fabric_secret() == "from-env"

    def test_no_secret_means_unsigned(self, monkeypatch):
        monkeypatch.delenv(SECRET_ENV, raising=False)
        assert resolve_fabric_secret() is None

    def test_empty_and_unreadable_files_raise_single_line(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("  \n")
        with pytest.raises(ValueError) as error:
            resolve_fabric_secret(empty)
        assert "\n" not in str(error.value)
        with pytest.raises(ValueError) as error:
            resolve_fabric_secret(tmp_path / "missing.txt")
        assert "\n" not in str(error.value)


class TestAuthenticatedSweeps:
    def test_signed_stdio_sweep_bit_identical(self, serial_reference):
        coordinator = FabricCoordinator(
            fabric=FabricPolicy(workers=2, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5, secret=SECRET))
        results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        assert all(h.state == "ready"
                   for h in coordinator.worker_health())

    def test_signed_tcp_sweep_bit_identical(self, serial_reference):
        coordinator = FabricCoordinator(
            fabric=FabricPolicy(workers=2, transport="tcp",
                                heartbeat_s=0.1, heartbeat_timeout_s=1.5,
                                secret=SECRET))
        results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        assert all(h.state == "ready"
                   for h in coordinator.worker_health())

    def test_unauthenticated_worker_rejected_sweep_completes(
            self, serial_reference, registry):
        """The acceptance scenario: a worker with no secret joins a
        signed fleet; its unsigned hello fails HMAC verification, the
        worker is rejected (fabric.auth.rejected incremented), and the
        sweep still completes bit-identical on the good worker."""
        unauth_process = subprocess.Popen(
            worker_command("unauth", heartbeat_s=0.1),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_environment())  # no secret: frames go unsigned
        unauth = StdioTransport("unauth", unauth_process,
                                signer=FrameSigner(SECRET))
        good = StdioTransport.launch("good", heartbeat_s=0.1,
                                     secret=SECRET)
        coordinator = FabricCoordinator(
            transports=[unauth, good],
            fabric=FabricPolicy(workers=2, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5, secret=SECRET))
        results = fabric_run_many(make_specs(), policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        by_name = {h.name: h for h in coordinator.worker_health()}
        assert by_name["unauth"].state == "rejected"
        assert by_name["good"].completed == len(GRID)
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-auth-rejected" in kinds
        assert registry.counters.get("fabric.auth.rejected", 0) >= 1

    def test_replayed_result_frame_rejected_without_losing_sweep(
            self, serial_reference, registry, tmp_path):
        """Replay chaos re-sends the identical signed result bytes: the
        second copy carries a stale sequence number, the sender is
        rejected, and the journal still holds every point exactly
        once."""
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, replay=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = FabricCoordinator(
            chaos=chaos,
            fabric=FabricPolicy(workers=2, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5, secret=SECRET))
        journal = tmp_path / "journal.jsonl"
        results = [point.result for point in run_sweep(
            GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
            journal=journal, executor=coordinator, policy=FAST_POLICY)]
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-auth-rejected" in kinds
        assert registry.counters.get("fabric.auth.rejected", 0) >= 1
        keys = [json.loads(line)["key"]
                for line in journal.read_text().splitlines()
                if line.strip()]
        assert sorted(keys) == sorted(s.key() for s in specs)

    def test_replay_without_secret_is_plain_duplicate(
            self, serial_reference):
        """On an unsigned channel the same chaos degrades to a
        duplicate completion: deduplicated, nobody rejected."""
        specs = make_specs()
        chaos = FabricChaosPolicy(seed=1, replay=1.0, attempts=1,
                                  targets=(specs[0].key(),))
        coordinator = FabricCoordinator(
            chaos=chaos,
            fabric=FabricPolicy(workers=1, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5))
        results = fabric_run_many(specs, policy=FAST_POLICY,
                                  use_cache=False, coordinator=coordinator)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in coordinator.events]
        assert "worker-auth-rejected" not in kinds
        assert kinds.count("duplicate-completion") == 1
