"""The DES dispatch stream, pinned resume by resume.

Every process resume is recorded as ``(now.hex(), process, scheduled)``:
its exact time, the ordinal of the process it wakes, and how many
events the engine had scheduled when it woke.  The digests below pin
that stream, with the engine's final scheduled and dispatched counts,
for a healthy W=100 P=4 system and for a faulted one (transient
aborts, a disk outage, a log stall), so a change that makes the DES
cheaper per event must leave every wake-up — when it happens, in what
order, and how many events lie between two of them — untouched.
The fault paths matter here because the benchmark ledger never runs
them.

To regenerate after a deliberate model change, print
``_dispatch_digest(...)`` for both systems and replace the pins.
"""

import hashlib

from repro.faults import DiskDegradation, FaultPlan, LogStall, TransientAborts
from repro.odb import OdbConfig, OdbSystem
from tests.sim.recording import record_resumes

#: Outage and stall windows fall inside the ~0.4 s the faulted run lasts.
FAULTS = FaultPlan(
    seed=7,
    aborts=TransientAborts(0.05),
    disks=(DiskDegradation(disk=-1, latency_factor=1.5,
                           outages=((0.05, 0.08),)),),
    log_stalls=(LogStall(windows=((0.10, 0.13),)),),
)

HEALTHY_DIGEST = (
    12025, 12426, 12406,
    "ae4de964f59850e5f1b07021dd9746eca55159e271d708a76927de0fe2c53141")
FAULTED_DIGEST = (
    12484, 12874, 12857,
    "fd85dc943877cc6229d1e8c95a67a68a5c4e3bc721a42c33de3ee58ee0a26f39")


def _dispatch_digest(monkeypatch, faults):
    stream = []

    def recording(engine, ordinal):
        scheduled = engine.queue_stats()["scheduled"]
        stream.append(f"{engine.now.hex()} {ordinal} {scheduled}")

    record_resumes(monkeypatch, recording)
    system = OdbSystem(OdbConfig(warehouses=100, clients=21, processors=4,
                                 faults=faults))
    system.run(warmup_txns=50, measure_txns=250, prewarm_plans=1000)
    stats = system.engine.queue_stats()
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    return len(stream), stats["scheduled"], stats["dispatched"], digest


def test_healthy_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, None) == HEALTHY_DIGEST


def test_faulted_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, FAULTS) == FAULTED_DIGEST
