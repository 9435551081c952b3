"""The DES dispatch stream, pinned resume by resume.

Every process resume is recorded as ``(now.hex(), process, scheduled)``:
its exact time, the ordinal of the process it wakes, and how many
events the engine had scheduled when it woke.  The digests below pin
that stream, with the engine's final scheduled and dispatched counts,
for a healthy W=100 P=4 system, for a faulted one (transient
aborts, a disk outage, a log stall) and for a contended W=10 one under
a lock storm (the storm's ``acquire_many`` and the clients' lock
waits), so a change that makes the DES cheaper per event must leave
every wake-up — when it happens, in what order, and how many events
lie between two of them — untouched.  The fault paths matter here
because the benchmark ledger never runs them.

To regenerate after a deliberate model change, print
``_dispatch_digest(...)`` for each system and replace the pins.
"""

import hashlib

from repro.faults import (DiskDegradation, FaultPlan, LockStorm, LogStall,
                          TransientAborts)
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

#: Bursts of three warehouses' hot rows over the 10-warehouse database,
#: inside the ~0.4 s the storm run lasts.
STORM = FaultPlan(
    seed=11,
    aborts=TransientAborts(0.05),
    lock_storms=(LockStorm(start_s=0.02, duration_s=0.3,
                           warehouses_per_burst=3, hold_s=0.01,
                           interval_s=0.01),),
)

HEALTHY_DIGEST = (
    12025, 12426, 12406,
    "ae4de964f59850e5f1b07021dd9746eca55159e271d708a76927de0fe2c53141")
FAULTED_DIGEST = (
    12484, 12874, 12857,
    "fd85dc943877cc6229d1e8c95a67a68a5c4e3bc721a42c33de3ee58ee0a26f39")


STORM_DIGEST = (
    7560, 7567, 7560,
    "a5532185ab51419946ce04b7035fec9e7387d702df3d06c42f33bff153564a44")


def _dispatch_digest(monkeypatch, faults, warehouses=100, clients=21):
    """The digest, and the run's :class:`SystemMetrics`."""
    stream = []

    def recording(engine, ordinal):
        scheduled = engine.queue_stats()["scheduled"]
        stream.append(f"{engine.now.hex()} {ordinal} {scheduled}")

    record_resumes(monkeypatch, recording)
    system = OdbSystem(OdbConfig(warehouses=warehouses, clients=clients,
                                 processors=4, faults=faults))
    metrics = system.run(warmup_txns=50, measure_txns=250,
                         prewarm_plans=1000)
    stats = system.engine.queue_stats()
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    return (len(stream), stats["scheduled"], stats["dispatched"],
            digest), metrics


def test_healthy_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, None)[0] == HEALTHY_DIGEST


def test_faulted_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, FAULTS)[0] == FAULTED_DIGEST


def test_storm_dispatch_stream_is_pinned(monkeypatch):
    digest, metrics = _dispatch_digest(monkeypatch, STORM, warehouses=10,
                                       clients=16)
    # A run whose clients never wait on a lock would not pin the lock
    # table's queue.
    assert metrics.lock_waits_per_txn > 0
    assert digest == STORM_DIGEST
