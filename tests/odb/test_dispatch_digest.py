"""The DES dispatch stream, pinned event by event.

Every dispatched event is recorded as ``(now.hex(), priority,
sequence)``: its exact time, its priority and its scheduling order.
The digests below pin that stream for a healthy W=100 P=4 system and
for a faulted one (transient aborts, a disk outage, a log stall), so a
change that makes the DES cheaper per event must leave every event —
when it fires, in what order, and how many there are — untouched.
The fault paths matter here because the benchmark ledger never runs
them.

To regenerate after a deliberate model change, print
``_dispatch_digest(...)`` for both systems and replace the pins.
"""

import hashlib

from repro.faults import DiskDegradation, FaultPlan, LogStall, TransientAborts
from repro.odb import OdbConfig, OdbSystem
from repro.sim.engine import NORMAL, Engine, Event

#: Outage and stall windows fall inside the ~0.4 s the faulted run lasts.
FAULTS = FaultPlan(
    seed=7,
    aborts=TransientAborts(0.05),
    disks=(DiskDegradation(disk=-1, latency_factor=1.5,
                           outages=((0.05, 0.08),)),),
    log_stalls=(LogStall(windows=((0.10, 0.13),)),),
)

HEALTHY_DIGEST = (
    12406,
    "8ed1a3b0f4dbb0abfcf6c3360a4197eb9a8a299243f3614fe8186fc356d95ec0")
FAULTED_DIGEST = (
    12857,
    "8df2de7867e11fd3afa2a6b21a5b1145a2a26eed4004d4950f34a4836d6a6781")


def _dispatch_digest(monkeypatch, faults):
    keys = {}
    stream = []
    schedule = Engine._schedule
    process = Event._process

    def scheduling(engine, event, delay, priority=NORMAL):
        schedule(engine, event, delay, priority)
        keys[event] = (priority, engine._sequence)

    def recording(event):
        priority, sequence = keys.pop(event)
        stream.append(f"{event.engine.now.hex()} {priority} {sequence}")
        process(event)

    monkeypatch.setattr(Engine, "_schedule", scheduling)
    monkeypatch.setattr(Event, "_process", recording)
    system = OdbSystem(OdbConfig(warehouses=100, clients=21, processors=4,
                                 faults=faults))
    system.run(warmup_txns=50, measure_txns=250, prewarm_plans=1000)
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    return len(stream), digest


def test_healthy_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, None) == HEALTHY_DIGEST


def test_faulted_dispatch_stream_is_pinned(monkeypatch):
    assert _dispatch_digest(monkeypatch, FAULTS) == FAULTED_DIGEST
