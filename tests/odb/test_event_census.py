"""The DES event census: ``engine.events.<kind>`` at the phase boundary."""

from repro.obs.metrics import disable_metrics, enable_metrics
from repro.odb import OdbConfig, OdbSystem
from repro.sim import Engine
from repro.sim.resources import Request

KINDS = ("cpu_burst", "cpu_claim", "disk", "other")


def _anchor_system():
    """A W=100 P=4 system with the Table 1 client count (the
    benchmark's ``anchor-w100`` point)."""
    return OdbSystem(OdbConfig(warehouses=100, clients=21, processors=4))


def test_census_kinds_sum_to_scheduled_with_the_roadmap_shares():
    registry = enable_metrics()
    try:
        _anchor_system().run(warmup_txns=50, measure_txns=250)
    finally:
        disable_metrics()
    counters = registry.counters
    scheduled = counters["scheduler.scheduled"]
    census = {kind: counters[f"engine.events.{kind}"] for kind in KINDS}
    assert all(count > 0 for count in census.values())
    assert sum(census.values()) == scheduled
    # About half the events are CPU bursts and about a fifth disk
    # service; CPU claims and the rest (process starts, locks, commit
    # gates, writer polls) share the remainder.
    assert 0.40 <= census["cpu_burst"] / scheduled <= 0.65
    assert 0.12 <= census["disk"] / scheduled <= 0.28
    assert 0.05 <= census["cpu_claim"] / scheduled <= 0.20


def test_census_claims_match_the_scheduled_cpu_requests(monkeypatch):
    # Counted where they are granted, the claims must equal what the
    # processes waited on: every CPU and disk claim is yielded by the
    # process that made it, the compiled operations' claims included
    # (their events pass up through the process's generator).  A
    # request is scheduled exactly when it is granted (its event
    # succeeds), so the claims waited on that end up triggered are
    # every scheduled one.
    waited = []
    start = Engine.process

    def watched(generator):
        value = None
        while True:
            try:
                target = generator.send(value)
            except StopIteration as stop:
                return stop.value
            waited.append(target)
            value = yield target

    monkeypatch.setattr(Engine, "process", lambda engine, generator: start(
        engine, watched(generator)))
    system = _anchor_system()
    system.run(warmup_txns=20, measure_txns=80)
    seen = {"cpus": 0, "disk": 0}
    for claim in waited:
        if isinstance(claim, Request) and claim.triggered:
            seen["cpus" if claim.resource.name == "cpus" else "disk"] += 1
    census = system.event_census()
    assert census["cpu_claim"] == seen["cpus"] > 0
    assert census["disk"] - system.disks.timeouts == seen["disk"] > 0
    assert census["cpu_burst"] + census["cpu_claim"] + census["disk"] \
        <= system.engine.queue_stats()["scheduled"]
