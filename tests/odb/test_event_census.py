"""The DES event census: ``engine.events.<kind>`` at the phase boundary."""

from repro.obs.metrics import disable_metrics, enable_metrics
from repro.odb import OdbConfig, OdbSystem
from repro.sim import resources
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
    # Counted where they are created, the claims must equal what the
    # queue saw: one scheduled Request per granted CPU claim.
    # A request is scheduled exactly when it is granted (``succeed``),
    # so a counting Request subclass sees every scheduled one.
    system = _anchor_system()
    cpus = system.scheduler.cpus
    seen = {"cpu": 0, "disk": 0}

    class CountedRequest(Request):
        __slots__ = ()

        def succeed(self, *args, **kwargs):
            seen["cpu" if self.resource is cpus else "disk"] += 1
            return super().succeed(*args, **kwargs)

    monkeypatch.setattr(resources, "Request", CountedRequest)
    system.run(warmup_txns=20, measure_txns=80)
    census = system.event_census()
    assert census["cpu_claim"] == seen["cpu"]
    assert census["disk"] - system.disks.timeouts == seen["disk"]
    assert census["cpu_burst"] + census["cpu_claim"] + census["disk"] \
        <= system.engine.queue_stats()["scheduled"]
