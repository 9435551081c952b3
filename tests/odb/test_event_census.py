"""The DES event census: ``engine.events.<kind>`` at the phase boundary."""

from repro.obs.metrics import disable_metrics, enable_metrics
from repro.odb import OdbConfig, OdbSystem
from repro.osmodel import disks, scheduler
from repro.sim.resources import Resource

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
    # queue saw: one scheduled Request per granted CPU claim.  A request
    # is scheduled exactly when it is granted (its event succeeds), so
    # the requests a counting Resource hands out that end up triggered
    # are every scheduled one.
    claims = {"cpus": [], "disk": []}

    class CountedResource(Resource):
        __slots__ = ()

        def request(self):
            claim = super().request()
            claims["cpus" if self.name == "cpus" else "disk"].append(claim)
            return claim

    monkeypatch.setattr(scheduler, "Resource", CountedResource)
    monkeypatch.setattr(disks, "Resource", CountedResource)
    system = _anchor_system()
    system.run(warmup_txns=20, measure_txns=80)
    seen = {kind: sum(claim.triggered for claim in made)
            for kind, made in claims.items()}
    census = system.event_census()
    assert census["cpu_claim"] == seen["cpus"]
    assert census["disk"] - system.disks.timeouts == seen["disk"]
    assert census["cpu_burst"] + census["cpu_claim"] + census["disk"] \
        <= system.engine.queue_stats()["scheduled"]
