"""Figure 2 — TPS vs warehouses and processors, with regions."""

from benchmarks.conftest import once
from repro.experiments import exp_fig02


def test_fig02(benchmark, save_report, xeon_sweep):
    # The grid points come from the session sweep; only the three
    # I/O-bound 1200W points run here.
    result = once(benchmark, lambda: exp_fig02.run(sweep=xeon_sweep))
    save_report("fig02_tps", exp_fig02.render(result))
    for p, records in result.by_processors.items():
        tps = [r.tps for r in records]
        # Peak in the cached region, then decline.
        assert max(tps) == max(tps[:3])
        assert tps[0] > 1.5 * tps[-1]
    # More processors -> more throughput at every point.
    for one, four in zip(result.by_processors[1], result.by_processors[4]):
        assert four.tps > 1.5 * one.tps
    # Region progression: cached at 10W, I/O bound at 1200W (4P).
    regions = result.regions(4)
    assert regions[10] == "cpu-bound"
    assert regions[1200] == "io-bound"
    assert "balanced" in regions.values()
