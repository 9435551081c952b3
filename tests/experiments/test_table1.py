"""Table 1's lockstep saturation search against the per-cell search.

``exp_table1.run`` advances every (P, W) cell's search in lockstep, one
``run_many`` call per round.  Each cell must come out exactly as a
sequential ``clients_for_utilization`` over ``run_configuration`` finds
it: same client count, same utilization, same number of evaluations.
"""

import pytest

from repro.core.saturation import clients_for_utilization
from repro.experiments import exp_table1
from repro.experiments.configs import FAST_SETTINGS
from repro.experiments import runner
from repro.experiments.runner import run_configuration

PROCESSORS = (1, 2)
WAREHOUSES = (10, 50)
#: Small enough that one cell (2P, 10W) cannot reach 90%: both search
#: outcomes, and cells that finish in different rounds.
MAX_CLIENTS = 6


@pytest.fixture(scope="module")
def sequential():
    def search(w, p):
        return clients_for_utilization(
            lambda c: run_configuration(
                w, p, clients=c, settings=FAST_SETTINGS,
                use_cache=False).system.cpu_utilization,
            maximum=MAX_CLIENTS)

    return {(p, w): search(w, p) for p in PROCESSORS for w in WAREHOUSES}


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An empty default cache here and in pool workers, so every probe
    is computed rather than loaded."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # None re-derives the default cache lazily under the environment.
    monkeypatch.setattr(runner, "_CACHE", None)


@pytest.mark.parametrize("where", ["in-process", "pool"])
def test_lockstep_cells_match_sequential_search(where, sequential,
                                                fresh_cache, monkeypatch):
    if where == "in-process":
        monkeypatch.setenv("REPRO_SERIAL", "1")
    result = exp_table1.run(settings=FAST_SETTINGS, warehouses=WAREHOUSES,
                            processors=PROCESSORS, max_clients=MAX_CLIENTS,
                            jobs=2)
    assert result.entries == sequential
    assert list(result.entries) == list(sequential)
    assert {cell.reached_target for cell in sequential.values()} == {
        True, False}
