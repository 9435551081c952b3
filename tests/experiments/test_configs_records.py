"""Tests for configuration grids, settings, and result records."""

import pytest

from repro.experiments.configs import (
    CLIENT_TABLE,
    FULL_WAREHOUSE_GRID,
    PROCESSOR_GRID,
    RunnerSettings,
    TABLE1_WAREHOUSES,
    client_count,
)
from repro.experiments.records import ConfigResult, ResultCache


class TestGrids:
    def test_full_grid_spans_paper_range(self):
        assert FULL_WAREHOUSE_GRID[0] == 10
        assert FULL_WAREHOUSE_GRID[-1] == 800
        assert list(FULL_WAREHOUSE_GRID) == sorted(FULL_WAREHOUSE_GRID)

    def test_table1_grid_subset(self):
        assert set(TABLE1_WAREHOUSES) <= set(FULL_WAREHOUSE_GRID)

    def test_processor_grid(self):
        assert PROCESSOR_GRID == (1, 2, 4)


class TestClientCount:
    def test_exact_table_entries(self):
        for (p, w), clients in CLIENT_TABLE.items():
            assert client_count(w, p) == clients

    def test_interpolation_between_entries(self):
        low = client_count(100, 4)
        mid = client_count(250, 4)
        high = client_count(500, 4)
        assert min(low, high) <= mid <= max(low, high)

    def test_clamped_at_extremes(self):
        assert client_count(5, 4) == CLIENT_TABLE[(4, 10)]
        assert client_count(5000, 4) == CLIENT_TABLE[(4, 800)]

    def test_more_processors_more_clients_at_scale(self):
        assert client_count(800, 4) > client_count(800, 2) > client_count(800, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            client_count(100, 3)
        with pytest.raises(ValueError):
            client_count(0, 4)


class TestRunnerSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunnerSettings(measure_txns=-1)
        with pytest.raises(ValueError):
            RunnerSettings(fixed_point_rounds=0)


class TestResultCache:
    def make_result(self):
        from repro.experiments.configs import FAST_SETTINGS
        from repro.experiments.runner import run_configuration

        return run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                                 use_cache=False)

    def test_roundtrip_serialization(self):
        result = self.make_result()
        assert ConfigResult.from_dict(result.to_dict()) == result

    def test_store_and_load(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        result = self.make_result()
        key = ResultCache.key_for(result.machine, result.warehouses,
                                  result.clients, result.processors, "abc")
        assert cache.load(key) is None
        cache.store(key, result)
        assert cache.load(key) == result

    def test_corrupt_entry_regenerates(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        (tmp_path / "bad.json").write_text("{nope")
        assert cache.load("bad") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        result = self.make_result()
        cache.store("k1", result)
        cache.store("k2", result)
        assert cache.clear() == 2
        assert cache.load("k1") is None

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.store("k1", self.make_result())
        # What a store killed between its write and its replace leaves.
        orphan = tmp_path / ".k2.json.4242.tmp"
        orphan.write_text("{")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_disabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(directory=tmp_path)
        cache.store("k", self.make_result())
        assert cache.load("k") is None

    def test_effective_cpi_weighting(self):
        result = self.make_result()
        system = result.system
        expected = (system.user_ipx * result.cpi.user_cpi
                    + system.os_ipx * result.cpi.os_cpi) / system.ipx
        assert result.effective_cpi == pytest.approx(expected)
