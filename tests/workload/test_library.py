"""The shipped scenario library and name/path resolution."""

import json

import pytest

from repro.workload import (
    DEFAULT_WORKLOAD,
    WorkloadSpecError,
    available_workloads,
    resolve_workload,
    scenario_paths,
    scenario_sources,
    workload_by_name,
)

EXPECTED = ("banking", "key-value", "odb-standard",
            "order-entry-burst", "social-feed")


def test_library_ships_the_expected_scenarios():
    assert tuple(sorted(available_workloads())) == EXPECTED


def test_default_workload_is_shipped():
    assert DEFAULT_WORKLOAD in available_workloads()


def test_every_scenario_has_a_description():
    for name, spec in available_workloads().items():
        assert spec.description.strip(), f"{name} needs a description"


def test_scenario_file_stems_match_spec_names():
    """Every scenario but the Python default is a file named for it."""
    stems = sorted(path.stem for path in scenario_paths())
    assert tuple(stems) == tuple(n for n in EXPECTED if n != "odb-standard")
    for path in scenario_paths():
        assert available_workloads()[path.stem].name == path.stem
    assert tuple(scenario_sources()) == EXPECTED


def test_unknown_name_lists_known_scenarios():
    with pytest.raises(WorkloadSpecError) as excinfo:
        workload_by_name("tpc-z")
    message = str(excinfo.value)
    assert "tpc-z" in message
    for name in EXPECTED:
        assert name in message


def test_resolve_by_name_and_by_path(tmp_path):
    by_name = resolve_workload("banking")
    assert by_name == workload_by_name("banking")
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "name": "custom",
        "transactions": [
            {"name": "t", "weight": 1.0, "user_instructions": 1000.0,
             "touches": [{"segment": "stock", "count": 1}]}],
    }))
    assert resolve_workload(str(path)).name == "custom"


def test_resolve_missing_path_is_an_error(tmp_path):
    with pytest.raises(WorkloadSpecError):
        resolve_workload(str(tmp_path / "ghost.yaml"))
