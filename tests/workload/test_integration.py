"""End-to-end workload plumbing: bit-identity, cache keys, manifests.

The load-bearing contract of the DSL is that ``--workload
odb-standard`` is indistinguishable from not passing ``--workload`` at
all: same RNG draw order, same floats, same cache key.  The first test
pins that against the *committed* golden result (the same file the
optimizer-era golden tests use), so a compiler change that shifts a
single draw fails here by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.runner import (
    configuration_key,
    run_configuration,
    run_with_manifest,
)
from repro.hw.machine import XEON_MP_QUAD
from repro.workload import compile_workload, workload_by_name

GOLDEN = (Path(__file__).resolve().parents[1]
          / "experiments" / "golden" / "config_w50_p2_fast.json")


def test_odb_standard_matches_committed_golden():
    spec = workload_by_name("odb-standard")
    result = run_configuration(50, 2, settings=FAST_SETTINGS,
                               use_cache=False, workload=spec)
    assert result.to_dict() == json.loads(GOLDEN.read_text()), (
        "--workload odb-standard must be bit-identical to the default")


def test_standard_workload_shares_the_default_cache_key():
    default_key = configuration_key(XEON_MP_QUAD, 50, 16, 2, FAST_SETTINGS)
    standard_key = configuration_key(
        XEON_MP_QUAD, 50, 16, 2, FAST_SETTINGS,
        workload=workload_by_name("odb-standard"))
    assert standard_key == default_key


def test_non_standard_workloads_get_distinct_keys():
    default_key = configuration_key(XEON_MP_QUAD, 50, 16, 2, FAST_SETTINGS)
    keys = {default_key}
    for name in ("banking", "key-value", "order-entry-burst"):
        key = configuration_key(XEON_MP_QUAD, 50, 16, 2, FAST_SETTINGS,
                                workload=workload_by_name(name))
        assert key not in keys, f"{name} collided"
        assert workload_by_name(name).fingerprint() in key
        keys.add(key)


def test_manifest_records_workload_provenance(tmp_path):
    from repro.experiments.records import ResultCache
    spec = workload_by_name("banking")
    _result, manifest = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                          cache=ResultCache(tmp_path),
                                          workload=spec)
    assert manifest is not None
    assert manifest.workload == "banking"
    assert manifest.workload_fingerprint == spec.fingerprint()


def test_default_manifest_names_the_standard_workload(tmp_path):
    from repro.experiments.records import ResultCache
    _result, manifest = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                          cache=ResultCache(tmp_path))
    assert manifest.workload == "odb-standard"
    assert manifest.workload_fingerprint == "ff052819f089"


def test_phased_scenario_runs_and_differs_from_standard():
    spec = workload_by_name("order-entry-burst")
    burst = run_configuration(10, 1, settings=FAST_SETTINGS,
                              use_cache=False, workload=spec)
    base = run_configuration(10, 1, settings=FAST_SETTINGS,
                             use_cache=False)
    assert burst.tps > 0
    assert burst.to_dict() != base.to_dict(), (
        "the wave schedule should perturb the run")


def test_custom_schema_scenario_runs():
    result = run_configuration(10, 1, settings=FAST_SETTINGS,
                               use_cache=False,
                               workload=workload_by_name("key-value"))
    assert result.tps > 0


def test_runspec_round_trips_workload_through_pickle():
    import pickle
    from repro.experiments.parallel import RunSpec
    spec = workload_by_name("social-feed")
    run_spec = RunSpec(warehouses=10, processors=1,
                       settings=FAST_SETTINGS, workload=spec)
    thawed = pickle.loads(pickle.dumps(run_spec))
    assert thawed.workload == spec
    assert compile_workload(thawed.workload).name == "social-feed"
    assert "workload=social-feed" in thawed.label


def test_default_path_imports_no_yaml():
    """Building a system that names no workload reads no scenario file
    and leaves PyYAML unimported: its import alone would cost a large
    share of a fresh worker's set-up time."""
    code = ("import sys\n"
            "from repro.odb import OdbConfig, OdbSystem\n"
            "system = OdbSystem(OdbConfig(100, 21, 4))\n"
            "assert system.workload.name == 'odb-standard'\n"
            "assert 'yaml' not in sys.modules, 'yaml was imported'\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
