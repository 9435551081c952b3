"""The chaos policy draws as it always has, and ``repro.fabric`` is the pool.

:class:`ChaosPolicy` keeps the ``"fabric-chaos"`` hash salt and the
kill → hang → poison draw order of the policy it replaced, so every
seed in the suite and in ``tools/chaos_smoke.py`` injects the same
fault.  The ``repro.fabric`` names the perf harness imports forward to
``run_many``/``run_telemetry`` and must return identical payloads.
"""

import json

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    CHAOS_FAULTS,
    ChaosPolicy,
    RunSpec,
    run_many,
    run_telemetry,
)
from repro.fabric import fabric_run_many, fabric_run_telemetry

#: (policy, key, attempt) → action, drawn from the replaced policy.
PINNED_DRAWS = [
    (dict(seed=7, kill=0.3, hang=0.3, poison=0.3, attempts=2),
     "key-0", 1, "poison"),
    (dict(seed=7, kill=0.3, hang=0.3, poison=0.3, attempts=2),
     "key-3", 0, "hang"),
    (dict(seed=11, kill=1 / 3, hang=1 / 3, poison=1 / 3, attempts=1),
     "key-3", 0, "poison"),
    (dict(seed=3, kill=0.5, attempts=3), "key-1", 0, None),
    (dict(seed=0, hang=0.25, poison=0.25, attempts=2), "key-2", 1, "hang"),
]


@pytest.mark.parametrize("kwargs,key,attempt,action", PINNED_DRAWS)
def test_draws_match_the_replaced_policy(kwargs, key, attempt, action):
    assert ChaosPolicy(**kwargs).action(key, attempt) == action


def test_draws_are_deterministic_and_attempt_gated():
    policy = ChaosPolicy(seed=3, kill=1 / 3, hang=1 / 3, poison=1 / 3,
                         attempts=1)
    first = [policy.action(f"key-{i}", 0) for i in range(64)]
    assert first == [policy.action(f"key-{i}", 0) for i in range(64)]
    # every configured kind fires somewhere across 64 keys at sum=1.0
    assert {a for a in first if a} == set(CHAOS_FAULTS)
    # past the attempt gate, chaos never fires: retries converge
    assert all(policy.action(f"key-{i}", 1) is None for i in range(64))


def test_targets_scope_the_blast_radius():
    policy = ChaosPolicy(seed=0, kill=1.0, attempts=2,
                         targets=("only-this", "and-this"))
    assert policy.action("only-this", 0) == "kill"
    assert policy.action("and-this", 1) == "kill"
    assert all(policy.action("something-else", attempt) is None
               for attempt in range(3))


@pytest.mark.parametrize("kwargs", [
    {"kill": 1.5},
    {"kill": 0.6, "poison": 0.6},  # probabilities sum > 1
    {"attempts": -1},
    {"delay_s": -0.1},
])
def test_invalid_policies_rejected(kwargs):
    with pytest.raises(ValueError):
        ChaosPolicy(**kwargs)


def canonical(results):
    return [json.dumps(result.to_dict(), sort_keys=True)
            for result in results]


def test_fabric_names_return_the_pool_payloads(tmp_path):
    specs = [RunSpec(warehouses=w, processors=1, settings=FAST_SETTINGS)
             for w in (10, 25)]
    arrived = []
    shim = fabric_run_many(specs, workers=2, transport="stdio",
                           cache_dir=tmp_path / "a",
                           on_result=lambda spec, _: arrived.append(spec))
    assert canonical(shim) == canonical(
        run_many(specs, jobs=2, cache_dir=tmp_path / "b"))
    assert sorted(arrived, key=specs.index) == specs
    traced = fabric_run_telemetry(specs, workers=2, transport="stdio",
                                  cache_dir=tmp_path / "c")
    direct = run_telemetry(specs, jobs=2, cache_dir=tmp_path / "d")
    assert ([point.spec for point in traced]
            == [point.spec for point in direct] == specs)
    assert (canonical(point.result for point in traced)
            == canonical(point.result for point in direct))
    assert all(point.trace for point in traced)
