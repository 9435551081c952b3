"""The pool a clean run keeps: one set of workers across runs.

A ``run_points`` call that ends with no break and nothing in flight
leaves its pool open, and the next call in this process reuses it only
when the pool is at least as wide as the call's ``min(jobs, pending)``
and a fresh fork would see the same things: the same process,
environment, tracer and metrics registry.  A break still kills
the pool, and no worker outlives the process that forked it.  The
suite's autouse fixture (``tests/conftest.py``) shuts the kept pool
after every test, so each test here starts with none.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    ChaosPolicy,
    PoolExecutor,
    RunSpec,
    run_many,
    run_points,
    run_sweep,
    run_telemetry,
)
from tests.experiments.journal_holder import held_elsewhere
from tests.experiments.processes import HAVE_PROC, children_of, gone
from tests.experiments.serial_oracle import canonical, serial_results

pytestmark = pytest.mark.skipif(not HAVE_PROC, reason="needs a Linux /proc")

REPO = Path(__file__).resolve().parents[2]
PROCESSORS = 1
GRID = (10, 25)
SPECS = [RunSpec(warehouses=w, processors=PROCESSORS, settings=FAST_SETTINGS)
         for w in GRID]


def workers():
    """This process's live children: the kept pool's workers."""
    return {pid for pid in children_of(os.getpid()) if not gone(pid)}


@pytest.fixture()
def serial_reference():
    return canonical(serial_results(GRID, PROCESSORS))


def test_consecutive_runs_are_served_by_the_same_workers(tmp_path):
    run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path)
    first = workers()
    assert len(first) == 2
    run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path)
    assert workers() == first


def test_runs_on_a_reused_pool_match_the_serial_oracle(tmp_path,
                                                       serial_reference):
    outputs = [
        run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path),
        run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path),
        [point.result for point in run_sweep(
            GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
            cache_dir=tmp_path, executor=PoolExecutor(2))],
    ]
    kept = workers()
    traced = run_telemetry(SPECS, jobs=2, use_cache=False,
                           cache_dir=tmp_path)
    assert workers() == kept
    assert all(point.trace for point in traced)
    outputs.append([point.result for point in traced])
    for results in outputs:
        assert canonical(results) == serial_reference


def test_a_break_forks_new_workers_for_the_next_run(tmp_path,
                                                    serial_reference):
    run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path)
    before = workers()
    assert len(before) == 2
    executor = PoolExecutor(2, chaos=ChaosPolicy(
        seed=0, kill=1.0, attempts=1, targets=(SPECS[0].key(),)))
    points = run_points(SPECS, executor, use_cache=False,
                        cache_dir=tmp_path)
    assert [event["event"] for event in executor.events].count(
        "pool-rebuild") == 1
    assert canonical([point.result for point in points]) == serial_reference
    after = workers()
    assert len(after) == 2 and not after & before
    run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path)
    assert workers() == after


def test_a_changed_environment_gets_a_fresh_pool(tmp_path, monkeypatch):
    """Workers read ``REPRO_CACHE_DIR`` from the environment they forked
    with, so a pool kept across a change would store in the old
    directory."""
    monkeypatch.setattr(runner, "_CACHE", None)  # derived in each worker
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "first"))
    run_many(SPECS, jobs=2)
    first = workers()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "second"))
    run_many(SPECS, jobs=2)
    assert not workers() & first
    stored = sorted(path.name
                    for path in (tmp_path / "second").glob("*.json"))
    assert stored == sorted(
        name for spec in SPECS
        for name in (f"{spec.key()}.json", f"{spec.key()}.manifest.json"))


def test_the_pool_is_no_wider_than_the_points_to_run(tmp_path):
    run_many(SPECS, jobs=4, use_cache=False, cache_dir=tmp_path)
    assert len(workers()) == len(SPECS)


def test_a_wider_run_gets_a_fresh_pool(tmp_path):
    run_many(SPECS, jobs=2, use_cache=False, cache_dir=tmp_path)
    first = workers()
    run_many(SPECS * 2, jobs=3, use_cache=False, cache_dir=tmp_path)
    assert len(workers()) == 3 and not workers() & first


def test_a_narrower_run_reuses_the_wider_pool(tmp_path, serial_reference):
    """Table 1's rounds shrink: a run with fewer points than the kept
    pool's width runs on it, still capped at ``min(jobs, pending)``
    points in flight, which its manifests record."""
    run_many(SPECS * 2, jobs=3, use_cache=False, cache_dir=tmp_path)
    wide = workers()
    assert len(wide) == 3
    points = run_telemetry(SPECS, jobs=3, use_cache=False,
                           cache_dir=tmp_path)
    assert workers() == wide
    assert {point.manifest.worker_count for point in points} == {2}
    assert canonical([point.result for point in points]) == serial_reference


def test_a_journal_is_free_while_its_sweeps_workers_live(tmp_path):
    """The workers forked under the journal's lock outlive the sweep in
    the kept pool, but closed their copies of its descriptor at the
    fork, so another process can take the lock at once."""
    journal = tmp_path / "journal.jsonl"
    run_sweep(GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
              cache_dir=tmp_path, executor=PoolExecutor(2),
              journal=journal)
    kept = workers()
    assert len(kept) == 2
    with held_elsewhere(journal):
        pass
    assert workers() == kept


DRIVER = textwrap.dedent("""
    import sys
    from repro.experiments.configs import FAST_SETTINGS
    from repro.experiments.parallel import RunSpec, run_many
    specs = [RunSpec(warehouses=w, processors=1, settings=FAST_SETTINGS)
             for w in (10, 25)]
    for _ in range(2):
        run_many(specs, jobs=2, use_cache=False, cache_dir=sys.argv[1])
""")


def test_no_worker_outlives_a_driver_that_exits(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    driver = subprocess.Popen([sys.executable, "-c", DRIVER, str(tmp_path)],
                              env=env, start_new_session=True)
    try:
        assert driver.wait(timeout=120) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(driver.pid, 0)
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
