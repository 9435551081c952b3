"""The compiled walk kernel against the pure-Python reference model.

Both models take the same randomized operation streams (batched runs of
any chunk size, single references interleaved, DTLB flushes, remote
invalidations, on 1, 2 and 4 CPUs, Xeon and Itanium geometry at
``micro_scale`` 1 and 8) and must end with the same state: every set in
LRU order with its dirty bits, every cache and TLB statistic, the
predictor tables, the Table 2 counts and the coherence directory (the
compiled one against the dict oracle of ``reference_coherence.py``).  The
rest of the file covers the kernel's guards (unsigned inputs, edge
geometries) and its build-once loader.
"""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import cwalk
from repro.hw.branch import BimodalPredictor
from repro.hw.cache import SetAssociativeCache
from repro.hw.hierarchy import HierarchyCounts, SmpHierarchy
from repro.hw.machine import CacheConfig, ITANIUM2_QUAD, TlbConfig, XEON_MP_QUAD
from repro.hw.tlb import Tlb
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.sim.randomness import RandomStreams

from tests.hw.reference_hierarchy import (
    ReferenceCache,
    ReferenceCpu,
    ReferencePredictor,
    ReferenceSmp,
    ReferenceTlb,
)
from tests.hw.reference_trace import SegmentTraceGenerator

MACHINES = {"xeon": XEON_MP_QUAD, "itanium": ITANIUM2_QUAD}
_STATS = ("accesses", "hits", "misses", "evictions", "writebacks",
          "invalidations")


def _ordered(cache) -> list:
    return [list(cache_set.items()) for cache_set in cache._sets]


def assert_same_cache(cache, reference) -> None:
    assert _ordered(cache) == _ordered(reference)
    for stat in _STATS:
        assert getattr(cache, stat) == getattr(reference, stat), stat


def assert_same_state(smp: SmpHierarchy, reference: ReferenceSmp) -> None:
    assert smp.merged_counts() == reference.merged_counts()
    for cpu, ref_cpu in zip(smp.cpus, reference.cpus):
        assert cpu.counts == ref_cpu.counts
        for name in ("tc", "l2", "l3"):
            assert_same_cache(getattr(cpu, name), getattr(ref_cpu, name))
        assert_same_cache(cpu.dtlb._cache, ref_cpu.dtlb._cache)
        assert cpu.predictor._table == ref_cpu.predictor._table
        assert cpu.predictor.predictions == ref_cpu.predictor.predictions
        assert cpu.predictor.mispredictions == ref_cpu.predictor.mispredictions
    directory, ref_directory = smp.directory, reference.directory
    for name in ("invalidations", "interventions", "coherence_misses",
                 "_sharers", "_modified", "_stolen"):
        assert getattr(directory, name) == getattr(ref_directory, name), name


# -- randomized streams ---------------------------------------------------

def _address(rng: Random, last: int) -> int:
    """A byte address: repeats, a small hot set, one conflict-heavy set
    family (1 MB apart: the same L2/L3 set, a new page each), and the
    top of the 62-bit packable range."""
    draw = rng.random()
    if draw < 0.25 and last >= 0:
        return last + rng.randrange(8)
    if draw < 0.55:
        return rng.randrange(64) * 128 + rng.randrange(128)
    if draw < 0.9:
        return (rng.randrange(220) << 20) + rng.randrange(3) * 128
    return (1 << 62) - 128 - rng.randrange(1 << 16) * 64


def _operations(seed: int, processors: int, max_chunk: int, count: int):
    """The same operation list for both models."""
    rng = Random(seed)
    last = -1
    ops = []
    for _ in range(count):
        cpu = rng.randrange(processors)
        kernel = rng.random() < 0.4
        kind = rng.random()
        size = rng.randrange(1, max_chunk + 1)
        if kind < 0.4:
            run = []
            for _ in range(size):
                last = _address(rng, last)
                run.append((last << 2) | (rng.random() < 0.35) << 1
                           | (rng.random() < 0.5))
            ops.append(("access_run", cpu, run, kernel))
        elif kind < 0.6:
            ops.append(("fetch_run", cpu,
                        [_address(rng, -1) for _ in range(size)], kernel))
        elif kind < 0.72:
            ops.append(("branch_run", cpu,
                        [(rng.randrange(6000) << 1) | (rng.random() < 0.6)
                         for _ in range(size)], kernel))
        elif kind < 0.82:
            last = _address(rng, last)
            ops.append(("data_access", cpu, last, rng.random() < 0.35, kernel,
                        rng.random() < 0.5))
        elif kind < 0.87:
            ops.append(("fetch", cpu, _address(rng, -1), kernel))
        elif kind < 0.92:
            ops.append(("branch", cpu, rng.randrange(1 << 40),
                        rng.random() < 0.5, kernel))
        elif kind < 0.96:
            ops.append(("context_switch", cpu))
        else:
            ops.append(("invalidate", cpu, _address(rng, -1) >> 7))
    return ops


def _apply(smp, ops) -> None:
    for name, cpu, *args in ops:
        if name == "invalidate":
            smp.cpus[cpu].invalidate_data_line(*args)
        else:
            getattr(smp, name)(cpu, *args)


@given(machine=st.sampled_from(sorted(MACHINES)),
       scale=st.sampled_from([1, 8]),
       processors=st.sampled_from([1, 2, 4]),
       max_chunk=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(machine, scale, processors, max_chunk, seed):
    smp = SmpHierarchy(MACHINES[machine], processors, scale)
    reference = ReferenceSmp(MACHINES[machine], processors, scale)
    ops = _operations(seed, processors, max_chunk, count=120)
    _apply(smp, ops[:60])
    _apply(reference, ops[:60])
    assert_same_state(smp, reference)
    _apply(smp, ops[60:])
    _apply(reference, ops[60:])
    assert_same_state(smp, reference)


@pytest.mark.parametrize("processors", [1, 4])
def test_trace_generator_matches_reference(processors, monkeypatch):
    # A whole warm-up plus measured round of the compiled transaction
    # loop, against the Python loop over the reference model: every
    # count and rate must agree.
    monkeypatch.setattr(ReferenceCpu, "reset_counts", lambda self: setattr(
        self, "counts", HierarchyCounts()), raising=False)
    profile = TraceProfile(warehouses=50, processors=processors, clients=16,
                           user_ipx=1e6, os_ipx=2e5, reads_per_txn=8,
                           context_switches_per_txn=3)
    generator = TraceGenerator(XEON_MP_QUAD, profile, RandomStreams(5))
    oracle = SegmentTraceGenerator(XEON_MP_QUAD, profile, RandomStreams(5))
    oracle.smp = ReferenceSmp(XEON_MP_QUAD, processors,
                              oracle.params.micro_scale)
    assert generator.run(30, warmup=20) == oracle.run(30, warmup=20)
    assert generator.counts() == oracle.counts()
    assert_same_state(generator.smp, oracle.smp)


# -- guards and edge geometries ---------------------------------------------

@pytest.mark.parametrize("call", [
    lambda smp: smp.access_run(0, [1 << 2, -4], False),
    lambda smp: smp.access_run(0, [(1 << 62) << 2], False),
    lambda smp: smp.fetch_run(0, [64, -64], False),
    lambda smp: smp.branch_run(0, [6, -1], True),
    lambda smp: smp.data_access(0, -128, False, False),
    lambda smp: smp.fetch(0, -1, True),
    lambda smp: smp.branch(0, -3, True, False),
])
def test_out_of_range_references_raise_before_any_change(call):
    smp = SmpHierarchy(XEON_MP_QUAD, 2, 8)
    reference = ReferenceSmp(XEON_MP_QUAD, 2, 8)
    with pytest.raises((OverflowError, ValueError)):
        call(smp)
    assert_same_state(smp, reference)


def test_out_of_range_component_inputs_raise():
    with pytest.raises(OverflowError):
        SetAssociativeCache(CacheConfig("c", 1024, 64, 2)).access(-1)
    with pytest.raises(OverflowError):
        SetAssociativeCache(CacheConfig("c", 1024, 64, 2)).invalidate_line(-1)
    with pytest.raises(OverflowError):
        BimodalPredictor(8).predict_and_update(-1, True)


def test_empty_runs_change_nothing():
    smp = SmpHierarchy(XEON_MP_QUAD, 2, 8)
    for method in (smp.access_run, smp.fetch_run, smp.branch_run):
        method(1, [], True)
    assert_same_state(smp, ReferenceSmp(XEON_MP_QUAD, 2, 8))


@pytest.mark.parametrize("entries", [64, 128])
def test_single_set_tlb_matches_reference(entries):
    config = TlbConfig(entries=entries, associativity=entries)
    tlb, reference = Tlb(config), ReferenceTlb(config)
    rng = Random(entries)
    for _ in range(3000):
        address = rng.randrange(entries * 2) * 4096 + rng.randrange(4096)
        assert tlb.access(address) == reference.access(address)
    assert_same_cache(tlb._cache, reference._cache)
    assert tlb.flush() == reference.flush() == entries


@pytest.mark.parametrize("sets,ways", [(1, 1), (3, 2), (192, 8), (5, 128)])
def test_cache_access_results_match_reference(sets, ways):
    config = CacheConfig("c", sets * ways * 64, 64, ways)
    cache, reference = SetAssociativeCache(config), ReferenceCache(config)
    rng = Random(sets * ways)
    for _ in range(2000):
        address = rng.randrange(sets * ways * 3) * 64
        if rng.random() < 0.05:
            assert cache.invalidate(address) == reference.invalidate(address)
        else:
            write = rng.random() < 0.4
            assert cache.access(address, write) == reference.access(address, write)
    assert_same_cache(cache, reference)
    assert cache.resident_lines == reference.resident_lines


def test_one_entry_predictor_matches_reference():
    predictor, reference = BimodalPredictor(1), ReferencePredictor(1)
    rng = Random(1)
    for _ in range(500):
        pc, taken = rng.randrange(1 << 63), rng.random() < 0.7
        assert (predictor.predict_and_update(pc, taken)
                == reference.predict_and_update(pc, taken))
    assert predictor._table == reference._table
    assert predictor.mispredictions == reference.mispredictions
    predictor.flush()
    assert predictor._table == [2]


# -- the loader -------------------------------------------------------------

_LOAD = ("import sys; from pathlib import Path; from repro.hw import cwalk; "
         "ffi, lib = cwalk.load(Path(sys.argv[1])); "
         "print(lib.EV_CONTEXT_SWITCHES)")


def _child_env():
    env = dict(os.environ)
    src = str(Path(cwalk.__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def test_concurrent_first_builds_both_succeed(tmp_path):
    cache_dir = tmp_path / "cache"
    children = [subprocess.Popen([sys.executable, "-c", _LOAD, str(cache_dir)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True, env=_child_env())
                for _ in range(2)]
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert out.split() == ["10"]
    built = [path.name for path in cache_dir.iterdir()]
    assert built == [cwalk.module_name() + cwalk._SUFFIX]


def test_cached_load_is_cheap():
    # The loader alone, in fresh interpreters, against the built kernel.
    probe = ("import importlib.util, sys, time; t = time.perf_counter(); "
             "spec = importlib.util.spec_from_file_location('probe', sys.argv[1]); "
             "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
             "print(time.perf_counter() - t)")
    costs = [float(subprocess.run(
        [sys.executable, "-c", probe, cwalk.__file__], check=True, text=True,
        capture_output=True).stdout) for _ in range(3)]
    assert min(costs) <= 0.010, costs


def test_failed_build_names_its_requirements(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
    with pytest.raises(ImportError, match="cffi.*C compiler"):
        cwalk.load(tmp_path)
    assert list(tmp_path.iterdir()) == []
