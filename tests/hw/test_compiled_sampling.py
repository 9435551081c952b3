"""The compiled samplers against CPython's ``random`` and the Python oracles.

The walk kernel's Mersenne Twister must draw exactly what
``random.Random`` draws, and the two samplers built on it must leave
exactly the state their pure-Python formulations leave:

- the prewarm plans against ``plan_transaction`` driven by
  ``TransactionMix.pick`` (the DES's own planner), for the standard mix
  and compiled custom workloads: the touch stream, the ``Random`` state
  and the buffer cache's LRU snapshot against the pure-Python prewarm
  of ``tests/odb/reference_prewarm.py``;
- the trace generator against ``tests/hw/reference_trace.py``: rates,
  counts, the coherence directory and the ``Random`` state, through
  ``run`` and direct ``run_transaction`` calls.

The file ends with the kernel loader's pruning of stale builds.
"""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import ITANIUM2_QUAD, XEON_MP_QUAD
from repro.hw import cwalk
from repro.hw.sampling import Mersenne, RANDBELOW_LIMIT
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.odb.system import OdbConfig, OdbSystem
from repro.odb.transactions import plan_transaction
from repro.sim.randomness import RandomStreams
from repro.workload import compile_workload, workload_by_name
from repro.workload.loader import parse_workload

from tests.db.reference_lru import dirty_units
from tests.hw import kernel_driver
from tests.hw.reference_trace import ReferenceTraceGenerator
from tests.odb.reference_prewarm import oracle_prewarm

# -- the Mersenne Twister -------------------------------------------------

_draw = st.one_of(
    st.tuples(st.just("random"), st.just(0)),
    st.tuples(st.just("bits"), st.integers(0, 32)),
    st.tuples(st.just("below"), st.integers(1, RANDBELOW_LIMIT - 1)),
    st.tuples(st.just("below"), st.integers(1, 40)),
)


def _python_draw(rng: Random, kind: str, arg: int):
    if kind == "random":
        return rng.random()
    if kind == "bits":
        return rng.getrandbits(arg)
    return rng.randrange(arg)


def _kernel_draw(mt: Mersenne, kind: str, arg: int):
    if kind == "random":
        return kernel_driver.random(mt)
    if kind == "bits":
        return kernel_driver.getrandbits(mt, arg)
    return kernel_driver.randbelow(mt, arg)


@given(seed=st.integers(0, 2 ** 64), draws=st.lists(_draw, min_size=1,
                                                  max_size=40),
       repeat=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_mersenne_matches_random(seed, draws, repeat):
    # From a fresh seed (read index 624: the first draw regenerates),
    # across several regenerations, with the state handed back and
    # taken over again halfway.
    expected, borrowed = Random(seed), Random(seed)
    mt = Mersenne()
    mt.load(borrowed)
    script = draws * repeat
    half = len(script) // 2
    for kind, arg in script[:half]:
        assert _kernel_draw(mt, kind, arg) == _python_draw(expected, kind, arg)
    mt.store(borrowed)
    assert borrowed.getstate() == expected.getstate()
    mt = Mersenne()
    with mt.borrowed(borrowed):
        for kind, arg in script[half:]:
            assert (_kernel_draw(mt, kind, arg)
                    == _python_draw(expected, kind, arg))
    assert borrowed.getstate() == expected.getstate()


def test_fresh_seed_crosses_many_regenerations():
    expected, borrowed = Random(7), Random(7)
    with Mersenne().borrowed(borrowed) as mt:
        for index in range(5000):
            assert kernel_driver.random(mt) == expected.random()
            assert (kernel_driver.getrandbits(mt, index % 33)
                    == expected.getrandbits(index % 33))
            assert (kernel_driver.randbelow(mt, index + 1)
                    == expected.randrange(index + 1))
    assert borrowed.getstate() == expected.getstate()


def test_gauss_state_survives_the_handoff():
    expected, borrowed = Random(3), Random(3)
    expected.gauss(0.0, 1.0)
    borrowed.gauss(0.0, 1.0)
    with Mersenne().borrowed(borrowed) as mt:
        kernel_driver.random(mt)
    expected.random()
    assert borrowed.getstate() == expected.getstate()
    assert borrowed.gauss(0.0, 1.0) == expected.gauss(0.0, 1.0)


@pytest.mark.parametrize("bound", [0, -1, RANDBELOW_LIMIT, 1 << 40])
def test_out_of_range_bounds_rejected_before_the_kernel(bound):
    rng = Random(1)
    before = rng.getstate()
    mt = Mersenne()
    mt.load(rng)
    with pytest.raises(ValueError, match="randrange bound"):
        kernel_driver.randbelow(mt, bound)
    mt.store(rng)
    assert rng.getstate() == before
    with pytest.raises(ValueError, match="getrandbits"):
        kernel_driver.getrandbits(mt, 33)


@pytest.mark.parametrize("field", ["warehouses", "clients"])
def test_generator_rejects_undrawable_bounds(field):
    values = dict(warehouses=10, processors=1, clients=4, user_ipx=1e6,
                  os_ipx=2e5, reads_per_txn=1.0, context_switches_per_txn=1.0)
    values[field] = RANDBELOW_LIMIT
    with pytest.raises(ValueError, match=field):
        TraceGenerator(XEON_MP_QUAD, TraceProfile(**values), RandomStreams(1))


def test_prewarm_rejects_undrawable_warehouses():
    system = OdbSystem(OdbConfig(1, 1, 1))
    rng = Random(1)
    before = rng.getstate()
    with pytest.raises(ValueError, match="warehouses"):
        system.sampler.sample_plans(rng, system.mix, RANDBELOW_LIMIT, 0.1,
                                    5)
    assert rng.getstate() == before


# -- prewarm plans ---------------------------------------------------------

#: A custom workload with every touch kind, a phase schedule, its own
#: segment layout and no remote touches.
_CUSTOM = parse_workload({
    "name": "sampler-oracle",
    "description": "every touch kind over a custom layout, in phases",
    "remote_touch_prob": 0.0,
    "segments": [
        {"name": "counter", "units": 3},
        {"name": "rows", "bytes": 8388608.0},
        {"name": "log", "bytes": 4194304.0},
        {"name": "catalog", "units": 40, "per_warehouse": False},
    ],
    "transactions": [
        {"name": "update", "weight": 0.6, "user_instructions": 4e5,
         "touches": [
             {"segment": "counter", "count": 1, "write_prob": 1.0,
              "distribution": "fixed", "index": 2},
             {"segment": "rows", "count": 3, "write_prob": 0.5,
              "skew": 0.9},
             {"segment": "log", "count": 2, "write_prob": 1.0,
              "distribution": "append"}]},
        {"name": "scan", "weight": 0.4, "user_instructions": 9e5,
         "touches": [
             {"segment": "catalog", "count": 2, "distribution": "uniform"},
             {"segment": "rows", "count": 7, "distribution": "uniform"}]},
    ],
    "phases": [
        {"name": "writes", "duration_s": 0.5,
         "weights": {"update": 0.9, "scan": 0.1}},
        {"name": "reads", "duration_s": 0.5,
         "weights": {"update": 0.1, "scan": 0.9}},
    ],
})

_WORKLOADS = {
    "standard": None,
    "custom": compile_workload(_CUSTOM),
    "banking": compile_workload(workload_by_name("banking")),
    "key-value": compile_workload(workload_by_name("key-value")),
    "order-entry-burst": compile_workload(
        workload_by_name("order-entry-burst")),
}


def _system(workload: str, warehouses: int, seed: int) -> OdbSystem:
    return OdbSystem(OdbConfig(warehouses, 4, 1, seed=seed,
                               workload=_WORKLOADS[workload]))


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("warehouses", [1, 7, 100, 1200])
def test_prewarm_matches_python_plans(workload, warehouses):
    plans = 300
    compiled = _system(workload, warehouses, seed=warehouses)
    oracle = _system(workload, warehouses, seed=warehouses)
    lru = oracle_prewarm(oracle, plans)
    # The touch stream itself, from an identically seeded stream.
    rng = Random(warehouses)
    sampled = Random(warehouses)
    codes = [code for touches in compiled.sampler.sample_plans(
        sampled, compiled.mix.active(), warehouses,
        compiled.remote_touch_prob, plans) for code in touches]
    reference = [touch for _ in range(plans) for touch in plan_transaction(
        rng, oracle.mix.pick(rng), oracle.sampler, warehouses,
        oracle.remote_touch_prob).touches]
    assert [(code >> 1, bool(code & 1)) for code in codes] == reference
    assert sampled.getstate() == rng.getstate()
    # The whole prewarm: LRU order, dirty bits, stats and stream state.
    compiled.prewarm_buffer_cache(plans)
    cache = compiled.buffer_cache
    assert list(cache.snapshot().items()) == list(lru.entries.items())
    assert dirty_units(cache) == sum(lru.entries.values())
    assert (cache.hits, cache.misses) == (0, 0)
    assert (compiled.streams.stream("prewarm").getstate()
            == oracle.streams.stream("prewarm").getstate())


@pytest.mark.parametrize("remote_prob", [0.0, 1.0])
def test_prewarm_remote_probability_edges(remote_prob):
    compiled = _system("standard", 20, seed=4)
    oracle = _system("standard", 20, seed=4)
    compiled.remote_touch_prob = oracle.remote_touch_prob = remote_prob
    lru = oracle_prewarm(oracle, 200)
    compiled.prewarm_buffer_cache(200)
    assert (list(compiled.buffer_cache.snapshot().items())
            == list(lru.entries.items()))
    assert (compiled.streams.stream("prewarm").getstate()
            == oracle.streams.stream("prewarm").getstate())


def test_zero_plans_draw_nothing():
    system = _system("standard", 10, seed=1)
    rng = Random(1)
    before = rng.getstate()
    assert list(system.sampler.sample_plans(rng, system.mix, 10, 0.1, 0)) \
        == []
    assert rng.getstate() == before


@pytest.mark.parametrize("plans", [1, 430, 431, 432, 2000])
def test_plans_split_over_kernel_fills_keep_the_stream(plans):
    # 8192 touches per fill at the standard mix's 19 longest: 431 plans.
    compiled, oracle = Random(plans), Random(plans)
    system = _system("standard", 30, seed=2)
    fills = list(system.sampler.sample_plans(compiled, system.mix, 30,
                                             0.1, plans))
    assert len(fills) == -(-plans // 431)
    expected = [touch for _ in range(plans) for touch in plan_transaction(
        oracle, system.mix.pick(oracle), system.sampler, 30, 0.1).touches]
    assert compiled.getstate() == oracle.getstate()
    assert len(expected) == sum(len(fill) for fill in fills)


# -- trace segments ----------------------------------------------------------

def assert_same_generator(generator, oracle) -> None:
    assert generator.counts() == oracle.counts()
    assert generator.rates() == oracle.rates()
    assert generator._rng.getstate() == oracle._rng.getstate()
    directory, reference = generator.smp.directory, oracle.smp.directory
    for name in ("invalidations", "interventions", "coherence_misses"):
        assert getattr(directory, name) == getattr(reference, name), name
    assert kernel_driver.tables(directory) == kernel_driver.tables(reference)


@given(processors=st.sampled_from([1, 2, 4]),
       warehouses=st.sampled_from([1, 2, 10, 100, 800, 1200]),
       clients=st.integers(1, 70),
       reads=st.sampled_from([0.0, 0.3, 2.0, 8.5]),
       switches=st.sampled_from([0.0, 1.0, 4.0, 12.0]),
       machine=st.sampled_from([XEON_MP_QUAD, ITANIUM2_QUAD]),
       seed=st.integers(0, 2 ** 32),
       direct=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 99)),
                       max_size=4))
@settings(max_examples=30, deadline=None)
def test_generator_matches_python_oracle(processors, warehouses, clients,
                                         reads, switches, machine, seed,
                                         direct):
    profile = TraceProfile(warehouses=warehouses, processors=processors,
                           clients=clients, user_ipx=1e6, os_ipx=2e5,
                           reads_per_txn=reads,
                           context_switches_per_txn=switches)
    generator = TraceGenerator(machine, profile, RandomStreams(seed))
    oracle = ReferenceTraceGenerator(machine, profile, RandomStreams(seed))
    assert generator.run(12, warmup=4) == oracle.run(12, warmup=4)
    assert_same_generator(generator, oracle)
    # Direct per-transaction calls, as exp_processor_figs makes them.
    for cpu, client in direct:
        generator.run_transaction(cpu % processors, client)
        oracle.run_transaction(cpu % processors, client)
        assert_same_generator(generator, oracle)
    assert generator.run(6) == oracle.run(6)
    assert_same_generator(generator, oracle)


def test_generator_leaves_other_streams_alone():
    streams = RandomStreams(9)
    other = streams.stream("other")
    before = other.getstate()
    profile = TraceProfile(50, 2, 8, 1e6, 2e5, 3.0, 2.0)
    TraceGenerator(XEON_MP_QUAD, profile, streams).run(10, warmup=2)
    assert other.getstate() == before


# -- the loader --------------------------------------------------------------

def test_a_new_build_prunes_this_interpreters_stale_builds(tmp_path):
    stale = tmp_path / ("_repro_walk_0000000000000000" + cwalk._SUFFIX)
    other = tmp_path / "_repro_walk_0000000000000000.cpython-00-other.so"
    unrelated = tmp_path / ("_repro_other_0000000000000000" + cwalk._SUFFIX)
    for path in (stale, other, unrelated):
        path.write_bytes(b"not a kernel")
    env = dict(os.environ)
    src = str(Path(cwalk.__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from pathlib import Path; from repro.hw import cwalk; "
         "cwalk.load(Path(sys.argv[1]))", str(tmp_path)],
        check=True, env=env, timeout=120, capture_output=True)
    built = cwalk.module_name() + cwalk._SUFFIX
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [built, other.name, unrelated.name])
