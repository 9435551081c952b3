"""The compiled samplers against CPython's ``random`` and the Python oracles.

The walk kernel's Mersenne Twister must seed and draw exactly what
``random.Random`` seeds and draws, and the samplers built on it must
leave exactly the state their pure-Python formulations leave:

- ``mt_seed`` against ``Random(seed).getstate()``, and
  ``mt_lognormal`` against ``Random.lognormvariate``;
- the transaction planner (``_SegmentSampler.draw`` for the DES,
  ``sample_plans`` for the prewarm) against ``plan_transaction`` driven
  by ``pick``, the DES's planner before it moved into the kernel
  (``tests/odb/reference_prewarm.py``): the plans, their types and
  warehouses, and the stream state, for the standard mix and compiled
  custom workloads; and the whole prewarm's LRU snapshot against the
  pure-Python prewarm;
- the trace generator against ``tests/hw/reference_trace.py``: rates,
  counts, the coherence directory and the stream state, through
  ``run`` and direct ``run_transaction`` calls.

The file ends with the kernel loader: build names and the pruning of
stale builds.
"""

import os
import subprocess
import sys
from pathlib import Path
from random import NV_MAGICCONST, Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cbuild
from repro.hw import ITANIUM2_QUAD, XEON_MP_QUAD
from repro.hw import cwalk
from repro.hw.cwalk import lib
from repro.hw.sampling import RANDBELOW_LIMIT, SEED_LIMIT, seeded
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.odb.system import OdbConfig, OdbSystem
from repro.odb.transactions import _SegmentSampler
from repro.sim.randomness import RandomStreams, derive_seed
from repro.workload import compile_workload, workload_by_name
from repro.workload.loader import parse_workload

from tests.db.reference_lru import dirty_units, snapshot
from tests.hw import kernel_driver
from tests.hw.reference_trace import ReferenceTraceGenerator
from tests.odb.reference_prewarm import (
    oracle_prewarm,
    pick,
    plan_transaction,
    python_stream,
)

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


def _kernel_draw(mt, kind: str, arg: int):
    if kind == "random":
        return kernel_driver.random(mt)
    if kind == "bits":
        return kernel_driver.getrandbits(mt, arg)
    return kernel_driver.randbelow(mt, arg)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_seeding_matches_random_at_the_word_boundaries(seed):
    # One key word below 2**32 (zero included), two from 2**32 on.
    assert kernel_driver.state(seeded(seed)) == Random(seed).getstate()


def test_seeding_matches_random_for_derived_seeds():
    for index in range(1000):
        seed = derive_seed(index % 7, f"client-{index}")
        assert kernel_driver.state(seeded(seed)) == Random(seed).getstate()


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
def test_unseedable_seeds_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        seeded(seed)


@given(seed=st.integers(0, SEED_LIMIT - 1),
       draws=st.lists(_draw, min_size=1, max_size=40),
       repeat=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_mersenne_matches_random(seed, draws, repeat):
    # From a fresh seed (read index 624: the first draw regenerates),
    # across several regenerations, then from a stream taken over from
    # the Random halfway.
    expected = Random(seed)
    mt = seeded(seed)
    script = draws * repeat
    half = len(script) // 2
    for kind, arg in script[:half]:
        assert _kernel_draw(mt, kind, arg) == _python_draw(expected, kind, arg)
    assert kernel_driver.state(mt) == expected.getstate()
    mt = kernel_driver.load(expected)
    for kind, arg in script[half:]:
        assert _kernel_draw(mt, kind, arg) == _python_draw(expected, kind, arg)
    assert kernel_driver.state(mt) == expected.getstate()


def test_fresh_seed_crosses_many_regenerations():
    expected, mt = Random(7), seeded(7)
    for index in range(5000):
        assert kernel_driver.random(mt) == expected.random()
        assert (kernel_driver.getrandbits(mt, index % 33)
                == expected.getrandbits(index % 33))
        assert (kernel_driver.randbelow(mt, index + 1)
                == expected.randrange(index + 1))
    assert kernel_driver.state(mt) == expected.getstate()


@pytest.mark.parametrize("bound", [0, -1, RANDBELOW_LIMIT, 1 << 40])
def test_out_of_range_bounds_rejected_before_the_kernel(bound):
    mt = seeded(1)
    before = kernel_driver.state(mt)
    with pytest.raises(ValueError, match="randrange bound"):
        kernel_driver.randbelow(mt, bound)
    assert kernel_driver.state(mt) == before
    with pytest.raises(ValueError, match="getrandbits"):
        kernel_driver.getrandbits(mt, 33)


class _Counting(Random):
    """A ``Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("mu, sigma", [
    (-5.3, 0.47),   # the disks' service times: mean 5 ms, cv 0.5
    (0.0, 1.0), (2.5, 0.01), (-1.0, 3.0)])
def test_lognormal_matches_random_through_the_rejection_loop(mu, sigma):
    expected, mt = _Counting(11), seeded(11)
    retries = 0
    for _ in range(100_000):
        before = expected.calls
        assert (lib.mt_lognormal(mt, mu, sigma, NV_MAGICCONST)
                == expected.lognormvariate(mu, sigma))
        retries += expected.calls - before > 2
    # About 27% of normalvariate's draws are rejected at least once.
    assert retries > 20_000
    assert kernel_driver.state(mt) == expected.getstate()


@pytest.mark.parametrize("field", ["warehouses", "clients"])
def test_generator_rejects_undrawable_bounds(field):
    values = dict(warehouses=10, processors=1, clients=4, user_ipx=1e6,
                  os_ipx=2e5, reads_per_txn=1.0, context_switches_per_txn=1.0)
    values[field] = RANDBELOW_LIMIT
    with pytest.raises(ValueError, match=field):
        TraceGenerator(XEON_MP_QUAD, TraceProfile(**values), RandomStreams(1))


def test_prewarm_rejects_undrawable_warehouses():
    system = OdbSystem(OdbConfig(1, 1, 1))
    with pytest.raises(ValueError, match="warehouses"):
        _SegmentSampler(system.space, RANDBELOW_LIMIT, 0.1)


# -- transaction plans -------------------------------------------------------

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


def _packed(plan) -> list[int]:
    return [(block << 1) | write for block, write in plan.touches]


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("warehouses", [1, 7, 100, 1200])
@pytest.mark.parametrize("remote_prob", [None, 0.0, 1.0])
def test_des_plans_match_python_plans(workload, warehouses, remote_prob):
    # W=1 draws no remote warehouse; the custom workload has fixed-index
    # and append-window touches, phases and remote_touch_prob 0.
    system = _system(workload, warehouses, seed=warehouses)
    if remote_prob is None:
        remote_prob = system.sampler.remote_prob
    sampler = _SegmentSampler(system.space, warehouses, remote_prob)
    now = [0.0]
    mix = system.workload.build_mix(clock=lambda: now[0])
    mt, rng = seeded(warehouses), Random(warehouses)
    drawn = set()
    for index in range(400):
        # The clock walks through the phases of a phased mix.
        now[0] = index * 0.013
        kind, warehouse, touches = sampler.draw(mt, mix.active())
        plan = plan_transaction(rng, pick(mix, rng), sampler, warehouses,
                                remote_prob)
        assert kind.profile is plan.profile
        assert warehouse == plan.warehouse
        assert tuple((lock, warehouse) for lock in kind.locks) \
            == plan.lock_keys
        assert touches == _packed(plan)
        assert kind.chunk == plan.profile.user_instructions / (
            len(plan.touches) + 1)
        drawn.add(plan.profile.name)
    assert kernel_driver.state(mt) == rng.getstate()
    if workload == "standard":
        assert drawn == {"new_order", "payment", "order_status",
                         "delivery", "stock_level"}


def test_des_tables_are_built_once_per_stationary_mix():
    system = _system("custom", 10, seed=3)
    now = [0.0]
    mix = system.workload.build_mix(clock=lambda: now[0])
    first = system.sampler.plans(mix.active())
    now[0] = 0.75
    second = system.sampler.plans(mix.active())
    assert first is not second
    now[0] = 1.25
    assert system.sampler.plans(mix.active()) is first


def test_clients_draw_from_their_kernel_streams():
    system = _system("standard", 30, seed=5)
    system.run(warmup_txns=20, measure_txns=40, prewarm_plans=0)
    for client in range(system.config.clients):
        with pytest.raises(ValueError, match="kernel"):
            system.streams.stream(f"client-{client}")


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("warehouses", [1, 7, 100, 1200])
def test_prewarm_matches_python_plans(workload, warehouses):
    plans = 300
    compiled = _system(workload, warehouses, seed=warehouses)
    oracle = _system(workload, warehouses, seed=warehouses)
    rng = python_stream(oracle, "prewarm")
    lru = oracle_prewarm(oracle, plans, rng)
    # The touch stream itself, from an identically seeded stream.
    mt, expected = seeded(warehouses), Random(warehouses)
    codes = [code for touches in compiled.sampler.sample_plans(
        mt, compiled.mix.active(), plans) for code in touches]
    reference = [touch for _ in range(plans) for touch in _packed(
        plan_transaction(expected, pick(oracle.mix, expected),
                         oracle.sampler, warehouses,
                         oracle.sampler.remote_prob))]
    assert codes == reference
    assert kernel_driver.state(mt) == expected.getstate()
    # The whole prewarm: LRU order, dirty bits, stats and stream state.
    compiled.prewarm_buffer_cache(plans)
    cache = compiled.buffer_cache
    assert list(snapshot(cache).items()) == list(lru.entries.items())
    assert dirty_units(cache) == sum(lru.entries.values())
    assert (cache.hits, cache.misses) == (0, 0)
    assert (kernel_driver.state(compiled.streams.kernel_stream("prewarm"))
            == rng.getstate())


@pytest.mark.parametrize("remote_prob", [0.0, 1.0])
def test_prewarm_remote_probability_edges(remote_prob):
    compiled = _system("standard", 20, seed=4)
    oracle = _system("standard", 20, seed=4)
    for system in (compiled, oracle):
        system.sampler = _SegmentSampler(system.space, 20, remote_prob)
    rng = python_stream(oracle, "prewarm")
    lru = oracle_prewarm(oracle, 200, rng)
    compiled.prewarm_buffer_cache(200)
    assert (list(snapshot(compiled.buffer_cache).items())
            == list(lru.entries.items()))
    assert (kernel_driver.state(compiled.streams.kernel_stream("prewarm"))
            == rng.getstate())


def test_zero_plans_draw_nothing():
    system = _system("standard", 10, seed=1)
    mt = seeded(1)
    before = kernel_driver.state(mt)
    assert list(system.sampler.sample_plans(mt, system.mix, 0)) == []
    assert kernel_driver.state(mt) == before


@pytest.mark.parametrize("plans", [1, 430, 431, 432, 2000])
def test_plans_split_over_kernel_fills_keep_the_stream(plans):
    # 8192 touches per fill at the standard mix's 19 longest: 431 plans.
    compiled, oracle = seeded(plans), Random(plans)
    system = _system("standard", 30, seed=2)
    fills = list(system.sampler.sample_plans(compiled, system.mix, plans))
    assert len(fills) == -(-plans // 431)
    expected = [touch for _ in range(plans) for touch in plan_transaction(
        oracle, pick(system.mix, oracle), system.sampler, 30, 0.1).touches]
    assert kernel_driver.state(compiled) == oracle.getstate()
    assert len(expected) == sum(len(fill) for fill in fills)


# -- trace segments ----------------------------------------------------------

def assert_same_generator(generator, oracle) -> None:
    assert generator.counts() == oracle.counts()
    assert generator.rates() == oracle.rates()
    assert kernel_driver.state(generator._mt) == oracle._rng.getstate()
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

def test_build_names_digest_the_compiler_flags(monkeypatch):
    sources = (Path(cwalk.__file__).with_name("_walk.c"),)
    name = cbuild.build_name("_repro_walk_", sources)
    assert "-ffp-contract=off" in cbuild.FLAGS
    monkeypatch.setattr(cbuild, "FLAGS", ("-O2",))
    assert cbuild.build_name("_repro_walk_", sources) != name
    monkeypatch.setattr(cbuild, "FLAGS", ("-O2", "-ffp-contract=off",
                                          "-march=native"))
    assert cbuild.build_name("_repro_walk_", sources) != name


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
