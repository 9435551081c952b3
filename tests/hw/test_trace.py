"""Tests for the synthetic trace generator.

Fast smoke-level checks use small transaction counts; the paper-shape
assertions (knee location, saturation level) live in the integration
tests and benchmarks where a full sweep is run.
"""

import dataclasses

import pytest

from repro.hw import (
    ITANIUM2_QUAD,
    TraceGenerator,
    TraceParameters,
    TraceProfile,
    XEON_MP_QUAD,
)
from repro.sim.randomness import RandomStreams

from tests.hw.kernel_driver import poisson as _poisson


def profile(warehouses=100, processors=4, clients=32, reads=3.0, switches=5.0):
    return TraceProfile(
        warehouses=warehouses,
        processors=processors,
        clients=clients,
        user_ipx=1.1e6,
        os_ipx=0.25e6,
        reads_per_txn=reads,
        context_switches_per_txn=switches,
    )


def generate(prof, machine=XEON_MP_QUAD, seed=11, txns=300, warmup=100):
    generator = TraceGenerator(machine, prof, RandomStreams(seed))
    return generator.run(txns, warmup=warmup)


class TestProfileValidation:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            profile(warehouses=0)
        with pytest.raises(ValueError):
            profile(processors=0)
        with pytest.raises(ValueError):
            profile(clients=0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            profile(reads=-1.0)


class TestParameterValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TraceParameters(p_hot=0.5, p_warm=0.5, p_block=0.5, p_private=0.5)

    def test_default_mix_valid(self):
        params = TraceParameters()
        assert params.p_hot + params.p_warm + params.p_block + params.p_private \
            == pytest.approx(1.0)


class TestRates:
    def test_rates_are_positive_and_ordered(self):
        rates = generate(profile())
        assert rates.l3_misses_per_instr > 0
        assert rates.l2_misses_per_instr >= rates.l3_misses_per_instr
        assert rates.tc_misses_per_instr > 0
        assert rates.tlb_misses_per_instr > 0
        assert 0 < rates.mispredicts_per_instr < 0.05
        assert 0 <= rates.l3_miss_ratio <= 1
        assert 0 <= rates.l3_writeback_ratio <= 1

    def test_determinism(self):
        a = generate(profile(), seed=5)
        b = generate(profile(), seed=5)
        assert a == b

    def test_seed_changes_results(self):
        a = generate(profile(), seed=5)
        b = generate(profile(), seed=6)
        assert a != b

    def test_mpi_grows_with_warehouses(self):
        small = generate(profile(warehouses=10, reads=0.0, switches=3.0))
        large = generate(profile(warehouses=800, reads=6.0, switches=9.0))
        assert large.l3_misses_per_instr > 1.5 * small.l3_misses_per_instr

    def test_bigger_l3_lowers_mpi(self):
        prof = profile(warehouses=200, reads=2.0)
        xeon = generate(prof, machine=XEON_MP_QUAD)
        itanium = generate(prof, machine=ITANIUM2_QUAD)
        assert itanium.l3_misses_per_instr < xeon.l3_misses_per_instr

    def test_mpi_roughly_independent_of_processors(self):
        one = generate(profile(processors=1, clients=8))
        four = generate(profile(processors=4, clients=8))
        ratio = four.l3_misses_per_instr / one.l3_misses_per_instr
        assert 0.6 < ratio < 1.6

    def test_coherence_misses_are_minor(self):
        rates = generate(profile(warehouses=400, processors=4, reads=4.0))
        assert rates.coherence_miss_fraction < 0.25

    def test_no_coherence_on_uniprocessor(self):
        rates = generate(profile(processors=1))
        assert rates.coherence_miss_fraction == 0.0

    def test_zero_io_workload_runs(self):
        rates = generate(profile(reads=0.0, switches=0.0))
        assert rates.l3_misses_per_instr > 0


class TestCounts:
    def test_warmup_counts_discarded(self):
        generator = TraceGenerator(XEON_MP_QUAD, profile(), RandomStreams(3))
        generator.run(50, warmup=50)
        counts = generator.counts()
        # Roughly 50 transactions' worth of user refs, not 100.
        expected = 50 * generator.params.user_refs_per_txn
        assert counts.data_refs.user < 1.5 * expected

    def test_counts_cover_all_event_kinds(self):
        generator = TraceGenerator(XEON_MP_QUAD, profile(), RandomStreams(3))
        generator.run(100, warmup=20)
        counts = generator.counts()
        assert counts.data_refs.total > 0
        assert counts.code_refs.total > 0
        assert counts.branches.total > 0
        assert counts.data_refs.kernel > 0
        assert counts.context_switches > 0

    def test_hierarchy_cannot_be_swapped(self):
        # The kernel walks the hierarchy built with the generator; a
        # reassigned ``smp`` would leave run() and counts() on two
        # different hierarchies.
        generator = TraceGenerator(XEON_MP_QUAD, profile(), RandomStreams(3))
        with pytest.raises(AttributeError):
            generator.smp = TraceGenerator(
                XEON_MP_QUAD, profile(), RandomStreams(4)).smp


class TestPoisson:
    def test_zero_mean(self):
        rng = RandomStreams(1).kernel_stream("p")
        assert _poisson(rng, 0.0) == 0
        assert _poisson(rng, -1.0) == 0

    def test_mean_matches(self):
        rng = RandomStreams(1).kernel_stream("p")
        samples = [_poisson(rng, 4.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.1)

    def test_all_nonnegative_integers(self):
        rng = RandomStreams(2).kernel_stream("p")
        for _ in range(200):
            value = _poisson(rng, 2.5)
            assert isinstance(value, int) and value >= 0
