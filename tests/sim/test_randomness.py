"""Tests for deterministic RNG streams and distributions.

:func:`lognormal_sampler` is the disks' service-time sampler as it was
in Python, before it moved into the walk kernel (``mt_lognormal`` with
the parameters of :func:`repro.hw.sampling.lognormal_parameters`); it
stays as that sampler's oracle.
"""

import math
import random
from functools import partial
from random import NV_MAGICCONST
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cwalk import lib
from repro.hw.sampling import lognormal_parameters
from repro.sim.randomness import RandomStreams, derive_seed, zipf_cdf

from tests.hw import kernel_driver


def lognormal_sampler(rng: random.Random, mean: float,
                      cv: float) -> Callable[[], float]:
    """A zero-argument sampler of lognormal variates with arithmetic
    mean ``mean`` and coefficient of variation ``cv`` — the shape used
    for disk service times; the lognormal's parameters are solved once
    (a disk draws one per request)."""
    if mean <= 0:
        raise ValueError("lognormal mean must be > 0")
    if cv < 0:
        raise ValueError("coefficient of variation must be >= 0")
    if cv == 0:
        return lambda: mean
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return partial(rng.lognormvariate, mu, math.sqrt(sigma2))


def kernel_sampler(mt, mean: float, cv: float) -> Callable[[], float]:
    """The disks' draw: ``mt_lognormal`` on the kernel stream ``mt``
    with :func:`lognormal_parameters`, or ``mean`` when they are None."""
    parameters = lognormal_parameters(mean, cv)
    if parameters is None:
        return lambda: mean
    return partial(lib.mt_lognormal, mt, *parameters, NV_MAGICCONST)


def test_same_seed_same_stream():
    a = RandomStreams(7).stream("disk")
    b = RandomStreams(7).stream("disk")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_draws_on_one_stream_do_not_shift_another():
    reference = RandomStreams(7)
    baseline = [reference.stream("b").random() for _ in range(5)]
    streams = RandomStreams(7)
    for _ in range(100):
        streams.stream("a").random()
    assert [streams.stream("b").random() for _ in range(5)] == baseline


def test_kernel_stream_starts_where_the_python_stream_starts():
    kernel = RandomStreams(7).kernel_stream("disk")
    python = RandomStreams(7).stream("disk")
    assert kernel_driver.state(kernel) == python.getstate()
    assert ([kernel_driver.random(kernel) for _ in range(10)]
            == [python.random() for _ in range(10)])


def test_kernel_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.kernel_stream("x") is streams.kernel_stream("x")


def test_a_name_is_drawn_in_python_or_in_the_kernel_never_both():
    streams = RandomStreams(7)
    streams.stream("python")
    streams.kernel_stream("kernel")
    with pytest.raises(ValueError, match="drawn in Python"):
        streams.kernel_stream("python")
    with pytest.raises(ValueError, match="drawn in the kernel"):
        streams.stream("kernel")


def test_fork_produces_independent_family():
    parent = RandomStreams(7)
    child = parent.fork("run-1")
    assert child.root_seed != parent.root_seed
    assert parent.fork("run-1").root_seed == child.root_seed


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=30))
@settings(max_examples=50, deadline=None)
def test_derive_seed_stable_and_bounded(root, name):
    seed = derive_seed(root, name)
    assert 0 <= seed < 2**64
    assert seed == derive_seed(root, name)


class TestZipf:
    def test_uniform_when_skew_zero(self):
        cdf = zipf_cdf(4, 0.0)
        assert cdf == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_skew_concentrates_head(self):
        cdf = zipf_cdf(100, 1.0)
        # With skew=1 over 100 items the top 10 ranks absorb well over
        # their uniform 10% share.
        assert cdf[9] > 0.4

    def test_cdf_monotone_and_terminated(self):
        cdf = zipf_cdf(50, 0.8)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_cdf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_cdf(10, -0.1)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_cdf_property(self, n, skew):
        cdf = zipf_cdf(n, skew)
        assert len(cdf) == n
        assert cdf[-1] == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in cdf)


class TestDistributions:
    def test_lognormal_mean_and_positivity(self):
        rng = RandomStreams(3).stream("ln")
        draw = lognormal_sampler(rng, 5.0, 0.5)
        samples = [draw() for _ in range(20000)]
        assert all(s > 0 for s in samples)
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_lognormal_zero_cv_is_deterministic(self):
        rng = RandomStreams(3).stream("ln")
        assert lognormal_sampler(rng, 5.0, 0.0)() == 5.0

    def test_lognormal_validation(self):
        rng = RandomStreams(3).stream("ln")
        with pytest.raises(ValueError):
            lognormal_sampler(rng, 0.0, 0.5)
        with pytest.raises(ValueError):
            lognormal_sampler(rng, 1.0, -0.5)

    def test_lognormal_cv_controls_spread(self):
        rng = RandomStreams(3).stream("ln")
        tight = lognormal_sampler(rng, 5.0, 0.1)
        wide = lognormal_sampler(rng, 5.0, 1.0)
        tight = [tight() for _ in range(5000)]
        wide = [wide() for _ in range(5000)]

        def stdev(xs):
            m = sum(xs) / len(xs)
            return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))

        assert stdev(tight) < stdev(wide)

    @pytest.mark.parametrize("mean, cv", [(5e-3, 0.5), (1.0, 2.0),
                                          (7.0, 0.0)])
    def test_kernel_sampler_draws_what_the_python_sampler_draws(self, mean,
                                                                cv):
        expected = RandomStreams(3).stream("ln")
        mt = RandomStreams(3).kernel_stream("ln")
        draw, oracle = kernel_sampler(mt, mean, cv), lognormal_sampler(
            expected, mean, cv)
        assert [draw() for _ in range(5000)] == \
            [oracle() for _ in range(5000)]
        assert kernel_driver.state(mt) == expected.getstate()

    def test_kernel_sampler_validation(self):
        with pytest.raises(ValueError):
            lognormal_parameters(0.0, 0.5)
        with pytest.raises(ValueError):
            lognormal_parameters(1.0, -0.5)
