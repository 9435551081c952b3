"""Deterministic, named random-number streams.

Every stochastic element of the simulation (transaction mix, block
selection, disk service time, ...) draws from its own named stream, so
changing how often one component draws does not perturb any other
component.  Streams are derived from a single root seed via stable string
hashing, which keeps whole-system runs exactly reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import lru_cache, partial
from typing import Callable


def derive_seed(root_seed: int, name: str) -> int:
    """A stable 64-bit seed for stream ``name`` under ``root_seed``.

    Uses blake2b rather than ``hash()`` so results do not depend on
    ``PYTHONHASHSEED``.
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RandomStreams:
    """A factory of independently seeded :class:`random.Random` streams."""

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        return RandomStreams(derive_seed(self.root_seed, f"fork:{name}"))


@lru_cache(maxsize=128)
def zipf_cdf(n: int, skew: float) -> tuple[float, ...]:
    """Cumulative distribution of a Zipf(``skew``) law over ``1..n``.

    Used for skewed block popularity inside a warehouse: a small set of
    blocks (index roots, hot rows) absorbs most references.

    The result is memoized per ``(n, skew)``: every trace-generator
    instantiation and every transaction planner asks for the same few
    distributions thousands of times across a sweep, and building a CDF
    is O(n).  The returned tuple is immutable, so sharing is safe.
    """
    if n < 1:
        raise ValueError("zipf_cdf needs n >= 1")
    if skew < 0:
        raise ValueError("zipf skew must be >= 0")
    weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf = []
    running = 0.0
    for weight in weights:
        running += weight
        cdf.append(running / total)
    cdf[-1] = 1.0
    return tuple(cdf)


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
