"""Deterministic, named random-number streams.

Every stochastic element of the simulation (transaction mix, block
selection, disk service time, ...) draws from its own named stream, so
changing how often one component draws does not perturb any other
component.  Streams are derived from a single root seed via stable string
hashing, which keeps whole-system runs exactly reproducible.

A stream is drawn either in Python (:meth:`RandomStreams.stream`, a
``random.Random``) or in the compiled walk kernel
(:meth:`RandomStreams.kernel_stream`, an ``mt_t`` seeded exactly as
``random.Random`` seeds itself; :mod:`repro.hw.sampling`), never both.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache


def derive_seed(root_seed: int, name: str) -> int:
    """A stable 64-bit seed for stream ``name`` under ``root_seed``.

    Uses blake2b rather than ``hash()`` so results do not depend on
    ``PYTHONHASHSEED``.
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{name}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RandomStreams:
    """A factory of independently seeded named streams."""

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        #: name -> its ``random.Random`` or its kernel ``mt_t *``.
        self._streams: dict = {}

    def stream(self, name: str) -> random.Random:
        """The Python stream for ``name``, created on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        elif not isinstance(stream, random.Random):
            raise ValueError(f"stream {name!r} is drawn in the kernel")
        return stream

    def kernel_stream(self, name: str):
        """The kernel stream for ``name`` (an ``mt_t *`` of the walk
        kernel), created on first use in the state
        ``stream(name)`` would start in."""
        stream = self._streams.get(name)
        if stream is None:
            # Imported here: repro.hw imports this module.
            from repro.hw.sampling import seeded

            stream = seeded(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        elif isinstance(stream, random.Random):
            raise ValueError(f"stream {name!r} is drawn in Python")
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
