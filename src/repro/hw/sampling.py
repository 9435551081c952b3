"""Exact compiled sampling: a ``random.Random`` stream drawn in C.

The walk kernel (``_walk.c``) carries CPython's MT19937 and the
conversions of ``random.Random``: ``random()``, ``getrandbits(k)`` for
``k <= 32`` and ``randrange(n)`` for ``n < 2**32``.  A sampler in the
kernel therefore draws exactly the numbers, in exactly the order, of
the Python calls it stands for.  A :class:`Mersenne` borrows a
``Random``'s stream for one batch: :meth:`Mersenne.load` copies the
state in through ``getstate()``, :meth:`Mersenne.store` hands it back
through ``setstate()``, and in between only the compiled state draws
(DESIGN.md §13, "Compiled sampling").
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from random import Random

from repro.hw.cwalk import ffi, lib
from repro.sim.randomness import zipf_cdf

_WORDS = 624
#: Exclusive bound of the ``randrange`` arguments the kernel takes: a
#: draw must fit one 32-bit word.
RANDBELOW_LIMIT = 1 << 32


def check_bound(name: str, n: int) -> None:
    """Reject a ``randrange`` bound the kernel cannot draw below."""
    if not 0 < n < RANDBELOW_LIMIT:
        raise ValueError(f"{name} must be in 1..2**32-1, got {n}")


@lru_cache(maxsize=128)
def zipf_array(n: int, skew: float):
    """:func:`~repro.sim.randomness.zipf_cdf` as a ``double[]``.

    Memoized like the tuple; a holder of a pointer into it must keep
    the array itself referenced, since the memo may drop it.
    """
    return ffi.new("double[]", zipf_cdf(n, skew))


class Mersenne:
    """CPython's MT19937 state in the kernel (an ``mt_t``).

    ``state`` is an existing ``mt_t *`` to wrap, such as the one inside
    the trace generator's ``gen_t``; by default a fresh one is made.
    """

    def __init__(self, state=None):
        self.c = ffi.new("mt_t *") if state is None else state
        self._header = None

    def load(self, rng: Random) -> None:
        """Take over ``rng``'s stream position."""
        version, internal, gauss_next = rng.getstate()
        self.c.state = internal[:_WORDS]
        self.c.index = internal[_WORDS]
        self._header = (version, gauss_next)

    def store(self, rng: Random) -> None:
        """Hand the stream position back to the ``rng`` it was loaded from."""
        version, gauss_next = self._header
        rng.setstate((version, (*ffi.unpack(self.c.state, _WORDS),
                                self.c.index), gauss_next))

    @contextmanager
    def borrowed(self, rng: Random):
        """Draw from ``rng``'s stream in the kernel for one batch."""
        self.load(rng)
        try:
            yield self
        finally:
            self.store(rng)

    def random(self) -> float:
        """``Random.random()``."""
        return lib.mt_random(self.c)

    def getrandbits(self, k: int) -> int:
        """``Random.getrandbits(k)`` for ``0 <= k <= 32``."""
        if not 0 <= k <= 32:
            raise ValueError(f"getrandbits takes 0..32 bits here, got {k}")
        return lib.mt_getrandbits(self.c, k)

    def randbelow(self, n: int) -> int:
        """``Random.randrange(n)`` for ``1 <= n < 2**32``."""
        check_bound("randrange bound", n)
        return lib.mt_randbelow(self.c, n)

    def poisson(self, mean: float) -> int:
        """A small-mean Poisson count (Knuth's method): no draw for
        ``mean <= 0``, else uniforms multiplied until the product falls
        to ``exp(-mean)``."""
        return lib.mt_poisson(self.c, math.exp(-mean)) if mean > 0 else 0
