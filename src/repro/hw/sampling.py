"""Exact compiled sampling: ``random.Random`` streams drawn in C.

The walk kernel (``_walk.c``) carries CPython's MT19937, its seeding
and the conversions of ``random.Random``: ``random()``,
``getrandbits(k)`` for ``k <= 32``, ``randrange(n)`` for ``n < 2**32``
and ``lognormvariate``.  A sampler in the kernel therefore draws exactly
the numbers, in exactly the order, of the Python calls it stands for.
A stream the kernel alone draws from lives in the kernel from its seed
on: :func:`seeded` makes an ``mt_t`` in the state ``random.Random(seed)``
starts in, and only compiled code draws from it (DESIGN.md §11,
"Compiled sampling").  :meth:`repro.sim.randomness.RandomStreams.kernel_stream`
seeds the program's named ones.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from repro.hw.cwalk import ffi, lib
from repro.sim.randomness import zipf_cdf

#: Exclusive bound of the ``randrange`` arguments the kernel takes: a
#: draw must fit one 32-bit word.
RANDBELOW_LIMIT = 1 << 32
#: Exclusive bound of the seeds :func:`seeded` takes.
SEED_LIMIT = 1 << 64


def poisson_threshold(mean: float) -> float:
    """The kernel's Poisson threshold for ``mean``: ``exp(-mean)``, or 2
    for ``mean <= 0``, which draws nothing."""
    return math.exp(-mean) if mean > 0 else 2.0


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


def seeded(seed: int):
    """A kernel stream (an ``mt_t *``) in the state of
    ``random.Random(seed)``, for ``0 <= seed < 2**64``."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed}")
    mt = ffi.new("mt_t *")
    lib.mt_seed(mt, seed)
    return mt


def lognormal_parameters(mean: float, cv: float) -> Optional[tuple]:
    """``(mu, sigma)`` of the lognormal with arithmetic mean ``mean``
    and coefficient of variation ``cv``, as ``Random.lognormvariate``
    and the kernel's ``mt_lognormal`` take them (with
    ``random.NV_MAGICCONST``), solved once; None for ``cv == 0``, whose
    variate is ``mean`` itself and draws nothing."""
    if mean <= 0:
        raise ValueError("lognormal mean must be > 0")
    if cv < 0:
        raise ValueError("coefficient of variation must be >= 0")
    if cv == 0:
        return None
    sigma2 = math.log(1.0 + cv * cv)
    return math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)


def address(pointer) -> int:
    """The address a kernel pointer (``cdata``) holds, as an int: how
    the event kernel (``repro/sim/_des.c``) is handed walk-kernel state
    and functions.  The caller keeps the pointer's owner alive."""
    return int(ffi.cast("uintptr_t", pointer))
