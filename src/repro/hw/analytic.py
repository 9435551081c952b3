"""The Zipf popularity vector of the workload model.

:func:`zipf_popularities` turns :func:`~repro.sim.randomness.zipf_cdf`
into per-item probabilities; the buffer-cache popularity ranking of
:mod:`repro.odb.popularity` is built on it.
"""

from __future__ import annotations

from repro.sim.randomness import zipf_cdf


def zipf_popularities(n: int, skew: float) -> list[float]:
    """Normalized Zipf(``skew``) probabilities over ``n`` items."""
    cdf = zipf_cdf(n, skew)
    out = [cdf[0]]
    for previous, current in zip(cdf, cdf[1:]):
        out.append(current - previous)
    return out
