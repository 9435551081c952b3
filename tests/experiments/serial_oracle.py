"""The determinism contract's reference: a plain loop, not a driver.

Every sweep path — the driver in-process, on the pool, under chaos,
resumed from a journal — must return results byte-identical to running
each point with :func:`~repro.experiments.runner.run_configuration`
one after another, uncached.  Tests and ``tools/chaos_smoke.py`` compare
against :func:`serial_results` through :func:`canonical`.
"""

from __future__ import annotations

import json

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.runner import run_configuration


def serial_results(grid, processors, settings=FAST_SETTINGS, clients=None):
    """``run_configuration`` for every W of ``grid``, in order, uncached."""
    return [run_configuration(warehouses, processors, clients=clients,
                              settings=settings, use_cache=False)
            for warehouses in grid]


def canonical(results) -> list[str]:
    """Byte-exact serialization, the determinism contract's currency."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]
