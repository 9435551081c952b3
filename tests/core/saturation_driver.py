"""One-cell driver of the Table 1 client search, for the tests.

The program advances every cell's :func:`saturation_search` in lockstep
(:mod:`repro.experiments.exp_table1`); the tests drive one cell at a
time with a ``measure`` callable, the sequential oracle the lockstep
search must match.
"""

from typing import Callable

from repro.core.saturation import SaturationResult, saturation_search


def clients_for_utilization(measure: Callable[[int], float],
                            target: float = 0.90,
                            minimum: int = 1, maximum: int = 80,
                            ) -> SaturationResult:
    """:func:`saturation_search` for one configuration.

    ``measure(clients)`` runs the configuration and returns its CPU
    utilization in [0, 1].
    """
    search = saturation_search(target, minimum, maximum)
    try:
        clients = next(search)
        while True:
            clients = search.send(measure(clients))
    except StopIteration as stop:
        return stop.value
