"""The trace run, pinned count by count.

The trace layer's twin of ``tests/odb/test_dispatch_digest.py``: after
a :meth:`TraceGenerator.run` at the runner's default length (250
warm-up and 1,000 measured transactions), the digest covers every
per-CPU Table 2 count slot (user and kernel of each event, then the
context switches), the directory's three counters and the ``trace``
stream's state, in ``Random.getstate()``'s shape.  A change that makes the trace run cheaper
must leave every one of them untouched, on one and on four CPUs, in
and out of the cached region, on both machines.

To regenerate after a deliberate model change, print
``_trace_digest(...)`` for every case and replace the pins.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.hw import ITANIUM2_QUAD, XEON_MP_QUAD
from repro.hw.hierarchy import HierarchyCounts
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.sim.randomness import RandomStreams

from tests.hw import kernel_driver

#: (machine, W, P, clients, reads/txn, switches/txn): the anchor point,
#: the uncached region, the one-CPU contention spike, and Itanium2.
CASES = {
    "xeon-w100-p4": (XEON_MP_QUAD, 100, 4, 21, 1.6, 2.4),
    "xeon-w800-p4": (XEON_MP_QUAD, 800, 4, 40, 7.5, 8.5),
    "xeon-w10-p1": (XEON_MP_QUAD, 10, 1, 8, 0.4, 3.0),
    "itanium-w100-p4": (ITANIUM2_QUAD, 100, 4, 21, 1.6, 2.4),
}

PINS = {
    "xeon-w100-p4":
        "5db5b2cb0a84fcd57fb0cfb9957e0a420938b92040ca155bc70d8b1ab7b8d393",
    "xeon-w800-p4":
        "694b4f4091dd054d1fbeac222f6e6fab451320b5f1e6a509c4482e5d5a9b9f9d",
    "xeon-w10-p1":
        "8ff90c11adcfac5b09cd9d1ddbc9c1d2907c57c5cbfc02a4f7f0df32ed17b885",
    "itanium-w100-p4":
        "e96eace754e656071d5fbf455f756a2ad24381e2681f04df9d421f97176180bc",
}


def _trace_digest(case: str) -> str:
    machine, warehouses, processors, clients, reads, switches = CASES[case]
    profile = TraceProfile(warehouses=warehouses, processors=processors,
                           clients=clients, user_ipx=1.1e6, os_ipx=2.5e5,
                           reads_per_txn=reads,
                           context_switches_per_txn=switches)
    generator = TraceGenerator(machine, profile,
                               RandomStreams(42).fork("trace-round0"))
    generator.run(1000, warmup=250)
    slots = []
    for cpu in generator.smp.cpus:
        counts = cpu.counts
        for field in fields(HierarchyCounts):
            value = getattr(counts, field.name)
            slots.extend((value,) if isinstance(value, int)
                         else (value.user, value.kernel))
    directory = generator.smp.directory
    slots.extend((directory.invalidations, directory.interventions,
                  directory.coherence_misses))
    text = f"{slots}\n{kernel_driver.state(generator._mt)}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_run_is_pinned(case):
    assert _trace_digest(case) == PINS[case]
