"""CPU scheduler model.

CPUs are a multi-slot :class:`~repro.sim.resources.Resource`.  A server
process acquires a CPU, executes user and kernel instruction segments
(each converted to time through a seconds-per-instruction rate), and
releases the CPU whenever it blocks — on a buffer-cache miss, a lock
wait, or a commit flush.  Every such block is a context switch: the
scheduler charges the kernel path length and increments the counter that
Figure 8 plots.

The user/OS split of busy time (Figure 3) and of instructions
(Figures 5/6) is accumulated here.

The scheduler is compiled (``_des.Scheduler`` in ``repro/sim/_des.c``,
DESIGN.md §11, "Compiled OS operations"): its CPUs, rates and
accumulators live in C, and ``execute_user``, ``execute_os`` and
``block`` return compiled bursts that callers ``yield from``.  A burst
of positive length is one ``Timeout``: ``bursts`` counts it when it is
scheduled, and the instructions and busy seconds are booked when it
fires.  A zero-length burst yields nothing and books at once; negative
and NaN instruction counts raise :class:`ValueError` when the burst
starts.  ``block(claim)`` is a kernel burst of the context-switch path
that then counts one switch and releases ``claim``.
"""

from __future__ import annotations

from repro.osmodel.kernelcost import KernelCosts
from repro.sim.engine import Engine, _des


class Scheduler(_des.Scheduler):
    """P CPUs plus context-switch and user/OS accounting.

    ``user_spi`` / ``os_spi`` are seconds per instruction (CPI / F) for
    user and kernel code, 2.0 / F until set.  The experiment runner
    sets them from the microarchitecture model and iterates to a fixed
    point, since CPI itself depends on the behavior this scheduler
    produces.  ``cpus`` is the CPU resource; ``acquire()`` claims a
    slot (yield the request to wait for it) and ``release(claim)``
    gives it up without a switch.  ``context_switches``,
    ``user_instructions`` and ``os_instructions`` are counters;
    ``user_busy_s``, ``os_busy_s`` and ``bursts`` (the burst timeouts
    scheduled, ``engine.events.cpu_burst``) are numbers.
    """

    __slots__ = ()

    def __new__(cls, engine: Engine, processors: int, frequency_hz: float,
                costs: KernelCosts = KernelCosts()):
        return super().__new__(cls, engine, processors, frequency_hz, costs)

    def snapshot(self) -> dict[str, float]:
        """Counter snapshot for interval-delta measurement (EMON)."""
        return {
            "context_switches": self.context_switches.snapshot(),
            "user_instructions": self.user_instructions.snapshot(),
            "os_instructions": self.os_instructions.snapshot(),
            "user_busy_s": self.user_busy_s,
            "os_busy_s": self.os_busy_s,
            "cpu_busy_time": self.cpus.busy_time(),
        }
