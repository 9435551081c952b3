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
"""

from __future__ import annotations

from repro.osmodel.kernelcost import KernelCosts
from repro.sim import Engine, Resource
from repro.sim.engine import Timeout
from repro.sim.resources import Request
from repro.sim.stats import Counter


class Scheduler:
    """P CPUs plus context-switch and user/OS accounting.

    ``user_spi`` / ``os_spi`` are seconds per instruction (CPI / F) for
    user and kernel code.  The experiment runner sets them from the
    microarchitecture model and iterates to a fixed point, since CPI
    itself depends on the behavior this scheduler produces.
    """

    def __init__(self, engine: Engine, processors: int, frequency_hz: float,
                 costs: KernelCosts = KernelCosts()):
        if processors <= 0:
            raise ValueError("processors must be positive")
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.engine = engine
        self.costs = costs
        self.cpus = Resource(engine, processors, name="cpus")
        # Default to CPI=2.0 until the runner calibrates.
        self.user_spi = 2.0 / frequency_hz
        self.os_spi = 2.0 / frequency_hz
        self.context_switches = Counter("context-switches")
        self.user_instructions = Counter("user-instructions")
        self.os_instructions = Counter("os-instructions")
        self.user_busy_s = 0.0
        self.os_busy_s = 0.0
        self.bursts = 0

    # -- acquiring and releasing CPUs ---------------------------------------

    def acquire(self) -> Request:
        """Claim a CPU slot; yield the returned request to wait for it."""
        return self.cpus.request()

    def release(self, claim: Request) -> None:
        """Give up the CPU without a blocking switch (transaction end)."""
        self.cpus.release(claim)

    def block(self, claim: Request):
        """Voluntarily block: charge the context-switch path, then release.

        Must be called while holding the CPU.  This is a generator —
        ``yield from`` it.  The caller re-acquires a CPU when it unblocks.
        """
        yield from self.execute_os(self.costs.context_switch)
        self.context_switches.count += 1
        self.cpus.release(claim)

    # -- executing instruction segments --------------------------------------

    # One generator each, no shared helper: a burst is the DES's most
    # common event.  ``bursts`` counts the burst timeouts scheduled
    # (``engine.events.cpu_burst``), including the per-touch user bursts
    # that repro.odb.client schedules itself.  ``not x >= 0`` also
    # rejects NaN.

    def execute_user(self, instructions: float):
        """Run ``instructions`` of user code on the held CPU."""
        if not instructions >= 0:
            raise ValueError("instructions must be >= 0")
        duration = instructions * self.user_spi
        if duration > 0:
            self.bursts += 1
            yield Timeout(self.engine, duration)
        self.user_instructions.count += instructions
        self.user_busy_s += duration

    def execute_os(self, instructions: float):
        """Run ``instructions`` of kernel code on the held CPU."""
        if not instructions >= 0:
            raise ValueError("instructions must be >= 0")
        duration = instructions * self.os_spi
        if duration > 0:
            self.bursts += 1
            yield Timeout(self.engine, duration)
        self.os_instructions.count += instructions
        self.os_busy_s += duration

    # -- statistics -----------------------------------------------------------

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
