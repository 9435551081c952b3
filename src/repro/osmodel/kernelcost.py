"""Kernel path-length model.

The paper attributes the OS-space IPX growth (Figure 6) to two sources:
servicing disk I/O and context switching in the scheduler.  This module
assigns an instruction cost to each kernel entry so the DES can account
OS instructions per transaction; the totals it produces are what split
Figure 4 into Figures 5 and 6.

The costs are order-of-magnitude figures for a Linux 2.4 kernel on IA-32
(syscall + block layer + SCSI driver for a submit; interrupt + completion
+ wakeup for a completion; scheduler + MMU switch for a context switch).
They are calibration constants in the DESIGN.md §5 sense.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelCosts:
    """Instructions retired per kernel operation."""

    #: Scheduler decision, register/FPU state, MMU switch.
    context_switch: float = 9_000.0
    #: read() syscall through block layer and SCSI submit.
    io_submit: float = 16_000.0
    #: Interrupt, request completion, process wakeup.
    io_complete: float = 9_000.0
    #: Asynchronous write submission (no completion wakeup on the
    #: transaction's critical path).
    write_submit: float = 11_000.0
    #: Redo-log flush: sequential write submit plus group-commit wakeups.
    log_flush: float = 14_000.0
    #: Per-transaction baseline: timer ticks, IPC with the client, misc.
    base_per_txn: float = 30_000.0

    def __post_init__(self) -> None:
        for name in ("context_switch", "io_submit", "io_complete",
                     "write_submit", "log_flush", "base_per_txn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

