"""Operating-system model: CPU scheduling, disk I/O, kernel path lengths.

This package substitutes for the Linux 2.4 kernel on the paper's testbed.
It provides what the workload layer needs to *block*, *switch*, and
*account*:

- :mod:`~repro.osmodel.scheduler` — CPUs as scheduled resources with
  context-switch counting and user/OS busy-time split (Figures 3, 8).
- :mod:`~repro.osmodel.disks` — a striped disk array with per-disk FIFO
  service and stochastic service times (the I/O-bound region of
  Figure 2 comes from its saturation).
- :mod:`~repro.osmodel.kernelcost` — instructions retired by kernel code
  paths (context switch, I/O submit/complete, ...), the source of the
  OS-space IPX growth in Figure 6.
"""
