"""EMON-style performance-counter infrastructure.

The paper's data comes from the Xeon MP's 18 performance counters
(grouped into 9 pairs, each pair tied to a subset of events), sampled by
the EMON tool: after a 20-minute warm-up, each event is measured for ten
seconds in a round-robin fashion, and the rotation is repeated six times
(Section 3.3).

This package reproduces that measurement protocol against the simulated
event sources — including its artifact: events with a low duty cycle
(OS-space events at small warehouse counts) pick up visible sampling
variance, which is the paper's explanation for the noisy OS CPI of
Figure 11.

- :mod:`~repro.emon.events` — the Table 2 event definitions.
- :mod:`~repro.emon.sampler` — the round-robin interval sampler, which
  fits each rotation to the counter pairs (two counters per pair).
"""
