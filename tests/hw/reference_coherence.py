"""The dict-based coherence directory, kept as the oracle for the
compiled one.

This is :class:`repro.hw.coherence.CoherenceDirectory` as it was before
the directory moved into the walk kernel (``dir_t`` in
``repro/hw/_walk.c``), unchanged but for the class name: a dict from
line to sharer mask, a dict from line to modified owner, and one set of
stolen lines per CPU.  ``test_coherence_directory.py`` runs random
scripts through both, and :class:`~tests.hw.reference_hierarchy.ReferenceSmp`
uses it, so the walk-kernel tests compare the compiled directory
against it too.

Write-invalidate protocol outcome: a miss by CPU *i* on line *x* is a
**coherence miss** when *i* previously held *x* and lost it to another
CPU's write.
"""

from __future__ import annotations

from typing import Callable, Optional


class ReferenceDirectory:
    """Tracks sharers and modified ownership per cache line.

    ``invalidate_hook(cpu, line)`` is called for every remote copy that
    must be dropped, so the owning hierarchies can remove the line from
    their caches.
    """

    def __init__(self, processors: int,
                 invalidate_hook: Optional[Callable[[int, int], None]] = None):
        if processors <= 0:
            raise ValueError("processors must be positive")
        self.processors = processors
        self.invalidate_hook = invalidate_hook
        # line -> bitmask of CPUs holding the line
        self._sharers: dict[int, int] = {}
        # line -> CPU holding the line modified, if any
        self._modified: dict[int, int] = {}
        # per-CPU set of lines lost to remote writes (for miss classification)
        self._stolen: list[set[int]] = [set() for _ in range(processors)]
        self.invalidations = 0
        self.interventions = 0
        self.coherence_misses = 0

    def note_read(self, cpu: int, line: int, was_miss: bool) -> bool:
        """Record a read by ``cpu``; returns True for a coherence miss.

        A read of a line another CPU holds modified triggers an
        intervention (cache-to-cache supply) and demotes the owner.
        """
        self._check_cpu(cpu)
        is_coherence_miss = False
        if was_miss:
            if line in self._stolen[cpu]:
                self._stolen[cpu].discard(line)
                self.coherence_misses += 1
                is_coherence_miss = True
            owner = self._modified.get(line)
            if owner is not None and owner != cpu:
                self.interventions += 1
                del self._modified[line]
        self._sharers[line] = self._sharers.get(line, 0) | (1 << cpu)
        return is_coherence_miss

    def note_write(self, cpu: int, line: int, was_miss: bool) -> bool:
        """Record a write by ``cpu``; invalidates all remote copies."""
        self._check_cpu(cpu)
        is_coherence_miss = False
        if was_miss and line in self._stolen[cpu]:
            self._stolen[cpu].discard(line)
            self.coherence_misses += 1
            is_coherence_miss = True
        mask = self._sharers.get(line, 0)
        my_bit = 1 << cpu
        remote = mask & ~my_bit
        if remote:
            for other in range(self.processors):
                if remote & (1 << other):
                    self.invalidations += 1
                    self._stolen[other].add(line)
                    if self.invalidate_hook is not None:
                        self.invalidate_hook(other, line)
        owner = self._modified.get(line)
        if owner is not None and owner != cpu:
            self.interventions += 1
        self._sharers[line] = my_bit
        self._modified[line] = cpu
        return is_coherence_miss

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.processors:
            raise ValueError(f"cpu {cpu} out of range (P={self.processors})")
