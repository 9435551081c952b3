"""A TLB modeled as a set-associative cache of page numbers."""

from __future__ import annotations

from repro.hw.machine import CacheConfig, TlbConfig
from repro.hw.cache import SetAssociativeCache


class Tlb:
    """Data TLB: translates byte addresses at page granularity.

    Internally reuses :class:`SetAssociativeCache` with one "line" per
    page.  A fully associative TLB is the single-set special case
    (``entries == associativity``), which is how the Xeon MP's DTLB is
    configured.
    """

    def __init__(self, config: TlbConfig):
        self.config = config
        self._cache = SetAssociativeCache(CacheConfig(
            name="TLB",
            size_bytes=config.entries * config.page_bytes,
            line_bytes=config.page_bytes,
            associativity=config.associativity,
        ))
