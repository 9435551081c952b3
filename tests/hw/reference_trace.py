"""The trace generator's Python formulations, kept as oracles for the
compiled transaction loop.

:class:`ReferenceTraceGenerator` is :class:`repro.hw.trace.TraceGenerator`'s
stream generation as it was before the sampling moved into the walk
kernel (``repro/hw/_walk.c``), unchanged but for the class name and its
context switches (``kernel_driver.context_switch``) and its stream:
every draw is a call on a ``random.Random`` seeded as the compiled
generator's kernel stream ``trace`` is, in the order the compiled
samplers must reproduce.  It drives the same
:class:`~repro.hw.hierarchy.SmpHierarchy` and shares the program's rate
conversion, so ``test_compiled_sampling.py`` can compare rates, counts,
directory state and the stream state left behind.

:class:`SegmentTraceGenerator` is the step between the two: the
transaction loop in Python, as it was before it moved into the kernel,
with each segment filled by the compiled samplers and walked through
``self.smp``'s batched walks, so ``test_walk_kernel.py`` can point it at
the pure-Python hierarchy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from random import Random

from repro.hw.cwalk import lib
from repro.hw.trace import MicroarchRates, TraceGenerator
from repro.sim.randomness import derive_seed, zipf_cdf

from tests.hw import kernel_driver

# Region base addresses (byte addresses; regions far apart).
_HOT_BASE = 0
_WARM_BASE = 1 << 24
_PRIVATE_BASE = 1 << 25
_KERNEL_DATA_BASE = 1 << 28
_KERNEL_COLD_BASE = 1 << 29
_KERNEL_TASK_BASE = 3 << 28
_KERNEL_SYNC_BASE = 7 << 26
_BLOCK_BASE = 1 << 30
_USER_CODE_BASE = 0
_KERNEL_CODE_BASE = 1 << 22

_LINE = 128  # L2/L3 line size in bytes (both machines)
_CODE_LINE = 64  # TC line size


class ReferenceTraceGenerator(TraceGenerator):
    """The synthetic stream, sampled in Python."""

    def __init__(self, machine, profile, streams, *args, **kwargs):
        super().__init__(machine, profile, streams, *args, **kwargs)
        #: The ``trace`` stream in Python, from the kernel stream's seed.
        self._rng = Random(derive_seed(streams.root_seed, "trace"))
        p = self.params
        self._hot_cdf = zipf_cdf(p.hot_lines, p.hot_skew)
        self._warm_cdf = zipf_cdf(p.warm_lines, p.warm_skew)
        self._private_cdf = zipf_cdf(p.private_lines, 0.4)
        self._kernel_cdf = zipf_cdf(p.kernel_data_lines, p.kernel_skew)
        self._user_code_cdf = zipf_cdf(p.user_code_lines, p.code_skew)
        self._kernel_code_cdf = zipf_cdf(p.kernel_code_lines, p.code_skew)
        self._hot_block_cdf = zipf_cdf(p.hot_blocks_per_warehouse, p.block_skew)
        # Per-transaction recent-line window for within-transaction reuse.
        self._recent: list[int] = []
        self._slab_seq = 0

    def _user_data_segment(self, cpu: int, client: int, count: int) -> None:
        p = self.params
        rng = self._rng
        rand = rng.random
        # randrange draws are inlined as CPython's
        # Random._randbelow_with_getrandbits loop — identical getrandbits
        # sequence (the stream stays pinned), minus two interpreter
        # frames per draw.
        getrandbits = rng.getrandbits
        recent = self._recent
        hot_cdf = self._hot_cdf
        warm_cdf = self._warm_cdf
        private_cdf = self._private_cdf
        hot_block_cdf = self._hot_block_cdf
        p_hot = p.p_hot
        p_hot_warm = p.p_hot + p.p_warm
        p_hot_warm_block = p_hot_warm + p.p_block
        hot_write_prob = p.hot_write_prob
        warm_write_prob = p.warm_write_prob
        block_write_prob = p.block_write_prob
        private_write_prob = p.private_write_prob
        revisit_prob = p.revisit_prob
        hot_block_prob = p.hot_block_prob
        wh_count = self.profile.warehouses
        wh_bits = wh_count.bit_length()
        hot_per_wh = p.hot_blocks_per_warehouse
        cold_per_wh = p.cold_blocks_per_warehouse
        cold_bits = cold_per_wh.bit_length()
        lines_per_block = p.lines_per_block
        line_bits = lines_per_block.bit_length()
        private_base = _PRIVATE_BASE + client * (p.private_lines * 2) * _LINE
        # Generation pass: pack (address << 2) | write << 1 | shared.
        run: list[int] = []
        append = run.append
        for _ in range(count):
            if recent and rand() < revisit_prob:
                size = len(recent)
                size_bits = size.bit_length()
                pick = getrandbits(size_bits)
                while pick >= size:
                    pick = getrandbits(size_bits)
                append(recent[pick] << 2)
                continue
            u = rand()
            if u < p_hot:
                address = _HOT_BASE + bisect_left(hot_cdf, rand()) * _LINE
                append((address << 2)
                       | (2 if rand() < hot_write_prob else 0) | 1)
            elif u < p_hot_warm:
                address = _WARM_BASE + bisect_left(warm_cdf, rand()) * _LINE
                append((address << 2)
                       | (2 if rand() < warm_write_prob else 0) | 1)
            elif u < p_hot_warm_block:
                warehouse = getrandbits(wh_bits)
                while warehouse >= wh_count:
                    warehouse = getrandbits(wh_bits)
                if rand() < hot_block_prob:
                    block_id = (warehouse * hot_per_wh
                                + bisect_left(hot_block_cdf, rand()))
                    region = 0
                else:
                    block = getrandbits(cold_bits)
                    while block >= cold_per_wh:
                        block = getrandbits(cold_bits)
                    block_id = warehouse * cold_per_wh + block
                    region = 1 << 38   # cold blocks live far from hot
                line = getrandbits(line_bits)
                while line >= lines_per_block:
                    line = getrandbits(line_bits)
                address = (_BLOCK_BASE + region
                           + (block_id * lines_per_block + line) * _LINE)
                append((address << 2)
                       | (2 if rand() < block_write_prob else 0))
                recent.append(address)
                if len(recent) > 24:
                    recent.pop(0)
            else:
                address = (private_base
                           + bisect_left(private_cdf, rand()) * _LINE)
                append((address << 2)
                       | (2 if rand() < private_write_prob else 0))
        if run:
            self.smp.access_run(cpu, run, False)

    def _user_code_segment(self, cpu: int, count: int) -> None:
        rand = self._rng.random
        cdf = self._user_code_cdf
        run = [_USER_CODE_BASE + bisect_left(cdf, rand()) * _CODE_LINE
               for _ in range(count)]
        if run:
            self.smp.fetch_run(cpu, run, False)

    def _branches(self, cpu: int, count: int) -> None:
        rand = self._rng.random
        cdf = self._user_code_cdf
        run: list[int] = []
        append = run.append
        for _ in range(count):
            site = bisect_left(cdf, rand())
            # Per-site taken bias, stable across the run: mostly strongly
            # biased branches with a hard-to-predict minority, as in real
            # integer code.
            bucket = (site * 2654435761) % 20
            if bucket < 12:
                taken_prob = 0.97
            elif bucket < 15:
                taken_prob = 0.03
            elif bucket < 19:
                taken_prob = 0.88
            else:
                taken_prob = 0.55
            append((site << 1) | (1 if rand() < taken_prob else 0))
        if run:
            self.smp.branch_run(cpu, run, False)

    def _kernel_burst(self, cpu: int, refs: int, slab_refs: int = 0,
                      task_client: int | None = None) -> None:
        p = self.params
        rng = self._rng
        rand = rng.random
        kernel_cdf = self._kernel_cdf
        run: list[int] = []
        append = run.append
        for _ in range(refs):
            address = (_KERNEL_DATA_BASE
                       + bisect_left(kernel_cdf, rand()) * _LINE)
            append((address << 2) | (2 if rand() < 0.3 else 0))
        for _ in range(slab_refs):
            # Recycled per-request slab objects: hit when recently reused.
            self._slab_seq += 1
            line = self._slab_seq % p.os_slab_pool_lines
            append(((_KERNEL_COLD_BASE + line * _LINE) << 2) | 2)
        if task_client is not None:
            base = (_KERNEL_TASK_BASE
                    + task_client * p.os_task_lines_per_client * _LINE)
            for _ in range(p.os_task_refs_per_cs):
                offset = rng.randrange(p.os_task_lines_per_client)
                append(((base + offset * _LINE) << 2)
                       | (2 if rand() < 0.4 else 0))
        if run:
            self.smp.access_run(cpu, run, True)
        kernel_code_cdf = self._kernel_code_cdf
        code_run = [
            _KERNEL_CODE_BASE + bisect_left(kernel_code_cdf, rand()) * _CODE_LINE
            for _ in range(p.os_code_refs_per_burst)]
        if code_run:
            self.smp.fetch_run(cpu, code_run, True)

    # -- driving ------------------------------------------------------------

    def run_transaction(self, cpu: int, client: int) -> None:
        """Simulate one transaction's reference stream on ``cpu``."""
        p = self.params
        rng = self._rng
        profile = self.profile
        self._recent = []
        reads = _poisson(rng, profile.reads_per_txn)
        switches = _poisson(rng, profile.context_switches_per_txn)
        # Split the user work into segments separated by I/O waits; each
        # I/O produces a kernel burst and each switch flushes the DTLB.
        segments = max(1, reads + 1)
        user_refs_left = p.user_refs_per_txn
        code_refs_left = p.code_refs_per_txn
        branches_left = p.branches_per_txn
        switches_left = switches
        for segment in range(segments):
            share = user_refs_left // (segments - segment)
            code_share = code_refs_left // (segments - segment)
            branch_share = branches_left // (segments - segment)
            self._user_data_segment(cpu, client, share)
            self._user_code_segment(cpu, code_share)
            self._branches(cpu, branch_share)
            user_refs_left -= share
            code_refs_left -= code_share
            branches_left -= branch_share
            if segment < reads:
                next_client = rng.randrange(profile.clients)
                self._kernel_burst(cpu, p.os_refs_per_io,
                                   slab_refs=p.os_slab_refs_per_io,
                                   task_client=next_client
                                   if switches_left > 0 else None)
                if switches_left > 0:
                    kernel_driver.context_switch(self.smp.cpus[cpu])
                    switches_left -= 1
        self._kernel_burst(cpu, p.os_base_refs)
        for _ in range(switches_left):
            # Contention-driven switches (lock waits): scheduler work, the
            # incoming process's task state, and the contended wait-queue
            # structures, which bounce between CPUs.
            self._kernel_burst(cpu, p.os_refs_per_cs,
                               task_client=rng.randrange(profile.clients))
            for _ in range(p.os_sync_refs_per_cs):
                address = (_KERNEL_SYNC_BASE
                           + rng.randrange(p.os_sync_lines) * _LINE)
                self.smp.data_access(cpu, address, write=rng.random() < 0.5,
                                     kernel=True, shared=True)
            kernel_driver.context_switch(self.smp.cpus[cpu])


    def run(self, transactions: int, warmup: int = 0) -> MicroarchRates:
        profile = self.profile
        for index in range(warmup):
            client = index % profile.clients
            self.run_transaction(client % profile.processors, client)
        self._reset_counts()
        for index in range(transactions):
            client = index % profile.clients
            self.run_transaction(client % profile.processors, client)
        return self.rates()


def _poisson(rng, mean: float) -> int:
    """Small-mean Poisson sample (Knuth's method; mean is O(10) here)."""
    if mean <= 0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class SegmentTraceGenerator(TraceGenerator):
    """The transaction loop in Python over the compiled segment fills:
    one fill and one batched walk of ``self.smp`` per segment.

    Its ``smp`` is assignable, unlike the compiled generator's: the
    Python loop walks whatever hierarchy it holds, so a test can swap
    in a ``ReferenceSmp``."""

    @TraceGenerator.smp.setter
    def smp(self, hierarchy) -> None:
        self._smp = hierarchy

    def _kernel_burst(self, cpu: int, refs: int, slab_refs: int = 0,
                      task_client: int = -1) -> None:
        buffer = self._buffer
        count = lib.gen_kernel_data(self._gen, refs, slab_refs, task_client,
                                    buffer)
        if count:
            self.smp.access_run(cpu, buffer[0:count], True)
        count = self.params.os_code_refs_per_burst
        if count:
            lib.gen_code(self._gen, True, buffer, count)
            self.smp.fetch_run(cpu, buffer[0:count], True)

    def run_transaction(self, cpu: int, client: int) -> None:
        self._transaction(cpu, client)

    def _transaction(self, cpu: int, client: int) -> None:
        p = self.params
        gen = self._gen
        mt = self._mt
        buffer = self._buffer
        smp = self.smp
        profile = self.profile
        gen.recent_len = 0
        reads = kernel_driver.poisson(self._mt, profile.reads_per_txn)
        switches = kernel_driver.poisson(self._mt,
                                         profile.context_switches_per_txn)
        private_base = _PRIVATE_BASE + client * (p.private_lines * 2) * _LINE
        segments = reads + 1
        user_refs_left = p.user_refs_per_txn
        code_refs_left = p.code_refs_per_txn
        branches_left = p.branches_per_txn
        switches_left = switches
        for segment in range(segments):
            share = user_refs_left // (segments - segment)
            code_share = code_refs_left // (segments - segment)
            branch_share = branches_left // (segments - segment)
            if share:
                lib.gen_user_data(gen, private_base, buffer, share)
                smp.access_run(cpu, buffer[0:share], False)
            if code_share:
                lib.gen_code(gen, False, buffer, code_share)
                smp.fetch_run(cpu, buffer[0:code_share], False)
            if branch_share:
                lib.gen_branches(gen, buffer, branch_share)
                smp.branch_run(cpu, buffer[0:branch_share], False)
            user_refs_left -= share
            code_refs_left -= code_share
            branches_left -= branch_share
            if segment < reads:
                next_client = lib.mt_randbelow(mt, profile.clients)
                self._kernel_burst(cpu, p.os_refs_per_io,
                                   slab_refs=p.os_slab_refs_per_io,
                                   task_client=next_client
                                   if switches_left > 0 else -1)
                if switches_left > 0:
                    smp.context_switch(cpu)
                    switches_left -= 1
        self._kernel_burst(cpu, p.os_base_refs)
        for _ in range(switches_left):
            self._kernel_burst(cpu, p.os_refs_per_cs,
                               task_client=lib.mt_randbelow(
                                   mt, profile.clients))
            for _ in range(p.os_sync_refs_per_cs):
                address = (_KERNEL_SYNC_BASE
                           + lib.mt_randbelow(mt, p.os_sync_lines) * _LINE)
                smp.data_access(cpu, address, write=lib.mt_random(mt) < 0.5,
                                kernel=True, shared=True)
            smp.context_switch(cpu)

    def run(self, transactions: int, warmup: int = 0) -> MicroarchRates:
        profile = self.profile
        for index in range(warmup):
            client = index % profile.clients
            self._transaction(client % profile.processors, client)
        self._reset_counts()
        for index in range(transactions):
            client = index % profile.clients
            self._transaction(client % profile.processors, client)
        return self.rates()
