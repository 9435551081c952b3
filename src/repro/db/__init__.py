"""Database engine substrate (the Oracle-equivalent).

Implements the server-side mechanisms whose interplay the paper measures:

- :mod:`~repro.db.blocks` — the block address space: tables are segments
  of block units, per warehouse plus global segments.
- :mod:`~repro.db.buffer_cache` — the SGA database buffer cache: LRU over
  block units with dirty tracking; its misses are the disk reads of
  Figure 7.
- :mod:`~repro.db.locks` — a held-to-commit lock table; queueing on hot
  warehouse/district rows produces the 10-warehouse context-switch spike
  of Figure 8.
- :mod:`~repro.db.redo` — the redo log with a group-committing log
  writer (the ~6 KB/transaction log traffic of Section 4.3).
- :mod:`~repro.db.dbwriter` — the database writer draining dirty
  evictions to disk asynchronously.
- :mod:`~repro.db.engine` — the facade a server process talks to.
"""
