"""A live sweep's journal lock, held from another process.

The journal lock is a kernel ``flock``, so contention tests need a real
second process: :func:`held_elsewhere` starts one that takes
``SweepJournal(path).held()`` and keeps it until the block exits.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

HOLDER = (
    "import sys\n"
    "from repro.experiments.resilience import SweepJournal\n"
    "with SweepJournal(sys.argv[1]).held():\n"
    "    print('held', flush=True)\n"
    "    sys.stdin.read()\n"
)


def holder_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@contextmanager
def held_elsewhere(path):
    """Hold ``path``'s journal lock in a child process for the block;
    yields the holder's pid."""
    holder = subprocess.Popen([sys.executable, "-c", HOLDER, str(path)],
                              env=holder_env(), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline() == b"held\n"
        yield holder.pid
    finally:
        holder.stdin.close()  # the holder's read returns: it exits
        try:
            holder.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            holder.kill()
            holder.wait()
        holder.stdout.close()
