"""Installs the walk timers in worker interpreters of a traced pass.

A traced pass puts this directory on ``PYTHONPATH``; Python imports
``sitecustomize`` at start-up, so fabric workers (fresh interpreters
that the benchmark cannot otherwise reach) time the hierarchy walk the
same way the benchmark's own process does.  It prints nothing: a
fabric worker's stdout is its frame channel.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1]))

import walkprobe  # noqa: E402

walkprobe.install()
