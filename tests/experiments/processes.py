"""Processes as Linux ``/proc`` shows them: a driver's pool workers.

Pool workers are children of the process that runs the sweep, so the
tests that follow their lifetime (a SIGKILLed sweep's orphans, the pool
a clean run keeps) read them from ``/proc`` rather than from the pool.
"""

from pathlib import Path

#: Tests that read ``/proc`` skip without it.
HAVE_PROC = Path("/proc/self/stat").exists()


def proc_stat(pid):
    """``(state, ppid)`` of ``pid``, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces: fields resume after its ')'.
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def children_of(pid):
    """Live pids whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return found


def gone(pid):
    """Exited: no process, or a zombie its new parent has not reaped."""
    stat = proc_stat(pid)
    return stat is None or stat[0] == "Z"
