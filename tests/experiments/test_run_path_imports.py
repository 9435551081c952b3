"""The run path loads only the observability modules it uses.

A pool worker imports :mod:`repro.experiments.parallel` and
:mod:`repro.experiments.runner` before it runs its first point, so every
module those two pull in is set-up time on each fresh worker.  Runs
publish into :mod:`repro.obs.metrics`, :mod:`repro.obs.tracing` and
:mod:`repro.obs.manifest` only; the reporting side of ``repro.obs``
(diffs, snapshots, sweep reports, Chrome traces, counter provenance)
and the EMON event tables it reads stay unloaded until a command
renders something.
"""

import os
import subprocess
import sys
from pathlib import Path

#: Modules the run path must not load.
REPORTING_MODULES = (
    "repro.obs.diff",
    "repro.obs.snapshot",
    "repro.obs.sweep_report",
    "repro.obs.trace_export",
    "repro.obs.provenance",
)


def test_run_path_loads_no_reporting_module():
    code = ("import sys\n"
            "import repro.experiments.parallel\n"
            "import repro.experiments.runner\n"
            f"reporting = {REPORTING_MODULES!r}\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name in reporting or name == 'repro.emon'\n"
            "                or name.startswith('repro.emon.'))\n"
            "assert not loaded, f'run path loaded {loaded}'\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
