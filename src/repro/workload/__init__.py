"""Declarative workloads: specs in, transaction mixes out.

The package splits into five small layers:

- :mod:`repro.workload.spec` — the frozen, validated dataclass model
  (:class:`WorkloadSpec` and friends) with canonical serialization and
  a stable fingerprint.
- :mod:`repro.workload.loader` — strict YAML/JSON parsing with
  key-path error messages.
- :mod:`repro.workload.standard` — the paper's ODB mix as a spec
  (``odb-standard``), the workload of every run that names none.
- :mod:`repro.workload.compiler` — the mix weights and the block
  space a run derives from a spec (``compile_workload`` ->
  :class:`CompiledWorkload`; ``compiled_workload(None)`` is the
  compiled default).
- :mod:`repro.workload.library` — the shipped scenarios (the Python
  default plus the YAML files) and ``--workload`` reference resolution.

Authoring guide and schema reference: ``docs/WORKLOADS.md``.
"""

from repro.workload.compiler import (
    CompiledWorkload,
    compile_workload,
    compiled_workload,
)
from repro.workload.library import (
    DEFAULT_WORKLOAD,
    available_workloads,
    load_source,
    resolve_workload,
    scenario_paths,
    scenario_sources,
    scenarios_dir,
    workload_by_name,
)
from repro.workload.loader import (
    load_workload,
    parse_workload,
    parse_workload_text,
)
from repro.workload.spec import (
    PhaseSpec,
    SegmentSpec,
    TouchRule,
    TransactionSpec,
    WorkloadSpec,
    WorkloadSpecError,
)

__all__ = [
    "CompiledWorkload",
    "DEFAULT_WORKLOAD",
    "PhaseSpec",
    "SegmentSpec",
    "TouchRule",
    "TransactionSpec",
    "WorkloadSpec",
    "WorkloadSpecError",
    "available_workloads",
    "compile_workload",
    "compiled_workload",
    "load_source",
    "load_workload",
    "parse_workload",
    "parse_workload_text",
    "resolve_workload",
    "scenario_paths",
    "scenario_sources",
    "scenarios_dir",
    "workload_by_name",
]
