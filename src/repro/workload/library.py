"""The shipped scenario library and ``--workload`` reference resolution.

The default workload, ``odb-standard``, is written in Python
(:mod:`repro.workload.standard`); the other scenarios live as YAML
files under ``src/repro/workload/scenarios/``, where the file stem is
the workload name (enforced at load, so ``--workload banking`` always
means ``banking.yaml``).  ``resolve_workload`` accepts either a library
name or a path to a user spec file, which is how every CLI surface
takes its workload argument.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.workload.loader import load_workload
from repro.workload.spec import WorkloadSpec, WorkloadSpecError
from repro.workload.standard import ODB_STANDARD

#: The workload every run uses unless told otherwise.
DEFAULT_WORKLOAD = ODB_STANDARD.name

#: Shipped scenarios written in Python, by name: no file to read.
_BUILT_IN = {ODB_STANDARD.name: ODB_STANDARD}

_SCENARIO_SUFFIXES = (".yaml", ".yml", ".json")


def scenarios_dir() -> Path:
    """The shipped scenario directory."""
    return Path(__file__).resolve().parent / "scenarios"


def scenario_paths() -> list[Path]:
    """All shipped scenario spec files, sorted by name."""
    directory = scenarios_dir()
    if not directory.is_dir():  # pragma: no cover - packaging error
        return []
    return sorted(path for path in directory.iterdir()
                  if path.suffix in _SCENARIO_SUFFIXES)


def scenario_sources() -> dict[str, WorkloadSpec | Path]:
    """Every shipped scenario by name, in name order: the spec itself
    when it is written in Python, otherwise its (unread) file."""
    sources: dict[str, WorkloadSpec | Path] = dict(_BUILT_IN)
    sources.update((path.stem, path) for path in scenario_paths())
    return dict(sorted(sources.items()))


def load_source(source: WorkloadSpec | Path) -> WorkloadSpec:
    """The spec of one :func:`scenario_sources` entry."""
    if isinstance(source, WorkloadSpec):
        return source
    spec = load_workload(source)
    if spec.name != source.stem:
        raise WorkloadSpecError(
            f"{source.name}: name: scenario file stem must match the "
            f"workload name (got {spec.name!r})")
    return spec


@lru_cache(maxsize=1)
def _library() -> dict[str, WorkloadSpec]:
    return {name: load_source(source)
            for name, source in scenario_sources().items()}


def available_workloads() -> dict[str, WorkloadSpec]:
    """Name -> spec for every shipped scenario (load-validated)."""
    return dict(_library())


def workload_by_name(name: str) -> WorkloadSpec:
    """A shipped scenario by name; unknown names list what exists."""
    library = _library()
    try:
        return library[name]
    except KeyError:
        known = ", ".join(sorted(library))
        raise WorkloadSpecError(
            f"unknown workload {name!r}; known: {known} "
            f"(or pass a path to a spec file)") from None


def resolve_workload(reference: str | Path) -> WorkloadSpec:
    """Resolve a ``--workload`` argument: library name or spec path.

    Anything that looks like a file (an existing path, or a reference
    with a spec suffix or a path separator) loads as a file; everything
    else is a library lookup.
    """
    path = Path(reference)
    looks_like_file = (path.suffix in _SCENARIO_SUFFIXES
                       or len(path.parts) > 1)
    if looks_like_file or path.exists():
        return load_workload(path)
    return workload_by_name(str(reference))
