#!/usr/bin/env python3
"""Surface linter: no ``src/repro`` definition exists only for tests.

Stdlib-only (``ast``, nothing imported from the program), run by the CI
``docs`` job next to ``lint_docs.py``.  Every function, method and
property defined under ``src/repro`` must be named somewhere in the
program's own code: ``src/``, ``benchmarks/``, ``tools/``, ``examples/``
or ``setup.py``.  A definition whose name appears there only at its own
``def`` but is named under ``tests/`` is test-only surface: the program
carries it for its tests.  Such a check belongs in the test's own helper
(``tests/hw/reference_*.py`` and the like), not in the program.

A name counts as named when it occurs as an identifier (a variable, an
attribute, an import) or as a string constant that is a name or a dotted
path (``getattr(obj, "name")``, ``__all__``, ``"module:function"``), so
the scan matches names, not call graphs: a definition that shares its
name with a live one passes.  Dunder methods are exempt; they are called
by the language.

``ALLOWED`` lists the test-only definitions kept on purpose, each with
its reason.  An entry that no longer matches a test-only definition is
reported too, so the list cannot go stale.

Exit status is the number of problems found (0 = clean), each printed
as ``path:line: message``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO / "src" / "repro"
#: Where the program's own uses of a name count.
PROGRAM_ROOTS = ("src", "benchmarks", "tools", "examples")
PROGRAM_FILES = ("setup.py",)
TEST_ROOT = "tests"

#: ``qualified name -> reason`` for test-only definitions kept on purpose.
_CLAIMS = ("kept for the paper-claims registry to decide: it may read "
           "this iron-law or pivot helper")
ALLOWED = {
    "repro.core.ironlaw.DatabaseIronLaw.tps_per_cpu": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.seconds_per_transaction": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.from_measured_tps": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.speedup_from": _CLAIMS,
    "repro.core.pivot.PivotAnalysis.cached_region": _CLAIMS,
    "repro.core.pivot.PivotAnalysis.scaled_region": _CLAIMS,
}

#: A string that names something: ``name``, ``module.name`` or
#: ``module:name`` (prose and docstrings do not count).
_REFERENCE = re.compile(r"[A-Za-z_][\w]*(?:[.:][A-Za-z_][\w]*)*\Z")


def _python_files(root: Path):
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module names, outside its own ``def`` lines."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _REFERENCE.match(node.value)):
            found.update(re.split(r"[.:]", node.value))
    return found


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, name, line)`` of every module-level function and
    every method or property of a (possibly nested) class."""
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}"))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{prefix}.{name}", name, child.lineno


def _module_name(path: Path) -> str:
    parts = path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _used(paths) -> set[str]:
    names = set()
    for path in paths:
        names |= _names(ast.parse(path.read_text(), str(path)))
    return names


def main() -> int:
    this = Path(__file__).resolve()
    program = [path for root in PROGRAM_ROOTS
               for path in _python_files(REPO / root) if path != this]
    program += [REPO / name for name in PROGRAM_FILES
                if (REPO / name).exists()]
    program_names = _used(program)
    for toml in REPO.glob("*.toml"):
        program_names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                        toml.read_text()))
    test_names = _used(_python_files(REPO / TEST_ROOT))
    problems = []
    flagged = set()
    for path in _python_files(SOURCE_ROOT):
        tree = ast.parse(path.read_text(), str(path))
        for qualified, name, line in _definitions(tree, _module_name(path)):
            if name in program_names or name not in test_names:
                continue
            flagged.add(qualified)
            if qualified not in ALLOWED:
                problems.append(
                    f"{path.relative_to(REPO)}:{line}: {qualified} is named "
                    "only under tests/ (delete it, move it into the test's "
                    "helper, or allow it in tools/lint_surface.py with a "
                    "reason)")
    for qualified in sorted(set(ALLOWED) - flagged):
        problems.append(f"tools/lint_surface.py:1: ALLOWED entry {qualified} "
                        "is not a test-only definition (remove the entry)")
    for problem in problems:
        print(problem)
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
