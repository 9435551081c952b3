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
attribute, an import), as a string constant that is a name or a dotted
path (``getattr(obj, "name")``, ``"module:function"``) or as a string
literal of the compiled kernels' C sources that is a name (a method the
kernel calls, ``"outage_wait_s"``).  A method or property is reached
through its object, so for one only an attribute access, an import
alias or a name string counts: a local variable that shares its name
does not.  The scan matches names, not call graphs: a definition that
shares its name with a live one passes.  A package ``__init__.py``'s re-exports (its ``from …
import`` names and its ``__all__`` strings) do not count: they make a
name importable, they do not use it.  Dunder methods are exempt; they
are called by the language.

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
           "this iron-law, pivot or result-validation helper")
ALLOWED = {
    "repro.core.ironlaw.DatabaseIronLaw.tps_per_cpu": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.seconds_per_transaction": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.from_measured_tps": _CLAIMS,
    "repro.core.ironlaw.DatabaseIronLaw.speedup_from": _CLAIMS,
    "repro.core.pivot.PivotAnalysis.cached_region": _CLAIMS,
    "repro.core.pivot.PivotAnalysis.scaled_region": _CLAIMS,
    "repro.core.validation.assert_valid": _CLAIMS,
}

#: A string that names something: ``name``, ``module.name`` or
#: ``module:name`` (prose and docstrings do not count).
_REFERENCE = re.compile(r"[A-Za-z_][\w]*(?:[.:][A-Za-z_][\w]*)*\Z")


def _python_files(root: Path):
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def _reexports(tree: ast.Module) -> set[int]:
    """``id`` of every node of a package's re-exports: its ``from …
    import`` aliases and the strings of its ``__all__``."""
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            skipped.update(id(alias) for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__all__" for target in node.targets)):
            skipped.update(id(child) for child in ast.walk(node.value))
    return skipped


def _names(tree: ast.Module,
           package: bool = False) -> tuple[set[str], set[str]]:
    """``(bare, members)``: the bare identifiers a module names, and the
    names it reaches as attributes, import aliases or name strings,
    outside its own ``def`` lines (and, for a package ``__init__``,
    outside its re-exports)."""
    skipped = _reexports(tree) if package else set()
    bare, members = set(), set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            members.update(node.name.split("."))
            if node.asname:
                members.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _REFERENCE.match(node.value)):
            members.update(re.split(r"[.:]", node.value))
    return bare, members


def _definitions(tree: ast.Module, module: str):
    """``(qualified name, name, line, member)`` of every module-level
    function and every method or property of a (possibly nested) class;
    ``member`` is true for the latter."""
    stack = [(tree, module, False)]
    while stack:
        node, prefix, member = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}", True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{prefix}.{name}", name, child.lineno, member


def _module_name(path: Path) -> str:
    parts = path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _used(paths, program: bool = False) -> tuple[set[str], set[str]]:
    """``(bare, members)`` names ``paths`` use (see :func:`_names`); in
    the program, re-exports are no use."""
    bare, members = set(), set()
    for path in paths:
        found = _names(ast.parse(path.read_text(), str(path)),
                       package=program and path.name == "__init__.py")
        bare |= found[0]
        members |= found[1]
    return bare, members


def main() -> int:
    this = Path(__file__).resolve()
    program = [path for root in PROGRAM_ROOTS
               for path in _python_files(REPO / root) if path != this]
    program += [REPO / name for name in PROGRAM_FILES
                if (REPO / name).exists()]
    program_bare, program_members = _used(program, program=True)
    for toml in REPO.glob("*.toml"):
        program_members.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                          toml.read_text()))
    # The compiled kernels call Python methods by name: a C string
    # literal that is a name is a use.
    for source in SOURCE_ROOT.rglob("*.c"):
        program_members.update(re.findall(r'"([A-Za-z_][A-Za-z0-9_]*)"',
                                          source.read_text()))
    test_bare, test_members = _used(_python_files(REPO / TEST_ROOT))
    program_all = program_bare | program_members
    test_all = test_bare | test_members
    problems = []
    flagged = set()
    for path in _python_files(SOURCE_ROOT):
        tree = ast.parse(path.read_text(), str(path))
        for qualified, name, line, member in _definitions(
                tree, _module_name(path)):
            program_names = program_members if member else program_all
            test_names = test_members if member else test_all
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
