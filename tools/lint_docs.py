#!/usr/bin/env python3
"""Documentation linter: docstrings in src/repro, links in *.md.

Stdlib-only stand-in for ``pydocstyle`` (this environment installs no
new packages), run by the CI ``docs`` job:

- every module, public class, and public function/method under
  ``src/repro`` must carry a docstring (D100/D101/D102/D103-style
  checks via ``ast``, no imports executed);
- every relative Markdown link in the repository docs must point at a
  file or directory that exists (anchors and external URLs are
  skipped);
- every ``repro`` CLI subcommand registered in ``src/repro/cli.py``
  must be mentioned in the README *and* in the ``docs/API.md`` CLI
  table (as ``repro <name>``), so new verbs cannot land undocumented;
- every shipped workload scenario must have a catalog row in
  ``docs/WORKLOADS.md`` and every public spec dataclass field must be
  documented there (backticked), so new spec knobs and scenarios
  cannot land undocumented;
- DESIGN.md's ``## N.`` sections must be numbered sequentially from 1,
  every ``§N`` cross-reference in the Markdown docs and in ``src/repro``
  docstrings must point at a section that exists, and the design ↔ API
  module maps must stay in sync: every ``repro.<pkg>`` heading in
  ``docs/API.md`` is a real package/module, every ``src/repro``
  subpackage has a module-map heading, and every ``repro.obs`` module
  has a backticked ``obs.<name>`` row — so a new observability module
  (like ``obs.snapshot``/``obs.diff``) cannot land without API docs.

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
#: Markdown files whose relative links must resolve.
DOC_GLOBS = ("*.md", "docs/*.md", "results/*.md")

#: Inline Markdown links: [text](target). Reference-style links and
#: autolinks are rare in this repo and skipped.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _documentable(tree: ast.Module):
    """Yield every public def/class that must carry a docstring.

    Modules, public classes, public module-level functions, and public
    methods are checked; functions nested inside other functions
    (closures, pool workers) are implementation detail and exempt —
    the same scope pydocstyle covers with D100-D103 under common
    configurations.
    """
    stack = [(tree, False)]
    while stack:
        node, inside_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    yield child
                    stack.append((child, False))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not inside_function and _is_public(child.name):
                    yield child
                stack.append((child, True))
            else:
                stack.append((child, inside_function))


def check_docstrings(root: Path) -> list[str]:
    """Missing-docstring findings for every Python file under ``root``."""
    problems = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as error:  # pragma: no cover - broken file
            problems.append(f"{rel}:{error.lineno}: syntax error: {error.msg}")
            continue
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}:1: missing module docstring")
        for node in _documentable(tree):
            if ast.get_docstring(node) is None:
                kind = ("class" if isinstance(node, ast.ClassDef)
                        else "function")
                problems.append(
                    f"{rel}:{node.lineno}: missing docstring on "
                    f"{kind} {node.name!r}")
    return problems


def _link_targets(text: str):
    for match in _LINK_RE.finditer(text):
        yield match.start(), match.group(1)


def check_links(repo: Path) -> list[str]:
    """Broken relative-link findings across the Markdown docs."""
    problems = []
    seen = set()
    for pattern in DOC_GLOBS:
        for path in sorted(repo.glob(pattern)):
            if path in seen:
                continue
            seen.add(path)
            text = path.read_text(encoding="utf-8")
            for offset, target in _link_targets(text):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target_path = target.split("#", 1)[0]
                if not target_path:
                    continue
                resolved = (path.parent / target_path)
                if not resolved.exists():
                    line = text.count("\n", 0, offset) + 1
                    problems.append(
                        f"{path.relative_to(repo)}:{line}: broken link "
                        f"-> {target}")
    return problems


def cli_subcommands(cli_path: Path) -> list[tuple[str, int]]:
    """(name, line) of every subcommand registered via ``add_parser``.

    Parsed statically with ``ast`` — nothing is imported — by matching
    ``<subparsers>.add_parser("name", ...)`` calls with a literal first
    argument, which is how every verb in ``cli.py`` is declared.
    """
    tree = ast.parse(cli_path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_parser"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.append((node.args[0].value, node.lineno))
    return names


def check_cli_docs(repo: Path) -> list[str]:
    """Undocumented-subcommand findings: CLI verbs absent from the docs.

    Every registered verb must be mentioned as ``repro <name>`` both in
    README.md (the narrative) and in docs/API.md (the CLI reference
    table), so a verb like ``repro diff`` cannot ship documented in one
    place but invisible in the other.
    """
    cli_path = repo / "src" / "repro" / "cli.py"
    if not cli_path.exists():  # pragma: no cover - repo invariant
        return []
    problems = []
    for doc in (repo / "README.md", repo / "docs" / "API.md"):
        if not doc.exists():  # pragma: no cover - repo invariant
            continue
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(repo)
        for name, line in cli_subcommands(cli_path):
            if not re.search(rf"repro {re.escape(name)}\b", text):
                problems.append(
                    f"src/repro/cli.py:{line}: subcommand {name!r} is not "
                    f"documented in {rel} (no 'repro {name}' mention)")
    return problems


#: ``## N. Title`` headers in DESIGN.md.
_SECTION_RE = re.compile(r"^## (\d+)\.", re.MULTILINE)
#: ``§N`` / ``§N-M`` cross-references in docs and docstrings.
_SECTION_REF_RE = re.compile(r"§(\d+)(?:\s*[-–]\s*(\d+))?")
#: ``repro.<dotted>`` names on API.md module-map headings.
_API_HEADING_RE = re.compile(r"^### .*?`", re.MULTILINE)
_API_NAME_RE = re.compile(r"`(repro(?:\.[a-z_]+)+)`")


def design_sections(design_path: Path) -> list[tuple[int, int]]:
    """(section number, line) for every ``## N.`` header in DESIGN.md."""
    text = design_path.read_text(encoding="utf-8")
    return [(int(match.group(1)), text.count("\n", 0, match.start()) + 1)
            for match in _SECTION_RE.finditer(text)]


def check_design_sections(repo: Path) -> list[str]:
    """DESIGN.md structural findings: headers sequential, §refs resolve.

    A ``§N`` reference greater than the last DESIGN.md section is dead
    (§refs to the *paper's* sections stay below that bound, so they
    pass incidentally — the check is deliberately one-sided).
    """
    design = repo / "DESIGN.md"
    if not design.exists():  # pragma: no cover - repo invariant
        return []
    problems = []
    sections = design_sections(design)
    numbers = [number for number, _line in sections]
    expected = list(range(1, len(numbers) + 1))
    if numbers != expected:
        first_bad = next((i for i, (got, want)
                          in enumerate(zip(numbers, expected))
                          if got != want), len(expected) - 1)
        problems.append(
            f"DESIGN.md:{sections[first_bad][1]}: section headers are "
            f"{numbers}, expected sequential numbering {expected}")
    highest = max(numbers, default=0)

    ref_sources = [design.parent / name
                   for name in ("README.md", "docs/API.md")]
    ref_sources += sorted(SOURCE_ROOT.rglob("*.py"))
    for path in ref_sources:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        for match in _SECTION_REF_RE.finditer(text):
            referenced = [int(match.group(1))]
            if match.group(2):
                referenced.append(int(match.group(2)))
            for number in referenced:
                if number > highest:
                    line = text.count("\n", 0, match.start()) + 1
                    problems.append(
                        f"{path.relative_to(repo)}:{line}: §{number} "
                        f"does not exist (DESIGN.md ends at "
                        f"§{highest})")
    return problems


def check_api_module_map(repo: Path) -> list[str]:
    """docs/API.md ↔ src/repro drift findings.

    Two-way: every ``repro.*`` name on a ``###`` module-map heading
    must import-resolve to a package or module on disk, and every
    subpackage under ``src/repro`` must appear on some heading — so a
    new subsystem (like ``repro.fabric``) cannot
    land without an API.md entry.
    """
    api = repo / "docs" / "API.md"
    if not api.exists():  # pragma: no cover - repo invariant
        return []
    problems = []
    text = api.read_text(encoding="utf-8")
    documented = set()
    for heading in _API_HEADING_RE.finditer(text):
        line_end = text.find("\n", heading.start())
        line_text = text[heading.start():line_end]
        lineno = text.count("\n", 0, heading.start()) + 1
        for name_match in _API_NAME_RE.finditer(line_text):
            name = name_match.group(1)
            documented.add(name)
            parts = name.split(".")[1:]  # drop the "repro" root
            target = SOURCE_ROOT.joinpath(*parts)
            if not (target.is_dir() or target.with_suffix(".py").is_file()):
                problems.append(
                    f"docs/API.md:{lineno}: module-map heading names "
                    f"{name!r}, which does not exist under src/repro")
    packages = sorted(child.name for child in SOURCE_ROOT.iterdir()
                      if child.is_dir() and (child / "__init__.py").exists())
    for package in packages:
        if f"repro.{package}" not in documented:
            problems.append(
                f"src/repro/{package}/__init__.py:1: package "
                f"'repro.{package}' has no '### `repro.{package}`' "
                f"module-map heading in docs/API.md")
    return problems


def check_obs_module_rows(repo: Path) -> list[str]:
    """docs/API.md ↔ repro.obs module-row drift findings.

    The obs package grows a module per subsystem (tracing, manifest,
    metrics, sweep_report, snapshot, diff, ...); each must have a
    backticked ``obs.<name>`` mention in docs/API.md so the module
    table stays complete as the package grows.
    """
    api = repo / "docs" / "API.md"
    obs_dir = SOURCE_ROOT / "obs"
    if not api.exists() or not obs_dir.is_dir():  # pragma: no cover
        return []
    text = api.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(?:repro\.)?obs\.([a-z_]+)`", text))
    problems = []
    for path in sorted(obs_dir.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        if path.stem not in documented:
            problems.append(
                f"src/repro/obs/{path.name}:1: module 'obs.{path.stem}' "
                f"has no backticked `obs.{path.stem}` row in docs/API.md")
    return problems


def _spec_dataclass_fields(spec_path: Path) -> list[tuple[str, str, int]]:
    """(class name, field name, line) for every spec dataclass field.

    Parsed statically with ``ast``: annotated assignments directly
    inside a class body are the dataclass fields users write in YAML.
    Private fields and ``ClassVar``-style helpers are skipped.
    """
    tree = ast.parse(spec_path.read_text(encoding="utf-8"))
    fields = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(
                (isinstance(dec, ast.Call)
                 and getattr(dec.func, "id", getattr(dec.func, "attr", ""))
                 == "dataclass")
                or getattr(dec, "id", getattr(dec, "attr", "")) == "dataclass"
                for dec in node.decorator_list):
            continue
        for child in node.body:
            if (isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Name)
                    and _is_public(child.target.id)):
                fields.append((node.name, child.target.id, child.lineno))
    return fields


def check_workload_docs(repo: Path) -> list[str]:
    """docs/WORKLOADS.md ↔ workload package drift findings.

    Two checks: every shipped scenario file must have a row in the
    generated catalog block (backticked file stem), and every public
    spec dataclass field must be documented — mentioned in backticks —
    somewhere in WORKLOADS.md, so a new spec knob cannot land silently
    undocumented.
    """
    workloads_md = repo / "docs" / "WORKLOADS.md"
    spec_path = repo / "src" / "repro" / "workload" / "spec.py"
    scenarios = repo / "src" / "repro" / "workload" / "scenarios"
    if not workloads_md.exists():
        return ["docs/WORKLOADS.md:1: missing workload authoring guide"]
    text = workloads_md.read_text(encoding="utf-8")
    problems = []
    # Drop fenced code blocks so ``` fences cannot unbalance the
    # inline-code scan, then collect single-line `inline code` spans.
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    documented = set(re.findall(r"`([^`\n]+)`", prose))
    if scenarios.is_dir():
        for path in sorted(scenarios.iterdir()):
            if path.suffix not in (".yaml", ".yml", ".json"):
                continue
            if path.stem not in documented:
                problems.append(
                    f"src/repro/workload/scenarios/{path.name}:1: scenario "
                    f"{path.stem!r} has no row in the WORKLOADS.md catalog "
                    f"(run 'repro docs regen')")
    if spec_path.exists():
        for cls, field, line in _spec_dataclass_fields(spec_path):
            if field not in documented:
                problems.append(
                    f"src/repro/workload/spec.py:{line}: spec field "
                    f"{cls}.{field} is not documented (no `{field}` "
                    f"mention in docs/WORKLOADS.md)")
    return problems


def main() -> int:
    """Run all checks; returns the number of problems found."""
    problems = (check_docstrings(SOURCE_ROOT) + check_links(REPO)
                + check_cli_docs(REPO) + check_design_sections(REPO)
                + check_api_module_map(REPO) + check_obs_module_rows(REPO)
                + check_workload_docs(REPO))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
    else:
        print("docs lint clean: docstrings present, links resolve, "
              "CLI verbs documented, DESIGN/API maps in sync, "
              "workload scenarios and spec fields documented")
    return min(len(problems), 100)


if __name__ == "__main__":
    sys.exit(main())
