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
- every ``--flag`` inside a backticked span of README.md and
  docs/API.md must be an option ``src/repro/cli.py`` registers with
  ``add_argument``, so the docs cannot keep naming a removed option;
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
  (like ``obs.snapshot``/``obs.diff``) cannot land without API docs;
- every backticked CamelCase name in README.md and docs/API.md must be
  a class defined under ``src/repro`` (found with ``ast``), and in a
  backticked ``Class.attr`` the attribute must be defined by that class
  or an in-tree base (a ``def``, a class-level assignment, or a
  ``self.attr`` assignment), so a doc row cannot keep naming a deleted
  class or method;
- every backticked ``_des.<Name>`` in README.md and docs/API.md must be
  a name the compiled event kernel's module init adds (its ``names[]``
  type table and each ``PyModule_AddObjectRef`` string in
  ``src/repro/sim/_des.c``, read as text), so a row cannot keep naming
  a removed kernel type.

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


def cli_options(cli_path: Path) -> set[str]:
    """Every ``--option`` string registered via ``add_argument``.

    Parsed statically with ``ast``, like :func:`cli_subcommands`: the
    literal string arguments of each ``<parser>.add_argument(...)``
    call that start with ``--``.
    """
    tree = ast.parse(cli_path.read_text(encoding="utf-8"))
    options = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            options.update(arg.value for arg in node.args
                           if isinstance(arg, ast.Constant)
                           and isinstance(arg.value, str)
                           and arg.value.startswith("--"))
    return options


#: A long option inside a code span: `--fail-on-regress`, `--out DIR`.
_OPTION_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def check_cli_options(repo: Path) -> list[str]:
    """Stale-option findings: backticked ``--flag`` spans in README.md
    and docs/API.md that ``src/repro/cli.py`` does not register."""
    cli_path = repo / "src" / "repro" / "cli.py"
    if not cli_path.exists():  # pragma: no cover - repo invariant
        return []
    options = cli_options(cli_path)
    problems = []
    for doc, line, span in _code_spans(repo):
        for option in _OPTION_RE.findall(span):
            if option not in options:
                problems.append(f"{doc}:{line}: `{option}` is not an option "
                                f"src/repro/cli.py registers")
    return problems


#: An inline code span that is a CamelCase name, alone or followed by
#: an attribute or a call: `Engine`, `SweepJournal.load()`.
_CLASS_SPAN_RE = re.compile(
    r"([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)*)(?:\.([A-Za-z_]\w*))?"
    r"(?:[.(].*)?")


def _assigned_names(target: ast.AST, owner: str) -> set[str]:
    """Names bound by one assignment target: bare names for class-level
    statements (``owner`` empty), ``self.<name>`` inside methods."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*(_assigned_names(element, owner)
                             for element in target.elts))
    if not owner and isinstance(target, ast.Name):
        return {target.id}
    if (owner and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == owner):
        return {target.attr}
    return set()


def _class_members(node: ast.ClassDef) -> set[str]:
    """What one class body defines: methods, nested classes, class-level
    assignments (dataclass fields, constants) and ``self.x`` writes."""
    members = set()
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            members.add(child.name)
        elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target])
            for target in targets:
                members |= _assigned_names(target, "")
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and child.args.args:
            owner = child.args.args[0].arg
            for inner in ast.walk(child):
                if isinstance(inner, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign)):
                    targets = (inner.targets if isinstance(inner, ast.Assign)
                               else [inner.target])
                    for target in targets:
                        members |= _assigned_names(target, owner)
    return members


def source_classes(root: Path) -> dict[str, tuple[set[str], set[str]]]:
    """Class name → (members, base names) for every class under
    ``root`` (via ``ast``); same-named classes are merged."""
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                members, bases = classes.setdefault(node.name,
                                                    (set(), set()))
                members |= _class_members(node)
                bases |= {base.id if isinstance(base, ast.Name)
                          else getattr(base, "attr", "")
                          for base in node.bases}
    return classes


def class_defines(classes: dict, name: str, attr: str) -> bool:
    """True when class ``name`` or an ancestor defines ``attr``.

    An ancestor defined outside ``src/repro`` (``Exception``,
    ``threading.Thread``, ...) cannot be inspected, so a class that has
    one is given the benefit of the doubt.
    """
    seen, stack = set(), [name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if current not in classes:
            if current != "object":
                return True
            continue
        members, bases = classes[current]
        if attr in members:
            return True
        stack.extend(bases)
    return False


def _code_spans(repo: Path):
    """``(doc, line, span)`` for every inline code span in README.md and
    docs/API.md, fenced code blocks skipped."""
    for doc in (repo / "README.md", repo / "docs" / "API.md"):
        if not doc.exists():  # pragma: no cover - repo invariant
            continue
        text = re.sub(r"```.*?```", lambda block: "\n" * block.group().count(
            "\n"), doc.read_text(encoding="utf-8"), flags=re.DOTALL)
        for span in re.finditer(r"`([^`\n]+)`", text):
            line = text.count("\n", 0, span.start()) + 1
            yield doc.relative_to(repo), line, span.group(1)


def check_class_names(repo: Path) -> list[str]:
    """Stale-name findings: backticked CamelCase names in README.md and
    docs/API.md that no class under ``src/repro`` defines, and
    backticked ``Class.attr`` spans whose class does not define the
    attribute, so a row naming a deleted class or method cannot outlive
    it.  Fenced code blocks are skipped."""
    classes = source_classes(SOURCE_ROOT)
    problems = []
    for doc, line, span in _code_spans(repo):
        match = _CLASS_SPAN_RE.fullmatch(span)
        if not match:
            continue
        name, attr = match.group(1), match.group(2)
        if name not in classes:
            problems.append(f"{doc}:{line}: `{name}` "
                            f"is not a class defined under src/repro")
        elif attr and not class_defines(classes, name, attr):
            problems.append(f"{doc}:{line}: `{name}.{attr}` "
                            f"is not defined by class {name} under src/repro")
    return problems


#: The compiled event kernel's source.
DES_SOURCE = SOURCE_ROOT / "sim" / "_des.c"
#: A code span naming a kernel attribute: `_des.Resource(engine)`; the
#: source file's own name, `_des.c`, is not one.
_DES_SPAN_RE = re.compile(r"_des\.(?!c$)(\w+)")


def des_names(source: Path) -> set[str]:
    """The names the event kernel's module init adds to ``_des``: the
    strings of its ``names[]`` type table and of each
    ``PyModule_AddObjectRef(module, "...")`` call."""
    text = source.read_text(encoding="utf-8")
    init = text[text.index("PyInit__des"):]
    names = set(re.findall(r'PyModule_AddObjectRef\(\s*module,\s*"(\w+)"',
                           init))
    table = re.search(r"names\[\]\s*=\s*\{(.*?)\}", init, re.DOTALL)
    if table:
        names.update(re.findall(r'"(\w+)"', table.group(1)))
    return names


def check_des_names(repo: Path) -> list[str]:
    """Stale-name findings: backticked ``_des.<Name>`` spans in
    README.md and docs/API.md whose name the event kernel does not
    add to its module."""
    names = des_names(DES_SOURCE)
    problems = []
    for doc, line, span in _code_spans(repo):
        match = _DES_SPAN_RE.match(span)
        if match and match.group(1) not in names:
            problems.append(f"{doc}:{line}: `_des.{match.group(1)}` is not "
                            f"a name {DES_SOURCE.relative_to(repo)} defines")
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
    new subsystem cannot land without an API.md entry.
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
                + check_workload_docs(REPO) + check_class_names(REPO)
                + check_des_names(REPO) + check_cli_options(REPO))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
    else:
        print("docs lint clean: docstrings present, links resolve, "
              "CLI verbs documented, documented CLI options exist, "
              "DESIGN/API maps in sync, "
              "workload scenarios and spec fields documented, "
              "documented classes, attributes and kernel names exist")
    return min(len(problems), 100)


if __name__ == "__main__":
    sys.exit(main())
