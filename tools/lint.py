"""Dependency-free fallback linter for ``make lint``.

Enforces the same rule set as the ``[tool.ruff.lint]`` config in
``pyproject.toml`` so environments without ruff (this repo refuses to pull
dependencies at lint time) still gate the codebase:

* **E501** — line longer than 100 characters;
* **E711** — comparison to ``None`` with ``==`` / ``!=``;
* **E712** — comparison to ``True`` / ``False`` with ``==`` / ``!=``;
* **E714** — ``not x is y`` instead of ``x is not y``;
* **F401** — imported name never used (module files only; ``__init__.py``
  re-exports are exempt, as are names listed in ``__all__`` or aliased to
  themselves ``import x as x``);
* **F632** — ``is`` / ``is not`` against a str/bytes/int literal;
* **RT100** — ``concurrent.futures`` / ``multiprocessing`` / ``socket`` /
  ``socketserver`` / ``selectors`` imported by a ``src/repro`` module
  outside ``repro.runtime.backends``.  The backend layer owns all
  execution plumbing — pools and wire protocols alike (one dispatch
  discipline, one determinism contract); everything else submits
  :class:`RunSpec` batches to the Engine.

A trailing ``# noqa`` comment (bare or with codes) suppresses findings on
that line, mirroring ruff.  Exit status is 1 when any finding survives.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Dict, List, Set, Tuple

MAX_LINE = 100

#: Directories scanned relative to the repository root.
SCAN_DIRS = ("src", "tests", "benchmarks", "tools", "examples")

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Top-level modules only ``repro.runtime.backends`` may import (rule RT100).
POOL_MODULES = (
    "concurrent",
    "multiprocessing",
    "socket",
    "socketserver",
    "selectors",
)


def _pool_guard(path: pathlib.Path, tree: ast.Module) -> List[Tuple[int, str, str]]:
    """RT100 findings: pool/socket imports outside ``repro.runtime.backends``."""
    posix = path.resolve().as_posix()
    if "/src/repro/" not in posix or "/src/repro/runtime/backends/" in posix:
        return []
    findings: List[Tuple[int, str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] in POOL_MODULES:
                findings.append(
                    (
                        node.lineno,
                        "RT100",
                        f"{name!r} imported outside repro.runtime.backends "
                        "(submit RunSpecs to the Engine instead)",
                    )
                )
    return findings


def _noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to suppressed codes (empty set = all)."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match:
            codes = match.group("codes")
            suppressed[lineno] = (
                {code.strip().upper() for code in codes.split(",") if code.strip()}
                if codes
                else set()
            )
    return suppressed


class _Checker(ast.NodeVisitor):
    """Collects (lineno, code, message) findings from one module's AST."""

    def __init__(self, is_init: bool):
        self.findings: List[Tuple[int, str, str]] = []
        self.is_init = is_init
        self._imports: Dict[str, Tuple[int, str]] = {}  # bound name -> (line, code ref)
        self._used: Set[str] = set()
        self._exported: Set[str] = set()

    # -- imports / usage ---------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname == alias.name:  # explicit re-export idiom
                continue
            self._imports[bound] = (node.lineno, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if alias.asname == alias.name:
                continue
            self._imports[bound] = (node.lineno, alias.name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._used.add(node.id)
        elif isinstance(node.ctx, ast.Store) and node.id == "__all__":
            self._exported.add("__all__")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    # -- comparisons -------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            operands = [node.left, comparator]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for operand in operands:
                    if isinstance(operand, ast.Constant):
                        if operand.value is None:
                            self.findings.append(
                                (node.lineno, "E711", "comparison to None with ==/!=")
                            )
                        elif operand.value is True or operand.value is False:
                            self.findings.append(
                                (node.lineno, "E712", "comparison to True/False with ==/!=")
                            )
            elif isinstance(op, (ast.Is, ast.IsNot)):
                for operand in operands:
                    if isinstance(operand, ast.Constant) and isinstance(
                        operand.value, (str, bytes, int)
                    ) and not isinstance(operand.value, bool):
                        self.findings.append(
                            (node.lineno, "F632", "is-comparison with a literal")
                        )
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not) and isinstance(node.operand, ast.Compare):
            ops = node.operand.ops
            if len(ops) == 1 and isinstance(ops[0], ast.Is):
                self.findings.append(
                    (node.lineno, "E714", "'not ... is ...' should be 'is not'")
                )
        self.generic_visit(node)

    def finish(self, tree: ast.Module, source: str) -> None:
        if self.is_init:
            return  # package __init__ files re-export; F401 does not apply
        exported: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
                    exported = {
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    }
        for bound, (lineno, ref) in self._imports.items():
            if bound in self._used or bound in exported:
                continue
            # String annotations and doctests reference names the AST walk
            # cannot see; only flag a name the rest of the source never
            # mentions (the import statement itself is the one allowed hit).
            if len(re.findall(rf"\b{re.escape(bound)}\b", source)) >= 2:
                continue
            self.findings.append((lineno, "F401", f"{ref!r} imported but unused"))


def check_file(path: pathlib.Path) -> List[Tuple[int, str, str]]:
    """All findings for one file, ``# noqa`` suppressions applied."""
    source = path.read_text()
    findings: List[Tuple[int, str, str]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        if len(line) > MAX_LINE:
            findings.append((lineno, "E501", f"line too long ({len(line)} > {MAX_LINE})"))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(exc.lineno or 0, "E999", f"syntax error: {exc.msg}")]
    checker = _Checker(is_init=path.name == "__init__.py")
    checker.visit(tree)
    checker.finish(tree, source)
    findings.extend(checker.findings)
    findings.extend(_pool_guard(path, tree))
    suppressed = _noqa_lines(source)
    kept = []
    for lineno, code, message in findings:
        codes = suppressed.get(lineno)
        if codes is not None and (not codes or code in codes):
            continue
        kept.append((lineno, code, message))
    return sorted(kept)


def main(argv=None) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    targets = [pathlib.Path(arg) for arg in (argv or sys.argv[1:])]
    if not targets:
        targets = [root / name for name in SCAN_DIRS]
    files: List[pathlib.Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    total = 0
    for path in files:
        for lineno, code, message in check_file(path):
            rel = path.relative_to(root) if root in path.parents else path
            print(f"{rel}:{lineno}: {code} {message}")
            total += 1
    if total:
        print(f"{total} finding(s)", file=sys.stderr)
        return 1
    print(f"checked {len(files)} files: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
