"""Public-API docstring check (stdlib-only core; no pydocstyle here).

Walks the audited packages with :mod:`ast` and reports every public
definition missing a docstring -- modules, module-level classes and
functions, and public methods of public classes.  "Public" means the
name has no leading underscore; nodes with a bare ``...`` body
(Protocol members) or an ``# nodoc:`` comment on the ``def`` line are
exempt.

This is the first registered check of the :mod:`tools.lint` framework
(rule id ``lint.docstring``); gate on it alone with
``python -m tools.lint --rule lint.docstring``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

from .registry import REPO_ROOT, Finding, register, repo_relative

#: The audited public surface: packages (recursive) and single modules
#: under ``src/repro``.
AUDITED = (
    "analyze",
    "checkpoint",
    "dispatch",
    "coordinator",
    "obs",
    "workbench/session.py",
    "workbench/engines.py",
    "scenarios/directed.py",
    "psl/compiled.py",
    "cliutil.py",
)


def audited_files() -> List[Path]:
    """Every Python file under the audited packages/modules."""
    base = REPO_ROOT / "src" / "repro"
    files: List[Path] = []
    for entry in AUDITED:
        path = base / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _suppressed(node: ast.AST, source_lines: List[str]) -> bool:
    """``# nodoc:`` on the def/class line opts a definition out."""
    line = source_lines[node.lineno - 1]
    return "# nodoc:" in line


def _ellipsis_body(node: ast.AST) -> bool:
    """Protocol/overload stubs whose whole body is ``...``."""
    body = getattr(node, "body", [])
    return (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis
    )


def _missing_in_class(
    cls: ast.ClassDef, source_lines: List[str]
) -> Iterator[Tuple[int, str, str]]:
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public(node.name):
            continue
        if ast.get_docstring(node) is not None:
            continue
        if _ellipsis_body(node) or _suppressed(node, source_lines):
            continue
        yield node.lineno, "method", f"{cls.name}.{node.name}"


def check_file(path: Path) -> List[Tuple[int, str, str]]:
    """All missing public docstrings in one file, as (line, kind, name)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    source_lines = source.splitlines()
    missing: List[Tuple[int, str, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "module", path.stem))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (
                _is_public(node.name)
                and ast.get_docstring(node) is None
                and not _ellipsis_body(node)
                and not _suppressed(node, source_lines)
            ):
                missing.append((node.lineno, "function", node.name))
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None and not _suppressed(
                node, source_lines
            ):
                missing.append((node.lineno, "class", node.name))
            missing.extend(_missing_in_class(node, source_lines))
    return missing


@register("lint.docstring", "public API definitions carry docstrings")
def lint_docstrings(root: Path) -> List[Finding]:
    """The registry adapter: audited omissions as typed findings."""
    findings: List[Finding] = []
    for path in audited_files():
        for lineno, kind, name in check_file(path):
            findings.append(Finding(
                rule="lint.docstring",
                severity="error",
                path=repo_relative(path, root),
                line=lineno,
                message=f"undocumented public {kind} {name}",
            ))
    return findings

