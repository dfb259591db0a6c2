"""Shared infrastructure for the :mod:`repro.analysis` checkers.

Every checker is a function ``check(...) -> list[Finding]`` whose default
arguments point at the real source tree; tests aim the same function at
known-bad fixture files instead.  All path-handling and AST plumbing
lives here so the checkers stay pure analyses.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

#: ``.../src`` — the import root this package was loaded from.
SRC_ROOT = Path(__file__).resolve().parents[2]

#: The repository checkout (``docs/``, ``tests/`` live here).  Only
#: meaningful for a source checkout; checkers that need it degrade to a
#: finding-free pass when the files are absent.
REPO_ROOT = SRC_ROOT.parent

#: The packages whose classes are performance-critical: everything the
#: engine touches per simulated cycle.  slots-lint and determinism-lint
#: police exactly these.
ENGINE_PACKAGES = ("repro/pipeline", "repro/policies", "repro/runahead",
                   "repro/memory", "repro/predictors", "repro/branch",
                   "repro/workloads")


@dataclass(frozen=True, slots=True)
class Finding:
    """One checker violation, pointing at a file and line."""

    checker: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


def rel(path: Path) -> str:
    """``path`` relative to the repo root when possible (for messages)."""
    try:
        return str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def parse_file(path: Path) -> ast.Module:
    """Parse one source file (UTF-8) into an AST."""
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_files(packages: Iterable[str] = ENGINE_PACKAGES,
                  root: Path = SRC_ROOT) -> list[Path]:
    """All ``.py`` files of the given packages, sorted for determinism."""
    files: list[Path] = []
    for pkg in packages:
        files.extend(sorted((root / pkg).glob("*.py")))
    return files


def walk_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level and nested class definitions, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def string_elements(node: ast.AST) -> list[str] | None:
    """The string items of a literal tuple/list, or ``None``.

    Accepts a bare string constant too (``__slots__ = "x"`` is legal
    Python); returns ``None`` for anything non-literal so callers can
    treat a computed ``__slots__`` as opaque.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                return None
            out.append(elt.value)
        return out
    return None
