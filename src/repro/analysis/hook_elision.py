"""hook-elision-lint: the ``_is_default_hook`` table matches reality.

Both engines skip per-instruction policy-hook calls when the policy
keeps :class:`~repro.policies.base.FetchPolicy`'s no-op default — but
the "is it the default?" test is a marker *assigned by hand* at the
bottom of ``base.py``.  Two drifts are possible and both are silent:

* a no-op default hook without a marker — every policy pays the call
  forever (pure, permanent perf loss, invisible to the golden matrix);
* a marker on a hook whose default is *not* a no-op — the engines
  elide a call that does real work (an architectural bug the golden
  matrix would catch only for the sampled policies).

This checker recomputes the no-op default set from the AST (a method
body that is just a docstring, or a docstring plus ``return
<constant>``) and demands exact equality with the marked set.  It also
verifies every ``getattr(..., "_is_default_hook", ...)`` probe in the
engines targets a marked hook (an unmarked probe is dead elision
machinery), and that every ``_is_base_impl`` /
``_identity_keyed_cleanup`` marker, in ``base.py`` or any other policy
module, targets a method that exists.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.base import (Finding, SRC_ROOT, dotted_name,
                                 parse_file, rel)

CHECKER = "hook-elision-lint"

_BASE = SRC_ROOT / "repro" / "policies" / "base.py"
_POLICIES = SRC_ROOT / "repro" / "policies"
_ENGINES = (SRC_ROOT / "repro" / "pipeline" / "core.py",
            SRC_ROOT / "repro" / "pipeline" / "cext.py")

#: The policy base class whose defaults define the elision table.
BASE_CLASS = "FetchPolicy"

_MARKERS = ("_is_default_hook", "_is_base_impl", "_identity_keyed_cleanup")

#: Markers that must sit on a method their class defines.
_METHOD_MARKERS = _MARKERS[1:]


def _is_noop_body(body: list[ast.stmt]) -> bool:
    """True for ``docstring`` or ``docstring + return <constant>``."""
    stmts = list(body)
    if (stmts and isinstance(stmts[0], ast.Expr)
            and isinstance(stmts[0].value, ast.Constant)
            and isinstance(stmts[0].value.value, str)):
        stmts = stmts[1:]
    if not stmts:
        return True
    if len(stmts) == 1 and isinstance(stmts[0], ast.Return):
        val = stmts[0].value
        return val is None or isinstance(val, ast.Constant)
    return False


def _default_hooks(tree: ast.Module) -> dict[str, int]:
    """No-op-default method name -> line, for :data:`BASE_CLASS`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == BASE_CLASS:
            return {
                stmt.name: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and not stmt.name.startswith("__")
                and _is_noop_body(stmt.body)}
    return {}


def _markers(tree: ast.Module) -> dict[str, set[tuple[str, str, int]]]:
    """marker -> {(class, method, line)} over module-level assignments."""
    found: dict[str, set[tuple[str, str, int]]] = {m: set()
                                                   for m in _MARKERS}
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        for tgt in targets:
            if not (isinstance(tgt, ast.Attribute)
                    and tgt.attr in _MARKERS):
                continue
            owner = dotted_name(tgt.value)
            if owner is None or "." not in owner:
                continue
            cls_name, meth = owner.rsplit(".", 1)
            found[tgt.attr].add((cls_name.split(".")[-1], meth,
                                 tgt.lineno))
    return found


def _class_methods(tree: ast.Module) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            meths = out.setdefault(node.name, set())
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    meths.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    # class-level borrow: ``meth = Other._meth``
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            meths.add(t.id)
    return out


def _elision_probes(tree: ast.Module) -> list[tuple[str, int]]:
    """(probed method name, line) of every _is_default_hook getattr."""
    probes: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and dotted_name(node.func) == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "_is_default_hook"
                and isinstance(node.args[0], ast.Attribute)):
            probes.append((node.args[0].attr, node.lineno))
    return probes


def check(base_path: Path | None = None,
          engine_files: Sequence[Path] | None = None,
          policy_files: Sequence[Path] | None = None) -> list[Finding]:
    """Run hook-elision-lint (default: the real base.py, the other
    policy modules and the engines)."""
    base_path = base_path or _BASE
    engine_files = _ENGINES if engine_files is None else engine_files
    if policy_files is None:
        policy_files = [f for f in sorted(_POLICIES.glob("*.py"))
                        if f != _BASE]
    tree = parse_file(base_path)
    findings: list[Finding] = []
    rbase = rel(base_path)

    defaults = _default_hooks(tree)
    markers = _markers(tree)
    marked = {meth for cls, meth, _ in markers["_is_default_hook"]
              if cls == BASE_CLASS}

    for meth in sorted(set(defaults) - marked):
        findings.append(Finding(
            CHECKER, rbase, defaults[meth],
            f"{BASE_CLASS}.{meth} has a no-op default body but no "
            f"_is_default_hook marker — every policy pays the "
            f"per-instruction call for nothing"))
    for cls, meth, line in sorted(markers["_is_default_hook"]):
        if cls != BASE_CLASS:
            continue
        if meth not in defaults:
            findings.append(Finding(
                CHECKER, rbase, line,
                f"{BASE_CLASS}.{meth} is marked _is_default_hook but its "
                f"default body is not a no-op — the engines would elide "
                f"a call that does real work"))

    for path in (base_path, *policy_files):
        ptree = tree if path == base_path else parse_file(path)
        pmarkers = markers if path == base_path else _markers(ptree)
        methods = _class_methods(ptree)
        for marker in _METHOD_MARKERS:
            for cls, meth, line in sorted(pmarkers[marker]):
                if meth not in methods.get(cls, set()):
                    findings.append(Finding(
                        CHECKER, rel(path), line,
                        f"{marker} marker targets {cls}.{meth}, which is "
                        f"not defined on {cls}"))

    for engine in engine_files:
        if not engine.exists():
            continue
        etree = parse_file(engine)
        for meth, line in _elision_probes(etree):
            if meth not in marked:
                findings.append(Finding(
                    CHECKER, rel(engine), line,
                    f"engine probes _is_default_hook on {meth!r}, which "
                    f"is never marked on {BASE_CLASS} — the elision can "
                    f"never fire"))
    return findings
