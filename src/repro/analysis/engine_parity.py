"""engine-parity-lint: the compiled engine mirrors the object engine.

The ``cext`` backend (``_cext_engine.c``, driven by ``cext.py``) runs
the object engine's stage loop over struct-of-arrays columns and must
stay *architecturally identical* — the 34-cell golden matrix pins the
numbers, but only for the policies and stats it samples.  This checker
pins two structural contracts directly:

1. **Hook parity** — the set of policy hooks the object engine invokes
   (``self.policy.on_X`` reads plus the ``_policy_*`` elision
   attributes bound in ``SMTCore.__init__``) must equal the set the
   cext backend reaches: the call sites of its Python side (``cext.py``
   and the ``SoACore`` arena state in ``soa.py``) plus the hook spellings in
   the C source.  A hook called by one engine and not the
   other means one backend silently ignores a whole policy mechanism.
2. **Column coverage** — every ``DynInstr`` ``__slots__`` entry must map
   to a ``SoAView`` accessor: an entry of the C view type's
   ``View_getset`` table in ``_cext_engine.c`` (a column, a flag bit or
   a slot link).  A new DynInstr field without one is invisible to
   policy hooks on the compiled engine.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
import re
from pathlib import Path

from repro.analysis.base import (Finding, SRC_ROOT, parse_file, rel,
                                 string_elements)

CHECKER = "engine-parity-lint"

_PIPELINE = SRC_ROOT / "repro" / "pipeline"

#: The policy hook vocabulary (everything FetchPolicy exposes to cores).
HOOKS = frozenset({
    "fetch_order", "fetch_pending", "on_fetch", "on_ll_detect",
    "on_load_complete", "can_dispatch", "on_resource_stall",
})

#: Elision attributes bound in ``SMTCore.__init__`` -> the hook each
#: one stands for (reading the attribute *is* invoking the hook).
POLICY_ATTR_HOOKS = {
    "_policy_fetch_order": "fetch_order",
    "_policy_fetch_pending": "fetch_pending",
    "_policy_on_fetch": "on_fetch",
    "_policy_on_fetch_load": "on_fetch",
    "_policy_on_load_complete": "on_load_complete",
    "_policy_can_dispatch": "can_dispatch",
    "_policy_on_resource_stall": "on_resource_stall",
}


def _hooks_used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in HOOKS:
                used.add(node.attr)
            elif node.attr in POLICY_ATTR_HOOKS:
                used.add(POLICY_ATTR_HOOKS[node.attr])
        elif isinstance(node, ast.Constant) and node.value in HOOKS:
            # getattr(cls.on_X, ...) elision probes name hooks as strings
            used.add(node.value)
    return used


def _hooks_used_c(text: str) -> set[str]:
    """Hook call sites in the C engine source (text scan, not AST).

    The compiled loop reaches each hook through the same artifacts the
    object engine uses — the ``_policy_*`` elision slots (resolved by
    name in its offset table) and the literal hook attribute names it
    interns — so their spellings appearing in the source *is* the
    call-site set.
    """
    used: set[str] = set()
    for attr, hook in POLICY_ATTR_HOOKS.items():
        if f'"{attr}"' in text:
            used.add(hook)
    for hook in HOOKS:
        if f'"{hook}"' in text:
            used.add(hook)
    return used


#: The C view type's getset table, and the attribute name each entry
#: opens with (``{"name", ...}`` or a ``VFLAG("name", ...)``-style
#: entry macro).
_GETSET_TABLE = re.compile(r"View_getset\[\]\s*=\s*\{(.*?)\n\};", re.S)
_GETSET_NAME = re.compile(r"(?:\{|\b[A-Z]\w*\()\s*\"(\w+)\"")


def _soa_view_accessors(text: str) -> set[str]:
    """Every attribute name the C ``SoAView`` type exposes."""
    names: set[str] = set()
    for table in _GETSET_TABLE.findall(text):
        names.update(_GETSET_NAME.findall(table))
    return names


def _dyninstr_slots(tree: ast.Module) -> list[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "DynInstr":
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__"
                                for t in stmt.targets)):
                    return string_elements(stmt.value) or []
    return []


def _cext_hooks(files: Sequence[Path]) -> set[str]:
    """Hooks the cext backend reaches: ``.py`` by AST, C by text."""
    used: set[str] = set()
    for path in files:
        if path.suffix == ".py":
            used |= _hooks_used(parse_file(path))
        else:
            used |= _hooks_used_c(path.read_text())
    return used


def check(core_path: Path | None = None,
          cext_files: Sequence[Path] | None = None,
          dyninstr_path: Path | None = None) -> list[Finding]:
    """Run engine-parity-lint (default: the real pipeline modules)."""
    core_path = core_path or _PIPELINE / "core.py"
    cext_files = cext_files or (_PIPELINE / "cext.py", _PIPELINE / "soa.py",
                                _PIPELINE / "_cext_engine.c")
    dyninstr_path = dyninstr_path or _PIPELINE / "dyninstr.py"
    findings: list[Finding] = []

    # 1. hook parity between the object engine and the cext backend
    core_hooks = _hooks_used(parse_file(core_path))
    cext_hooks = _cext_hooks(cext_files)
    cext_where = rel(cext_files[-1])
    for hook in sorted(core_hooks - cext_hooks):
        findings.append(Finding(
            CHECKER, cext_where, 1,
            f"policy hook {hook!r} is invoked by {rel(core_path)} "
            f"but never by the cext backend"))
    for hook in sorted(cext_hooks - core_hooks):
        findings.append(Finding(
            CHECKER, rel(core_path), 1,
            f"policy hook {hook!r} is invoked by the cext backend "
            f"but never by the object engine"))

    # 2. DynInstr slot -> SoAView accessor coverage
    accessors: set[str] = set()
    for path in cext_files:
        if path.suffix == ".c":
            accessors |= _soa_view_accessors(path.read_text())
    for slot in _dyninstr_slots(parse_file(dyninstr_path)):
        if slot not in accessors:
            findings.append(Finding(
                CHECKER, rel(dyninstr_path), 1,
                f"DynInstr slot {slot!r} has no SoAView accessor "
                f"(no entry in the C View_getset table)"))
    return findings
