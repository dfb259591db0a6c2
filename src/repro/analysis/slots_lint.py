"""slots-lint: hot classes declare ``__slots__`` and write only slots.

Every class in the engine packages (:data:`~repro.analysis.base.ENGINE_PACKAGES`)
must either declare ``__slots__`` (a literal of strings), be a
``@dataclass(slots=True)``, be an exception or ``Enum`` type, or appear
on the explicit allowlist.  Additionally every ``self.X`` assignment anywhere
in a class must resolve to a slot declared by the class or one of its
(in-scope) bases — the mistake this catches is the stray attribute that
silently re-grows a ``__dict__``-free class a per-instance dict, or dies
with ``AttributeError`` only on a cold path.

A ``"__dict__"`` entry anywhere in the slots chain is a deliberate
wildcard (``SMTCore`` uses it so tests can monkeypatch instance
methods): the declaration requirement still applies, the per-assignment
resolution is skipped.

Classes are identified by module and name: two modules may each define
an ``_Entry``.  A base class named in a module resolves to the class of
that name defined in the same module, else to the one it imports by
``from ... import``, else to the only in-scope class of that name.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import (Finding, dotted_name, package_files,
                                 parse_file, rel, string_elements,
                                 walk_classes)

CHECKER = "slots-lint"

#: Classes intentionally left with a ``__dict__``, name -> reason.
#: Kept empty on purpose: the tree is clean today, and a new entry needs
#: a review arguing why the class can afford a per-instance dict.
ALLOWED_DICT_CLASSES: dict[str, str] = {}

#: Builtin bases that do not hand their subclasses a ``__dict__``.
_SLOTTED_BUILTINS = {"object", "list", "dict", "tuple", "int", "str"}

#: Enum bases: members are class attributes, instances carry no state.
_ENUM_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum"}

_EXCEPTION_BUILTINS = {
    "BaseException", "Exception", "ArithmeticError", "AssertionError",
    "AttributeError", "KeyError", "LookupError", "NotImplementedError",
    "RuntimeError", "TypeError", "ValueError",
}


@dataclass
class _ClassInfo:
    name: str
    path: Path
    line: int
    bases: list[str]
    #: local name -> dotted module it is imported from (``from m import``)
    imports: dict[str, str] = field(default_factory=dict)
    slots: list[str] | None = None      # None: no literal __slots__
    has_slots_stmt: bool = False        # a __slots__ assignment exists
    is_dataclass: bool = False
    dataclass_slots: bool = False
    fields: list[str] = field(default_factory=list)
    self_writes: list[tuple[str, int]] = field(default_factory=list)


def _is_dataclass_decorator(dec: ast.expr) -> tuple[bool, bool]:
    """(is a dataclass decorator, has slots=True) for one decorator."""
    call = dec if isinstance(dec, ast.Call) else None
    target = call.func if call is not None else dec
    name = dotted_name(target)
    if name is None or name.split(".")[-1] != "dataclass":
        return False, False
    slots = False
    if call is not None:
        for kw in call.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                slots = bool(kw.value.value)
    return True, slots


def _collect_self_writes(body: Iterable[ast.stmt],
                         out: list[tuple[str, int]]) -> None:
    """All ``self.X`` stores under ``body``, skipping nested classes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue                     # a nested class has its own self
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        tstack = list(targets)
        while tstack:
            t = tstack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                tstack.extend(t.elts)
            elif isinstance(t, ast.Starred):
                tstack.append(t.value)
            elif (isinstance(t, ast.Attribute)
                  and isinstance(t.value, ast.Name)
                  and t.value.id == "self"):
                out.append((t.attr, t.lineno))
        stack.extend(ast.iter_child_nodes(node))


def _module_imports(tree: ast.Module) -> dict[str, str]:
    """``{local name: source module}`` of a module's ``from`` imports."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _class_info(cls: ast.ClassDef, path: Path,
                imports: dict[str, str]) -> _ClassInfo:
    info = _ClassInfo(
        name=cls.name, path=path, line=cls.lineno,
        bases=[n for n in (dotted_name(b) for b in cls.bases)
               if n is not None],
        imports=imports)
    for dec in cls.decorator_list:
        is_dc, slots = _is_dataclass_decorator(dec)
        if is_dc:
            info.is_dataclass = True
            info.dataclass_slots = slots
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    info.has_slots_stmt = True
                    info.slots = string_elements(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            tgt = stmt.target
            if isinstance(tgt, ast.Name):
                if tgt.id == "__slots__":
                    info.has_slots_stmt = True
                    if stmt.value is not None:
                        info.slots = string_elements(stmt.value)
                elif info.is_dataclass:
                    ann = ast.unparse(stmt.annotation)
                    if "ClassVar" not in ann:
                        info.fields.append(tgt.id)
    _collect_self_writes(
        [s for s in cls.body
         if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))],
        info.self_writes)
    return info


class _Table:
    """The in-scope classes, by (module path, name)."""

    def __init__(self, infos: list[_ClassInfo]):
        self._by_key = {(i.path, i.name): i for i in infos}
        self._by_name: dict[str, list[_ClassInfo]] = {}
        for info in infos:
            self._by_name.setdefault(info.name, []).append(info)

    def base(self, info: _ClassInfo, base: str) -> _ClassInfo | None:
        """The in-scope class ``base`` names inside ``info``'s module."""
        parts = base.split(".")
        tail = parts[-1]
        candidates = self._by_name.get(tail, [])
        if len(parts) == 1:
            own = self._by_key.get((info.path, tail))
            if own is not None and own is not info:
                return own
            module = info.imports.get(tail)
        else:
            module = ".".join(parts[:-1])
        if module is not None:
            suffix = "/".join(module.split(".")) + ".py"
            for cand in candidates:
                if cand.path.as_posix().endswith(suffix):
                    return cand
        others = [c for c in candidates if c is not info]
        return others[0] if len(others) == 1 else None


def _inherits(info: _ClassInfo, table: _Table, builtins: set[str],
              suffix: str | None = None) -> bool:
    """Does ``info`` derive from one of ``builtins`` (or a ``*suffix``)?"""
    stack, seen = [info], set()
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        for base in cur.bases:
            tail = base.split(".")[-1]
            if tail in builtins or (suffix and tail.endswith(suffix)):
                return True
            parent = table.base(cur, base)
            if parent is not None:
                stack.append(parent)
    return False


def _is_exception(info: _ClassInfo, table: _Table) -> bool:
    return _inherits(info, table, _EXCEPTION_BUILTINS, "Error")


def _is_enum(info: _ClassInfo, table: _Table) -> bool:
    return _inherits(info, table, _ENUM_BASES)


def _slot_chain(info: _ClassInfo, table: _Table,
                ) -> tuple[set[str], bool]:
    """(union of declared slots/fields up the chain, chain is wildcard).

    The chain is a wildcard — assignment checks are meaningless — when
    any ancestor keeps a ``__dict__``: an explicit ``"__dict__"`` slot,
    a computed ``__slots__``, an allowlisted class, or an unknown
    external base that is not a slot-free builtin.
    """
    names: set[str] = set()
    wildcard = False
    stack: list[_ClassInfo] = [info]
    seen: set[int] = set()
    while stack:
        ci = stack.pop()
        if id(ci) in seen:
            continue
        seen.add(id(ci))
        if ci.name in ALLOWED_DICT_CLASSES:
            wildcard = True
        if ci.is_dataclass:
            names.update(ci.fields)
            if not ci.dataclass_slots:
                wildcard = True
        elif ci.has_slots_stmt:
            if ci.slots is None or "__dict__" in ci.slots:
                wildcard = True
            else:
                names.update(ci.slots)
        else:
            wildcard = True
        for base in ci.bases:
            parent = table.base(ci, base)
            if parent is not None:
                stack.append(parent)
            elif base.split(".")[-1] not in _SLOTTED_BUILTINS:
                wildcard = True
    return names, wildcard


def check(files: Sequence[Path] | None = None) -> list[Finding]:
    """Run slots-lint over ``files`` (default: the engine packages)."""
    if files is None:
        files = package_files()
    order: list[_ClassInfo] = []
    for path in files:
        tree = parse_file(path)
        imports = _module_imports(tree)
        for cls in walk_classes(tree):
            order.append(_class_info(cls, path, imports))
    table = _Table(order)

    findings: list[Finding] = []
    for info in order:
        if (info.name in ALLOWED_DICT_CLASSES or _is_exception(info, table)
                or _is_enum(info, table)):
            continue
        if info.is_dataclass:
            if not info.dataclass_slots:
                findings.append(Finding(
                    CHECKER, rel(info.path), info.line,
                    f"dataclass {info.name} must pass slots=True "
                    f"(or be allowlisted)"))
                continue
        elif not info.has_slots_stmt:
            findings.append(Finding(
                CHECKER, rel(info.path), info.line,
                f"class {info.name} does not declare __slots__"))
            continue
        slots, wildcard = _slot_chain(info, table)
        if wildcard:
            continue
        for attr, line in info.self_writes:
            if attr not in slots:
                findings.append(Finding(
                    CHECKER, rel(info.path), line,
                    f"{info.name}.{attr} is assigned but is not a "
                    f"declared slot of {info.name} or its bases"))
    return findings
