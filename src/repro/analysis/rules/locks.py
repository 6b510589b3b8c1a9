"""lock-discipline: writes to lock-guarded fields must hold the lock.

PR 4 made the nn stack thread-safe by putting the eval weight caches and
server queues behind ``threading.Lock``s; the residual hazard is a
*partially* disciplined class — some writes to a shared field take the
lock, one forgotten site does not, and the race only shows up under
serving load.  This rule infers the guarded-field set per class (any
``self.<field>`` written somewhere inside a ``with self.<lock>`` block)
and flags writes to those fields made outside any lock block.

Conventions the rule understands:

* ``threading.Lock`` / ``RLock`` / ``Condition`` attributes are locks;
  a ``Condition(self._lock)`` is an alias of the lock it wraps, so
  ``with self._cond:`` counts as holding ``self._lock``.
* A ``with self.<name>lock:`` block names a lock even when no method of
  the class builds it — the lock a base class (the serving front end)
  owns is still the lock its subclasses' writes must hold.
* ``__init__`` (and ``__new__``/``__del__``) are exempt: construction
  and teardown happen before/after the object is shared.
* Methods whose name ends in ``_locked`` are exempt — the repo's naming
  convention for helpers documented as "caller holds the lock".
"""

from __future__ import annotations

import ast

from ..astutil import attribute_chain, is_self_attr
from ..findings import Finding
from ..registry import Rule, register_rule

__all__ = ["LockDisciplineRule"]

_LOCK_TYPES = frozenset({"Lock", "RLock", "Condition"})
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__del__"})


def _lock_call_type(value: ast.expr) -> str | None:
    """'Lock'/'RLock'/'Condition' when ``value`` constructs one, else None."""
    if not isinstance(value, ast.Call):
        return None
    chain = attribute_chain(value.func)
    if chain and chain[-1] in _LOCK_TYPES:
        return chain[-1]
    return None


def _assigned_attrs(node: ast.stmt) -> list[tuple[str, ast.expr | None]]:
    """(attr, value) pairs for plain ``self.x = / += ...`` statements."""
    out: list[tuple[str, ast.expr | None]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            for el in ast.walk(target) if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                attr = is_self_attr(el)
                if attr:
                    out.append((attr, node.value))
    elif isinstance(node, ast.AugAssign):
        attr = is_self_attr(node.target)
        if attr:
            out.append((attr, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        attr = is_self_attr(node.target)
        if attr:
            out.append((attr, node.value))
    return out


class _MethodScan(ast.NodeVisitor):
    """Collect self-attribute writes in one method, split by lock context."""

    def __init__(self, lock_names: frozenset[str]) -> None:
        self.lock_names = lock_names
        self.depth = 0
        self.guarded: list[tuple[str, ast.stmt]] = []
        self.unguarded: list[tuple[str, ast.stmt]] = []

    def _record(self, node: ast.stmt) -> None:
        for attr, _ in _assigned_attrs(node):
            (self.guarded if self.depth else self.unguarded).append((attr, node))

    visit_Assign = visit_AugAssign = visit_AnnAssign = _record  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            (attr := is_self_attr(item.context_expr)) and attr in self.lock_names
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
        if holds:
            self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if holds:
            self.depth -= 1


class _ClassScan:
    """Two-pass scan of one class: find locks, then police field writes."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self.lock_names = self._find_locks()

    def _find_locks(self) -> frozenset[str]:
        locks: set[str] = set()
        for method in self.methods:
            for node in ast.walk(method):
                if isinstance(node, ast.stmt):
                    for attr, value in _assigned_attrs(node):
                        if value is not None and _lock_call_type(value):
                            locks.add(attr)
                elif isinstance(node, ast.withitem):
                    attr = is_self_attr(node.context_expr)
                    if attr and attr.endswith("lock"):
                        locks.add(attr)
        return frozenset(locks)

    def scan(self) -> dict[str, list[tuple[str, ast.stmt]]]:
        """Per-method unguarded writes, plus the class guarded-field set."""
        self.guarded_fields: set[str] = set()
        per_method: dict[str, list[tuple[str, ast.stmt]]] = {}
        for method in self.methods:
            scan = _MethodScan(self.lock_names)
            for stmt in method.body:
                scan.visit(stmt)
            self.guarded_fields.update(attr for attr, _ in scan.guarded)
            per_method[method.name] = scan.unguarded
        self.guarded_fields -= self.lock_names
        return per_method


@register_rule
class LockDisciplineRule(Rule):
    """Flag writes to lock-guarded fields made outside ``with self._lock``."""
    name = "lock-discipline"
    description = (
        "in classes holding a Lock/RLock, any field written under `with "
        "self._lock` somewhere must be written under it everywhere (outside "
        "__init__); suffix a helper `_locked` when its caller holds the lock"
    )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            scan = _ClassScan(node)
            if not scan.lock_names:
                continue
            per_method = scan.scan()
            for method_name, writes in per_method.items():
                if method_name in _EXEMPT_METHODS or method_name.endswith("_locked"):
                    continue
                for attr, stmt in writes:
                    if attr in scan.guarded_fields:
                        findings.append(
                            self.finding(
                                path,
                                stmt,
                                f"{node.name}.{method_name} writes lock-guarded "
                                f"field self.{attr} outside `with self."
                                f"{'/'.join(sorted(scan.lock_names))}`",
                            )
                        )
        return findings
