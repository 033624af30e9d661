"""Checker base classes.

A checker owns one rule id. Project-scoped rules (import-graph checks,
cross-module class collection) override :meth:`Checker.check_project`;
the common case subclasses :class:`ModuleChecker` and implements
:meth:`ModuleChecker.check_module` for one parsed file at a time.

Suppression filtering is applied by the engine, not the checker, so a
checker never needs to consult the noqa map itself.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule


class Checker:
    """Base class: one rule, one id, one description."""

    #: Unique upper-case rule id, e.g. ``"RACE-GLOBAL"``.
    rule_id: str = ""
    #: One-line human description for ``repro lint --rules``.
    description: str = ""

    def check_project(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: SourceModule,
        node: ast.AST | None,
        message: str,
        **extra: Any,
    ) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            path=module.relpath,
            line=line,
            col=col,
            rule=self.rule_id,
            message=message,
            extra=extra,
        )


class ModuleChecker(Checker):
    """Checker that inspects one module at a time."""

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project:
            if module.tree is None:
                continue
            yield from self.check_module(module)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last attribute segment: ``obs.span`` → ``span``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def self_attr(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def assignment(node: ast.AST) -> tuple[list[ast.expr], ast.expr | None]:
    """``(targets, value)`` of an ``Assign`` or of an ``AnnAssign`` with a
    value; ``([], None)`` for anything else."""
    if isinstance(node, ast.Assign):
        return node.targets, node.value
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target], node.value
    return [], None


#: Methods that mutate their receiver in place.
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "remove",
    "discard",
    "sort",
    "reverse",
    "fill",
    "resize",
    "sort_values",
}


def writes(node: ast.AST) -> Iterator[tuple[ast.expr, str]]:
    """What ``node`` itself writes into, as ``(container, how)`` pairs.

    A ``MUTATING_METHODS`` call writes its receiver and ``out=`` its
    argument. An assignment, augmented assignment or ``del`` (tuple and
    list targets unpacked) writes the value of each subscript or
    attribute target, and an augmented assignment writes a bare name.
    """
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATING_METHODS:
            yield node.func.value, f"mutated via .{node.func.attr}()"
        for kw in node.keywords:
            if kw.arg == "out":
                yield kw.value, "written via out="
        return
    targets, _ = assignment(node)
    if isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    for target in _unpacked(targets):
        if isinstance(target, ast.Subscript):
            yield target.value, "mutated via subscript store"
        elif isinstance(target, ast.Attribute):
            yield target.value, "mutated via attribute store"
        elif isinstance(node, ast.AugAssign):
            yield target, "mutated via augmented assignment"


def _unpacked(targets: list[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _unpacked(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _unpacked([target.value])
        else:
            yield target


#: Compound statements whose nested bodies can define functions.
_BLOCK_STMTS: tuple[type[ast.stmt], ...] = (
    ast.If,
    ast.Try,
    ast.With,
    ast.For,
    ast.While,
    ast.AsyncWith,
    ast.AsyncFor,
)
if hasattr(ast, "TryStar"):  # 3.11+
    _BLOCK_STMTS = _BLOCK_STMTS + (ast.TryStar,)


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Yield every function with its enclosing class (or ``None``)."""

    def walk(body: list[ast.stmt], cls: ast.ClassDef | None) -> Iterator:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, cls
                yield from walk(node.body, cls)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, node)
            elif isinstance(node, ast.Match):
                for case in node.cases:
                    yield from walk(case.body, cls)
            elif isinstance(node, _BLOCK_STMTS):
                for field_name in ("body", "orelse", "finalbody", "handlers"):
                    sub = getattr(node, field_name, None)
                    if not sub:
                        continue
                    for item in sub:
                        if isinstance(item, ast.ExceptHandler):
                            yield from walk(item.body, cls)
                        elif isinstance(item, ast.stmt):
                            yield from walk([item], cls)

    yield from walk(tree.body, None)


def walk_function_scope(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """``ast.walk(func)``, pruning nested function-definition subtrees.

    Nested ``def``s run in their own scope and are yielded separately by
    :func:`iter_functions`; descending into their bodies here would
    double-report findings and ignore their shadowing parameters. Their
    decorators and argument defaults *do* evaluate in the enclosing
    scope, so those subtrees are kept. Lambdas are not pruned — nothing
    else visits them.
    """
    pending: list[ast.AST] = [func]
    while pending:
        node = pending.pop()
        yield node
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
        ):
            pending.extend(node.decorator_list)
            pending.extend(node.args.defaults)
            pending.extend(d for d in node.args.kw_defaults if d is not None)
        else:
            pending.extend(ast.iter_child_nodes(node))
