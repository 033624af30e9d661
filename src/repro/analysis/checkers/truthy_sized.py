"""TRUTHY-SIZED: truth-testing instances of sized ``repro`` classes.

The PR 3 regression this rule re-detects: ``Tracer`` grew a
``__len__``, which made an *empty* tracer falsy — every ``if tracer:``
guard in the worker paths silently stopped entering, and span
collection died without an error. The fix removed ``__len__`` in
favour of ``span_count()`` and ``is not None`` checks.

Python's truth protocol falls back from ``__bool__`` to ``__len__``:
any class that defines ``__len__`` without ``__bool__`` makes its
empty instances falsy, so ``if x:`` conflates "no x" with "empty x".
For container-like values that is idiomatic; for stateful pipeline
objects (tracers, clusters, datasets) it is a landmine.

Detection is two-pass. Pass 1 collects, project-wide, every class in
``repro.*`` defining ``__len__`` but not ``__bool__``. Pass 2 walks
each function tracking variables whose value provably is such a class
— direct construction, annotated assignments/parameters (including
``X | None`` and ``Optional[X]``), and known factory calls (e.g.
``obs.get_tracer()``) — and flags truth-tests on them: ``if``/
``while``/ternary conditions, ``assert``, ``not``, ``and``/``or``
operands, and ``bool(x)``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import Checker, iter_functions, terminal_name, walk_function_scope
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: Only classes from these dotted-module prefixes count as "ours".
CLASS_PREFIXES: tuple[str, ...] = ("repro",)

#: Factory functions whose return value is a known sized class.
FACTORIES: dict[str, str] = {"get_tracer": "Tracer"}


def _annotation_names(node: ast.expr | None) -> set[str]:
    """Class names mentioned in an annotation (handles Optional/union)."""
    if node is None:
        return set()
    out: set[str] = set()
    for sub in ast.walk(node):
        name = terminal_name(sub)
        if name and name not in ("Optional", "Union", "None"):
            out.add(name)
    return out


class TruthySizedChecker(Checker):
    rule_id = "TRUTHY-SIZED"
    description = (
        "truth-test on an instance of a repro class defining __len__ without "
        "__bool__ (empty instance is falsy; use `is not None` or a size check)"
    )

    # -- pass 1: collect sized classes ---------------------------------

    @staticmethod
    def _in_scope(module: SourceModule) -> bool:
        return any(
            module.name == p or module.name.startswith(p + ".") for p in CLASS_PREFIXES
        )

    def sized_classes(self, project: Project) -> dict[str, str]:
        """Map class name → defining module for len-without-bool classes."""
        sized: dict[str, str] = {}
        for module in project:
            if module.tree is None or not self._in_scope(module):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if "__len__" in methods and "__bool__" not in methods:
                    sized[node.name] = module.name
        return sized

    # -- pass 2: flag truth-tests --------------------------------------

    def check_project(self, project: Project) -> Iterable[Finding]:
        sized = self.sized_classes(project)
        if not sized:
            return
        for module in project:
            if module.tree is None:
                continue
            for func, _cls in iter_functions(module.tree):
                yield from self._check_function(module, func, sized)

    def _tracked_vars(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        sized: dict[str, str],
    ) -> dict[str, str]:
        tracked: dict[str, str] = {}
        for arg in (
            func.args.args + func.args.posonlyargs + func.args.kwonlyargs
        ):
            hits = _annotation_names(arg.annotation) & set(sized)
            if hits:
                tracked[arg.arg] = sorted(hits)[0]

        def value_class(value: ast.expr) -> str | None:
            if isinstance(value, ast.IfExp):
                return value_class(value.body) or value_class(value.orelse)
            if not isinstance(value, ast.Call):
                return None
            name = terminal_name(value.func)
            if name in sized:
                return name
            if name in FACTORIES and FACTORIES[name] in sized:
                return FACTORIES[name]
            return None

        for node in walk_function_scope(func):
            if isinstance(node, ast.Assign):
                cls = value_class(node.value)
                if cls:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tracked[target.id] = cls
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                hits = _annotation_names(node.annotation) & set(sized)
                if hits:
                    tracked[node.target.id] = sorted(hits)[0]
        return tracked

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        sized: dict[str, str],
    ) -> Iterable[Finding]:
        tracked = self._tracked_vars(func, sized)
        if not tracked:
            return

        def flag(expr: ast.expr, context: str) -> Finding | None:
            if isinstance(expr, ast.Name) and expr.id in tracked:
                cls = tracked[expr.id]
                return self.finding(
                    module,
                    expr,
                    f"truth-test on '{expr.id}' ({context}): {cls} defines "
                    "__len__ without __bool__, so an empty instance is falsy — "
                    "test `is not None` or compare a size explicitly",
                    class_name=cls,
                    defined_in=sized[cls],
                )
            return None

        # walk_function_scope prunes nested def bodies: iter_functions
        # visits them separately, so each truth-test is checked once
        # against its own scope's tracked variables.
        for node in walk_function_scope(func):
            found: Finding | None = None
            if isinstance(node, (ast.If, ast.While)):
                found = flag(node.test, "if/while condition")
            elif isinstance(node, ast.IfExp):
                found = flag(node.test, "conditional expression")
            elif isinstance(node, ast.Assert):
                found = flag(node.test, "assert")
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                found = flag(node.operand, "not operand")
            elif isinstance(node, ast.BoolOp):
                for value in node.values:
                    hit = flag(value, "and/or operand")
                    if hit is not None:
                        yield hit
                continue
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "bool"
                and len(node.args) == 1
            ):
                found = flag(node.args[0], "bool() call")
            if found is not None:
                yield found
