"""RACE-GLOBAL: module-level mutable state mutated in shared modules.

The PR 2 regression this rule re-detects: the MinHash batch kernel
cached its scratch blocks in a module-level slot and wrote into them
via ``out=``; when several threads sketched at once the slots were
shared and hashes were corrupted — a flake, not a failure. The fix
(``threading.local()``) is invisible to this rule:
``threading.local()`` is not a tracked mutable constructor, so
attribute writes on it never fire.

Scope: modules imported by thread or worker entry points —
``repro.perf.*`` kernels (called from the service's manager threads
and pool workers) and ``repro.cluster.*``. A module-level
``list``/``dict``/``set``/``bytearray``/ndarray binding in one of
those modules is flagged
wherever a function mutates it: mutating method calls, subscript or
attribute stores, augmented assignment, or use as a numpy ``out=``
target. ``global`` rebinding is flagged for *any* module-level binding,
mutable-valued or not — the historical race was a check-then-set
around exactly such an immutable key slot.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import (
    ModuleChecker,
    assignment,
    dotted_name,
    iter_functions,
    terminal_name,
    walk_function_scope,
    writes,
)
from repro.analysis.findings import Finding
from repro.analysis.project import SourceModule

#: Package prefixes of thread/worker-shared code.
SHARED_PREFIXES = ("repro.perf", "repro.cluster")

#: Constructor names whose result is mutable shared state worth tracking.
_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}
_NDARRAY_CALLS = {"empty", "zeros", "ones", "full", "array", "arange", "empty_like", "zeros_like"}

def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        term = terminal_name(node.func)
        if term in _MUTABLE_CALLS:
            return True
        if name and term in _NDARRAY_CALLS:
            head = name.split(".", 1)[0]
            if head in ("np", "numpy"):
                return True
    return False


def shared_module(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in SHARED_PREFIXES)


class RaceGlobalChecker(ModuleChecker):
    rule_id = "RACE-GLOBAL"
    description = (
        "module-level mutable state (list/dict/set/ndarray) mutated inside "
        "functions of thread/worker-shared modules"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not shared_module(module.name):
            return
        tracked: dict[str, int] = {}
        module_level: dict[str, int] = {}
        for stmt in module.tree.body:
            targets, value = assignment(stmt)
            if value is None:
                continue
            mutable = _is_mutable_value(value)
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    module_level.setdefault(target.id, stmt.lineno)
                    if mutable:
                        tracked[target.id] = stmt.lineno
        if not module_level:
            return

        for func, cls in iter_functions(module.tree):
            where = f"{cls.name}.{func.name}" if cls is not None else func.name
            yield from self._check_function(
                module, func, where, tracked, module_level
            )

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        where: str,
        tracked: dict[str, int],
        module_level: dict[str, int],
    ) -> Iterable[Finding]:
        # Names shadowed by parameters are local, not the module global.
        params = {a.arg for a in func.args.args + func.args.posonlyargs + func.args.kwonlyargs}
        if func.args.vararg:
            params.add(func.args.vararg.arg)
        if func.args.kwarg:
            params.add(func.args.kwarg.arg)
        live = {n for n in tracked if n not in params}
        # `global NAME` rebinds shared state even when the bound value is
        # immutable: the check-then-set around it is the race (the PR 2
        # scratch cache raced on exactly such a key slot).
        rebindable = {n for n in module_level if n not in params}
        if not live and not rebindable:
            return

        def hit(node: ast.AST, name: str, how: str) -> Finding:
            declared = tracked.get(name, module_level.get(name, 0))
            kind = "mutable" if name in tracked else "binding"
            return self.finding(
                module,
                node,
                f"module-level {kind} '{name}' (defined line {declared}) "
                f"is {how} in {where}(); thread/worker-shared modules must not "
                "mutate module globals — use threading.local() or pass state in",
                declared_line=declared,
            )

        # walk_function_scope prunes nested def bodies: iter_functions
        # visits them separately, with their own shadowing parameters.
        for node in walk_function_scope(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in rebindable:
                        yield hit(node, name, "rebound via 'global'")
                continue
            for base, how in writes(node):
                if isinstance(base, ast.Name) and base.id in live:
                    yield hit(node, base.id, how)
