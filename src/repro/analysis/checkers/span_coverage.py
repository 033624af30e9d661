"""SPAN-COVERAGE: instrumented entry points must actually emit spans.

PR 3's telemetry is only trustworthy if every pipeline stage shows up
in the trace: an uninstrumented stage is invisible latency and
unattributed energy. This rule pins the contract — the public stage
entry points of :mod:`repro.core.framework`, the engine
``run_job``/``profile_all_nodes`` paths in :mod:`repro.cluster.engines`,
and the job-service ``submit``/``run_record``/``drain`` entry points in
:mod:`repro.service.manager` must emit an ``obs`` span, and the live
plane's one entry point, ``publish_span`` in
:mod:`repro.obs.live.plane`, must publish onto the telemetry bus.

A required function is *covered* when its body contains a span-emitting
call — ``obs.span(...)``, ``obs.emit(...)``, ``<tracer>.span(...)``,
``<tracer>.emit(...)`` — or when it delegates to a same-module
function that itself directly emits (``measure_frontier`` →
``execute``). Delegation is resolved one level deep and by terminal
name, which is exact enough for a module the rule also forces to stay
simple.
"""

from __future__ import annotations

import ast
from typing import Iterable, Mapping

from repro.analysis.base import Checker, iter_functions, terminal_name
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: module name → function/method names that must emit a span.
DEFAULT_REQUIRED: Mapping[str, frozenset[str]] = {
    "repro.core.framework": frozenset(
        {"prepare", "plan", "execute", "execute_fpm", "measure_frontier"}
    ),
    "repro.cluster.engines": frozenset({"run_job", "profile_all_nodes"}),
    # The job service's admission/run/drain path: an uninstrumented
    # submit or run means queue waits and per-job energy never reach
    # the trace, which defeats the service section of `repro obs report`.
    "repro.service.manager": frozenset({"submit", "run_record", "drain"}),
    # The live plane's one entry point, the tracer sink: if it stops
    # pushing onto the telemetry bus, `/live` and `repro obs top` go
    # dark silently while the rest of the plane still looks healthy.
    "repro.obs.live.plane": frozenset({"publish_span"}),
}

# ``publish`` counts as emitting: the live plane's entry point feeds
# the bounded bus instead of opening spans (a span inside the tracer
# sink would recurse back into the sink).
_EMITTING_CALLS = {"span", "emit", "publish"}


def _directly_emits(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and terminal_name(node.func) in _EMITTING_CALLS:
            return True
    return False


def _called_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name:
                out.add(name)
    return out


class SpanCoverageChecker(Checker):
    rule_id = "SPAN-COVERAGE"
    description = (
        "stage entry point / engine run_job-profile_all_nodes path emits no "
        "obs span (invisible latency and unattributed energy in traces)"
    )

    def __init__(self, required: Mapping[str, frozenset[str]] | None = None):
        self.required = DEFAULT_REQUIRED if required is None else required

    def check_project(self, project: Project) -> Iterable[Finding]:
        for module in project:
            if module.tree is None:
                continue
            names = self.required.get(module.name)
            if not names:
                continue
            yield from self._check_module(module, names)

    def _check_module(
        self, module: SourceModule, names: frozenset[str]
    ) -> Iterable[Finding]:
        assert module.tree is not None
        functions = list(iter_functions(module.tree))
        emitting = {
            func.name for func, _ in functions if _directly_emits(func)
        }
        for func, cls in functions:
            if func.name not in names:
                continue
            if _directly_emits(func):
                continue
            # Abstract declarations have nothing to instrument.
            if self._is_abstract(func):
                continue
            if _called_names(func) & emitting:
                continue
            where = f"{cls.name}.{func.name}" if cls is not None else func.name
            yield self.finding(
                module,
                func,
                f"{where}() is a required instrumentation point but emits no "
                "obs span (directly or via a span-emitting callee) — wrap the "
                "body in obs.span(...) so traces attribute its latency/energy",
            )

    @staticmethod
    def _is_abstract(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for deco in func.decorator_list:
            if terminal_name(deco) in ("abstractmethod", "abstractproperty"):
                return True
        # A body that is only a docstring and/or `...`/`pass`.
        real = [
            stmt
            for stmt in func.body
            if not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, (str, type(Ellipsis)))
            )
            and not isinstance(stmt, ast.Pass)
        ]
        return not real
