"""LOCK-ORDER: lock-acquisition cycles across the project.

The invariant this encodes: any two locks ever held together must
always be taken in the same order, project-wide. The PR 7 shutdown
dance (``ProcessPoolEngine.shutdown`` detaching the pool and store
under ``_lifecycle`` and tearing both down *outside* it, so the store
RLock is never taken under the lifecycle Condition) exists exactly to
keep that order acyclic; this rule makes the discipline checkable
instead of tribal.

The graph: nodes are lock definition sites (``path:line``, the same
key the runtime watchdog records); a directed edge A→B means "B was
acquired while A was held". Edges come from ``with self._lock:``
nesting and bare ``acquire()`` tracking inside one method (*direct*),
and from one delegation hop — ``self.method()`` or
``self.attr.method()`` called with a lock held, where the callee's own
direct acquisitions are known (*delegated*). A cycle in the graph is a
potential deadlock; a re-acquisition of a non-reentrant ``Lock``
already held is a guaranteed one and is reported at the exact node.

Delegated edges are where static analysis over-approximates (the call
may be dead, the branch unreachable), so a runtime report from
``repro.analysis.runtime`` can be merged in: delegated-only edges
whose two locks were both exercised at runtime without the edge ever
being observed are pruned, and runtime-observed edges join the graph
so real interleavings the walker cannot see still gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.base import Checker, assignment, dotted_name, self_attr, terminal_name
from repro.analysis.findings import Finding
from repro.analysis.locks import (
    ClassLockInfo,
    LockDef,
    collect_class_locks,
    collect_module_locks,
    iter_with_held,
    lock_def,
)
from repro.analysis.project import Project, SourceModule


@dataclass
class _Edge:
    """One ordered pair of lock sites, with provenance for messages."""

    kinds: set[str] = field(default_factory=set)  # direct | delegated | runtime
    path: str = ""
    line: int = 0
    where: str = ""  # "Class.method" of the example acquisition


@dataclass
class _MethodFacts:
    """Per-method summary from the held-context walk."""

    #: Locks this method acquires itself (site strings).
    direct: list[str] = field(default_factory=list)
    #: ``(callee-spec, held-sites, lineno)`` candidate delegation calls.
    calls: list[tuple[str, str, tuple[str, ...], int]] = field(default_factory=list)


class LockOrderChecker(Checker):
    rule_id = "LOCK-ORDER"
    description = (
        "lock-acquisition cycle across methods (potential deadlock); "
        "edges from with/acquire nesting plus one delegation hop"
    )

    def __init__(self, runtime_report: Mapping[str, Any] | None = None):
        self.runtime_report = runtime_report

    def check_project(self, project: Project) -> Iterable[Finding]:
        locks_by_site: dict[str, LockDef] = {}
        edges: dict[tuple[str, str], _Edge] = {}
        findings: list[Finding] = []

        # Class name → (module, info); ambiguous names resolve to None so
        # delegation never guesses between same-named classes.
        class_registry: dict[str, tuple[SourceModule, ClassLockInfo] | None] = {}
        per_module: list[tuple[SourceModule, dict[str, ClassLockInfo], dict[str, LockDef]]] = []
        for module in project:
            if module.tree is None:
                continue
            class_infos = collect_class_locks(module)
            module_locks = collect_module_locks(module)
            per_module.append((module, class_infos, module_locks))
            for info in class_infos.values():
                if info.name in class_registry:
                    class_registry[info.name] = None
                else:
                    class_registry[info.name] = (module, info)
                for lock in info.locks.values():
                    locks_by_site[lock.site] = lock
            for lock in module_locks.values():
                locks_by_site[lock.site] = lock

        def add_edge(
            src: str,
            dst: str,
            kind: str,
            module: SourceModule,
            line: int,
            where: str,
        ) -> None:
            edge = edges.setdefault((src, dst), _Edge())
            edge.kinds.add(kind)
            if not edge.path:
                edge.path, edge.line, edge.where = module.relpath, line, where

        # Pass 1: direct edges + per-method facts for the delegation hop.
        facts: dict[tuple[str, str], _MethodFacts] = {}
        for module, class_infos, module_locks in per_module:
            for info in class_infos.values():
                for name, method in info.methods.items():
                    fact = self._walk_method(
                        module, info, module_locks, method,
                        add_edge, findings, locks_by_site,
                    )
                    facts[(info.name, name)] = fact

        # Pass 2: one delegation hop. A call made with locks held inherits
        # the callee's direct acquisitions as delegated edges.
        for (_cls, _name), fact in facts.items():
            for callee_cls, callee_name, held_sites, lineno in fact.calls:
                resolved = class_registry.get(callee_cls)
                if resolved is None:
                    continue
                callee_module, callee_info = resolved
                callee_fact = facts.get((callee_info.name, callee_name))
                if callee_fact is None:
                    continue
                where = f"{_cls}.{_name}"
                src_module = None
                for module, class_infos, _ in per_module:
                    if _cls in class_infos:
                        src_module = module
                        break
                if src_module is None:
                    continue
                for dst in callee_fact.direct:
                    for src in held_sites:
                        if src != dst:
                            add_edge(src, dst, "delegated", src_module, lineno, where)

        findings.extend(self._cycle_findings(edges, locks_by_site))
        return findings

    def _walk_method(
        self,
        module: SourceModule,
        info: ClassLockInfo,
        module_locks: dict[str, LockDef],
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        add_edge,
        findings: list[Finding],
        locks_by_site: dict[str, LockDef],
    ) -> _MethodFacts:
        fact = _MethodFacts()
        where = f"{info.name}.{method.name}"

        # Local variables bound to a constructor call, for `local.m()`
        # delegation (`store = SharedPartitionStore(...)` … `store.get()`).
        local_types: dict[str, str] = {}
        for node in ast.walk(method):
            targets, value = assignment(node)
            if (
                len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and isinstance(value, ast.Call)
            ):
                ctor = terminal_name(value.func)
                if ctor and ctor[:1].isupper():
                    local_types[targets[0].id] = ctor

        def site_of(key: str) -> str | None:
            lock = lock_def(key, info.locks, module_locks)
            return lock.site if lock else None

        seen_calls: set[int] = set()
        for event in iter_with_held(method, info.locks, module_locks):
            held_sites = tuple(s for s in (site_of(k) for k in event.held) if s)
            if event.kind == "acquire":
                dst = site_of(event.lock or "")
                if dst is None:
                    continue
                fact.direct.append(dst)
                if event.lock in event.held:
                    lock = locks_by_site[dst]
                    if lock.kind == "Lock":
                        findings.append(
                            self.finding(
                                module,
                                event.node,
                                f"non-reentrant Lock {lock.display} re-acquired in "
                                f"{where}() while already held — this thread "
                                "deadlocks itself; use an RLock or restructure",
                            )
                        )
                    continue
                for src in held_sites:
                    if src != dst:
                        add_edge(src, dst, "direct", module, event.node.lineno, where)
            elif held_sites and isinstance(event.node, ast.Call):
                if id(event.node) in seen_calls:
                    continue
                seen_calls.add(id(event.node))
                func = event.node.func
                if not isinstance(func, ast.Attribute):
                    continue
                recv = func.value
                if dotted_name(recv) == "self":
                    # self.m() — same class.
                    fact.calls.append((info.name, func.attr, held_sites, event.node.lineno))
                elif self_attr(recv) in info.attr_types:
                    # self.attr.m() — type from the constructor assignment.
                    ctor = info.attr_types[recv.attr]
                    fact.calls.append((ctor, func.attr, held_sites, event.node.lineno))
                elif isinstance(recv, ast.Name) and recv.id in local_types:
                    fact.calls.append(
                        (local_types[recv.id], func.attr, held_sites, event.node.lineno)
                    )
        return fact

    # -- cycles ----------------------------------------------------------

    def _cycle_findings(
        self,
        edges: dict[tuple[str, str], _Edge],
        locks_by_site: dict[str, LockDef],
    ) -> Iterable[Finding]:
        runtime_edges: set[tuple[str, str]] = set()
        runtime_sites: set[str] = set()
        if self.runtime_report:
            for entry in self.runtime_report.get("edges", []):
                runtime_edges.add((entry["from"], entry["to"]))
            runtime_sites.update(self.runtime_report.get("locks", {}))
            # Runtime evidence prunes delegated-only edges both of whose
            # locks were exercised without the edge ever being observed.
            for key in list(edges):
                edge = edges[key]
                if (
                    edge.kinds == {"delegated"}
                    and key[0] in runtime_sites
                    and key[1] in runtime_sites
                    and key not in runtime_edges
                ):
                    del edges[key]
            for src, dst in runtime_edges:
                if src != dst:
                    edges.setdefault((src, dst), _Edge()).kinds.add("runtime")

        adj: dict[str, set[str]] = {}
        for (src, dst) in edges:
            adj.setdefault(src, set()).add(dst)
            adj.setdefault(dst, set())

        for scc in _strongly_connected(adj):
            if len(scc) < 2:
                continue
            yield self._scc_finding(scc, edges, locks_by_site)

    def _scc_finding(
        self,
        scc: set[str],
        edges: dict[tuple[str, str], _Edge],
        locks_by_site: dict[str, LockDef],
    ) -> Finding:
        def display(site: str) -> str:
            lock = locks_by_site.get(site)
            return lock.display if lock else site

        names = sorted(display(s) for s in scc)
        examples = []
        for (src, dst), edge in sorted(edges.items()):
            if src in scc and dst in scc:
                via = "/".join(sorted(edge.kinds))
                at = f" at {edge.path}:{edge.line}" if edge.path else ""
                examples.append(
                    f"{display(dst)} taken while holding {display(src)} ({via}{at})"
                )
        anchor_site = min(
            (s for s in scc if s in locks_by_site),
            key=lambda s: locks_by_site[s].display,
            default=None,
        )
        if anchor_site is not None:
            anchor = locks_by_site[anchor_site]
            path, line = anchor.path, anchor.line
        else:  # runtime-only cycle: anchor at the first site's path:line
            path, line = min(scc).rsplit(":", 1)[0], int(min(scc).rsplit(":", 1)[1])
        message = (
            "potential deadlock: locks acquired in conflicting order — "
            f"cycle {{{', '.join(names)}}}; " + "; ".join(examples)
        )
        return Finding(path=path, line=line, col=0, rule=self.rule_id, message=message)


def _strongly_connected(adj: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's SCC, iterative (no recursion-limit surprises)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in sorted(adj):
        if root in index:
            continue
        work: list[tuple[str, Any]] = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adj[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
