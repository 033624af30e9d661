"""GUARD-CONSISTENCY: instance state guarded in one method, bare in
another.

RACE-GLOBAL watches module-level state; everything PRs 7–8 added —
queue depths, tenant ledgers, prepared-scenario caches, telemetry
sequence numbers — is *instance* state shared across threads. The
tell-tale inconsistency: a class that writes ``self._x`` under its
lock in one method but reads or writes the same ``self._x`` with no
lock in another. Either the lock is load-bearing (then the bare access
is a race: torn reads, lost updates, stale snapshots) or it isn't
(then it's noise that hides the real guarded set). Both deserve a
finding.

Mechanics: for each class owning a ``threading`` lock, every
``self.<attr>`` access in every method is classified as guarded (any
lock held at that point) or bare. Attributes with at least one guarded
*write* outside ``__init__`` are tracked; any bare access to a tracked
attribute in a non-init method fires, once per (attribute, method).

What does not fire:

- ``__init__``/``__post_init__``/``__new__``/``__del__`` — the object
  is not yet (or no longer) shared, so bare accesses there are fine,
  and guarded writes there do not make an attribute tracked.
- Methods named ``*_locked`` — the repo's convention for "called with
  the lock held"; their accesses count as guarded (the convention is
  the guard).
- Helper methods whose every intra-class call site is itself guarded —
  the one-hop promotion that keeps ``_touch``/``_evict_over_limit``
  style helpers (called only from ``*_locked`` bodies) clean without a
  rename.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.base import ModuleChecker, self_attr, writes
from repro.analysis.findings import Finding
from repro.analysis.locks import (
    INIT_METHODS,
    LOCKED_SUFFIX,
    collect_class_locks,
    collect_module_locks,
    iter_with_held,
)
from repro.analysis.project import SourceModule


@dataclass
class _Access:
    attr: str
    method: str
    guarded: bool
    is_write: bool
    node: ast.AST


@dataclass
class _MethodScan:
    accesses: list[_Access] = field(default_factory=list)
    #: guardedness of every intra-class ``self.m()`` call site, by callee.
    call_sites: dict[str, list[bool]] = field(default_factory=dict)


class GuardConsistencyChecker(ModuleChecker):
    rule_id = "GUARD-CONSISTENCY"
    description = (
        "instance attribute written under a lock in one method but "
        "accessed bare in another method of the same class"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        assert module.tree is not None
        class_infos = collect_class_locks(module)
        if not class_infos:
            return
        module_locks = collect_module_locks(module)

        for info in class_infos.values():
            scans: dict[str, _MethodScan] = {}
            for name, method in info.methods.items():
                scans[name] = self._scan_method(info, module_locks, method)

            # One-hop promotion: a method is effectively guarded if every
            # intra-class call site of it holds a lock (and there is at
            # least one such call site to vouch for it).
            promoted: set[str] = set()
            callers: dict[str, list[bool]] = {}
            for scan in scans.values():
                for callee, guards in scan.call_sites.items():
                    callers.setdefault(callee, []).extend(guards)
            for name, guards in callers.items():
                if name in scans and guards and all(guards):
                    promoted.add(name)

            tracked: set[str] = set()
            for name, scan in scans.items():
                if name in INIT_METHODS:
                    continue
                ambient = name in promoted
                for access in scan.accesses:
                    if access.is_write and (access.guarded or ambient):
                        tracked.add(access.attr)
            if not tracked:
                continue

            seen: set[tuple[str, str]] = set()
            for name, scan in sorted(scans.items()):
                if name in INIT_METHODS or name in promoted:
                    continue
                for access in scan.accesses:
                    if access.guarded or access.attr not in tracked:
                        continue
                    key = (access.attr, name)
                    if key in seen:
                        continue
                    seen.add(key)
                    verb = "written" if access.is_write else "read"
                    yield self.finding(
                        module,
                        access.node,
                        f"'{info.name}.{access.attr}' is written under a lock "
                        f"elsewhere but {verb} with no lock in "
                        f"{info.name}.{name}() — guard it, or mark the method "
                        f"caller-locked with the '{LOCKED_SUFFIX}' suffix",
                    )

    def _scan_method(
        self,
        info,
        module_locks,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> _MethodScan:
        scan = _MethodScan()
        seen_nodes: set[int] = set()
        # Writes the Attribute node's own ctx can't show: container
        # stores (`self._d[k] = v`, `del self._d[k]`), mutating method
        # calls (`self._d.pop(k)`) and the rest of the shared write
        # classifier all mutate the attribute's value.
        written = {
            id(base)
            for node in ast.walk(method)
            for base, _how in writes(node)
            if self_attr(base) is not None
        }

        for event in iter_with_held(method, info.locks, module_locks):
            node = event.node
            if event.kind != "node" or id(node) in seen_nodes:
                continue
            seen_nodes.add(id(node))
            callee = self_attr(node.func) if isinstance(node, ast.Call) else None
            if callee in info.methods:
                scan.call_sites.setdefault(callee, []).append(bool(event.held))
            attr = self_attr(node)
            if attr is None or attr in info.locks or attr in info.methods:
                continue
            is_write = isinstance(node.ctx, (ast.Store, ast.Del)) or id(node) in written
            scan.accesses.append(
                _Access(
                    attr=attr,
                    method=method.name,
                    guarded=bool(event.held),
                    is_write=is_write,
                    node=node,
                )
            )
        return scan
