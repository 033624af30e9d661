"""``repro.analysis`` — project-invariant static analysis.

Tests catch regressions in behaviour they exercise; they are blind to
*invariants* — properties every module must hold for the system to be
trustworthy under concurrency and measurement. Two shipped defects
motivated this package: a module-global MinHash scratch buffer that
raced under concurrent sketching threads (flaking, not failing),
and a ``Tracer.__len__`` that made an empty tracer falsy and silently
disabled ``if tracer:`` guards in worker paths. Both are visible to an
AST walk in milliseconds.

The package is zero-dependency (stdlib ``ast`` only) and ships as the
``repro lint`` CLI subcommand::

    PYTHONPATH=src python -m repro lint src/ tests/
    PYTHONPATH=src python -m repro lint --format json src/

Rule catalogue (see ``docs/static-analysis.md``):

================= ======================================================
RACE-GLOBAL       module-level mutable state mutated inside functions of
                  thread/worker-shared modules (``repro.perf.*``,
                  ``repro.cluster.*``)
TRUTHY-SIZED      truth-testing instances of ``repro`` classes that define
                  ``__len__`` without ``__bool__``
SILENT-EXCEPT     bare/broad ``except`` whose body neither re-raises nor
                  logs through :mod:`repro.obs.log`
KERNEL-ORACLE     every kernel module in ``src/repro/perf/`` needs a parity
                  test under ``tests/perf/`` that imports it
NONDET            unseeded legacy ``random``/``np.random`` global-state
                  calls; wall-clock reads inside kernel/optimizer modules
SPAN-COVERAGE     public stage entry points and engine ``run_job``/
                  ``profile`` paths must emit an ``obs`` span
LOCK-ORDER        lock-acquisition cycle across methods (potential
                  deadlock), or a non-reentrant ``Lock`` re-acquired
LOCK-LEAK         bare ``acquire()`` without ``with``/``finally`` release,
                  or ``Condition.wait()`` outside a ``while`` loop
GUARD-CONSISTENCY instance attribute written under a lock in one method
                  but accessed bare in another method of the same class
================= ======================================================

A finding is suppressed only inline, with ``# repro: noqa[RULE-ID]`` on
the flagged line or the line above (covered by ``tests/analysis``);
every other finding fails ``repro lint``.
"""

from __future__ import annotations

from repro.analysis.base import Checker, ModuleChecker
from repro.analysis.engine import all_checkers, analyze_paths, analyze_project
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Checker",
    "ModuleChecker",
    "Finding",
    "Project",
    "SourceModule",
    "all_checkers",
    "analyze_paths",
    "analyze_project",
    "render_json",
    "render_text",
]
