"""KERNEL-ORACLE: every perf kernel needs a parity test against its oracle.

The performance work in PRs 1–2 established a contract: each batched
kernel in ``src/repro/perf/`` is *bit-identical* to a kept reference
implementation, proven by a parity suite under ``tests/perf/``. A
kernel module that no test imports has silently left that contract —
its oracle may have drifted or been deleted.

The check is import-graph based: parse every module under
``tests/perf/``, collect the modules they import (``import x.y``,
``from x.y import z``, and ``from x import y`` resolving ``x.y``), and
require each ``repro.perf.<kernel>`` module in the scanned set to be
imported by at least one of them (the prefix match covers nested
packages). When the scanned set contains no ``tests/perf/`` files at
all (e.g. ``repro lint src/`` alone) the rule stays quiet — absence of
the test tree is not evidence of a missing oracle.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: Package whose modules are kernels, and where their parity tests live.
KERNEL_PACKAGE = "repro.perf"
TESTS_PREFIX = "tests/perf/"


def imported_modules(module: SourceModule) -> set[str]:
    """Every dotted module name a file imports (best-effort, static)."""
    assert module.tree is not None
    out: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.add(node.module)
            # `from repro.perf import fpm_kernels` names the submodule.
            for alias in node.names:
                out.add(f"{node.module}.{alias.name}")
    return out


class KernelOracleChecker(Checker):
    rule_id = "KERNEL-ORACLE"
    description = (
        "kernel module in src/repro/perf/ with no parity test importing it "
        "under tests/perf/ (bit-identity contract unverified)"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        test_modules = [
            m
            for m in project
            if m.relpath.startswith(TESTS_PREFIX) and m.tree is not None
        ]
        if not test_modules:
            return
        covered: set[str] = set()
        for test in test_modules:
            covered |= imported_modules(test)

        prefix = KERNEL_PACKAGE + "."
        for module in project:
            if module.tree is None or not module.name.startswith(prefix):
                continue
            # Only direct kernel modules, not the package marker.
            if module.relpath.endswith("__init__.py"):
                continue
            if module.name in covered:
                continue
            yield self.finding(
                module,
                module.tree.body[0] if module.tree.body else None,
                f"kernel module {module.name} is imported by no test under "
                f"{TESTS_PREFIX} — add a reference-oracle parity test "
                "(see tests/perf/test_kernel_equivalence.py for the pattern)",
            )
