"""Source discovery and per-file parsing for the analysis engine.

A :class:`SourceModule` bundles what every checker needs — text, AST,
dotted module name and the ``# repro: noqa[...]`` suppression map — so
each file is read and parsed exactly once per run. A :class:`Project`
is the whole scanned set; project-scoped checkers (import-graph rules
like KERNEL-ORACLE, or class collection for TRUTHY-SIZED) see all
modules at once.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[RULE-A,RULE-B]``.
#: The bracket group matches even when empty so ``noqa[]`` is seen as a
#: malformed targeted suppression, not a blanket one.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\- ]*)\])?", re.IGNORECASE
)

#: Directories never scanned, wherever they appear. Includes the
#: artifact/temp dirs the benchmarks and CI legs drop next to their
#: JSON outputs (obs-smoke-artifacts, results, artifacts) — stray
#: generated .py files there must not slow the scan or pollute it
#: with unfixable findings.
SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    ".tox",
    ".eggs",
    ".venv",
    "venv",
    "node_modules",
    "build",
    "dist",
    "results",
    "artifacts",
    "obs-smoke-artifacts",
}

#: Directory-name suffixes treated like SKIP_DIRS (setuptools metadata,
#: `foo.egg-info/`, and scratch dirs like `bench.tmp/`).
SKIP_DIR_SUFFIXES = (".egg-info", ".tmp")


def parse_noqa(lines: list[str]) -> dict[int, frozenset[str] | None]:
    """Map 1-based line number → suppressed rule ids (``None`` = all).

    A suppression applies to findings anchored on its own line *and*
    the line below, so multi-line statements and decorated definitions
    can carry the comment above the flagged node.
    """
    out: dict[int, frozenset[str] | None] = {}
    for idx, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            out[idx] = None
        else:
            ids = frozenset(r.strip().upper() for r in rules.split(",") if r.strip())
            if not ids:
                # Malformed targeted suppression (`noqa[]`, `noqa[,]`):
                # suppress nothing rather than silently widening to all.
                continue
            out[idx] = ids
    return out


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/perf/minhash_kernels.py`` → ``repro.perf.minhash_kernels``;
    ``tests/perf/test_fpm_kernels.py`` → ``tests.perf.test_fpm_kernels``.
    Unknown layouts fall back to the path with separators dotted.
    """
    parts = Path(relpath).parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    parts = parts[:-1] + (last,)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class SourceModule:
    """One parsed source file."""

    relpath: str
    text: str
    lines: list[str] = field(default_factory=list)
    tree: ast.Module | None = None
    syntax_error: SyntaxError | None = None
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return module_name_for(self.relpath)

    @classmethod
    def from_source(cls, text: str, relpath: str = "<string>") -> "SourceModule":
        """Build a module from in-memory source (fixture tests use this)."""
        lines = text.splitlines()
        tree: ast.Module | None = None
        error: SyntaxError | None = None
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            error = exc
        return cls(
            relpath=relpath,
            text=text,
            lines=lines,
            tree=tree,
            syntax_error=error,
            noqa=parse_noqa(lines),
        )

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "SourceModule":
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls.from_source(path.read_text(encoding="utf-8"), relpath)

    def is_suppressed(self, rule: str, line: int) -> bool:
        for probe in (line, line - 1):
            rules = self.noqa.get(probe, "missing")
            if rules is None:
                return True
            if isinstance(rules, frozenset) and rule.upper() in rules:
                return True
        return False


@dataclass
class Project:
    """Every module under analysis, plus the root they are relative to."""

    modules: list[SourceModule]
    root: Path = field(default_factory=Path.cwd)

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)

    @property
    def num_modules(self) -> int:
        return len(self.modules)

    def module(self, relpath: str) -> SourceModule | None:
        for mod in self.modules:
            if mod.relpath == relpath:
                return mod
        return None


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under each path (files pass through as-is)."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            if any(
                part in SKIP_DIRS or part.endswith(SKIP_DIR_SUFFIXES)
                for part in sub.parts[:-1]
            ):
                continue
            yield sub


def load_project(paths: Iterable[Path], root: Path | None = None) -> Project:
    root = Path.cwd() if root is None else root
    modules = [SourceModule.from_path(p, root) for p in iter_python_files(paths)]
    return Project(modules=modules, root=root)
