"""The :class:`Finding` record every checker emits: one rule violation
at one source location."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Optional machine-readable extras (never part of identity).
    extra: dict[str, Any] = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
