"""Names the frozen end-to-end benchmark still reads (ROADMAP 5(c)).

A partition reaches a pool worker in its task tuple; there is no
shared-memory store. Item 5 deletes this module with the ruler's
readers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DataPlaneStats", "SharedPartitionStore"]


class SharedPartitionStore:
    """Imported by ``e2ebench/tracing.py``, which wraps ``put_many``
    only where a class defines it: none does (ROADMAP 5(c))."""


@dataclass(frozen=True)
class DataPlaneStats:
    """``ProcessPoolEngine.dataplane_stats``: the five counters
    ``e2ebench/layers.py`` reads, all 0 (ROADMAP 5(c))."""

    refs_issued: int = 0
    serializations: int = 0
    identity_hits: int = 0
    digest_hits: int = 0
    shared_bytes: int = 0
