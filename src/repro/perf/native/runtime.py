"""Whether numba imports, for the end-to-end ruler's host fingerprint.

``benchmarks/e2e/e2ebench/harness.py`` (frozen) imports
:func:`numba_available` from this path; nothing under ``src/`` calls it.
Delete this package when ROADMAP item 5(c) re-points the ruler.
"""

from __future__ import annotations

import importlib


def numba_available() -> bool:
    """True iff ``import numba`` succeeds in this interpreter."""
    try:
        importlib.import_module("numba")
    except ImportError:
        return False
    return True
