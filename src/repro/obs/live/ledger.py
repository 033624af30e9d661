"""Per-tenant energy ledger: who burned which joules, green vs dirty.

Charges arrive from the live plane's tracer sink — every span that
:func:`repro.obs.energy.energy_split` would count (the ``energy_j``
attribute predicate) is billed to the tenant whose job emitted it, so
by construction the ledger's grand totals reconcile with
``energy_split`` over the same spans to float-sum precision (the
acceptance bound is 1e-6).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = ["Ledger"]


class Ledger:
    """Thread-safe per-tenant green/dirty energy accounts."""

    #: Tenant billed when a charge arrives outside any tenant context
    #: (direct engine runs, profiling probes).
    UNATTRIBUTED = "unattributed"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._accounts: dict[str, dict[str, float]] = {}

    def charge(self, tenant: str, green_j: float, dirty_j: float) -> None:
        """Bill one task's energy to ``tenant``."""
        with self._lock:
            account = self._accounts.get(tenant)
            if account is None:
                account = self._accounts[tenant] = {
                    "energy_j": 0.0,
                    "green_j": 0.0,
                    "dirty_j": 0.0,
                    "tasks": 0,
                }
            account["green_j"] += green_j
            account["dirty_j"] += dirty_j
            account["energy_j"] += green_j + dirty_j
            account["tasks"] += 1

    # -- read side ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-tenant account snapshot, tenant-name order."""
        with self._lock:
            return {
                tenant: dict(account)
                for tenant, account in sorted(self._accounts.items())
            }

    def grand_total(self) -> dict[str, float]:
        """Sum over every tenant — the reconciliation side."""
        out = {"energy_j": 0.0, "green_j": 0.0, "dirty_j": 0.0, "tasks": 0}
        with self._lock:
            for account in self._accounts.values():
                for key in out:
                    out[key] += account[key]
        return out

    def reconcile(self, split: Mapping[str, Any], tol: float = 1e-6) -> dict[str, Any]:
        """Diff the ledger against an ``energy_split`` summary.

        Both sides sum the same span floats, so any drift beyond float
        addition order means a charge was missed or double-billed.
        """
        total = self.grand_total()
        energy_diff = abs(total["energy_j"] - float(split["energy_j"]))
        dirty_diff = abs(total["dirty_j"] - float(split["dirty_energy_j"]))
        green_diff = abs(total["green_j"] - float(split["green_energy_j"]))
        return {
            "energy_diff_j": energy_diff,
            "dirty_diff_j": dirty_diff,
            "green_diff_j": green_diff,
            "ok": max(energy_diff, dirty_diff, green_diff) <= tol,
        }

    def reset(self) -> None:
        with self._lock:
            self._accounts.clear()
