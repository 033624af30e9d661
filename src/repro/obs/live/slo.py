"""SLO objectives with multi-window burn-rate alerting.

Each :class:`Objective` classifies samples good/bad against a threshold
and owns an error *budget* — the fraction of samples allowed to be bad
(budget 0.01 with a latency threshold is exactly "p99 latency ≤ T").
The monitor evaluates the **burn rate** — observed bad fraction divided
by budget — over a fast and a slow window simultaneously (the
multi-window pattern from Google's SRE workbook): the slow window
filters blips, the fast window confirms the problem is still happening,
and the alert state is

- ``burning`` — both windows at burn ≥ 1 (budget being consumed faster
  than allowed, and currently);
- ``warn``    — only the fast window is hot (too new to confirm);
- ``ok``      — otherwise.

The clock is injectable so tests drive window expiry deterministically.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from threading import Lock
from typing import Any, Callable, Sequence

__all__ = ["Objective", "SLOMonitor", "default_objectives"]


@dataclass(frozen=True)
class Objective:
    """One service-level objective: samples ≤ threshold are good."""

    name: str
    threshold: float
    #: Allowed bad-sample fraction (0.01 ⇒ a p99 objective).
    budget: float = 0.05
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    unit: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.budget < 1.0:
            raise ValueError("budget must be in (0, 1)")
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ValueError("need 0 < fast_window_s <= slow_window_s")


def default_objectives() -> tuple[Objective, ...]:
    """The service's stock objectives (an :class:`SLOMonitor` takes
    any others)."""
    return (
        Objective("job_latency", 30.0, budget=0.01, unit="s"),
        Objective("dirty_j_per_job", 5e4, budget=0.05, unit="J"),
        Objective("queue_wait", 2.0, budget=0.10, unit="s"),
    )


class SLOMonitor:
    """Sliding-window good/bad counts + burn rates per objective."""

    def __init__(
        self,
        objectives: Sequence[Objective] = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        names = [o.name for o in objectives]
        if len(names) != len(set(names)):
            raise ValueError("objective names must be unique")
        self._objectives = {o.name: o for o in objectives}
        self._clock = clock
        self._lock = Lock()
        #: name → deque of (timestamp, is_bad); pruned past the slow window.
        self._samples: dict[str, deque[tuple[float, bool]]] = {
            name: deque() for name in self._objectives
        }

    @property
    def objectives(self) -> tuple[Objective, ...]:
        return tuple(self._objectives.values())

    def record(self, name: str, value: float) -> None:
        """Classify one sample against its objective's threshold."""
        objective = self._objectives.get(name)
        if objective is None:
            return  # unknown objective: not this deployment's concern
        now = self._clock()
        with self._lock:
            samples = self._samples[name]
            samples.append((now, value > objective.threshold))
            self._prune(samples, now - objective.slow_window_s)

    @staticmethod
    def _prune(samples: deque, horizon: float) -> None:
        while samples and samples[0][0] < horizon:
            samples.popleft()

    # -- read side ----------------------------------------------------------

    def _burn(self, samples: deque, horizon: float, budget: float) -> tuple[float, int]:
        total = bad = 0
        for ts, is_bad in samples:
            if ts >= horizon:
                total += 1
                bad += is_bad
        if total == 0:
            return 0.0, 0
        return (bad / total) / budget, total

    def status(self) -> dict[str, dict[str, Any]]:
        """Burn rates + alert state per objective."""
        now = self._clock()
        out: dict[str, dict[str, Any]] = {}
        with self._lock:
            for name, objective in self._objectives.items():
                samples = self._samples[name]
                self._prune(samples, now - objective.slow_window_s)
                fast, fast_n = self._burn(
                    samples, now - objective.fast_window_s, objective.budget
                )
                slow, slow_n = self._burn(
                    samples, now - objective.slow_window_s, objective.budget
                )
                if fast >= 1.0 and slow >= 1.0:
                    state = "burning"
                elif fast >= 1.0:
                    state = "warn"
                else:
                    state = "ok"
                out[name] = {
                    "state": state,
                    "threshold": objective.threshold,
                    "unit": objective.unit,
                    "budget": objective.budget,
                    "fast_burn": round(fast, 3),
                    "slow_burn": round(slow, 3),
                    "fast_samples": fast_n,
                    "slow_samples": slow_n,
                }
        return out

    def burning(self) -> list[str]:
        """Names of objectives currently in the ``burning`` state."""
        return [name for name, s in self.status().items() if s["state"] == "burning"]
