"""Bounded ring-buffer telemetry bus: the live plane's transport.

One :class:`TelemetryBus` sits between its one publisher (the tracer
sink, :meth:`LivePlane.publish_span`, on whichever thread finished the
span) and every subscriber (the ``/live`` endpoint, ``repro obs top``,
future re-planners). Contract:

- **Bounded.** At most ``capacity`` events are buffered; publishing
  into a full buffer drops the *oldest* event and increments a drop
  counter — a slow subscriber can never grow memory or stall a
  publisher.
- **Lock-light.** ``publish`` is one short critical section (append +
  sequence bump); waiters are only notified when someone is actually
  long-polling, so the no-subscriber cost is an uncontended lock.
- **Snapshot subscription.** Subscribers are stateless on the bus side:
  they remember the last sequence number they saw and ask for
  ``events_since(seq)`` (or block in :meth:`wait_for`). Missing events
  because the ring wrapped is visible as a gap in ``seq``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

__all__ = ["TelemetryBus"]


class TelemetryBus:
    """Drop-oldest ring buffer of ``{"seq", "kind", "time_s", "data"}``."""

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[dict] = deque()
        self._cond = threading.Condition()
        self._seq = 0
        self._dropped = 0
        self._waiters = 0

    # -- publish ------------------------------------------------------------

    def publish(self, kind: str, **data: Any) -> int:
        """Append one event; returns its sequence number."""
        with self._cond:
            self._seq += 1
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self._dropped += 1
            self._events.append(
                {"seq": self._seq, "kind": kind, "time_s": time.time(), "data": data}
            )
            if self._waiters:
                self._cond.notify_all()
            return self._seq

    # -- subscribe ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        with self._cond:
            return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted unread because the ring was full."""
        with self._cond:
            return self._dropped

    def events_since(self, since: int = 0, limit: int | None = None) -> list[dict]:
        """Buffered events with ``seq > since``, oldest first."""
        with self._cond:
            out = [e for e in self._events if e["seq"] > since]
        if limit is not None and len(out) > limit:
            out = out[-limit:]  # newest survive, like the ring itself
        return out

    def wait_for(
        self, since: int = 0, timeout_s: float = 0.0, limit: int | None = None
    ) -> list[dict]:
        """Long-poll: block up to ``timeout_s`` for events past ``since``."""
        deadline = time.monotonic() + max(timeout_s, 0.0)
        with self._cond:
            while self._seq <= since:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._waiters += 1
                try:
                    self._cond.wait(timeout=remaining)
                finally:
                    self._waiters -= 1
        return self.events_since(since, limit=limit)

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "capacity": self.capacity,
                "published": self._seq,
                "buffered": len(self._events),
                "dropped": self._dropped,
            }
