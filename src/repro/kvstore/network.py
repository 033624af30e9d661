"""Simulated network cost model for the KV middleware.

The paper's Section IV argues two performance points about the
middleware path: storing items as length-prefixed byte sequences in a
list lets a whole partition move in a single get/put, and pipelining
"is known to substantially improve the response times". The in-process
store already counts round trips and bytes; this model converts those
counters into transfer time so benches can quantify both claims:

``time = round_trips · latency + bytes / bandwidth``

Defaults approximate a same-datacenter network (0.5 ms RTT, 1 Gb/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kvstore.store import KeyValueStore, StoreStats


@dataclass(frozen=True)
class NetworkModel:
    """Latency + bandwidth cost model for store access."""

    latency_s: float = 5e-4
    bandwidth_bytes_per_s: float = 125e6  # 1 Gb/s

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time_s(self, round_trips: int, bytes_moved: int) -> float:
        """Wall time to perform the counted traffic."""
        if round_trips < 0 or bytes_moved < 0:
            raise ValueError("counters must be non-negative")
        return round_trips * self.latency_s + bytes_moved / self.bandwidth_bytes_per_s

    def delta_time_s(self, before: StoreStats, after: StoreStats) -> float:
        """Transfer time of the traffic between two stat snapshots."""
        return self.transfer_time_s(
            after.round_trips - before.round_trips,
            after.bytes_moved - before.bytes_moved,
        )


def snapshot(store: KeyValueStore) -> StoreStats:
    """Copy a store's counters (for delta accounting)."""
    return StoreStats(**vars(store.stats))
