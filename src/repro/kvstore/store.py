"""A single-node, in-process Redis-like key-value store.

Implements the subset of Redis semantics the partitioning framework
relies on: strings, lists, hashes, atomic integer counters, key
deletion (DEL), and per-command statistics so
tests and benchmarks can assert on access patterns (e.g. "the whole
partition moved in one LRANGE").

Thread safety: every public command takes an internal lock, matching
Redis's single-threaded command execution model. This makes the
fetch-and-increment barrier primitive (`incr`) safe to call from the
process-pool execution engine's worker threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable


class StoreError(Exception):
    """Base error for key-value store misuse."""


class WrongTypeError(StoreError):
    """Raised when a command is applied to a key holding the wrong type.

    Mirrors Redis's ``WRONGTYPE`` error.
    """


@dataclass
class StoreStats:
    """Per-store command counters, used to assert batching behaviour."""

    gets: int = 0
    sets: int = 0
    list_ops: int = 0
    hash_ops: int = 0
    incrs: int = 0
    round_trips: int = 0
    bytes_moved: int = 0


_BLOB_TYPES = frozenset({bytes, bytearray})


def _payload_bytes(value: Any) -> int:
    """Approximate wire size of a stored/fetched value."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, (list, tuple)):
        # A partition is thousands of record blobs: size them without
        # a Python-level call per element.
        if _BLOB_TYPES.issuperset(map(type, value)):
            return sum(map(len, value))
        return sum(map(_payload_bytes, value))
    if isinstance(value, dict):
        return sum(
            _payload_bytes(k) + _payload_bytes(v) for k, v in value.items()
        )
    # Buffer types (memoryview, numpy arrays) say how many bytes they hold.
    nbytes = getattr(value, "nbytes", None)
    return nbytes if isinstance(nbytes, int) else 8


@dataclass
class KeyValueStore:
    """One Redis-server-equivalent instance (the paper runs one per node).

    Parameters
    ----------
    node_id:
        Identifier of the cluster node hosting this store instance.
    """

    node_id: int = 0
    _data: dict[str, Any] = field(default_factory=dict, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    stats: StoreStats = field(default_factory=StoreStats)

    # -- string commands ------------------------------------------------

    def set(self, key: str, value: bytes | str | int) -> None:
        """SET: store a scalar value under ``key`` (overwrites any type)."""
        with self._lock:
            self._data[key] = value
            self.stats.sets += 1
            self.stats.round_trips += 1
            self.stats.bytes_moved += _payload_bytes(value)

    def get(self, key: str) -> Any:
        """GET: return the scalar stored at ``key`` or ``None``."""
        with self._lock:
            self.stats.gets += 1
            self.stats.round_trips += 1
            value = self._data.get(key)
            if isinstance(value, (list, dict)):
                raise WrongTypeError(f"key {key!r} holds a {type(value).__name__}")
            self.stats.bytes_moved += _payload_bytes(value)
            return value

    def incr(self, key: str, amount: int = 1) -> int:
        """INCRBY: atomic fetch-and-add; returns the *new* value.

        This is the primitive the paper uses to build its global barrier.
        Missing keys start at 0, as in Redis.
        """
        with self._lock:
            value = self._data.get(key, 0)
            if not isinstance(value, int):
                raise WrongTypeError(f"key {key!r} is not an integer")
            value += amount
            self._data[key] = value
            self.stats.incrs += 1
            self.stats.round_trips += 1
            return value

    # -- list commands ---------------------------------------------------

    def rpush(self, key: str, *values: Any) -> int:
        """RPUSH: append values to the list at ``key``; returns new length."""
        if not values:
            raise StoreError("rpush requires at least one value")
        with self._lock:
            lst = self._data.setdefault(key, [])
            if not isinstance(lst, list):
                raise WrongTypeError(f"key {key!r} is not a list")
            lst.extend(values)
            self.stats.list_ops += 1
            self.stats.round_trips += 1
            self.stats.bytes_moved += _payload_bytes(values)
            return len(lst)

    def lrange(self, key: str, start: int = 0, stop: int = -1) -> list[Any]:
        """LRANGE: return list slice using Redis's inclusive-stop indexing."""
        with self._lock:
            lst = self._data.get(key, [])
            if not isinstance(lst, list):
                raise WrongTypeError(f"key {key!r} is not a list")
            self.stats.list_ops += 1
            self.stats.round_trips += 1
            n = len(lst)
            if start < 0:
                start = max(n + start, 0)
            if stop < 0:
                stop = n + stop
            out = lst[start : stop + 1]
            self.stats.bytes_moved += _payload_bytes(out)
            return out

    def lindex(self, key: str, index: int) -> Any:
        """LINDEX: return the element at ``index`` (negative = from tail)."""
        with self._lock:
            lst = self._data.get(key, [])
            if not isinstance(lst, list):
                raise WrongTypeError(f"key {key!r} is not a list")
            self.stats.list_ops += 1
            self.stats.round_trips += 1
            try:
                value = lst[index]
            except IndexError:
                return None
            self.stats.bytes_moved += _payload_bytes(value)
            return value

    def llen(self, key: str) -> int:
        """LLEN: list length (0 for missing keys)."""
        with self._lock:
            lst = self._data.get(key, [])
            if not isinstance(lst, list):
                raise WrongTypeError(f"key {key!r} is not a list")
            self.stats.list_ops += 1
            self.stats.round_trips += 1
            return len(lst)

    # -- hash commands -----------------------------------------------------

    def hset(self, key: str, field_name: str, value: Any) -> None:
        """HSET: set one field of the hash at ``key``."""
        with self._lock:
            h = self._data.setdefault(key, {})
            if not isinstance(h, dict):
                raise WrongTypeError(f"key {key!r} is not a hash")
            h[field_name] = value
            self.stats.hash_ops += 1
            self.stats.round_trips += 1

    def hget(self, key: str, field_name: str) -> Any:
        """HGET: read one field of the hash at ``key`` (None if missing)."""
        with self._lock:
            h = self._data.get(key, {})
            if not isinstance(h, dict):
                raise WrongTypeError(f"key {key!r} is not a hash")
            self.stats.hash_ops += 1
            self.stats.round_trips += 1
            return h.get(field_name)

    # -- key lifecycle -----------------------------------------------------

    def delete(self, *keys: str) -> int:
        """DEL: remove keys; returns how many existed."""
        with self._lock:
            removed = 0
            for key in keys:
                if key in self._data:
                    del self._data[key]
                    removed += 1
            self.stats.round_trips += 1
            return removed

    # -- bulk entry point used by the pipeline -----------------------------

    def execute_batch(self, commands: Iterable[tuple[str, tuple, dict]]) -> list[Any]:
        """Run a batch of commands under one lock acquisition / round trip.

        Each command is ``(method_name, args, kwargs)``. The batch counts as
        a single network round trip, which is what Redis pipelining buys.
        """
        results: list[Any] = []
        with self._lock:
            before = self.stats.round_trips
            for name, args, kwargs in commands:
                method = getattr(self, name, None)
                if method is None or name.startswith("_"):
                    raise StoreError(f"unknown command {name!r}")
                results.append(method(*args, **kwargs))
            # Collapse the per-command round trips into one.
            self.stats.round_trips = before + 1
        return results
