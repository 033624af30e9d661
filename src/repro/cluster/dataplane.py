"""Zero-copy partition data plane for the process-pool engine.

The stock ``ProcessPoolExecutor`` path pickles every partition into the
task tuple, so each :meth:`run_job`/:meth:`profile` call pays
O(partition bytes) serialization per task — and pays it again on every
repeat of the same partitions (the profile → optimize → execute
pipeline sends the same data several times).

:class:`SharedPartitionStore` serializes a partition with pickle
protocol 5, splitting out-of-band buffers (numpy arrays, big bytes)
from the pickle frame, and publishes the bytes — **once** per distinct
content — in ``multiprocessing.shared_memory`` segments. Tasks then
carry only a :class:`PartitionRef` — segment name, offset, lengths — a
few dozen bytes regardless of partition size. Workers attach each
segment once per process (:func:`fetch_partition` keeps a module-level
attachment cache, bounded like the store) and unpickle straight out of
the mapping: the pickle
frame is read through a memoryview and out-of-band buffers stay
zero-copy. A staged partition
(:class:`~repro.kvstore.codec.EncodedDataset`, a slice of the
dataset's encoding) is two flat arrays (the values and where each
record starts), so its frame is O(1)
and a ``serialization`` costs a memcpy and a digest pass, not an
object-graph pickle; plain record lists
(profiling probes, direct ``run_job`` callers) still pickle in-band.

Repeats are cheap twice over:

- **identity cache** — a partition object already published, and
  still alive, returns its existing ref without touching pickle. The
  cache holds a staged partition by *weak* reference, so once its job
  drops it its bytes live only in the shared segment; an entry counts
  only while its reference resolves to the very object asked about, so
  a new object at a recycled ``id`` never gets a dead one's ref. Plain
  record lists cannot be weakly referenced and stay pinned by a strong
  one. Dead entries are swept under the store lock (no callbacks);
- **digest cache** — a new object with byte-identical serialized form
  (blake2b over frame + buffers) reuses the published bytes and takes
  over the ref's identity entry: at most one object answers per live
  ref, however many equal copies repeat jobs hand in.

Segments live until :meth:`SharedPartitionStore.close` (idempotent,
also registered via ``atexit`` so interpreter exit never leaks
``/dev/shm`` entries). Unlinking is safe while workers remain attached
— the kernel refcounts the mapping.

A ``cache_limit`` (:data:`SEGMENT_CACHE_LIMIT` by default) bounds the
number of live segments: once more than ``cache_limit`` are held, the
least-recently-used segments (hits and fresh publishes both refresh
recency) are unlinked and every cache entry pointing into them dropped,
so an engine streaming many distinct jobs keeps a bounded shared-memory
footprint instead of growing the digest/identity caches without limit.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
import pickle
import threading
import time
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import repro.obs as obs
from repro.obs.log import get_logger, log_event

_log = get_logger(__name__)

__all__ = [
    "PartitionRef",
    "DataPlaneStats",
    "SharedPartitionStore",
    "SEGMENT_CACHE_LIMIT",
    "fetch_partition",
]

#: Live segments a store keeps before it unlinks the least recently used.
SEGMENT_CACHE_LIMIT = 64


@dataclass(frozen=True)
class PartitionRef:
    """Locator for one serialized partition inside a shared segment.

    The ref is what actually crosses the process boundary, so its
    pickled size is the per-task payload — O(1) in partition size.
    """

    segment: str
    offset: int
    frame_bytes: int
    buffer_lengths: tuple[int, ...] = ()

    @property
    def total_bytes(self) -> int:
        """Serialized partition footprint inside the segment."""
        return self.frame_bytes + sum(self.buffer_lengths)


@dataclass
class DataPlaneStats:
    """Parent-side counters for one store's lifetime."""

    refs_issued: int = 0
    serializations: int = 0
    identity_hits: int = 0
    digest_hits: int = 0
    segments_created: int = 0
    segments_evicted: int = 0
    shared_bytes: int = 0
    evicted_bytes: int = 0
    ref_bytes_total: int = 0
    bytes_referenced: int = 0
    #: Live objects the identity cache answers for right now (a level,
    #: not a running total): at most one per live ref. A staged
    #: partition leaves once its owner drops it; a plain list is pinned.
    pinned_objects: int = 0


class SharedPartitionStore:
    """Publishes partitions into shared memory, deduplicating repeats.

    ``cache_limit`` bounds the number of live segments.
    """

    def __init__(self, cache_limit: int = SEGMENT_CACHE_LIMIT) -> None:
        if cache_limit <= 0:
            raise ValueError("cache_limit must be positive")
        self.cache_limit = cache_limit
        self._stats = DataPlaneStats()
        # One lock serializes publishing against eviction and close, so
        # concurrent engine callers (the job service runs several worker
        # threads over one engine) cannot corrupt the LRU/cache maps or
        # observe a segment unlinked mid-publish.
        self._lock = threading.RLock()
        # name -> segment; insertion order doubles as LRU order (oldest
        # first) — hits re-append via _touch().
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        # id(obj) -> ref; an entry answers only while ``_pinned[ref]``
        # resolves to an object with that id.
        self._by_identity: dict[int, PartitionRef] = {}
        # ref -> the one object that answers for it by identity (see
        # _holder): a byte-identical duplicate replaces the older one
        # instead of joining it.
        self._pinned: dict[PartitionRef, Callable[[], object | None]] = {}
        self._by_digest: dict[bytes, PartitionRef] = {}
        self._closed = False
        atexit.register(self.close)

    @property
    def live_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def stats(self) -> DataPlaneStats:
        """The store's counters, ``pinned_objects`` swept current."""
        with self._lock:
            self._sweep()
            return self._stats

    def _touch(self, name: str) -> None:
        seg = self._segments.pop(name, None)
        if seg is not None:
            self._segments[name] = seg

    def _evict_over_limit(self, pinned: set[str]) -> None:
        """Unlink LRU segments beyond ``cache_limit``, dropping every
        cache entry that points into them. Segments serving the current
        call (``pinned``) are never evicted, so a single oversized
        batch can exceed the limit transiently rather than lose refs it
        is about to hand out."""
        evictable = [n for n in self._segments if n not in pinned]
        excess = len(self._segments) - self.cache_limit
        for name in evictable[:max(0, excess)]:
            seg = self._segments.pop(name)
            self._by_digest = {
                d: r for d, r in self._by_digest.items() if r.segment != name
            }
            self._by_identity = {
                i: r for i, r in self._by_identity.items() if r.segment != name
            }
            self._pinned = {r: h for r, h in self._pinned.items() if r.segment != name}
            self._stats.segments_evicted += 1
            self._stats.evicted_bytes += seg.size
            log_event(
                _log, logging.DEBUG, "dataplane.segment.evicted",
                segment=name, bytes=seg.size, live=len(self._segments),
            )
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError) as exc:
                log_event(
                    _log, logging.DEBUG, "dataplane.segment.evict_failed",
                    segment=name, error=type(exc).__name__,
                )

    def _pin(self, part: object, ref: PartitionRef) -> None:
        """Make ``part`` the one object whose identity answers for
        ``ref``, releasing whichever duplicate held that place."""
        self._by_identity[id(part)] = ref
        self._pinned[ref] = _holder(part)

    def _identity_hit(self, part: object) -> PartitionRef | None:
        """``part``'s ref if ``part`` itself is the object answering
        for it (not a dead one whose id it reuses, nor a duplicate's)."""
        ref = self._by_identity.get(id(part))
        if ref is None:
            return None
        holder = self._pinned.get(ref)
        return ref if holder is not None and holder() is part else None

    def _sweep(self) -> None:
        """Forget the entries of objects that died or whose ref passed
        to a duplicate, and restate ``pinned_objects``. Caller holds
        the lock."""
        live = {r: h() for r, h in self._pinned.items()}
        self._pinned = {r: h for r, h in self._pinned.items() if live[r] is not None}
        self._by_identity = {
            i: r for i, r in self._by_identity.items() if id(live.get(r)) == i
        }
        self._stats.pinned_objects = len(self._pinned)

    # -- publishing ---------------------------------------------------------

    def put_many(self, partitions: list) -> list[PartitionRef]:
        """Publish every partition, packing cache misses into one new
        segment; returns one ref per partition, in order. Thread-safe:
        concurrent publishers serialize on the store lock. Traced, a
        ``dataplane.put_many`` mark after the lock carries the call's
        change in each running total of :class:`DataPlaneStats` and the
        live segment count."""
        traced = obs.enabled()
        with self._lock:
            before = vars(self._stats).copy() if traced else {}
            refs = self._put_many_locked(partitions)
            if traced:
                deltas = {
                    key: value - before[key]
                    for key, value in vars(self._stats).items()
                    if key != "pinned_objects"
                }
                live = len(self._segments)
        if traced:
            obs.emit("dataplane.put_many", time.time(), 0.0, live_segments=live, **deltas)
        return refs

    def _put_many_locked(self, partitions: list) -> list[PartitionRef]:
        if self._closed:
            raise RuntimeError("store is closed")
        refs: list[PartitionRef | None] = [None] * len(partitions)
        misses: list[tuple[int, object, bytes, bytes, list[memoryview]]] = []
        for i, part in enumerate(partitions):
            ref = self._identity_hit(part)
            if ref is not None:
                self._stats.identity_hits += 1
                refs[i] = ref
                self._touch(ref.segment)
                continue
            frame, buffers = _serialize(part)
            self._stats.serializations += 1
            digest = _digest(frame, buffers)
            ref = self._by_digest.get(digest)
            if ref is not None:
                self._stats.digest_hits += 1
                self._pin(part, ref)
                refs[i] = ref
                self._touch(ref.segment)
                continue
            misses.append((i, part, digest, frame, buffers))

        if misses:
            total = sum(
                len(frame) + sum(len(b) for b in bufs)
                for _, _, _, frame, bufs in misses
            )
            seg = shared_memory.SharedMemory(create=True, size=max(total, 1))
            self._segments[seg.name] = seg
            self._stats.segments_created += 1
            self._stats.shared_bytes += total
            cursor = 0
            for i, part, digest, frame, buffers in misses:
                offset = cursor
                seg.buf[cursor : cursor + len(frame)] = frame
                cursor += len(frame)
                lengths = []
                for buf in buffers:
                    flat = buf.cast("B") if buf.ndim != 1 or buf.format != "B" else buf
                    seg.buf[cursor : cursor + flat.nbytes] = flat
                    cursor += flat.nbytes
                    lengths.append(flat.nbytes)
                ref = PartitionRef(
                    segment=seg.name,
                    offset=offset,
                    frame_bytes=len(frame),
                    buffer_lengths=tuple(lengths),
                )
                self._by_digest[digest] = ref
                self._pin(part, ref)
                refs[i] = ref

        out = [r for r in refs if r is not None]
        assert len(out) == len(partitions)
        self._stats.refs_issued += len(out)
        self._stats.ref_bytes_total += sum(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in out
        )
        self._stats.bytes_referenced += sum(r.total_bytes for r in out)
        self._evict_over_limit(pinned={r.segment for r in out})
        self._sweep()
        return out

    def put(self, partition) -> PartitionRef:
        """Publish one partition (see :meth:`put_many`)."""
        return self.put_many([partition])[0]

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def clear_cache(self) -> None:
        """Drop the identity/digest caches (published bytes remain
        readable until :meth:`close`). Unpins cached partitions."""
        with self._lock:
            self._by_identity.clear()
            self._pinned.clear()
            self._by_digest.clear()
            self._stats.pinned_objects = 0

    def close(self) -> None:
        """Close and unlink every segment. Idempotent and exit-safe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, {}
        self.clear_cache()
        for name, seg in segments.items():
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError) as exc:
                # Already gone (e.g. a second store raced us at exit).
                log_event(
                    _log, logging.DEBUG, "dataplane.segment.close_failed",
                    segment=name, error=type(exc).__name__,
                )

    def __enter__(self) -> "SharedPartitionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _holder(part: object) -> Callable[[], object | None]:
    """A weak reference to ``part``, or, for an object that cannot be
    weakly referenced (a plain list), a strong one: it keeps ``part``
    alive, so its id cannot be recycled while the entry lives."""
    try:
        return weakref.ref(part)
    except TypeError:
        return lambda: part


def _serialize(obj) -> tuple[bytes, list[memoryview]]:
    buffers: list[pickle.PickleBuffer] = []
    frame = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return frame, [b.raw() for b in buffers]


def _digest(frame: bytes, buffers: list[memoryview]) -> bytes:
    h = hashlib.blake2b(frame, digest_size=16)
    for buf in buffers:
        h.update(buf.cast("B") if buf.ndim != 1 or buf.format != "B" else buf)
    return h.digest()


# -- worker side ------------------------------------------------------------

#: Per-process attachment cache, least recently used first: a worker
#: maps a segment once and keeps at most :data:`SEGMENT_CACHE_LIMIT`
#: mappings (the store's own bound), so the pages of segments the
#: parent has since unlinked are released instead of pinned for the
#: worker's lifetime.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _release_over_limit() -> None:
    """Close the least recently used attachments beyond the limit. A
    mapping that unpickled objects still view (``close`` raises
    ``BufferError``) stays attached until a later call finds it free."""
    excess = len(_ATTACHED) - SEGMENT_CACHE_LIMIT
    for name in list(_ATTACHED)[:max(0, excess)]:
        try:
            _ATTACHED[name].close()
        except BufferError:
            continue
        # Per-process cache: pool workers are single-threaded.  # repro: noqa[RACE-GLOBAL]
        del _ATTACHED[name]


def _attach(name: str) -> shared_memory.SharedMemory:
    # Per-process cache by design: pool workers are single-threaded.  # repro: noqa[RACE-GLOBAL]
    seg = _ATTACHED.pop(name, None)
    if seg is None:
        # Python 3.11 registers even attachments with the resource
        # tracker. Under the fork start method (Linux, what the
        # executor uses here) workers share the parent's tracker, so
        # the attach-register is an idempotent set-add and the parent's
        # unlink() performs the one matching unregister — no extra
        # bookkeeping needed, and no tracker KeyError/leak warnings.
        seg = shared_memory.SharedMemory(name=name, create=False)
    # Re-inserted as the most recent; a duplicate attach under a
    # theoretical race is idempotent (same segment, same name).  # repro: noqa[RACE-GLOBAL]
    _ATTACHED[name] = seg
    _release_over_limit()
    return seg


def fetch_partition(ref: PartitionRef):
    """Reconstruct the partition a :class:`PartitionRef` points at.

    Reads the pickle frame through a memoryview and hands out-of-band
    buffers to ``pickle.loads`` as zero-copy slices of the mapping.
    """
    seg = _attach(ref.segment)
    base = ref.offset
    frame = seg.buf[base : base + ref.frame_bytes]
    cursor = base + ref.frame_bytes
    buffers: list[memoryview] = []
    for length in ref.buffer_lengths:
        buffers.append(seg.buf[cursor : cursor + length])
        cursor += length
    return pickle.loads(frame, buffers=buffers)
