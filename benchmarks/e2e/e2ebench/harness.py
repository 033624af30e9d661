"""Job kinds, common set-up, and the accounting every workload shares."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cluster import ProcessPoolEngine, paper_cluster
from repro.core import HET_AWARE, STRATIFIED, ParetoPartitioner, Strategy, het_energy_aware
from repro.core.framework import PreparedInput, RunReport
from repro.core.strategies import ALPHA_COMPRESSION, ALPHA_FPM
from repro.perf import autotune
from repro.perf.native.runtime import numba_available
from repro.service.jobs import MINING_WORKLOADS, build_workload, default_placement

NUM_NODES = 4
MAX_WORKERS = 2
#: The default 0.5 s emulated per-task overhead dwarfs jobs this size,
#: so every plan comes out [N,0,0,0] and one worker runs; at 0.02 s the
#: α=1 plans spread over 3-4 nodes and the pool runs a parallel job.
TASK_OVERHEAD_S = 0.02
MIN_PARTITIONS = 3


@dataclass(frozen=True)
class Kind:
    """One job kind: a service workload name on a registry dataset."""

    name: str
    dataset: str
    size_scale: float
    cold_scale: float
    support: float

    @property
    def mining(self) -> bool:
        return self.name in MINING_WORKLOADS

    def workload(self):
        return build_workload(self.name, self.support)

    def strategies(self) -> list[Strategy]:
        """Stratified, Het-Aware, Het-Energy-Aware at the kind's α."""
        energy_alpha = ALPHA_FPM if self.mining else ALPHA_COMPRESSION
        placement = default_placement(self.name)
        return [
            s.with_placement(placement)
            for s in (STRATIFIED, HET_AWARE, het_energy_aware(energy_alpha))
        ]

    def execute(
        self,
        pp: ParetoPartitioner,
        items: Sequence[Any],
        strategy: Strategy,
        prepared: PreparedInput | None,
    ) -> RunReport:
        run = pp.execute_fpm if self.mining else pp.execute
        return run(items, self.workload(), strategy, prepared=prepared)

    def spec(self, alpha: float | None, seed: int, scale: float) -> dict[str, Any]:
        """The service request for this kind."""
        return {
            "workload": self.name,
            "dataset": self.dataset,
            "support": self.support,
            "alpha": alpha,
            "size_scale": self.size_scale * scale,
            "seed": seed,
            "tenant": "bench",
        }


#: Graph, tree and text domains; two compression kinds (``execute``)
#: and two mining kinds (two-phase ``execute_fpm``). Sizes put a warm
#: job near 0.2 s on the 2-vCPU reference box; ``cold_scale`` sizes the
#: batch-cold datasets so a prepare+execute op is about 0.5 s.
KINDS: dict[str, Kind] = {
    k.name: k
    for k in (
        Kind("webgraph", "uk", 2.4, 0.8, 0.1),
        Kind("lz77", "uk", 0.8, 0.4, 0.1),
        Kind("treemining", "swissprot", 0.8, 0.4, 0.3),
        Kind("fpgrowth", "rcv1", 4.0, 2.0, 0.1),
    )
}


def nonempty(sizes: Iterable[int]) -> int:
    return sum(1 for s in sizes if s > 0)


def start_engine() -> ProcessPoolEngine:
    """The common cluster and engine, pool already forked: a throwaway
    probe keeps worker start-up out of every timed op (and forks before
    the service starts its threads)."""
    cluster = paper_cluster(NUM_NODES, seed=0, task_overhead_s=TASK_OVERHEAD_S)
    engine = ProcessPoolEngine(cluster, max_workers=MAX_WORKERS)
    engine.profile(build_workload("lz77", 0.1), [[1, 2, 3]] * 8, 0)
    return engine


# -- machine speed ----------------------------------------------------------


class SpeedProbe(threading.Thread):
    """Samples the machine's effective CPU speed while a phase runs.

    This VM's cores change speed by 10-40 % for minutes at a time (a
    busy neighbour, frequency), which moves every time metric of two
    runs of the same code by as much. A sample is the *thread CPU time*
    of a fixed pure-Python loop: cycles for fixed work, so waiting for
    the GIL or a core does not count, while a core that runs slower
    does. Time metrics are reported in reference seconds — measured
    seconds × ``REF_S`` ÷ the phase's median sample (the median: one run
    in forty has a few samples a hundred times too long, a stalled
    vCPU billed to the thread, and they would double a mean).

    The probe samples where the measured work runs. Beside a parallel
    workload (pool workers, service threads) that is this thread, every
    ``PERIOD_S``, about 1 % of one core. ``batch-cold`` is mostly one
    busy thread — the caller's — so its loop takes a sample between ops
    (:meth:`sample_inline`) with the other core idle, as it is for the
    work itself; the background samples, always taken beside something
    else that runs, over-stated its slowdown by 13 % in a slow episode.
    """

    PERIOD_S = 0.1
    LOOP = 20_000
    #: Sample on the reference box when it is quiet.
    REF_S = 0.001

    def __init__(self) -> None:
        super().__init__(name="bench-speed-probe", daemon=True)
        self.background: list[tuple[float, float]] = []  # (perf_counter, cpu seconds)
        self.inline: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def _sample(self) -> tuple[float, float]:
        c0 = time.thread_time()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        return time.perf_counter(), time.thread_time() - c0

    def run(self) -> None:
        while not self._halt.wait(self.PERIOD_S):
            self.background.append(self._sample())

    def sample_inline(self) -> None:
        self.inline.append(self._sample())

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def _between(self, t0: float, t1: float) -> list[float]:
        """The samples of ``[t0, t1]``: the caller's own if it took any."""
        inline = [c for t, c in self.inline if t0 <= t <= t1]
        return inline or [c for t, c in self.background if t0 <= t <= t1]

    def slowdown(self, t0: float, t1: float) -> float:
        """Median sample over ``[t0, t1]`` ÷ ``REF_S`` (1.0 when the
        phase was too short to be sampled)."""
        picked = self._between(t0, t1)
        return statistics.median(picked) / self.REF_S if picked else 1.0

    def drift(self, t0: float, t1: float) -> float:
        """How much the machine changed speed inside ``[t0, t1]``:
        |second half − first half| ÷ the whole, by median sample."""
        picked = self._between(t0, t1)
        if len(picked) < 4:
            return 0.0
        half = len(picked) // 2
        first, second = statistics.median(picked[:half]), statistics.median(picked[half:])
        return abs(second - first) / statistics.median(picked)


# -- resource accounting ----------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """User+system CPU so far of this process and its live children
    (the pool workers), from ``/proc/<pid>/stat``."""
    ticks = 0
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the child exited between listing and reading
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def peak_rss_mb() -> float:
    """Parent peak RSS plus the largest reaped child's (call after the
    engine is shut down, so the workers have been waited for)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    own, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it ended while we listed
        if int(fields[1]) == own:  # ppid
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The pool workers are joined by ``engine.shutdown()``; what is left on
    a clean run is multiprocessing's *resource tracker*, started with the
    first shared-memory segment. It only ends once the parent's pipe to
    it closes — at interpreter exit, nobody waiting — so left alone it
    outlives every run by a few milliseconds, orphaned. Anything else
    still alive (a run that raised before its engine was shut down) is
    killed and reaped first, so that the tracker, as it ends, unlinks
    the segments such a run left."""
    tracker = resource_tracker._resource_tracker
    for pid in _children():
        if pid == getattr(tracker, "_pid", None):
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue  # it ended, or its owner reaped it, meanwhile
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes the pipe, then waitpid()s the tracker


def host_fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_available(),
        "kernel_tiers": {
            kind: autotune.resolve_tier("auto", kind=kind, work=1e9)
            for kind in autotune.KIND_TIERS
        },
        "platform": sys.platform,
    }


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def kind_latencies(samples: Iterable[tuple[str, str, float]]) -> dict[str, float]:
    """``(kind, group, seconds)`` samples → per kind, the geometric mean
    of its groups' medians.

    A group is one population of like ops — a job kind under one
    strategy. A kind's Stratified and Het-Aware jobs differ by up to
    1.5×, so a median pooled over them sits in the gap between the two
    clusters and jumps with whichever moved; the median of each cluster
    does not."""
    groups: dict[str, dict[str, list[float]]] = {}
    for kind, group, value in samples:
        groups.setdefault(kind, {}).setdefault(group, []).append(value)
    return {
        kind: geomean(statistics.median(v) for v in by_group.values())
        for kind, by_group in groups.items()
    }


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    return float(np.exp(np.mean(np.log(vals)))) if vals else 0.0


def latency_p50(samples: Iterable[tuple[str, str, float]]) -> float:
    """Geometric mean over kinds of :func:`kind_latencies` — never a
    pooled median. ``cold`` jobs are a different population and are
    left out."""
    return geomean(v for k, v in kind_latencies(samples).items() if k != "cold")
