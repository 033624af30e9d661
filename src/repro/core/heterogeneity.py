"""Task-specific heterogeneity estimator (paper Section III-A).

Learns a per-node utility function for execution time by *progressive
sampling*: representative samples of increasing size (0.05%–2% of the
data, drawn stratified so they mirror the final partition payload) are
run through the actual algorithm on every node, and a regression model
``f_i(x) = m_i·x + c_i`` is fitted to the (size, time) pairs.

Because the samples run on the same execution substrate as the final
job, the learned model absorbs everything the paper lists — CPU/IO
ratio, co-location interference (emulated here as speed factors), and
payload distribution — rather than trusting nominal CPU speeds.

A polynomial model is also provided for the Section III-D ablation:
with the few samples progressive sampling affords, higher-degree fits
overfit, which the ablation bench demonstrates.

**Profile reuse.** The paper treats profiling as a one-time cost that
repeated runs amortise. Each engine keeps the reports its jobs have
confirmed, one per :func:`profile_key` — the workload's type and
pickled state (what a pool task ships), the dataset kind and its item
count — and a later profile of that key returns the stored report
without running a probe. A report is stored only by :func:`confirm`,
after a job planned from it ran within :data:`CONFIRM_BAND` of its
prediction, and a job outside the band drops it; the ladder stays the
only code that makes a model.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

import repro.obs as obs
from repro.cluster.engines import ExecutionEngine
from repro.kvstore.codec import EncodedDataset
from repro.stratify.stratifier import Stratification
from repro.workloads.base import Workload

#: The paper's progressive-sampling fractions: 0.05% up to 2%.
PAPER_FRACTIONS: tuple[float, ...] = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02)

#: Fractions for laptop-scale datasets, spanning 5%–20% so even the
#: smallest probe is big enough that per-item cost has stabilised
#: (for relative-support mining, a sample below ~1/min_support items
#: degenerates to min-count 1 and the fitted model inverts).
SMALL_DATA_FRACTIONS: tuple[float, ...] = (0.05, 0.08, 0.12, 0.16, 0.2)

#: Floor on a probe's item count, so tiny datasets still give the
#: regression distinct x-values.
MIN_SAMPLE = 8

#: A job confirms its report when its phase-1 task time is within this
#: relative distance of what the report's models predicted for it.
CONFIRM_BAND = 0.15

#: Confirmed reports an engine keeps; the oldest key is dropped first.
STORE_CAP = 32


def auto_fractions(num_items: int) -> tuple[float, ...]:
    """Pick a sampling schedule for the dataset scale.

    The paper's 0.05%–2% schedule assumes millions of records; when 2%
    of the data is smaller than a few times ``MIN_SAMPLE`` the probes
    collapse onto near-identical sizes and the regression degenerates,
    so small datasets get a proportionally wider schedule.
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if PAPER_FRACTIONS[0] * num_items >= MIN_SAMPLE:
        return PAPER_FRACTIONS
    return SMALL_DATA_FRACTIONS


@dataclass(frozen=True)
class LinearTimeModel:
    """``f(x) = slope·x + intercept`` — the paper's production model.

    The slope is clamped non-negative at fit time (a bigger partition
    can never be predicted faster), and prediction clamps at zero.
    """

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if self.slope < 0:
            raise ValueError("slope must be non-negative")

    def predict(self, x: float) -> float:
        if x < 0:
            raise ValueError("size must be non-negative")
        return max(self.slope * x + self.intercept, 0.0)

    @classmethod
    def fit(cls, sizes: Sequence[float], times: Sequence[float]) -> "LinearTimeModel":
        """Least-squares fit with slope clamped ≥ 0 and intercept ≥ 0.

        A clamped slope, or sizes with fewer than two distinct values
        (no slope information at all), give the flat model at the mean
        time.
        """
        x = np.asarray(sizes, dtype=np.float64)
        y = np.asarray(times, dtype=np.float64)
        if x.size != y.size or x.size < 2:
            raise ValueError("need at least two (size, time) pairs")
        slope, intercept = np.polyfit(x, y, 1) if np.unique(x).size > 1 else (0.0, 0.0)
        slope = max(float(slope), 0.0)
        if slope == 0.0:
            intercept = float(y.mean())
        intercept = max(float(intercept), 0.0)
        return cls(slope=slope, intercept=intercept)


@dataclass(frozen=True)
class PolynomialTimeModel:
    """Degree-``d`` polynomial fit — the ablation's other model.

    Coefficients in :func:`numpy.polyval` order (highest degree first).
    """

    coefficients: tuple[float, ...]

    def predict(self, x: float) -> float:
        if x < 0:
            raise ValueError("size must be non-negative")
        return max(float(np.polyval(self.coefficients, x)), 0.0)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def fit(
        cls, sizes: Sequence[float], times: Sequence[float], degree: int = 2
    ) -> "PolynomialTimeModel":
        x = np.asarray(sizes, dtype=np.float64)
        y = np.asarray(times, dtype=np.float64)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if x.size <= degree:
            raise ValueError("need more samples than the polynomial degree")
        coeffs = np.polyfit(x, y, degree)
        return cls(coefficients=tuple(float(c) for c in coeffs))


@dataclass(frozen=True)
class ProfilingReport:
    """Everything the progressive-sampling pass produced. Frozen:
    one report is shared by every prepared input (and thread) that
    reuses it.

    Attributes
    ----------
    models:
        One fitted :class:`LinearTimeModel` per node, node-id order.
    sample_sizes:
        Sample sizes (item counts) probed, ascending.
    times:
        ``times[node][j]`` = measured runtime of sample ``j`` on node.
    r_squared:
        Per-node coefficient of determination of the linear fit.
    key:
        The :func:`profile_key` it was profiled under (``None``: a
        workload that does not pickle, never stored).
    """

    models: list[LinearTimeModel]
    sample_sizes: list[int]
    times: list[list[float]]
    r_squared: list[float] = field(default_factory=list)
    key: Hashable | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.models)


#: engine → {profile key → confirmed report}, insertion-ordered. An
#: engine's reports die with it.
_STORE: weakref.WeakKeyDictionary[ExecutionEngine, dict[Hashable, ProfilingReport]] = (
    weakref.WeakKeyDictionary()
)
_STORE_LOCK = threading.Lock()


def profile_key(workload: Workload, items: EncodedDataset) -> Hashable | None:
    """What a time model is a property of on one engine: the workload's
    type and pickled state (two supports or ``max_len`` never share a
    model), the dataset kind and its item count (so the probe floor
    carries over). ``None`` for a workload that does not pickle."""
    try:
        state = pickle.dumps(workload)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    return (type(workload), state, items.kind, len(items))


def _engine_reports(engine: ExecutionEngine) -> dict[Hashable, ProfilingReport] | None:
    """``engine``'s confirmed reports, made on first use; the caller
    holds ``_STORE_LOCK``. ``None`` for an unhashable (dataclass)
    engine — the work-stealing scheduler, whose task rows are not one
    per partition, so no job of it could confirm a report."""
    try:
        reports = _STORE.get(engine)
        if reports is None:
            reports = _STORE[engine] = {}
    except TypeError:
        return None
    return reports


def stored_report(engine: ExecutionEngine, key: Hashable | None) -> ProfilingReport | None:
    """The report a job on ``engine`` confirmed for ``key``, if any."""
    if key is None:
        return None
    with _STORE_LOCK:
        reports = _engine_reports(engine)
        return None if reports is None else reports.get(key)


def prediction_error(
    report: ProfilingReport, sizes: Sequence[int], runtimes_s: Sequence[float]
) -> float | None:
    """Signed relative error of a job against its plan, over the
    partitions that carried items: their summed runtime (partition
    ``i`` on node ``i``) over their summed prediction, minus one.
    ``None`` when the models predict no time.

    An empty partition's task is its node's fixed overhead alone, so it
    says nothing about the model's per-item cost. Counted, an intercept
    that over-predicts an idle node cancels a slope that under-predicts
    a loaded one: that is the fit behind a degenerate plan, which the
    whole-job sum would confirm."""
    loaded = [
        (m.predict(int(x)), t) for m, x, t in zip(report.models, sizes, runtimes_s) if x > 0
    ]
    predicted = sum(p for p, _ in loaded)
    if predicted <= 0.0:
        return None
    return sum(t for _, t in loaded) / predicted - 1.0


def confirm(
    engine: ExecutionEngine, report: ProfilingReport, error: float | None
) -> bool:
    """Store ``report`` under its key when a job ran within
    :data:`CONFIRM_BAND` of it, else drop the key's entry if it is this
    report. Returns whether the report is now stored."""
    if report.key is None:
        return False
    confirmed = error is not None and abs(error) <= CONFIRM_BAND
    with _STORE_LOCK:
        reports = _engine_reports(engine)
        if reports is None:
            return False
        if confirmed:
            reports.pop(report.key, None)
            reports[report.key] = report
            while len(reports) > STORE_CAP:
                del reports[next(iter(reports))]
        elif reports.get(report.key) is report:
            del reports[report.key]
    return confirmed


def _r_squared(x: np.ndarray, y: np.ndarray, model: LinearTimeModel) -> float:
    pred = np.array([model.predict(v) for v in x])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass
class ProgressiveSampler:
    """Progressive-sampling profiler.

    Parameters
    ----------
    engine:
        Execution engine whose nodes are being profiled (the final job
        must run on the same engine for the models to transfer).

    Sample sizes follow :func:`auto_fractions` of the dataset.
    """

    engine: ExecutionEngine
    seed: int = 0

    def profile(
        self,
        workload: Workload,
        items: EncodedDataset,
        stratification: Stratification,
    ) -> ProfilingReport:
        """Fit one time model per cluster node.

        Samples are *stratified* samples of ``items``, the staged
        dataset (``encode_dataset`` of the records; Section III-E: the
        stratifier feeds the estimator payload-representative samples),
        re-drawn per fraction with a deterministic RNG, each a gather of
        the encoding as a job's partitions are. A key a job on this
        engine has confirmed (:func:`confirm`) returns its stored
        report and runs no probe.
        """
        rng = np.random.default_rng(self.seed)
        n_items = len(items)
        if n_items == 0:
            raise ValueError("cannot profile an empty dataset")
        if stratification.num_items != n_items:
            raise ValueError(
                f"stratification labels {stratification.num_items} items, not {n_items}"
            )
        key = profile_key(workload, items)
        with obs.span("stage.profile", items=n_items) as profile_span:
            report = stored_report(self.engine, key)
            profile_span.set_attr("reused", report is not None)
            if report is None:
                report = self._profile(workload, items, stratification, rng, n_items, key)
            profile_span.set_attr("sample_sizes", list(report.sample_sizes))
            profile_span.set_attr("nodes", report.num_nodes)
            return report

    def _profile(
        self,
        workload: Workload,
        items: EncodedDataset,
        stratification: Stratification,
        rng: np.random.Generator,
        n_items: int,
        key: Hashable | None,
    ) -> ProfilingReport:
        num_nodes = self.engine.cluster.num_nodes
        sizes: list[int] = []
        samples: list[EncodedDataset] = []
        for fraction in auto_fractions(n_items):
            target = max(MIN_SAMPLE, int(round(fraction * n_items)))
            target = min(target, n_items)
            idx = stratification.stratified_sample(min(1.0, target / n_items), rng)
            if idx.size < 2:
                idx = rng.choice(n_items, size=min(target, n_items), replace=False)
            # Skip duplicate sizes — they add no regression information.
            if sizes and idx.size <= sizes[-1]:
                continue
            sizes.append(int(idx.size))
            samples.append(items.gather(idx))
        if len(sizes) < 2:
            # Dataset too small for distinct fractions: probe half and full.
            half = max(1, n_items // 2)
            idx = rng.choice(n_items, size=half, replace=False)
            sizes = [half, n_items]
            samples = [items.gather(idx), items.gather(np.arange(n_items))]

        # The whole ladder in one engine call: every sample measured
        # once and priced on every node. A worker's first run of a kind
        # is slow, and on the cheapest probe that would flatten the
        # slope, so a measured engine warms its workers on each kind
        # before timing it.
        per_sample = self.engine.profile_samples(workload, samples)
        models: list[LinearTimeModel] = []
        r2: list[float] = []
        times: list[list[float]] = []
        x = np.array(sizes, dtype=np.float64)
        for node_id in range(num_nodes):
            node_times = [per_sample[j][node_id] for j in range(len(samples))]
            y = np.array(node_times, dtype=np.float64)
            model = LinearTimeModel.fit(x, y)
            times.append(node_times)
            models.append(model)
            r2.append(_r_squared(x, y, model))
        return ProfilingReport(
            models=models, sample_sizes=sizes, times=times, r_squared=r2, key=key
        )
