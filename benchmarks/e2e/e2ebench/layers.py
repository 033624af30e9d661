"""Per-layer lines from one traced segment's spans.

Seconds are *self time per traced op* (Σ self time of the layer's
spans ÷ ops in the segment), so the lines of one workload add up to
its mean op latency times ``trace.coverage_frac``. Lines named p50/p90
or ``_rtt_s`` are percentiles of span durations instead, counts are
totals over the segment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from . import harness
from .tracing import Span, self_times, union_length
from .workloads import Segment

#: Which line each span name's self time goes to.
_SELF_TIME_LINES = {
    "Stratifier.sketch": "stratify.sketch_s",
    "Stratifier.stratify": "stratify.cluster_s",
    "ProgressiveSampler.profile": "core.heterogeneity.profile_s",
    "ParetoPartitioner.prepare": "core.framework.prepare_s",
    "ParetoPartitioner.execute": "core.framework.stage_self_s",
    "ParetoPartitioner.execute_fpm": "core.framework.stage_self_s",
    "ParetoPartitioner.plan": "core.framework.stage_self_s",
    "CarbonBudgetPlanner.plan": "core.budget.plan_s",
    "ParetoPartitioner.place": "core.partitioner.place_s",
    "ClusterClient.put_partition": "kvstore.put_get_s",
    "ClusterClient.get_partition": "kvstore.put_get_s",
    "SharedPartitionStore.put_many": "cluster.dataplane.put_s",
    "ExecutionEngine.run_job": "cluster.engines.run_job_s",
    "merge": "workloads.merge_s",
    "profile_all_nodes": "cluster.engines.probe_s",
}


def _line_for(name: str) -> str | None:
    # Subclass overrides (FPGrowthWorkload.merge, ProcessPoolEngine
    # .profile_all_nodes, ...) report under their base method's line.
    return _SELF_TIME_LINES.get(name) or _SELF_TIME_LINES.get(name.split(".", 1)[1])


def layer_metrics(spans: list[Span], segment: Segment, max_workers: int) -> dict[str, float]:
    ops = max(1, len(segment.samples))
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    lines: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        line = _line_for(s.name)
        if line is not None:
            lines[line] += selfs[s.sid] / ops

    def durations(name: str) -> list[float]:
        return [s.duration for s in by_name[name]]

    out: dict[str, float] = dict(lines)
    stratify = by_name["Stratifier.stratify"]
    if stratify:
        out["stratify.items_per_s"] = sum(s.attrs["items"] for s in stratify) / sum(
            s.duration for s in stratify
        )
    out["core.heterogeneity.probes"] = float(
        sum(len(v) for k, v in by_name.items() if k.endswith(".profile_all_nodes"))
    )
    solves = durations("ParetoOptimizer.solve")
    out["core.optimizer.solves"] = float(len(solves))
    out["core.optimizer.solve_s"] = sum(solves) / len(solves) if solves else 0.0

    # Engine: worker time recovered from each job's TaskResults.
    run_jobs = by_name["ExecutionEngine.run_job"]
    busy = sum(s.attrs.get("busy_s", 0.0) for s in run_jobs)
    out["cluster.engines.worker_busy_s"] = busy / ops
    out["cluster.engines.overhead_s"] = (
        out.get("cluster.engines.run_job_s", 0.0) - busy / ops / max_workers
    )
    out["cluster.engines.pool_utilisation"] = busy / (max_workers * segment.wall_s)

    # Dataplane and KV counters the engine and cluster publish.
    stats = segment.stats
    refs = stats["dataplane.refs_issued"]
    hits = stats["dataplane.identity_hits"] + stats["dataplane.digest_hits"]
    out["cluster.dataplane.serializations"] = stats["dataplane.serializations"]
    out["cluster.dataplane.hit_ratio"] = hits / refs if refs else 0.0
    out["cluster.dataplane.shared_mb"] = stats["dataplane.shared_bytes"] / 2**20
    out["kvstore.round_trips"] = stats["kv.round_trips"]

    out.update(_service_lines(by_name, segment))
    out["trace.coverage_frac"] = _coverage(spans, by_name, segment)
    return out


def _service_lines(by_name: dict[str, list[Span]], segment: Segment) -> dict[str, float]:
    jobs = max(1, len(segment.job_ops))
    submit_rtt = [s.duration for s in by_name["ServiceClient.submit"]]
    polls = [s.duration for s in by_name["ServiceClient.result"]]
    admitted = {s.op: s for s in by_name["JobManager.submit"]}
    started = {s.op: s for s in by_name["JobManager.run_record"]}
    waits = [
        max(0.0, started[job].start - admitted[job].end)
        for job in segment.job_ops
        if job in started and job in admitted
    ]
    op_of = {s.op.index: s.op for s in segment.samples}
    runs = []
    for span in by_name["ScenarioExecutor.run"]:
        op = op_of.get(segment.job_ops.get(span.op))
        if op is not None:
            runs.append((op.kind, op.group, span.duration))
    prepares = {s.parent for s in by_name["ParetoPartitioner.prepare"]}
    cold_prepares = [s.duration for s in by_name["ScenarioExecutor.prepared_for"] if s.sid in prepares]
    return {
        "service.http.submit_rtt_s": harness.percentile(submit_rtt, 50),
        "service.http.poll_rtt_s": harness.percentile(polls, 50),
        "service.http.polls_per_job": len(polls) / jobs if polls else 0.0,
        "service.manager.submit_s": harness.percentile(
            [s.duration for s in by_name["JobManager.submit"]], 50
        ),
        "service.manager.queue_wait_p50_s": harness.percentile(waits, 50),
        "service.manager.queue_wait_p90_s": harness.percentile(waits, 90),
        "service.executor.run_p50_s": harness.latency_p50(runs),
        "service.executor.prepare_s": harness.percentile(cold_prepares, 50),
    }


def _coverage(spans: list[Span], by_name: dict[str, list[Span]], segment: Segment) -> float:
    """Mean over ops of (latency covered by the op's spans, plus the
    queue wait between admission and run) ÷ latency. What is left out
    is the load generator's own lateness and polling granularity."""
    op_of_job = segment.job_ops
    covered: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is None:
            covered[op_of_job.get(s.op, s.op)].append((s.start, s.end))
    admitted = {s.op: s for s in by_name["JobManager.submit"]}
    for s in by_name["JobManager.run_record"]:
        if s.op in admitted and s.op in op_of_job:
            covered[op_of_job[s.op]].append((admitted[s.op].end, s.start))
    fractions = []
    for sample in segment.samples:
        if not sample.ok or sample.latency_s <= 0:
            continue
        intervals = covered.get(sample.op.index, [])
        fractions.append(min(1.0, union_length(intervals) / sample.latency_s))
    return sum(fractions) / len(fractions) if fractions else 0.0
