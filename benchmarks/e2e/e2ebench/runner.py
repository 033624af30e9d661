"""One benchmark run: set-up, noise guard, the timed window, checks.

An untraced run yields the end-to-end metrics. A traced run splits the
window in two halves with the same op mix — the first untraced, the
second under :class:`~.tracing.SpanRecorder` — so the per-layer lines
and the tracing overhead come from one process and one set-up.
"""

from __future__ import annotations

import gc
import pathlib
import time
from collections import Counter
from typing import Any

from . import checks, harness, layers
from .harness import KINDS
from .spec import PER_LAYER
from .tracing import SpanRecorder
from .workloads import Segment, build_ops, make_context

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    import_s: float = 0.0,
) -> dict[str, Any]:
    """Run one workload once. ``import_s`` is process start → imports
    done, the part of set-up that happened before this module could
    time anything."""
    shm_before = checks.shm_segments()
    probe = harness.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    if trace:
        halves = [build_ops(workload, 2 * seed + h, seconds / 2) for h in (0, 1)]
    else:
        halves = [build_ops(workload, seed, seconds)]
    all_ops = [op for ops in halves for op in ops]
    context = make_context(workload, seed, all_ops, scale, probe)
    t_ready = time.perf_counter()

    traced: Segment | None = None
    recorder = SpanRecorder()
    try:
        gc.collect()
        t_window = time.perf_counter()
        plain = context.run(halves[0], None)
        t_plain = time.perf_counter()
        if trace:
            recorder.install()
            try:
                traced = context.run(halves[1], recorder)
            finally:
                recorder.uninstall()
        t_end = time.perf_counter()
    finally:
        # On every way out: the pool workers (and the service) are
        # stopped and waited for, the shared-memory segments unlinked.
        probe.stop()
        audit = context.close()
    rss_mb = harness.peak_rss_mb()

    segments = [plain] + ([traced] if traced else [])
    samples = [s for seg in segments for s in seg.samples]
    enforce_spread = workload != "batch-cold"
    problems = checks.check_samples(samples, len(all_ops), enforce_spread)
    problems += checks.check_mining(samples, context.mining_datasets())
    warmups = 2 * len(KINDS) + audit["plan_retries"] if "states" in audit else 0
    problems += checks.check_audit(audit, len(all_ops) + warmups, shm_before)

    succeeded = sum(1 for s in plain.samples if s.ok)
    by_kind = _latencies(plain)
    raw = {
        "setup_s": import_s + t_ready - t0,
        "latency_p50_s": harness.latency_p50(by_kind),
        "goodput_jobs_per_s": succeeded / plain.wall_s,
        "cpu_s_per_job": plain.cpu_s / max(1, len(plain.samples)),
        "slowdown_setup": probe.slowdown(t0, t_ready),
        "slowdown_window": probe.slowdown(t_window, t_plain),
    }
    # Time metrics in reference seconds (see harness.SpeedProbe). An open
    # loop completes work at the schedule's rate, not the machine's.
    slow_window = raw["slowdown_window"]
    open_loop = workload == "svc-steady"
    end_to_end = {
        "setup_s": raw["setup_s"] / raw["slowdown_setup"],
        "latency_p50_s": raw["latency_p50_s"] / slow_window,
        "goodput_jobs_per_s": raw["goodput_jobs_per_s"] * (1.0 if open_loop else slow_window),
        "cpu_s_per_job": raw["cpu_s_per_job"] / slow_window,
        "peak_rss_mb": rss_mb,
    }

    per_layer = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    per_layer["machine.calib_s"] = probe.slowdown(t_window, t_end) * probe.REF_S
    per_layer["machine.calib_drift_frac"] = probe.drift(t_window, t_end)
    per_layer["machine.slowdown"] = slow_window
    per_layer["setup.plan_retries"] = float(audit["plan_retries"])
    per_layer["cluster.engines.pools_created"] = float(audit["pools_created"])
    if traced is not None:
        per_layer.update(_traced_lines(traced, recorder, audit, plain, scale, problems))
        recorder.write_jsonl(RESULTS_DIR / f"trace_{workload}.jsonl")

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": len(all_ops),
        "failed": sum(1 for s in samples if not s.ok) + len(all_ops) - len(samples),
        "window_s": t_end - t_window,
        "samples_per_group": dict(Counter(s.op.group for s in plain.samples if s.ok)),
        "kind_latency_p50_s": harness.kind_latencies(by_kind),
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
        "host": harness.host_fingerprint(),
    }


def _traced_lines(
    traced: Segment,
    recorder: SpanRecorder,
    audit: dict[str, Any],
    plain: Segment,
    scale: float,
    problems: list[str],
) -> dict[str, float]:
    """Per-layer lines of the traced half (measured seconds, not
    reference seconds: they are compared with each other, not across
    runs)."""
    out = layers.layer_metrics(recorder.spans, traced, harness.MAX_WORKERS)
    ok = [s for s in traced.samples if s.ok]
    by_kind = _latencies(traced)
    for kind, latency in harness.kind_latencies(by_kind).items():
        out[f"kind.{kind}.latency_p50_s"] = latency
    untraced_p50 = harness.latency_p50(_latencies(plain))
    if untraced_p50 > 0:
        out["trace.overhead_frac"] = harness.latency_p50(by_kind) / untraced_p50 - 1.0
    out["core.optimizer.degenerate_plans"] = float(checks.degenerate_plans(ok))
    out["loadgen.lateness_p99_s"] = harness.percentile(traced.lateness_s, 99)
    if "states" in audit:
        out["service.latency_p90_s"] = harness.percentile([s.latency_s for s in ok], 90)
        out["service.manager.peak_queue_depth"] = float(audit["peak_queue_depth"])
        out["service.manager.rejected"] = float(audit["states"].get("REJECTED", 0))
        out["service.executor.scenarios_prepared"] = float(audit["scenarios_prepared"])
    makespan_gain, dirty_gain, violations = checks.simulated_gains(scale)
    problems += violations
    out["core.optimizer.makespan_gain_vs_equal"] = makespan_gain
    out["core.optimizer.dirty_gain_vs_het_aware"] = dirty_gain
    return out


def _latencies(segment: Segment) -> list[tuple[str, str, float]]:
    return [(s.op.kind, s.op.group, s.latency_s) for s in segment.samples if s.ok]
