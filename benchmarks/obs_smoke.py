"""End-to-end observability smoke test (``make obs-smoke``).

Runs one tiny fully-traced pipeline job, then checks the acceptance
contract of the ``repro.obs`` subsystem:

- the JSONL trace validates against the schema and covers all five
  pipeline stages (sketch, stratify, profile, optimize,
  partition/execute) plus every executed task;
- per-task energy attributes in the trace sum (within 1e-6) to the
  run report's job totals;
- the metrics snapshot carries job/task/energy series, and is exactly
  the fold of the exported trace (``fold_span`` over ``read_spans``
  into a fresh registry) — one stream, not two;
- ``repro obs report`` renders the per-stage / per-node tables.

It also gates the **live telemetry plane**:

- the tracer-sink marginal cost per span, measured directly, must keep
  the live plane under 2% of the smoke pipeline's wall time when
  enabled, and add ~nothing when the plane is detached (the µs per
  span, fold included, is printed for both);
- a live-enabled service must serve ``GET /live`` and render through
  ``repro obs top --once`` (snapshot + rendered frame become
  artifacts).

Artifacts (JSONL + Chrome trace, metrics snapshot, Prometheus text,
rendered report, ``/live`` snapshot, dashboard frame) land in ``--out``
(default ``benchmarks/results/obs_smoke/``) so CI can upload them::

    PYTHONPATH=src python benchmarks/obs_smoke.py [--out DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import pathlib
import sys
import time

import repro.obs as obs
from repro.bench.harness import StrategyRunner
from repro.cli import main as repro_main
from repro.core.strategies import HET_AWARE
from repro.obs.energy import energy_split
from repro.obs.fold import fold_span
from repro.obs.live import enable_live, reset_live
from repro.obs.live.dashboard import fetch_live
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import report_from_file
from repro.workloads.fpm.apriori import AprioriWorkload

FIVE_STAGES = (
    "stage.sketch",
    "stage.stratify",
    "stage.profile",
    "stage.optimize",
    "stage.partition",
    "stage.execute",
)


def run_smoke(out: pathlib.Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    obs.disable()
    obs.reset()
    obs.enable()

    runner = StrategyRunner.from_name(
        "rcv1",
        lambda: AprioriWorkload(min_support=0.15, max_len=2),
        size_scale=0.05,
    )
    wall0 = time.perf_counter()
    report = runner.run(HET_AWARE, partitions=4)
    wall_s = time.perf_counter() - wall0

    jsonl = out / "run.trace.jsonl"
    chrome = out / "run.trace.chrome.json"
    span_count = obs.export_jsonl(jsonl)
    obs.export_chrome(chrome)
    snapshot = obs.metrics_snapshot()
    (out / "metrics_snapshot.json").write_text(json.dumps(snapshot, indent=2) + "\n")
    (out / "metrics.prom").write_text(obs.render_prometheus())
    obs.disable()

    # 1. Schema validation + stage coverage.
    summary = obs.validate_jsonl(jsonl)
    assert summary["spans"] == span_count
    missing = [s for s in FIVE_STAGES if s not in summary["names"]]
    assert not missing, f"trace missing stages: {missing}"

    # 2. Every executed task has a span, and the traced energy sums to
    #    the job totals.
    _meta, spans = obs.read_spans(jsonl)
    task_spans = [s for s in spans if s["name"] == "task.execute"]
    assert len(task_spans) == len(report.job.tasks), (
        len(task_spans), len(report.job.tasks),
    )
    split = energy_split(spans)
    assert math.isclose(split["energy_j"], report.total_energy_j, abs_tol=1e-6)
    assert math.isclose(
        split["dirty_energy_j"], report.total_dirty_energy_j, abs_tol=1e-6
    )

    # 3. Metrics snapshot carries the expected series, and is the fold
    #    of the trace it came with.
    for prefix in (
        "repro_jobs_total",
        "repro_tasks_total",
        "repro_task_runtime_seconds",
        "repro_energy_joules_total",
    ):
        assert any(k.startswith(prefix) for k in snapshot), prefix
    folded = MetricsRegistry()
    for span in spans:
        fold_span(folded, span)
    assert folded.snapshot() == snapshot, "metrics are not the fold of the trace"

    # 4. The report command renders both tables.
    assert repro_main(["obs", "report", str(jsonl)]) == 0
    text = report_from_file(jsonl)
    assert "pipeline stages" in text and "per-node tasks & energy" in text
    (out / "report.txt").write_text(text + "\n")

    return {
        "spans": span_count,
        "task_spans": len(task_spans),
        "stages": [s for s in summary["names"] if s.startswith("stage.")],
        "metric_series": len(snapshot),
        "energy_j": split["energy_j"],
        "green_fraction": split["green_fraction"],
        "wall_s": wall_s,
        "artifacts": sorted(p.name for p in out.iterdir()),
    }


def _per_span_cost(n: int = 20000) -> float:
    """Seconds per ``tracer.emit`` of a fully-attributed task span,
    its fold into the registry included."""
    tracer = obs.get_tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        tracer.emit(
            "task.execute", start_s=0.0, duration_s=0.1,
            node_id=0, work_units=100.0, runtime_s=0.1,
            energy_j=44.0, dirty_energy_j=19.0, workload="smoke",
        )
    return (time.perf_counter() - t0) / n


def run_live_overhead(pipeline_spans: int, pipeline_wall_s: float) -> dict:
    """Gate the live plane's cost on the span path.

    Wall-clock A/B of whole pipeline runs cannot resolve a few µs per
    span, so measure the sink's marginal cost per span directly
    (paired microbenchmarks, best-of-3) and scale it by the smoke
    pipeline's observed span rate: that is the fraction of pipeline
    wall time the attached plane consumes.
    """
    reset_live()
    obs.enable()
    obs.reset()
    _per_span_cost()  # warm the emit path (and the allocator) first
    # Fifteen short rounds (5,000 spans) of off → attached → detached,
    # best of each kept: finely interleaved, the host's drift lands in
    # all three alike instead of in whichever was measured first.
    off, on, detached = [], [], []
    for _ in range(15):
        obs.reset()
        off.append(_per_span_cost(5000))
        plane = enable_live()
        obs.reset()
        on.append(_per_span_cost(5000))
        plane.detach()
        obs.reset()
        detached.append(_per_span_cost(5000))
    off_s, on_s, detached_s = min(off), min(on), min(detached)
    reset_live()
    obs.disable()
    obs.reset()

    marginal_s = max(on_s - off_s, 0.0)
    enabled_pct = 100.0 * marginal_s * pipeline_spans / pipeline_wall_s
    detached_delta_s = detached_s - off_s
    # Enabled: under 2% of the traced smoke pipeline's wall time.
    assert enabled_pct < 2.0, (enabled_pct, marginal_s, pipeline_spans)
    # Detached: the sink path is one None-check; any measured delta is
    # microbenchmark jitter, well under the attached marginal cost.
    assert abs(detached_delta_s) < 2e-6, detached_delta_s
    return {
        "per_span_off_us": off_s * 1e6,
        "per_span_on_us": on_s * 1e6,
        "per_span_detached_us": detached_s * 1e6,
        "marginal_us_per_span": marginal_s * 1e6,
        "enabled_overhead_pct_of_pipeline": enabled_pct,
        "detached_delta_us_per_span": detached_delta_s * 1e6,
    }


def run_live_surfaces(out: pathlib.Path) -> dict:
    """Prove the live surfaces end-to-end and capture them as artifacts.

    A live-enabled simulated service runs two equal-split jobs; the
    ``/live`` snapshot and one ``repro obs top --once`` frame are the
    artifacts CI uploads.
    """
    from repro.service import ServiceConfig, build_service
    from repro.service.client import ServiceClient

    reset_live()
    enable_live()
    try:
        svc = build_service(
            engine="simulated", num_nodes=4, port=0,
            config=ServiceConfig(max_queue_depth=8, concurrency=2),
        )
        with svc:
            client = ServiceClient(svc.url)
            for size in (0.02, 0.05):
                resp = client.submit({
                    "workload": "webgraph", "dataset": "uk", "alpha": None,
                    "size_scale": size, "tenant": "smoke",
                })
                assert resp.status == 202, resp.status
                final = client.wait(resp.body["job_id"], timeout_s=60.0)
                assert final.body["state"] == "SUCCEEDED", final.body

            payload = fetch_live(svc.url)
            (out / "live_snapshot.json").write_text(
                json.dumps(payload, indent=2) + "\n"
            )
            frame = io.StringIO()
            with contextlib.redirect_stdout(frame):
                code = repro_main(["obs", "top", "--once", "--url", svc.url])
            assert code == 0, code
            text = frame.getvalue()
            for header in ("NODE", "TENANT", "SLO", "QUEUE"):
                assert header in text, (header, text)
            (out / "top.txt").write_text(text)
    finally:
        reset_live()
        obs.disable()
        obs.reset()
    nodes_live = sum(1 for n in payload["snapshot"]["nodes"] if n["samples"])
    assert nodes_live == 4, payload["snapshot"]["nodes"]
    return {
        "live_seq": payload["seq"],
        "live_nodes": nodes_live,
        "tenants": sorted(payload["snapshot"]["tenants"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent / "results" / "obs_smoke",
    )
    args = parser.parse_args(argv)
    info = run_smoke(args.out)
    overhead = run_live_overhead(info["spans"], info["wall_s"])
    live = run_live_surfaces(args.out)
    print(
        f"\nobs smoke OK: {info['spans']} spans ({info['task_spans']} tasks, "
        f"stages: {', '.join(info['stages'])}), {info['metric_series']} metric "
        f"series, {info['energy_j']:.1f} J traced "
        f"(green fraction {info['green_fraction']:.3f})"
    )
    print(
        f"per span (emit + fold): {overhead['per_span_on_us']:.2f} us attached, "
        f"{overhead['per_span_detached_us']:.2f} us detached, "
        f"{overhead['per_span_off_us']:.2f} us before attaching"
    )
    print(
        f"live plane OK: {overhead['marginal_us_per_span']:.2f} us/span attached "
        f"-> {overhead['enabled_overhead_pct_of_pipeline']:.4f}% of pipeline "
        f"wall (<2% gate); detached delta "
        f"{overhead['detached_delta_us_per_span']:+.3f} us/span (~0 gate); "
        f"/live seq {live['live_seq']}, {live['live_nodes']} nodes live, "
        f"tenants {', '.join(live['tenants'])}"
    )
    print(f"[artifacts in {args.out}: {', '.join(sorted(p.name for p in args.out.iterdir()))}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
