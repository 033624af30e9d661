"""Names, units, directions and bounds: the source of ``BENCHMARK.json``.

``run.py --write-spec`` renders :func:`benchmark_json` to the repo root
and the smoke test asserts the committed file still equals it, so the
metric list the driver reads and the one the harness emits cannot
drift apart.
"""

from __future__ import annotations

#: How long one run's measured window is sized for (seconds). Op counts
#: in :mod:`workloads` are literals frozen at this length.
RUN_SECONDS = 16

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

WORKLOADS: list[tuple[str, str]] = [
    (
        "batch-cold",
        "library path, prepared=None on fresh datasets: the paper's one-time cost; "
        "stratify and profiling dominate and the dataplane never hits",
    ),
    (
        "batch-warm",
        "library path on prepared inputs, three strategies plus budget planning: the "
        "amortised plan/place/KV/dataplane/merge path with stratify at zero",
    ),
    (
        "svc-steady",
        "HTTP service, open loop at about a third of capacity on warm scenarios: what "
        "a tenant sees with admission, queue and response on the path",
    ),
    (
        "svc-saturate",
        "HTTP service, closed loop with 4 outstanding jobs and a cold scenario every "
        "15th: capacity with prepares and cache hits contending for one lock",
    ),
]

#: (name, unit, better, bound). Bounds were calibrated with ``--aa``;
#: the table is in README.md.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.15),
    ("goodput_jobs_per_s", "jobs/s", "higher", 0.15),
    ("cpu_s_per_job", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

JOB_KINDS = ("webgraph", "lz77", "treemining", "fpgrowth")
#: Latency lines beyond the job kinds: planning-only ops on batch-warm
#: and first-of-scenario jobs on svc-saturate.
EXTRA_KINDS = ("budget-plan", "cold")

#: (name, unit, better). Layer = module name under ``repro``; seconds
#: are self time per traced op unless the name says otherwise.
PER_LAYER: list[tuple[str, str, str]] = [
    ("stratify.sketch_s", "s", "lower"),
    ("stratify.cluster_s", "s", "lower"),
    ("stratify.items_per_s", "1/s", "higher"),
    ("core.heterogeneity.profile_s", "s", "lower"),
    ("core.heterogeneity.probes", "count", "lower"),
    ("core.framework.prepare_s", "s", "lower"),
    ("core.framework.stage_self_s", "s", "lower"),
    ("core.optimizer.solve_s", "s", "lower"),
    ("core.optimizer.solves", "count", "lower"),
    ("core.optimizer.degenerate_plans", "count", "lower"),
    ("core.optimizer.makespan_gain_vs_equal", "ratio", "higher"),
    ("core.optimizer.dirty_gain_vs_het_aware", "ratio", "higher"),
    ("core.budget.plan_s", "s", "lower"),
    ("core.partitioner.place_s", "s", "lower"),
    ("kvstore.put_get_s", "s", "lower"),
    ("kvstore.round_trips", "count", "lower"),
    ("cluster.dataplane.put_s", "s", "lower"),
    ("cluster.dataplane.serializations", "count", "lower"),
    ("cluster.dataplane.hit_ratio", "ratio", "higher"),
    ("cluster.dataplane.shared_mb", "MiB", "lower"),
    ("cluster.engines.run_job_s", "s", "lower"),
    ("cluster.engines.probe_s", "s", "lower"),
    ("cluster.engines.worker_busy_s", "s", "lower"),
    ("cluster.engines.overhead_s", "s", "lower"),
    ("cluster.engines.pool_utilisation", "ratio", "higher"),
    ("cluster.engines.pools_created", "count", "lower"),
    ("workloads.merge_s", "s", "lower"),
    ("service.http.submit_rtt_s", "s", "lower"),
    ("service.http.poll_rtt_s", "s", "lower"),
    ("service.http.polls_per_job", "count", "lower"),
    ("service.manager.submit_s", "s", "lower"),
    ("service.manager.queue_wait_p50_s", "s", "lower"),
    ("service.manager.queue_wait_p90_s", "s", "lower"),
    ("service.manager.peak_queue_depth", "count", "lower"),
    ("service.manager.rejected", "count", "lower"),
    ("service.executor.run_p50_s", "s", "lower"),
    ("service.executor.prepare_s", "s", "lower"),
    ("service.executor.scenarios_prepared", "count", "lower"),
    ("service.latency_p90_s", "s", "lower"),
    *[(f"kind.{k}.latency_p50_s", "s", "lower") for k in JOB_KINDS + EXTRA_KINDS],
    ("loadgen.lateness_p99_s", "s", "lower"),
    ("setup.plan_retries", "count", "lower"),
    ("machine.calib_s", "s", "lower"),
    ("machine.calib_drift_frac", "ratio", "lower"),
    ("machine.slowdown", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, exactly the contract's keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
