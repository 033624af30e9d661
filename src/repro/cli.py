"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the Table-I inventory of the synthetic analog datasets.
``compare``
    Run the three partitioning strategies on one dataset/workload and
    print the time/energy/quality comparison table.
``frontier``
    Sweep α and print the measured time–energy frontier (with an ASCII
    Figure-5-style plot) next to the stratified baseline.
``profile``
    Run progressive sampling on a dataset/workload and print the
    learned per-node time models.
``obs report``
    Summarise a JSONL trace (per-stage latency, per-node energy,
    slowest spans); produce traces with ``compare --trace PATH``.
``lint``
    Run the project-invariant static analysis suite
    (:mod:`repro.analysis`) over source trees. Exit codes: 0 clean,
    1 findings, 2 usage error.
``serve``
    Run the always-on partition job service (:mod:`repro.service`) in
    the foreground: bounded-queue admission, persistent engine pool,
    HTTP API on ``--host``/``--port``.
``submit``
    Submit one job to a running service and (by default) wait for and
    print its result.
``reproduce``
    Write the seven committed paper artefacts (Figs. 2–6, Tables I–III)
    into a directory, byte for byte as ``benchmarks/results/`` has them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from repro.bench.experiments import FRONTIER_ALPHAS, frontier_series, table1_datasets
from repro.bench.harness import StrategyRunner
from repro.bench.plotting import ascii_scatter
from repro.bench.reporting import format_frontier, format_table
from repro.core.strategies import RANDOM
from repro.data.datasets import DATASET_NAMES, load_dataset
from repro.workloads.catalog import WORKLOADS, paper_strategies


def _runner(args) -> tuple[StrategyRunner, str]:
    """The runner for the parsed dataset/workload options, and the
    workload's catalogue name (the dataset kind's default when
    ``--workload`` is not given)."""
    if getattr(args, "file", None):
        if not getattr(args, "kind", None):
            raise SystemExit("--file requires --kind {tree,graph,text}")
        from repro.data.io import load_dataset_file

        dataset = load_dataset_file(args.kind, args.file)
    else:
        dataset = load_dataset(args.dataset, size_scale=args.scale, seed=args.seed)
    workload = args.workload or next(
        name for name, spec in WORKLOADS.items() if spec.default_for == dataset.kind
    )
    try:
        WORKLOADS[workload].check_runs_on(dataset.kind, dataset.name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    runner = StrategyRunner.for_workload(dataset, workload, args.support, seed=args.seed)
    return runner, workload


def cmd_datasets(args) -> int:
    for row in table1_datasets(size_scale=args.scale, seed=args.seed):
        print(row)
    return 0


def cmd_compare(args) -> int:
    import repro.obs as obs

    if args.trace:
        obs.enable()
        obs.reset()
    runner, workload = _runner(args)
    rows = runner.compare(paper_strategies(workload) + [RANDOM], [args.partitions])
    print(format_table(rows, f"{runner.dataset.name} / {workload} / {args.partitions} partitions"))
    if args.trace:
        count = obs.export_jsonl(args.trace)
        chrome = f"{args.trace}.chrome.json"
        obs.export_chrome(chrome)
        print(f"wrote {count} spans to {args.trace} (+ {chrome})")
    return 0


def cmd_frontier(args) -> int:
    runner, workload = _runner(args)
    series = frontier_series(
        runner,
        workload,
        runner.dataset.name,
        partitions=args.partitions,
        alphas=[float(a) for a in args.alphas.split(",")],
    )
    print(
        format_frontier(
            series.points, baseline=series.baseline, title=f"frontier: {series.label}"
        )
    )
    print()
    print(
        ascii_scatter(
            [(m, e) for _, m, e in series.points],
            baseline=series.baseline,
            title=f"time–energy frontier ({runner.dataset.name}, {args.partitions} partitions)",
        )
    )
    return 0


def cmd_profile(args) -> int:
    runner, _workload = _runner(args)
    _pp, prep = runner.prepared_for(args.partitions)
    print(f"progressive sampling on {runner.dataset.name}: sizes {prep.profiling.sample_sizes}")
    for node_id, (model, r2) in enumerate(
        zip(prep.profiling.models, prep.profiling.r_squared)
    ):
        k = prep.optimizer.dirty_coeffs[node_id]
        print(
            f"  node {node_id}: f(x) = {model.slope:.6f}·x + {model.intercept:.3f}"
            f"  (r²={r2:.3f}, dirty power k={k:.1f} W)"
        )
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs.report import report_from_file

    print(report_from_file(args.trace, top_n=args.top))
    return 0


def cmd_obs_top(args) -> int:
    from repro.obs.live.dashboard import run_top

    return run_top(
        args.url, once=args.once, interval=args.interval, duration=args.duration
    )


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import analyze_paths, render_json, render_text
    from repro.analysis.engine import all_checkers
    from repro.analysis.reporters import render_rules

    runtime_report = None
    if args.runtime_report:
        from repro.analysis.runtime import load_runtime_report

        try:
            runtime_report = load_runtime_report(args.runtime_report)
        except OSError as exc:
            print(f"repro lint: cannot read runtime report: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    checkers = all_checkers(runtime_report=runtime_report)
    if args.rules is not None:
        if args.rules == "":
            # Bare --rules: print the catalogue.
            print(render_rules([(c.rule_id, c.description) for c in checkers]))
            return 0
        valid = {c.rule_id for c in checkers}
        wanted = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in valid]
        if unknown or not wanted:
            bad = ", ".join(unknown) or "(empty)"
            print(
                f"repro lint: unknown rule id(s): {bad}; valid ids: "
                + ", ".join(c.rule_id for c in checkers),
                file=sys.stderr,
            )
            return 2
        checkers = [c for c in checkers if c.rule_id in wanted]

    paths = [Path(p) for p in (args.paths or ("src", "tests"))]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = analyze_paths(paths, checkers=checkers)
    print(render_json(report) if args.format == "json" else render_text(report))
    return report.exit_code


def cmd_serve(args) -> int:
    import repro.obs as obs
    from repro.service import ServiceConfig, build_service

    if args.metrics:
        obs.enable()
    if args.live:
        from repro.obs.live import enable_live

        enable_live()  # implies obs.enable(); /live + `repro obs top`
    config = ServiceConfig(
        max_queue_depth=args.queue_depth,
        concurrency=args.concurrency,
        per_tenant_inflight=args.tenant_inflight,
        result_ttl_s=args.result_ttl,
    )
    service = build_service(
        engine=args.engine,
        num_nodes=args.nodes,
        max_workers=args.workers,
        seed=args.seed,
        host=args.host,
        port=args.port,
        config=config,
    )
    print(f"repro service listening on {service.url} (engine={args.engine})")
    try:
        service.server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining...")
    finally:
        service.close()
    return 0


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url, timeout_s=args.timeout)
    spec = {
        "workload": args.workload,
        "dataset": args.dataset,
        "support": args.support,
        "size_scale": args.scale,
        "seed": args.seed,
        "tenant": args.tenant,
    }
    if args.alpha is not None:
        spec["alpha"] = args.alpha
    resp = client.submit(spec)
    if resp.rejected:
        print(
            f"rejected ({resp.body.get('reject_reason')}): "
            f"retry after {resp.retry_after_s:.3f}s",
            file=sys.stderr,
        )
        return 1
    if not resp.ok:
        print(f"submit failed ({resp.status}): {resp.body}", file=sys.stderr)
        return 1
    job_id = resp.body["job_id"]
    if args.no_wait:
        print(json.dumps(resp.body, indent=2))
        return 0
    final = client.wait(job_id, timeout_s=args.timeout)
    print(json.dumps(final.body, indent=2))
    return 0 if final.body.get("state") == "SUCCEEDED" else 1


def cmd_reproduce(args) -> int:
    from repro.bench.reproduce import reproduce_all

    written = reproduce_all(args.out)
    print(f"wrote {len(written)} artefacts to {args.out}/")
    return 0


def positive_scale(text: str) -> float:
    """``--scale``'s type: a positive, finite float (anything else is a
    usage error, exit 2)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pareto framework for data analytics on heterogeneous systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, dataset: bool = True) -> None:
        p.add_argument("--scale", type=positive_scale, default=1.0, help="dataset size scale")
        p.add_argument("--seed", type=int, default=0)
        if dataset:
            p.add_argument("--dataset", choices=DATASET_NAMES, default="rcv1")
            p.add_argument(
                "--file", default=None, help="load a flat-text dataset file instead"
            )
            p.add_argument(
                "--kind",
                choices=("tree", "graph", "text"),
                default=None,
                help="domain of --file",
            )
            p.add_argument("--workload", choices=tuple(WORKLOADS), default=None)
            p.add_argument("--support", type=float, default=0.1)
            p.add_argument("--partitions", type=int, default=8)

    p = sub.add_parser("datasets", help="print the Table-I dataset inventory")
    common(p, dataset=False)
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("compare", help="compare partitioning strategies")
    common(p)
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable observability and write a JSONL trace (plus a "
        "Chrome trace_event file at PATH.chrome.json)",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("frontier", help="sweep alpha and print the frontier")
    common(p)
    p.add_argument(
        "--alphas",
        default=",".join(str(a) for a in FRONTIER_ALPHAS),
        help="comma-separated alpha values (default: the Figure 5/6 grid)",
    )
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("profile", help="print learned per-node time models")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("obs", help="observability: inspect trace files")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    rp = obs_sub.add_parser("report", help="summarise a JSONL trace file")
    rp.add_argument("trace", help="path to a trace written by --trace / export_jsonl")
    rp.add_argument("--top", type=int, default=10, help="slowest spans to list")
    rp.set_defaults(func=cmd_obs_report)
    tp = obs_sub.add_parser(
        "top", help="refreshing ASCII dashboard over a service's /live endpoint"
    )
    tp.add_argument("--url", default="http://127.0.0.1:8642")
    tp.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    tp.add_argument(
        "--interval", type=float, default=1.0, help="refresh period seconds"
    )
    tp.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until interrupted)",
    )
    tp.set_defaults(func=cmd_obs_top)

    p = sub.add_parser(
        "lint", help="run the project-invariant static analysis suite"
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src tests)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    p.add_argument(
        "--rules",
        nargs="?",
        const="",
        default=None,
        metavar="IDS",
        help="bare: list the rule catalogue and exit; with a comma-"
        "separated list of rule ids: run only those rules "
        "(unknown ids exit 2)",
    )
    p.add_argument(
        "--runtime-report",
        default=None,
        metavar="PATH",
        help="lock_order.json from a watchdog-instrumented run "
        "(REPRO_LOCK_WATCH=PATH pytest ...); LOCK-ORDER merges its "
        "observed acquisition edges into the static graph",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("serve", help="run the partition job service in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--engine", choices=("process", "simulated"), default="process",
        help="execution engine backing the service",
    )
    p.add_argument("--nodes", type=int, default=4, help="cluster nodes")
    p.add_argument(
        "--workers", type=int, default=None, help="process-pool worker cap"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--concurrency", type=int, default=2, help="jobs running at once"
    )
    p.add_argument(
        "--queue-depth", type=int, default=64, help="bounded queue capacity"
    )
    p.add_argument(
        "--tenant-inflight", type=int, default=8,
        help="per-tenant queued+running cap",
    )
    p.add_argument(
        "--result-ttl", type=float, default=300.0,
        help="seconds finished results stay retrievable",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="enable observability (spans + /metrics counters)",
    )
    p.add_argument(
        "--live", action="store_true",
        help="enable the live telemetry plane (GET /live + repro obs top)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit one job to a running service")
    p.add_argument("--url", default="http://127.0.0.1:8642")
    p.add_argument("--workload", choices=tuple(WORKLOADS), default="apriori")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="rcv1")
    p.add_argument("--support", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--scale", type=positive_scale, default=0.1, help="dataset size scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--no-wait", action="store_true", help="print the 202 snapshot and exit"
    )
    p.add_argument(
        "--timeout", type=float, default=120.0, help="submit/wait timeout seconds"
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "reproduce", help="write the committed paper artefacts into a directory"
    )
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
