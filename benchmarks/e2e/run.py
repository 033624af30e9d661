"""End-to-end benchmark of the production path. One command::

    python3 benchmarks/e2e/run.py                       # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --workload batch-warm --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --aa 5                # A/A run, bound calibration
    python3 benchmarks/e2e/run.py --write-spec          # regenerate BENCHMARK.json

With ``--workload`` it is the driver's contract: one run in this
process, the last line of stdout one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``). Without it each
workload runs in a fresh subprocess of this same file and every metric
is printed by name with its unit. See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import pathlib
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]


def _fail(message: str) -> "NoReturn":  # noqa: F821 - annotation only
    print(f"benchmarks/e2e/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (REPO / "src" / "repro" / "__init__.py").is_file():
    _fail(f"the program under test is missing: no src/repro under {REPO}")
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

from e2ebench import spec  # noqa: E402


def _units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}


# -- one run, in this process (the driver's contract) -------------------------


def run_here(args: argparse.Namespace) -> int:
    from e2ebench.harness import stop_children
    from e2ebench.runner import run_workload

    import_s = time.perf_counter() - _PROCESS_START
    # A SIGTERM (a caller's timeout) unwinds like any other way out, so
    # that no pool worker or resource tracker outlives this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scale=args.scale, import_s=import_s,
        )
    finally:
        stop_children()
    if args.full_result:
        print(json.dumps(result))
        return 0
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = _units()
    chosen = result["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items()},
            }
        )
    )
    return 0


# -- fresh subprocess per run (report and A/A modes) ---------------------------


#: A window during which the machine changed speed by more than this
#: (second half against first, by the speed probe) is discarded and run
#: again in a fresh process, at most twice. Only here: a run the driver
#: starts is one process and one window, because its time is budgeted.
DRIFT_LIMIT = 0.10
MAX_RERUNS = 2


def run_child(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", str(scale),
        "--full-result",
    ]
    discarded: list[dict] = []
    for attempt in range(1 + MAX_RERUNS):
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        if done.returncode != 0:
            _fail(f"{workload} run exited {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        drift = result["per_layer"]["machine.calib_drift_frac"]
        if drift <= DRIFT_LIMIT or attempt == MAX_RERUNS:
            break
        discarded.append({"calib_drift_frac": drift, **result["end_to_end"]})
    result["discarded_runs"] = discarded
    return result


def report(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; every metric by name."""
    units = _units()
    names = [args.only] if args.only else [n for n, _ in spec.WORKLOADS]
    all_correct = True
    for name in names:
        plain = run_child(name, args.seed, args.seconds, False, args.scale)
        traced = run_child(name, args.seed, args.seconds, True, args.scale)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"\n== {name}  (seed {args.seed}, window {plain['window_s']:.1f} s, "
              f"ops {plain['attempted']}, failed {plain['failed']}, "
              f"samples/group {sorted(set(plain['samples_per_group'].values()))})")
        for run in (plain, traced):
            for problem in run["problems"]:
                print(f"  CHECK FAILED: {problem}")
            for discarded in run["discarded_runs"]:
                print(f"  discarded window: {discarded}")
        for metric, value in plain["end_to_end"].items():
            print(f"  {metric:<44} {value:>12.4f} {units[metric]}")
        print("  -- per layer (traced half-window) --")
        for metric, value in traced["per_layer"].items():
            print(f"  {metric:<44} {value:>12.5f} {units[metric]}")
    print(f"\nhost: {json.dumps(plain['host'])}")
    return 0 if all_correct else 1


def aa(args: argparse.Namespace) -> int:
    """Two interleaved sets (A B B A ...) of K runs of the same code
    per workload. Per metric: both medians, quartile spread as a share
    of the median, and the relative difference of the medians — which
    must stay within the metric's bound."""
    names = [args.only] if args.only else [n for n, _ in spec.WORKLOADS]
    k = args.aa
    exceeded = False
    print("| workload | metric | median A | median B | spread A | spread B | diff | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        order = [("A", "B") if i % 2 == 0 else ("B", "A") for i in range(k)]
        for i, pair in enumerate(order):
            for label in pair:
                run = run_child(name, args.seed + i, args.seconds, False, args.scale)
                if not run["correct"] or run["failed"]:
                    _fail(f"{name} seed {args.seed + i}: {run['problems']}")
                sets[label].append(run["end_to_end"])
        for metric, _unit, _better, bound in spec.END_TO_END:
            a = [r[metric] for r in sets["A"]]
            b = [r[metric] for r in sets["B"]]
            (a1, am, a3), (b1, bm, b3) = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            diff = abs(bm - am) / am
            exceeded |= diff > bound
            print(
                f"| {name} | {metric} | {am:.4f} | {bm:.4f} | {(a3 - a1) / am:.3f} "
                f"| {(b3 - b1) / bm:.3f} | {diff:.3f} | {bound} |",
                flush=True,
            )
    return 1 if exceeded else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="K", help="A/A mode: two sets of K runs")
    parser.add_argument("--only", choices=[n for n, _ in spec.WORKLOADS],
                        help="restrict the report or A/A mode to one workload")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repo root and exit")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier (the smoke test runs tiny sizes)")
    parser.add_argument("--full-result", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.aa is not None and args.aa < 2:
        parser.error("--aa needs K >= 2 runs per set to have quartiles")
    if args.write_spec:
        (REPO / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload:
        return run_here(args)
    if args.aa:
        return aa(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
