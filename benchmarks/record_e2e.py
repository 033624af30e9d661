"""Keep a trajectory: append end-to-end benchmark runs to a history file.

    make bench-e2e-record                      # every workload, this checkout
    python3 benchmarks/record_e2e.py --checkout ../parent --label "PR 16 (parent)"

For each workload it runs ``benchmarks/e2e/run.py --full-result`` twice
— untraced (the end-to-end metrics) and traced (the per-layer lines) —
each in a fresh subprocess at one fixed seed, and appends one JSON line per run
to ``BENCH_history.jsonl``: git sha (and whether the tree was dirty),
host fingerprint, seed, every end-to-end and per-layer metric. The
benchmark itself (``benchmarks/e2e``, frozen) is only invoked, never
imported, so ``--checkout`` can point at any commit's working tree (how
a PR records its parent's row beside its own) and a regression is a
diff between two lines of one file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parents[1]
HISTORY = REPO / "BENCH_history.jsonl"

#: One seed for every recorded run, so any two lines compare.
SEED = 1

#: What a history line keeps of ``run.py --full-result``.
KEPT = (
    "workload", "seed", "trace", "correct", "attempted", "failed", "window_s",
    "end_to_end", "per_layer", "host",
)


def _git(checkout: pathlib.Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], stdout=subprocess.PIPE, text=True, check=True
    )
    return done.stdout.strip()


def run_once(checkout: pathlib.Path, workload: str, trace: bool) -> dict:
    command = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--trace", str(int(trace)),
        "--full-result",
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True, cwd=checkout, timeout=600
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=REPO,
                        help="working tree whose benchmark and program to run")
    parser.add_argument("--label", default="", help="free text kept on every line")
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    stamp = {
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "label": args.label,
    }
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run_once(checkout, workload, trace)
            all_correct &= result["correct"] and not result["failed"]
            line = {
                **stamp,
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                **{key: result[key] for key in KEPT},
            }
            with HISTORY.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
            print(
                f"{workload} trace={int(trace)} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} -> {HISTORY.name}",
                flush=True,
            )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
