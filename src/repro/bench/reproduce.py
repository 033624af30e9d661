"""``repro reproduce``: every committed paper artefact into a directory.

``python -m repro reproduce --out results/`` runs each entry of
:data:`repro.bench.experiments.ARTEFACTS` — the code and parameters the
``benchmarks/bench_fig*``/``bench_table*`` files run — and writes
``<name>.txt``, byte-identical to ``benchmarks/results/<name>.txt``,
plus ``<name>.csv`` for the row-based artefacts. A scaled run goes
through the experiment functions' ``size_scale`` instead.
"""

from __future__ import annotations

import pathlib

from repro.bench import experiments
from repro.bench.harness import ExperimentRow
from repro.bench.reporting import rows_to_csv


def reproduce_all(out_dir) -> list[str]:
    """Write every artefact into ``out_dir``; returns their names."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, run in experiments.ARTEFACTS.items():
        result, text = run()
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        if isinstance(result[0], ExperimentRow):
            rows_to_csv(result, out / f"{name}.csv")
    return list(experiments.ARTEFACTS)
