"""Experiment harness regenerating every table and figure of the paper.

- :mod:`repro.bench.harness` — generic strategy-comparison runner
  (dataset × workload × partition count × strategy);
- :mod:`repro.bench.experiments` — one entry point per paper artefact
  (Fig. 2–6, Tables I–III) returning structured rows/series, and the
  ``ARTEFACTS`` table that runs and renders each committed file (the
  benches and ``repro reproduce`` both read it);
- :mod:`repro.bench.reporting` — plain-text table and series rendering.
"""

from repro.bench.harness import ExperimentRow, StrategyRunner
from repro.bench.reporting import format_table, format_frontier, rows_to_csv
from repro.bench.plotting import ascii_scatter
from repro.bench.reproduce import reproduce_all
from repro.bench import experiments

__all__ = [
    "ExperimentRow",
    "StrategyRunner",
    "format_table",
    "format_frontier",
    "rows_to_csv",
    "ascii_scatter",
    "reproduce_all",
    "experiments",
]
