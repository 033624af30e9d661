"""End-to-end benchmark of the production path (see ``../README.md``).

Modules: :mod:`spec` (names, units, bounds — the source of
``BENCHMARK.json``), :mod:`harness` (job kinds, set-up, accounting),
:mod:`workloads` (the four workloads), :mod:`tracing` (benchmark-side
spans and the per-layer lines), :mod:`checks` (output checks).
"""
