# Convenience targets for the repro library.

.PHONY: install test lint lint-runtime bench results-check bench-kernels bench-e2e bench-e2e-record obs-smoke serve examples results clean

install:
	pip install -e .

test:
	pytest tests/

# Project-invariant static analysis (zero-dependency; pyflakes runs in CI).
# Any finding not silenced by an inline `# repro: noqa[RULE]` fails it.
lint:
	PYTHONPATH=src python -m repro lint src tests benchmarks examples

# Static rules + the runtime lock watchdog: re-run the concurrent test
# surface with every lock instrumented, then merge the observed
# acquisition graph into LOCK-ORDER (see docs/static-analysis.md).
lint-runtime:
	rm -f lock_order.json
	REPRO_LOCK_WATCH=lock_order.json PYTHONPATH=src python -m pytest -q tests/service tests/cluster/test_engines.py tests/core/test_profile_reuse.py tests/obs/test_live.py
	PYTHONPATH=src python -m repro lint src tests benchmarks examples --runtime-report lock_order.json

bench:
	pytest benchmarks/ --benchmark-only

# The committed paper artefacts regenerate byte for byte: the seven
# figure/table benches and the ten ablations are deterministic, so any
# diff under benchmarks/results/ is a behaviour change. `repro
# reproduce` must then write the same seven files.
PAPER_ARTEFACTS = table1_datasets fig2_tree_mining fig3_text_mining fig4_graph_compression table2_3_lz77 fig5_pareto_frontiers fig6_support_sweep

results-check:
	PYTHONPATH=src python -m pytest -q benchmarks/bench_fig*.py benchmarks/bench_table*.py benchmarks/bench_ablation_*.py --benchmark-only
	git diff --exit-code benchmarks/results/
	out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	PYTHONPATH=src python -m repro reproduce --out "$$out" && \
	for name in $(PAPER_ARTEFACTS); do \
		diff -u benchmarks/results/$$name.txt "$$out/$$name.txt" || exit 1; \
	done

# Each kernel timed against its oracle (asserts bit-identity first); the
# record docs/performance.md cites is benchmarks/results/BENCH_kernels.json.
bench-kernels:
	PYTHONPATH=src python benchmarks/bench_kernels.py

# The benchmark BENCHMARK.json declares: every workload, untraced then
# traced, each in a fresh subprocess (see benchmarks/e2e/README.md).
bench-e2e:
	python3 benchmarks/e2e/run.py

# The same runs, kept: one JSON line per run (git sha, host, seed, every
# metric) appended to BENCH_history.jsonl, so a regression is a diff.
bench-e2e-record:
	python3 benchmarks/record_e2e.py

serve:
	PYTHONPATH=src python -m repro serve --metrics

obs-smoke:
	PYTHONPATH=src python benchmarks/obs_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

results: test bench
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
