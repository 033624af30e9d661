# Convenience targets for the repro library.

.PHONY: install test lint lint-runtime bench bench-kernels bench-pipeline bench-service bench-e2e bench-e2e-record obs-smoke serve examples results clean

install:
	python setup.py develop

test:
	pytest tests/

# Project-invariant static analysis (zero-dependency; pyflakes runs in CI).
lint:
	PYTHONPATH=src python -m repro lint src tests benchmarks examples --baseline .lint-baseline.json

# Static rules + the runtime lock watchdog: re-run the concurrent test
# surface with every lock instrumented, then merge the observed
# acquisition graph into LOCK-ORDER (see docs/static-analysis.md).
lint-runtime:
	rm -f lock_order.json
	REPRO_LOCK_WATCH=lock_order.json PYTHONPATH=src python -m pytest -q tests/service tests/obs/test_live.py
	PYTHONPATH=src python -m repro lint src tests benchmarks examples --baseline .lint-baseline.json --runtime-report lock_order.json

bench:
	pytest benchmarks/ --benchmark-only

# Both bench targets mirror their results JSON to the repo root, where
# the autotuner (repro.perf.autotune) picks it up as dispatch seeds.
bench-kernels:
	PYTHONPATH=src python benchmarks/bench_kernels.py
	cp benchmarks/results/BENCH_kernels.json BENCH_kernels.json

bench-pipeline:
	PYTHONPATH=src python benchmarks/bench_pipeline.py
	cp benchmarks/results/BENCH_pipeline.json BENCH_pipeline.json

# Open-loop load harness for the job service; SMOKE=1 runs CI sizes.
bench-service:
	PYTHONPATH=src python benchmarks/bench_service.py $(if $(SMOKE),--smoke)
	cp benchmarks/results/BENCH_service.json BENCH_service.json

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
	for f in examples/*.py; do echo "== $$f"; python $$f; done

results: test bench
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
