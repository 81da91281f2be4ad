# Convenience targets for the DHB reproduction.

.PHONY: install test lint bench bench-json bench-check smoke-large figures clean

install:
	pip install -e . || python setup.py develop

# Mirrors the tier-1 CI command exactly.
test:
	PYTHONPATH=src python -m pytest -x -q

# Uses ruff when installed; otherwise falls back to the dependency-free
# AST linter, which enforces the same rule set (see pyproject [tool.ruff]).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks tools examples; \
	else \
		echo "ruff not found; using tools/lint.py fallback"; \
		python tools/lint.py; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

bench-json:
	PYTHONPATH=src python benchmarks/perf_report.py

# Regression gate: fresh quick benches vs the committed BENCH_sweep.json.
bench-check:
	PYTHONPATH=src python benchmarks/check_regression.py

# Large-horizon smoke: a 1M-request fig7 point under wall-clock/RSS budgets.
smoke-large:
	PYTHONPATH=src python benchmarks/large_smoke.py

figures:
	python -m repro.cli figures
	python -m repro.cli fig7
	python -m repro.cli fig8
	python -m repro.cli fig9
	python -m repro.cli variants

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
