# Convenience targets for the reproduction workflow.

.PHONY: install test bench figures examples clean ci lint lint-repro typecheck chaos hygiene bench-hygiene docstrings docs-check pipeline-smoke

install:
	pip install -e .

test:
	pytest tests/

# mirror of .github/workflows/ci.yml: lint + hygiene + docstring gates,
# tier-1 tests (property suite on the smoke hypothesis profile), the
# instrumentation-overhead, resilience-overhead, vectorized-speedup,
# planner-path (bench_parallel_speedup.py), sim-throughput and
# serve-throughput gates, the
# benchmark trend gate, then the docs gate (the CI job additionally runs
# the tier-1 suite under pytest-cov with a threshold on repro.core —
# incl. repro.core.planner — / repro.obs / repro.mg1 / repro.resilience
# / repro.simulate / repro.serve, plus a chaos job — see `make chaos`)
ci: lint lint-repro typecheck hygiene bench-hygiene docstrings
	REPRO_HYPOTHESIS_PROFILE=smoke PYTHONPATH=src python -m pytest -x -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -x -q
	PYTHONPATH=src python -m pytest benchmarks/bench_resilience_overhead.py -x -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_speedup.py -x -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_parallel_speedup.py -x -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_sim_throughput.py -x -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -x -q
	python tools/bench_trend.py
	python tools/check_docs.py
	python tools/pipeline_smoke.py

# the CI chaos job: tier-1 under the pinned drop/delay schedule with
# generous retries — must pass unchanged while exercising the retry path
chaos:
	REPRO_CHAOS=tests/fixtures/chaos/schedule_ci.json PYTHONPATH=src python -m pytest -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "ruff not installed; skipping lint (pip install -e .[dev])"; \
	fi

# the repository's own invariant checker (units, determinism, fork
# safety, atomic IO, observability coverage, async-blocking, lock-guard
# discipline, lock order) plus the stale-suppression audit — see
# docs/LINTING.md
lint-repro:
	PYTHONPATH=src python -m repro.lint --check-ignores

# strict static typing on the linter and the contract modules it guards
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		PYTHONPATH=src mypy --strict src/repro/lint src/repro/units.py src/repro/rng.py src/repro/mg1.py; \
	else \
		echo "mypy not installed; skipping typecheck (pip install -e .[dev])"; \
	fi

# no compiled bytecode may be tracked (a .gitignore guards new ones)
hygiene:
	@tracked=$$(git ls-files | grep -E '(^|/)__pycache__/|\.py[cod]$$' || true); \
	if [ -n "$$tracked" ]; then \
		echo "tracked bytecode files:"; echo "$$tracked"; exit 1; \
	else \
		echo "hygiene: no tracked bytecode"; \
	fi

# every committed benchmarks/out/*.txt needs its .json report sibling
bench-hygiene:
	python tools/check_bench_artifacts.py

# 100% public-surface docstring coverage on the load-bearing packages
docstrings:
	python tools/check_docstrings.py

# the documentation must run: examples + fenced README/TUTORIAL blocks
docs-check:
	python tools/check_docs.py

# the edit-one-spec incrementality contract of docs/PIPELINE.md
pipeline-smoke:
	python tools/pipeline_smoke.py

bench:
	pytest benchmarks/ --benchmark-only

# regenerate every paper table/figure artifact into benchmarks/out/
figures: bench
	@ls -1 benchmarks/out/

examples:
	@for s in examples/*.py; do echo "== $$s =="; python $$s; done

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
