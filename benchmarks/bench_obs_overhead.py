"""Instrumentation overhead gate for the ``repro.obs`` layer.

The observability call sites are compiled into every pipeline stage
(``characterize`` → ``predict`` → ``evaluate_space`` → ``stream_topk``
/ ``pareto`` / ``whatif``), so the layer's contract is that they stay
effectively free: with tracing **and** metrics fully enabled, a
representative pipeline run must cost < 2% more wall time than the
no-op default.  This module pins that contract and writes a
machine-readable record to ``benchmarks/out/obs_overhead.json`` for CI
trend tracking.

Measurement: disabled/enabled runs are interleaved sample-by-sample
(so slow clock drift hits both sides equally) and compared through the
ratio of pooled medians — the only statistic that stayed stable on a
noisy shared box.  Because scheduler noise on CI runners routinely
exceeds the 2% budget itself, the gate takes the best of a few
independent attempts: a genuine regression fails every attempt, while
a noise spike fails at most one.

It also exercises the acceptance path end to end: a traced
characterize-to-selection run is dumped as JSONL
(``benchmarks/out/obs_trace.jsonl``) and must contain spans for at
least five distinct pipeline stages plus LRU cache hit/miss counters in
the Prometheus export (``benchmarks/out/obs_metrics.prom``).

Two modes:

* full (default): ~40-node synthetic space (960 configs);
* smoke (``REPRO_BENCH_SMOKE=1``): a 16-node space (384 configs).

The < 2% ceiling applies in both modes.
"""

import os
import statistics
import time

import numpy as np

from repro import obs
from repro.core import planner
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.model import HybridProgramModel
from repro.core.pareto import pareto_frontier
from repro.core.whatif import WhatIf
from repro.workloads.registry import get_program

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: The ISSUE bar: fully-enabled instrumentation costs < 2% wall time.
OVERHEAD_CEILING_PCT = 2.0
#: Acceptance bar: a traced run covers at least this many pipeline stages.
MIN_DISTINCT_SPANS = 5
#: Interleaved (disabled, enabled) sample pairs per attempt.
_PAIRS = 30
#: Independent measurement attempts; the best one is gated.
_MAX_ATTEMPTS = 4


def _synthetic_space() -> ConfigSpace:
    """A configuration space big enough that the pipeline does real work."""
    max_nodes = 16 if SMOKE else 40
    return ConfigSpace(
        node_counts=tuple(range(1, max_nodes + 1)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )


def _pipeline_once(model, space, configs, deadline_s):
    """One representative pass over the instrumented pipeline stages."""
    evaluation = evaluate_space(model, space)
    frontier = pareto_frontier(evaluation)
    best = planner.stream_topk(
        model, space, 1, objective="min_energy", deadline_s=deadline_s
    )
    pred = model.predict(configs[len(configs) // 2])
    return frontier, best, pred


def _measure_overhead_pct(run) -> float:
    """Enabled-vs-disabled overhead as a pooled-median percentage.

    One long-lived registry/tracer pair is reused across the enabled
    samples so backend allocation is not charged to the workload.
    """
    registry = obs.enable_metrics()
    tracer = obs.enable_tracing()
    obs.disable()
    disabled, enabled = [], []
    try:
        for _ in range(_PAIRS):
            obs.disable()
            t0 = time.perf_counter()
            run()
            disabled.append(time.perf_counter() - t0)
            obs.enable_metrics(registry)
            obs.enable_tracing(tracer)
            t0 = time.perf_counter()
            run()
            enabled.append(time.perf_counter() - t0)
    finally:
        obs.disable()
    ratio = statistics.median(enabled) / statistics.median(disabled)
    return 100.0 * (ratio - 1.0)


def test_obs_overhead(
    benchmark, xeon_sim, model_cache, write_artifact, write_report, artifact_dir
):
    model = model_cache(xeon_sim, "SP")
    space = _synthetic_space()
    configs = list(space)

    # warm the vectorized LRU and pick a deadline that leaves part of the
    # space infeasible for the streamed selection
    evaluation = evaluate_space(model, space)
    deadline_s = float(np.percentile(evaluation.times_s, 60))

    def run():
        return _pipeline_once(model, space, configs, deadline_s)

    run()  # warm-up (imports, cache, allocator)
    attempts = []
    for _ in range(_MAX_ATTEMPTS):
        attempts.append(_measure_overhead_pct(run))
        if min(attempts) < OVERHEAD_CEILING_PCT:
            break
    overhead_pct = min(attempts)

    # --- acceptance run: full pipeline under tracing + metrics ----------
    with obs.observed() as (registry, tracer):
        traced_model = HybridProgramModel.from_measurements(
            xeon_sim, get_program("SP")
        )
        _pipeline_once(traced_model, space, configs, deadline_s)
        evaluate_space(traced_model, space)  # repeat -> LRU hit
        WhatIf(traced_model).compare(
            WhatIf(traced_model).memory_bandwidth(2.0), space
        )
        span_names = sorted(tracer.names())
        cache_hits = registry.counter_value("vectorized.cache.hits")
        cache_misses = registry.counter_value("vectorized.cache.misses")
        prom_text = registry.to_prometheus_text()
    tracer.write_jsonl(str(artifact_dir / "obs_trace.jsonl"))

    write_report(
        "obs_overhead",
        {
            "overhead_pct": (overhead_pct, "%"),
            "ceiling_pct": (OVERHEAD_CEILING_PCT, "%"),
            "distinct_spans": (len(span_names), "count"),
            "cache_hits": (cache_hits, "count"),
            "cache_misses": (cache_misses, "count"),
        },
        extra={
            "configs": len(configs),
            "pairs_per_attempt": _PAIRS,
            "attempts_pct": attempts,
            "span_names": span_names,
        },
    )
    write_artifact("obs_metrics.prom", prom_text.rstrip("\n"))
    print(
        f"\n[obs] overhead={overhead_pct:+.2f}% "
        f"(attempts: {', '.join(f'{a:+.2f}%' for a in attempts)}) "
        f"spans={span_names}"
    )

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"instrumentation overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_CEILING_PCT}% in every attempt: {attempts}"
    )
    # the traced run covers the pipeline: >= 5 distinct stage spans ...
    assert len(span_names) >= MIN_DISTINCT_SPANS, span_names
    for name in (
        "characterize", "evaluate_space", "pareto", "stream_topk", "whatif"
    ):
        assert name in span_names, f"missing span {name!r} in {span_names}"
    # ... and the LRU counters observed both outcomes
    assert cache_hits >= 1.0, "repeated evaluate_space produced no LRU hit"
    assert cache_misses >= 1.0, "fresh model produced no LRU miss"
    assert "repro_vectorized_cache_hits_total" in prom_text
    assert "repro_vectorized_cache_misses_total" in prom_text
