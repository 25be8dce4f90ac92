"""The layers of the repro stack, as wrap targets, and their per-layer metrics.

A layer is a module (or a small group of modules) of ``src/repro``; its
targets are the public calls other layers make into it.  The traced run
folds the recorded spans (:func:`tracer.fold`) into the flat
``<layer>.<metric>`` table that ``BENCHMARK.json`` lists as ``per_layer``.
Layers a workload does not exercise report zeros.
"""

from __future__ import annotations

import importlib
from typing import Any

from tracer import Span, Target, fold

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "simulate.calls": "count",
    "simulate.events": "count",
    "simulate.self_s": "s",
    "simulate.us_per_event": "us",
    "measure.campaigns": "count",
    "measure.self_s": "s",
    "characterize.busy_s": "s",
    "characterize.self_s": "s",
    "calibrate.busy_s": "s",
    "calibrate.self_s": "s",
    "validation.busy_s": "s",
    "validation.self_s": "s",
    "pipeline.stages_executed": "count",
    "pipeline.stages_cached": "count",
    "pipeline.fingerprint_s": "s",
    "pipeline.store_read_s": "s",
    "pipeline.store_write_s": "s",
    "pipeline.self_s": "s",
    "vectorized.calls": "count",
    "vectorized.configs": "count",
    "vectorized.self_s": "s",
    "vectorized.lru_hit_ratio": "ratio",
    "vectorized.gbytes_s": "GB/s",
    "vectorized.code_ucr": "ratio",
    "vectorized.roofline_frac": "ratio",
    "planner.decisions.cached": "count",
    "planner.decisions.scalar": "count",
    "planner.decisions.vectorized": "count",
    "planner.decisions.sharded": "count",
    "planner.blocks": "count",
    "planner.self_s": "s",
    "planner.decide_us": "us",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms",
    "cache.puts": "count",
    "cache.put_ms": "ms",
    "cache.mb_written": "MiB",
    "cache.self_s": "s",
    "serve.requests": "count",
    "serve.response_hit_ratio": "ratio",
    "serve.engine_calls": "count",
    "serve.coalesced": "count",
    "serve.handle_self_ms": "ms",
    "serve.render_ms": "ms",
    "serve.pool_wait_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.self_s": "s",
    "host.copy_gbs": "GB/s",
    "host.copy_array_mib": "MiB",
    "host.llc_mib": "MiB",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def _lanes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["events"] = len(result) if isinstance(result, list) else 1


def _configs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["configs"] = len(result)


def _hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["hit"] = result is not None


def _bytes_written(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["bytes"] = result.stat().st_size


def _blocks(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["blocks"] = result.blocks


def _strategy(span: Span, args: tuple, kwargs: dict) -> None:
    span.data["strategy"] = args[0] if args else kwargs["strategy"]


def _stages(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.data["executed"] = len(result.executed)
    span.data["cached"] = len(result.cached)


def _joins_flight(span: Span, args: tuple, kwargs: dict) -> None:
    coalescer, key = args[0], args[1]
    span.data["coalesced"] = coalescer.inflight(key)


def _query_key(args: tuple, kwargs: dict) -> int:
    return id(args[1])


def targets() -> list[Target]:
    """The wrap targets of every layer (imports the repro stack)."""
    mod = importlib.import_module
    validation = mod("repro.analysis.validation")
    cache, calibrate, inputs, planner, vectorized = (
        mod(f"repro.core.{name}")
        for name in ("cache", "calibrate", "inputs", "planner", "vectorized")
    )
    baseline, counters, microbench, mpip, netpipe, powertrace, timecmd, wattsup = (
        mod(f"repro.measure.{name}")
        for name in ("baseline", "counters", "microbench", "mpip", "netpipe",
                     "powertrace", "timecmd", "wattsup")
    )
    fingerprint, runner, store = (
        mod(f"repro.pipeline.{name}") for name in ("fingerprint", "runner", "store")
    )
    app, coalesce = mod("repro.serve.app"), mod("repro.serve.coalesce")
    cluster = mod("repro.simulate.cluster")

    measure = [
        (baseline, "run_baseline_sweep"),
        (baseline, "profile_communication"),
        (counters, "read_counters"),
        (microbench, "characterize_power"),
        (mpip, "profile_run"),
        (netpipe, "run_netpipe"),
        (powertrace, "synthesize_power_trace"),
        (timecmd, "measure_wall_time"),
        (wattsup, "read_meter"),
    ]
    sim = cluster.SimulatedCluster
    store_cls = store.ArtifactStore
    rc = cache.ResultCache
    serve = app.ServeApp
    return [
        Target(sim, "run", "simulate", note=_lanes),
        Target(sim, "run_batch", "simulate", note=_lanes),
        *(Target(mod, name, "measure") for mod, name in measure),
        Target(inputs, "characterize", "characterize"),
        Target(calibrate, "calibrate", "calibrate"),
        Target(validation, "validate_program", "validation"),
        Target(runner, "run_pipeline", "pipeline", note=_stages),
        Target(runner, "pipeline_status", "pipeline"),
        Target(fingerprint, "stage_identity", "pipeline", op="fingerprint"),
        Target(fingerprint, "identity_digest", "pipeline", op="fingerprint"),
        Target(store_cls, "get", "pipeline", op="store_read"),
        Target(store_cls, "contains", "pipeline", op="store_read"),
        Target(store_cls, "latest_identity", "pipeline", op="store_read"),
        Target(store_cls, "put", "pipeline", op="store_write"),
        Target(store_cls, "record_latest", "pipeline", op="store_write"),
        Target(vectorized, "evaluate_configs", "vectorized"),
        Target(vectorized, "evaluate_many", "vectorized"),
        Target(vectorized, "_compute", "vectorized", op="kernel", note=_configs),
        Target(vectorized._LRUCache, "get", "vectorized", op="lru", note=_hit),
        Target(planner, "decide", "planner", op="decide"),
        Target(planner, "record_selection", "planner", pre=_strategy),
        Target(planner, "execute", "planner"),
        Target(planner, "evaluate_space_streamed", "planner"),
        Target(planner, "stream_topk", "planner", note=_blocks),
        Target(planner, "stream_pareto", "planner", note=_blocks),
        Target(rc, "get", "cache", op="get", note=_hit),
        Target(rc, "get_doc", "cache", op="get", note=_hit),
        Target(rc, "contains", "cache", op="contains"),
        Target(rc, "put", "cache", op="put", note=_bytes_written),
        Target(rc, "put_doc", "cache", op="put", note=_bytes_written),
        Target(serve, "handle", "serve", op="handle"),
        Target(serve, "_compute", "serve", op="flight", link_to=_query_key),
        Target(serve, "_compute_sync", "serve", op="compute", link=_query_key),
        Target(app._ResponseCache, "get", "serve", op="lru", note=_hit),
        Target(coalesce.Coalescer, "get", "serve", op="coalesce",
               pre=_joins_flight),
        Target(app, "_render", "serve", op="render"),
    ]


def _ops(spans: list[Span], op: str) -> list[Span]:
    return [s for s in spans if s.op == op]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: list[Span],
    wall_s: float,
    copy_gbs: float,
    copy_array_mib: float,
    llc_mib: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Fold ``spans`` into every metric of :data:`PER_LAYER_UNITS`.

    ``wall_s`` is the traced timeline's length; ``trace.unattributed_s``
    is ``wall_s`` minus every span's self time, so the layer ``self_s``
    figures plus that remainder add up to ``trace.wall_s`` by definition
    (:meth:`session.Session.check_timeline` checks that it is not negative).
    """
    from repro.core.planner import WORKING_BYTES_PER_CONFIG

    layers, attributed = fold(spans)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, layer in layers.items():
        out[f"{name}.self_s"] = layer.self_s
    by = {name: layer.spans for name, layer in layers.items()}

    sim = by.get("simulate", [])
    out["simulate.calls"] = layers["simulate"].calls if sim else 0
    events = sum(s.data.get("events", 0) for s in sim if s.data.get("outermost"))
    out["simulate.events"] = events
    out["simulate.us_per_event"] = _ratio(out["simulate.self_s"] * 1e6, events)

    if "measure" in layers:
        out["measure.campaigns"] = layers["measure"].calls
    for name in ("characterize", "calibrate", "validation"):
        if name in layers:
            out[f"{name}.busy_s"] = layers[name].busy_s

    pipe = by.get("pipeline", [])
    runs = _ops(pipe, "run_pipeline")
    out["pipeline.stages_executed"] = sum(s.data.get("executed", 0) for s in runs)
    out["pipeline.stages_cached"] = sum(s.data.get("cached", 0) for s in runs)
    for op in ("fingerprint", "store_read", "store_write"):
        out[f"pipeline.{op}_s"] = sum(s.end - s.start for s in _ops(pipe, op))

    vec = by.get("vectorized", [])
    lru = _ops(vec, "lru")
    configs = sum(s.data["configs"] for s in _ops(vec, "kernel"))
    out["vectorized.calls"] = layers["vectorized"].calls if vec else 0
    out["vectorized.configs"] = configs
    out["vectorized.lru_hit_ratio"] = _ratio(
        sum(s.data["hit"] for s in lru), len(lru)
    )
    gbytes_s = _ratio(
        configs * WORKING_BYTES_PER_CONFIG / 1e9, out["vectorized.self_s"]
    )
    out["vectorized.gbytes_s"] = gbytes_s
    out["vectorized.code_ucr"] = _ratio(out["vectorized.self_s"], wall_s)
    out["vectorized.roofline_frac"] = _ratio(gbytes_s, copy_gbs)

    plan = by.get("planner", [])
    for s in _ops(plan, "record_selection"):
        out[f"planner.decisions.{s.data['strategy']}"] += 1
    out["planner.blocks"] = sum(s.data.get("blocks", 0) for s in plan)
    out["planner.decide_us"] = 1e6 * _mean(
        [s.end - s.start for s in _ops(plan, "decide")]
    )

    cache = by.get("cache", [])
    gets, puts = _ops(cache, "get"), _ops(cache, "put")
    out["cache.gets"] = len(gets)
    out["cache.hit_ratio"] = _ratio(sum(s.data["hit"] for s in gets), len(gets))
    out["cache.get_ms"] = 1e3 * _mean([s.end - s.start for s in gets])
    out["cache.puts"] = len(puts)
    out["cache.put_ms"] = 1e3 * _mean([s.end - s.start for s in puts])
    out["cache.mb_written"] = sum(s.data["bytes"] for s in puts) / 2**20

    srv = by.get("serve", [])
    handles, lru = _ops(srv, "handle"), _ops(srv, "lru")
    computes = _ops(srv, "compute")
    out["serve.requests"] = len(handles)
    out["serve.response_hit_ratio"] = _ratio(
        sum(s.data["hit"] for s in lru), len(lru)
    )
    out["serve.engine_calls"] = sum(
        1 for s in _ops(vec, "evaluate_configs") if _under(s, "serve")
    )
    out["serve.coalesced"] = sum(
        s.data["coalesced"] for s in _ops(srv, "coalesce")
    )
    out["serve.handle_self_ms"] = 1e3 * _mean([s.data["self_s"] for s in handles])
    out["serve.render_ms"] = 1e3 * _mean(
        [s.end - s.start for s in _ops(srv, "render")]
    )
    out["serve.pool_wait_ms"] = 1e3 * _mean(
        [s.start - s.parent.start for s in computes if s.parent is not None]
    )
    out["serve.compute_ms"] = 1e3 * _mean([s.end - s.start for s in computes])

    out["host.copy_gbs"] = copy_gbs
    out["host.copy_array_mib"] = copy_array_mib
    out["host.llc_mib"] = llc_mib
    out["trace.wall_s"] = wall_s
    out["trace.overhead_frac"] = overhead_frac
    out["trace.unattributed_s"] = wall_s - attributed
    return out


def _under(span: Span, layer: str) -> bool:
    ancestor = span.parent
    while ancestor is not None:
        if ancestor.layer == layer:
            return True
        ancestor = ancestor.parent
    return False
