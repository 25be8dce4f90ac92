"""``repro.obs`` — pipeline-wide tracing and metrics (observability layer).

Every stage of the pipeline (``characterize`` → ``predict`` →
``evaluate_space`` → ``stream_topk``/``pareto``/``batch``/``whatif``) calls
into this facade.  The default backend is a **no-op**: with nothing
enabled, a call site costs one module-global ``None`` check, so
instrumentation can stay compiled-in everywhere (the benchmark gate in
``benchmarks/bench_obs_overhead.py`` pins the fully-enabled overhead
under 2%).

Usage::

    from repro import obs

    with obs.observed() as (metrics, tracer):
        run_pipeline()
    print(metrics.to_prometheus_text())
    tracer.write_jsonl("trace.jsonl")

or imperatively: :func:`enable_metrics` / :func:`enable_tracing` /
:func:`disable`.  Call sites use :func:`span`, :func:`add` and
:func:`observe`; ``span``/``observe`` take monotonic timings from
:func:`time.perf_counter`.

See ``docs/OBSERVABILITY.md`` for the full API and exporter formats.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, SpanRecord, Tracer, read_jsonl

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "DEFAULT_BUCKETS",
    "read_jsonl",
    "enable_metrics",
    "enable_tracing",
    "disable",
    "observed",
    "metrics_enabled",
    "tracing_enabled",
    "active",
    "get_metrics",
    "get_tracer",
    "span",
    "add",
    "observe",
    "counter_value",
]

#: The enabled backends; ``None`` means "off" (the zero-overhead default).
_metrics: MetricsRegistry | None = None
_tracer: Tracer | None = None


class _NoopSpan:
    """Shared, stateless stand-in for :class:`Span` while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn on metrics collection (into ``registry`` or a fresh one)."""
    global _metrics
    _metrics = registry if registry is not None else MetricsRegistry()
    return _metrics


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Turn on span tracing (into ``tracer`` or a fresh one)."""
    global _tracer
    _tracer = tracer if tracer is not None else Tracer()
    return _tracer


def disable() -> None:
    """Back to the no-op backend (drops references, keeps nothing)."""
    global _metrics, _tracer
    _metrics = None
    _tracer = None


@contextmanager
def observed(
    metrics: bool = True, tracing: bool = True
) -> Iterator[tuple[MetricsRegistry | None, Tracer | None]]:
    """Enable metrics and/or tracing for a ``with`` block, then restore.

    Yields ``(registry, tracer)`` (``None`` for whichever is off).
    Restores whatever backends were active before the block.
    """
    global _metrics, _tracer
    prev = (_metrics, _tracer)
    reg = enable_metrics() if metrics else None
    tr = enable_tracing() if tracing else None
    try:
        yield reg, tr
    finally:
        _metrics, _tracer = prev


def metrics_enabled() -> bool:
    """True while a metrics registry is collecting."""
    return _metrics is not None


def tracing_enabled() -> bool:
    """True while a tracer is collecting."""
    return _tracer is not None


def active() -> bool:
    """True while either backend is enabled (gate for expensive attrs)."""
    return _metrics is not None or _tracer is not None


def get_metrics() -> MetricsRegistry | None:
    """The enabled registry, or ``None``."""
    return _metrics


def get_tracer() -> Tracer | None:
    """The enabled tracer, or ``None``."""
    return _tracer


def span(name: str, **attrs: Any):
    """Open a span (no-op while tracing is disabled)."""
    tracer = _tracer
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, attrs or None)


def add(name: str, n: float = 1.0) -> None:
    """Increment counter ``name`` by ``n`` (no-op while metrics are off)."""
    metrics = _metrics
    if metrics is not None:
        metrics.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op while off)."""
    metrics = _metrics
    if metrics is not None:
        metrics.histogram(name).observe(value)


def counter_value(name: str) -> float:
    """Current counter value (0.0 while metrics are off or it never fired)."""
    metrics = _metrics
    return metrics.counter_value(name) if metrics is not None else 0.0
