"""``repro.resilience`` — fault-tolerant execution of the measurement pipeline.

Every simulated instrument read in :mod:`repro.measure` routes its result
through :func:`call`.  The default backend is **off**: with no context
enabled a call costs one module-global ``None`` check plus one closure
invocation, so the wrappers stay compiled-in everywhere (the benchmark
gate in ``benchmarks/bench_resilience_overhead.py`` bounds what even an
enabled read adds per call by 2% of a characterization campaign spread
over its reads, mirroring the ``repro.obs`` gate).

With a context enabled (:func:`enable` / :func:`enabled`), each call runs
under the :class:`~repro.resilience.policy.RetryPolicy`: a chaos schedule
(:class:`~repro.resilience.chaos.ChaosSchedule`) may drop, delay or
corrupt individual attempts; failed attempts are retried with
deterministic jittered exponential backoff; a sample still missing after
the last retry raises :class:`~repro.resilience.policy.SampleLost`, which
degradation-aware call sites (the baseline sweep, NetPIPE, the power
micro-benchmarks) catch and survive.

Retries, failures, losses and resumes are mirrored into the
:mod:`repro.obs` counters (``resilience.*``) whenever metrics are on, and
tallied per instrument in the context's :class:`InstrumentStats` so a
post-campaign :func:`repro.resilience.pipeline.coverage_report` can state
exactly what the surviving calibration is based on.

Instruments are *idempotent*: re-reading a lost sample returns the same
underlying value (re-reading a meter does not change the past), so a run
that needed retries is bit-identical to one that did not — unless the
chaos schedule corrupted or permanently lost samples, which is precisely
what the coverage record reports.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import obs
from repro.resilience.chaos import ChaosDecision, ChaosRule, ChaosSchedule
from repro.resilience.policy import ResilienceError, RetryPolicy, SampleLost

__all__ = [
    "ChaosDecision",
    "ChaosRule",
    "ChaosSchedule",
    "InstrumentStats",
    "ResilienceContext",
    "ResilienceError",
    "RetryPolicy",
    "SampleLost",
    "active",
    "call",
    "disable",
    "enable",
    "enabled",
    "get_context",
    "value_token",
]


@dataclass
class InstrumentStats:
    """Per-instrument tally of one campaign's measurement outcomes."""

    attempts: int = 0
    retries: int = 0
    corrupted: int = 0
    delayed: int = 0
    lost: int = 0
    succeeded: int = 0
    backoff_s: float = 0.0

    @property
    def requested(self) -> int:
        """Distinct samples asked of this instrument."""
        return self.succeeded + self.lost

    @property
    def coverage(self) -> float:
        """Fraction of requested samples that survived."""
        if self.requested == 0:
            return 1.0
        return self.succeeded / self.requested


@dataclass
class ResilienceContext:
    """An enabled resilience backend: policy + optional chaos + stats."""

    policy: RetryPolicy
    chaos: ChaosSchedule | None = None
    stats: dict[str, InstrumentStats] = field(default_factory=dict)
    lost_units: dict[str, list[str]] = field(default_factory=dict)

    def _stats(self, instrument: str) -> InstrumentStats:
        s = self.stats.get(instrument)
        if s is None:
            s = self.stats[instrument] = InstrumentStats()
        return s

    def note_lost_unit(self, instrument: str, unit: str) -> None:
        """Record a named unit (e.g. a baseline point) as permanently lost."""
        self.lost_units.setdefault(instrument, []).append(unit)

    def call(
        self,
        instrument: str,
        tokens: tuple[str, ...],
        fn: Callable[[], Any],
        corrupt: Callable[[Any, float], Any] | None = None,
    ) -> Any:
        """Run one instrument read under the policy and chaos schedule."""
        policy = self.policy
        stats = self._stats(instrument)
        attempts = policy.attempts
        for attempt in range(attempts):
            stats.attempts += 1
            obs.add("resilience.attempts")
            decision = (
                self.chaos.decide(instrument, tokens, attempt)
                if self.chaos is not None
                else None
            )
            failed = False
            if decision is not None and decision.failed:
                obs.add("resilience.chaos.drops")
                failed = True
            elif (
                decision is not None
                and decision.outcome == "delay"
                and policy.timeout_s is not None
                and decision.delay_s >= policy.timeout_s
            ):
                obs.add("resilience.chaos.timeouts")
                failed = True
            if not failed:
                value = fn()
                if decision is not None and decision.outcome == "delay":
                    stats.delayed += 1
                    obs.add("resilience.chaos.delays")
                    obs.observe("resilience.delay_seconds", decision.delay_s)
                if decision is not None and decision.outcome == "corrupt":
                    stats.corrupted += 1
                    obs.add("resilience.chaos.corruptions")
                    if corrupt is not None:
                        value = corrupt(value, decision.factor)
                stats.succeeded += 1
                return value
            if attempt + 1 < attempts:
                stats.retries += 1
                obs.add("resilience.retries")
                backoff = policy.backoff_s(instrument, tokens, attempt)
                stats.backoff_s += backoff
                obs.observe("resilience.backoff_seconds", backoff)
        stats.lost += 1
        obs.add("resilience.losses")
        raise SampleLost(instrument, tokens, attempts)


#: The enabled backend; ``None`` means "off" (the zero-overhead default).
_context: ResilienceContext | None = None


def enable(
    policy: RetryPolicy | None = None, chaos: ChaosSchedule | None = None
) -> ResilienceContext:
    """Turn the resilience layer on and return its context."""
    global _context
    _context = ResilienceContext(policy=policy or RetryPolicy(), chaos=chaos)
    return _context


def disable() -> None:
    """Back to the pass-through backend."""
    global _context
    _context = None


@contextmanager
def enabled(
    policy: RetryPolicy | None = None, chaos: ChaosSchedule | None = None
) -> Iterator[ResilienceContext]:
    """Enable the layer for a ``with`` block, then restore what was active."""
    global _context
    prev = _context
    ctx = enable(policy, chaos)
    try:
        yield ctx
    finally:
        _context = prev


def active() -> bool:
    """True while a resilience context is enabled."""
    return _context is not None


def get_context() -> ResilienceContext | None:
    """The enabled context, or ``None``."""
    return _context


def call(
    instrument: str,
    tokens: tuple[str, ...],
    fn: Callable[[], Any],
    corrupt: Callable[[Any, float], Any] | None = None,
) -> Any:
    """Route one instrument read through the resilience layer.

    With no context enabled this is a direct ``fn()`` call — the hot path
    the overhead gate pins.  ``fn`` must be idempotent: retries re-invoke
    it and expect the same underlying value.
    """
    ctx = _context
    if ctx is None:
        return fn()
    return ctx.call(instrument, tokens, fn, corrupt)


def value_token(value: float) -> str:
    """A stable identity token derived from a reading's own value.

    Simulated runs carry no global sample counter, so repeated readings of
    the same ``(program, config)`` point are distinguished by the value
    their run produced — deterministic across processes, distinct across
    run indices (run-to-run noise makes values differ).
    """
    return f"v={value:.17g}"
