"""Resilient pipeline stages: checkpointed evaluation, degraded coverage.

Two pieces live here, both sitting *above* the measurement / model layers:

* :func:`evaluate_space_checkpointed` — the configuration-space sweep
  run through the planner's block pipeline, each block persisted as an
  entry of a :class:`~repro.core.cache.ResultCache` directory as it
  completes.  An interrupted sweep resumed from that directory is
  bit-identical to an uninterrupted one: every block is keyed on its own
  sub-space, each is computed by the same broadcast engine, and entries
  store the raw array bytes.

* the **coverage record** — when a chaos-afflicted campaign loses samples
  permanently, calibration proceeds on the surviving points (graceful
  degradation) and :func:`coverage_report` states exactly what survived.
  :meth:`CoverageReport.sigmas` turns that into inflated per-group input
  uncertainties for :func:`repro.analysis.uncertainty.propagate_uncertainty`:
  losing half an instrument's samples widens its groups' error bars by
  ``1/sqrt(coverage)`` (the standard-error argument), and corrupted-but-
  delivered samples widen them further in proportion to the corrupted
  fraction.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Mapping

from repro import obs
from repro import resilience
from repro.core import planner
from repro.core.configspace import SpaceEvaluation
from repro.core.model import HybridProgramModel
from repro.resilience import InstrumentStats, ResilienceContext
from repro.resilience.checkpoint import open_checkpoint


def evaluate_space_checkpointed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    checkpoint_path: str | pathlib.Path | None = None,
) -> SpaceEvaluation:
    """Evaluate a configuration space, persisting it block by block.

    Runs the planner's block pipeline under the active
    ``max_block_bytes`` budget (else the default) and assembles the
    blocks like :func:`~repro.core.planner.evaluate_space_streamed`, so
    the arrays equal :func:`repro.core.configspace.evaluate_space` bit
    for bit.  ``checkpoint_path`` names a disk-cache directory: every
    computed block is stored there as one entry, and a re-invocation
    reads the verified entries back and computes only the rest.  A torn
    or foreign entry is a miss and is recomputed.  Entries another
    budget cut are kept, not pruned: the directory may be shared across
    jobs, so only ``ResultCache.clear()`` reclaims them.  Raises
    :class:`~repro.resilience.checkpoint.CheckpointError` when a file
    (such as an old JSON ledger) sits at ``checkpoint_path``.
    """
    space = planner._materialize(space)
    if not len(space):
        raise ValueError("configuration space is empty")
    cache = None if checkpoint_path is None else open_checkpoint(checkpoint_path)
    with obs.span("evaluate_space_checkpointed", configs=len(space)) as sp:
        result, blocks = planner.evaluate_blocks(model, space, class_name, cache)
        sp.set(blocks=blocks, resumed=cache.hits if cache is not None else 0)
    return SpaceEvaluation(vectorized=result)


# ----------------------------------------------------------------------
# degraded-calibration coverage
# ----------------------------------------------------------------------

#: Which uncertainty input groups (see ``repro.analysis.sensitivity.
#: INPUT_GROUPS``) each instrument's samples calibrate.  Instruments
#: absent here (``timecmd``, ``wattsup``, ``powertrace``) feed validation
#: rather than calibration, so their losses do not widen model error bars.
INSTRUMENT_GROUPS: dict[str, tuple[str, ...]] = {
    "counters": (
        "work cycles (w_s)",
        "non-memory stalls (b_s)",
        "memory stalls (m_s)",
        "CPU utilization (U_s)",
    ),
    "mpip": ("message count (eta)", "comm volume"),
    "netpipe": ("network bandwidth (B)",),
    "powerbench": (
        "active power (P_act)",
        "stall power (P_stall)",
        "memory power (P_mem)",
        "network power (P_net)",
        "idle power (P_idle)",
    ),
}


@dataclass(frozen=True)
class InstrumentCoverage:
    """One instrument's survival record for a campaign."""

    instrument: str
    requested: int
    succeeded: int
    lost: int
    retries: int
    corrupted: int
    lost_units: tuple[str, ...] = ()

    @property
    def coverage(self) -> float:
        """Fraction of requested samples that survived."""
        if self.requested == 0:
            return 1.0
        return self.succeeded / self.requested

    @property
    def degraded(self) -> bool:
        """True when the calibration rests on imperfect data."""
        return self.lost > 0 or self.corrupted > 0

    def sigma_factor(self) -> float:
        """Multiplier on this instrument's input-group uncertainties.

        Standard-error inflation for lost samples (``1/sqrt(coverage)``)
        plus proportional widening for corrupted-but-delivered ones.
        """
        factor = 1.0
        if 0.0 < self.coverage < 1.0:
            factor /= math.sqrt(self.coverage)
        if self.succeeded > 0 and self.corrupted > 0:
            factor *= 1.0 + self.corrupted / self.succeeded
        return factor


@dataclass(frozen=True)
class CoverageReport:
    """Per-instrument survival of one measurement campaign."""

    instruments: tuple[InstrumentCoverage, ...]

    @property
    def degraded(self) -> bool:
        """True when any instrument lost or corrupted samples."""
        return any(c.degraded for c in self.instruments)

    def coverage_for(self, instrument: str) -> InstrumentCoverage | None:
        """The record for one instrument, or ``None`` if it never ran."""
        for c in self.instruments:
            if c.instrument == instrument:
                return c
        return None

    def sigmas(self) -> dict[str, float]:
        """Inflated per-group uncertainties for degraded instruments.

        Returns only the groups whose instrument degraded, scaled from
        :data:`repro.analysis.uncertainty.DEFAULT_SIGMAS` — pass the
        result straight to ``propagate_uncertainty(sigmas=...)``.
        """
        from repro.analysis.uncertainty import DEFAULT_SIGMAS

        inflated: dict[str, float] = {}
        for cov in self.instruments:
            factor = cov.sigma_factor()
            if factor <= 1.0:
                continue
            for group in INSTRUMENT_GROUPS.get(cov.instrument, ()):
                inflated[group] = DEFAULT_SIGMAS[group] * factor
        return inflated

    def summary_lines(self) -> list[str]:
        """Human-readable per-instrument coverage, degraded first."""
        lines = []
        ordered = sorted(
            self.instruments, key=lambda c: (not c.degraded, c.instrument)
        )
        for c in ordered:
            line = (
                f"{c.instrument}: {c.succeeded}/{c.requested} samples "
                f"({c.coverage:.0%} coverage)"
            )
            details = []
            if c.retries:
                details.append(f"{c.retries} retries")
            if c.corrupted:
                details.append(f"{c.corrupted} corrupted")
            if c.lost_units:
                details.append(f"lost: {', '.join(c.lost_units)}")
            if details:
                line += " — " + "; ".join(details)
            lines.append(line)
        return lines

    def to_dict(self) -> dict[str, dict[str, object]]:
        """JSON-serializable form (reports, traces)."""
        return {
            c.instrument: {
                "requested": c.requested,
                "succeeded": c.succeeded,
                "lost": c.lost,
                "retries": c.retries,
                "corrupted": c.corrupted,
                "coverage": c.coverage,
                "lost_units": list(c.lost_units),
            }
            for c in self.instruments
        }


def coverage_report(context: ResilienceContext | None) -> CoverageReport:
    """Build the coverage record of a campaign from its context.

    With no context (resilience disabled) the report is empty — and, by
    construction, not degraded.
    """
    if context is None:
        return CoverageReport(instruments=())
    stats: Mapping[str, InstrumentStats] = context.stats
    instruments = tuple(
        InstrumentCoverage(
            instrument=name,
            requested=s.requested,
            succeeded=s.succeeded,
            lost=s.lost,
            retries=s.retries,
            corrupted=s.corrupted,
            lost_units=tuple(context.lost_units.get(name, ())),
        )
        for name, s in sorted(stats.items())
    )
    return CoverageReport(instruments=instruments)


def characterize_resilient(
    cluster,
    program,
    class_name: str | None = None,
    repetitions: int = 3,
    comm_node_counts: tuple[int, ...] = (2, 4),
    baseline_checkpoint: str | pathlib.Path | None = None,
):
    """Characterize under the active resilience context, with coverage.

    Runs :func:`repro.core.inputs.characterize` (which degrades gracefully
    on lost samples when a context is enabled) and returns the resulting
    :class:`~repro.core.params.ModelInputs` together with the campaign's
    :class:`CoverageReport`.
    """
    from repro.core.inputs import characterize

    inputs = characterize(
        cluster,
        program,
        class_name=class_name,
        repetitions=repetitions,
        comm_node_counts=comm_node_counts,
        baseline_checkpoint=baseline_checkpoint,
    )
    return inputs, coverage_report(resilience.get_context())
