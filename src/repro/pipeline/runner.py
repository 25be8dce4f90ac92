"""Pipeline execution and staleness inspection.

:func:`run_pipeline` walks the DAG in topological order, computes every
selected stage's content fingerprint from live input files + params +
upstream output digests, and executes **only** stages whose fingerprint
has no entry in the artifact store.  Stages run one at a time on the
caller's thread, so each one sees the caller's
:class:`~repro.core.planner.PlannerConfig` (the disk cache and streaming
budget the global CLI flags install).

:func:`pipeline_status` answers "what would run, and why" without
executing anything: per stage it reports ``fresh`` / ``stale`` /
``missing`` and, for stale stages, the concrete reasons (which input
file changed, which param changed, which upstream artifact changed)
derived by diffing the current identity against the stage's last
recorded execution.

Resume is at stage grain: every executed stage's outputs land in the
content-addressed store as soon as it succeeds, so a crashed or
interrupted run resumes at the first stage missing from the store.  A
stage gets no checkpoint directory; long standalone campaigns keep
per-point resume through ``repro characterize --checkpoint`` and
:func:`repro.workflow.recommend`'s ``checkpoint_dir``.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import obs
from repro.pipeline.dag import Pipeline, PipelineError
from repro.pipeline.fingerprint import identity_digest, stage_identity
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.store import ArtifactStore, StoreEntry


@dataclass(frozen=True)
class StageReport:
    """What happened to one stage during a run."""

    name: str
    action: str  # "executed" | "cached"
    fingerprint: str
    seconds: float
    output_digests: Mapping[str, str]


@dataclass(frozen=True)
class PipelineRun:
    """The outcome of one :func:`run_pipeline` invocation."""

    reports: tuple[StageReport, ...]
    artifacts: Mapping[str, Any]

    @property
    def executed(self) -> tuple[str, ...]:
        """Names of stages that actually ran, in topological order."""
        return tuple(r.name for r in self.reports if r.action == "executed")

    @property
    def cached(self) -> tuple[str, ...]:
        """Names of stages served from the store, in topological order."""
        return tuple(r.name for r in self.reports if r.action == "cached")


@dataclass(frozen=True)
class StageStatus:
    """One stage's freshness verdict from :func:`pipeline_status`."""

    name: str
    state: str  # "fresh" | "stale" | "missing"
    reasons: tuple[str, ...] = ()
    fingerprint: str | None = None


def _execute_stage(
    stage: Stage,
    identity: dict[str, Any],
    fingerprint: str,
    store: ArtifactStore,
    workspace: pathlib.Path,
    artifacts: Mapping[str, Any],
) -> tuple[StoreEntry, float]:
    """Run one stage's callable and persist its outputs."""
    context = StageContext(
        stage=stage,
        workspace_path=workspace / stage.name,
        artifacts=dict(artifacts),
    )
    started = time.perf_counter()
    with obs.span("pipeline_stage", stage=stage.name, fingerprint=fingerprint):
        outputs = stage.run(context)
    elapsed = time.perf_counter() - started
    if set(outputs) != set(stage.outputs):
        raise PipelineError(
            f"stage {stage.name!r} returned outputs {sorted(outputs)}, "
            f"declared {sorted(stage.outputs)}"
        )
    entry = store.put(identity, outputs)
    store.record_latest(stage.name, identity)
    return entry, elapsed


def run_pipeline(
    pipeline: Pipeline,
    store: ArtifactStore,
    stages: Iterable[str] | None = None,
    force: bool = False,
) -> PipelineRun:
    """Execute ``pipeline`` incrementally against ``store``.

    ``stages`` selects a subset (plus its transitive dependencies —
    fresh ancestors are served from the store, not re-run); ``None``
    runs everything.  Stages run in topological order on the caller's
    thread.  ``force`` re-executes every selected stage even when its
    entry exists (the new outputs still land at the same fingerprints,
    so an unchanged pipeline stays bit-identical).

    Returns a :class:`PipelineRun` with per-stage reports in topological
    order and the payloads of every selected stage's artifacts.
    """
    selected = pipeline.closure(stages)
    workspace = store.directory / "workspace"

    entries: dict[str, StoreEntry] = {}
    reports: list[StageReport] = []
    artifacts: dict[str, Any] = {}

    with obs.span("pipeline_run", stages=len(selected), force=force):
        obs.add("pipeline.runs")
        for name in pipeline.order:
            if name not in selected:
                continue
            stage = pipeline.stage(name)
            upstream: dict[str, str] = {}
            visible: dict[str, Any] = {}
            for dep in stage.deps:
                dep_entry = entries[dep]
                upstream.update(dep_entry.output_digests)
                visible.update(dep_entry.outputs)
            identity = stage_identity(stage, upstream)
            fingerprint = identity_digest(identity)
            entry = None if force else store.get(identity)
            if entry is not None:
                # a warm rerun writes nothing: rename only a moved pointer
                if store.latest_identity(stage.name) != identity:
                    store.record_latest(stage.name, identity)
                obs.add("pipeline.stage_runs.cached")
                action, elapsed = "cached", 0.0
            else:
                obs.add("pipeline.stage_runs.executed")
                entry, elapsed = _execute_stage(
                    stage, identity, fingerprint, store, workspace, visible
                )
                obs.observe("pipeline.stage_seconds", elapsed)
                action = "executed"
            entries[stage.name] = entry
            artifacts.update(entry.outputs)
            reports.append(
                StageReport(
                    name=stage.name,
                    action=action,
                    fingerprint=fingerprint,
                    seconds=elapsed,
                    output_digests=entry.output_digests,
                )
            )

    return PipelineRun(reports=tuple(reports), artifacts=artifacts)


def _diff_reasons(
    current: Mapping[str, Any], previous: Mapping[str, Any]
) -> list[str]:
    """Human-readable differences between two identity documents."""
    reasons: list[str] = []
    cur_inputs = current.get("inputs", {})
    prev_inputs = previous.get("inputs", {})
    for path in sorted(set(cur_inputs) | set(prev_inputs)):
        if cur_inputs.get(path) != prev_inputs.get(path):
            reasons.append(f"input changed: {path}")
    cur_params = current.get("params", {})
    prev_params = previous.get("params", {})
    for key in sorted(set(cur_params) | set(prev_params)):
        if cur_params.get(key) != prev_params.get(key):
            reasons.append(f"param changed: {key}")
    cur_up = current.get("upstream", {})
    prev_up = previous.get("upstream", {})
    for name in sorted(set(cur_up) | set(prev_up)):
        if cur_up.get(name) != prev_up.get(name):
            reasons.append(f"upstream artifact changed: {name}")
    for key in ("outputs", "format_version"):
        if current.get(key) != previous.get(key):
            reasons.append(f"stage definition changed: {key}")
    return reasons


def pipeline_status(
    pipeline: Pipeline,
    store: ArtifactStore,
    stages: Iterable[str] | None = None,
) -> tuple[StageStatus, ...]:
    """Per-stage freshness of ``pipeline`` against ``store``, read-only.

    A stage is ``fresh`` when its current fingerprint has a store entry,
    ``stale`` when it (or an upstream) must re-run, and ``missing`` when
    it has never executed or its entry was evicted.  Stale verdicts
    carry concrete reasons diffed against the stage's last recorded
    execution.  Stages downstream of a non-fresh stage cannot have their
    fingerprint computed (upstream output digests are unknown) and
    report ``stale`` with the blocking upstream named.
    """
    selected = pipeline.closure(stages)
    statuses: list[StageStatus] = []
    digests: dict[str, Mapping[str, str]] = {}  # fresh stages only
    verdicts: dict[str, str] = {}

    for name in pipeline.order:
        if name not in selected:
            continue
        stage = pipeline.stage(name)
        blocking = [
            d for d in stage.deps if verdicts.get(d) in ("stale", "missing")
        ]
        if blocking:
            verdicts[name] = "stale"
            statuses.append(
                StageStatus(
                    name=name,
                    state="stale",
                    reasons=tuple(
                        f"upstream stage not fresh: {d}" for d in blocking
                    ),
                )
            )
            continue
        upstream: dict[str, str] = {}
        for dep in stage.deps:
            upstream.update(digests[dep])
        identity = stage_identity(stage, upstream)
        fingerprint = identity_digest(identity)
        entry = store.get(identity)
        if entry is not None:
            verdicts[name] = "fresh"
            digests[name] = entry.output_digests
            statuses.append(
                StageStatus(name=name, state="fresh", fingerprint=fingerprint)
            )
            continue
        previous = store.latest_identity(name)
        if previous is None:
            verdicts[name] = "missing"
            statuses.append(
                StageStatus(
                    name=name,
                    state="missing",
                    reasons=("never executed",),
                    fingerprint=fingerprint,
                )
            )
            continue
        reasons = _diff_reasons(identity, previous)
        if not reasons:
            verdicts[name] = "missing"
            statuses.append(
                StageStatus(
                    name=name,
                    state="missing",
                    reasons=("artifact entry missing from store",),
                    fingerprint=fingerprint,
                )
            )
            continue
        verdicts[name] = "stale"
        statuses.append(
            StageStatus(
                name=name,
                state="stale",
                reasons=tuple(reasons),
                fingerprint=fingerprint,
            )
        )
    return tuple(statuses)
