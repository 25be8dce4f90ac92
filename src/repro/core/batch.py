"""Batch planning: energy-minimal configurations for a queue of jobs.

The paper's deadline framing comes from shared-cluster reality ("their
execution times are constrained due to sharing of cluster resources",
§I footnote).  This module closes that loop: given a queue of jobs —
each a (program, input class, deadline) — and the cluster's node count,
plan per-job configurations and a schedule that

* meets every deadline (wall-clock, from submission at t = 0),
* never over-subscribes the cluster's nodes,
* and spends as little total energy as the greedy planner can find.

The planner is deliberately simple and fully deterministic: jobs are
taken in EDF order (earliest deadline first); each job picks the
minimum-energy configuration that still meets its deadline given the
machine time already committed, preferring fewer nodes on ties so jobs
can run side by side.  It is a planning heuristic, not an optimal solver
— the tests pin its *guarantees* (feasibility, capacity) rather than
optimality.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cache import ResultCache
from repro.core.configspace import ConfigSpace, SpaceEvaluation, evaluate_space
from repro.core.model import HybridProgramModel, Prediction
from repro.core.planner import evaluate_blocks


@dataclass(frozen=True)
class Job:
    """One queue entry."""

    name: str
    model: HybridProgramModel
    deadline_s: float
    class_name: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"job {self.name!r} needs a positive deadline")


@dataclass(frozen=True)
class PlacedJob:
    """A planned job: its configuration and time window."""

    job: Job
    prediction: Prediction
    start_s: float

    @property
    def end_s(self) -> float:
        """Completion time."""
        return self.start_s + self.prediction.time_s

    @property
    def meets_deadline(self) -> bool:
        """True when the window respects the job's deadline."""
        return self.end_s <= self.job.deadline_s + 1e-9


@dataclass(frozen=True)
class BatchPlan:
    """The planner's output."""

    placements: tuple[PlacedJob, ...]
    total_nodes: int

    @property
    def total_energy_j(self) -> float:
        """Summed predicted energy of all jobs."""
        return sum(p.prediction.energy_j for p in self.placements)

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job."""
        return max((p.end_s for p in self.placements), default=0.0)

    @property
    def feasible(self) -> bool:
        """True when every job meets its deadline."""
        return all(p.meets_deadline for p in self.placements)


def _earliest_start(
    placements: list[PlacedJob], nodes_needed: int, total_nodes: int, runtime: float
) -> float:
    """Earliest time at which ``nodes_needed`` nodes are free for
    ``runtime`` seconds, given committed placements.

    Scans event times (starts/ends) as candidate start points and checks
    peak concurrent usage over the candidate window.
    """
    candidates = sorted({0.0, *(p.end_s for p in placements)})
    for t0 in candidates:
        window_end = t0 + runtime
        peak = nodes_needed
        ok = True
        for p in placements:
            if p.start_s < window_end and p.end_s > t0:
                peak += p.prediction.config.nodes
                if peak > total_nodes:
                    ok = False
                    break
        if ok:
            return t0
    # after everything drains
    return max((p.end_s for p in placements), default=0.0)


def plan_batch(
    jobs: Sequence[Job],
    total_nodes: int,
    checkpoint_dir: str | pathlib.Path | None = None,
) -> BatchPlan:
    """Plan a queue of jobs (EDF + min-energy configuration per job).

    With ``checkpoint_dir``, every job's configuration-space evaluation is
    checkpointed into that one disk-cache directory, block by block.
    Entries are keyed on their content (model, sub-space, class), so jobs
    share the directory, and an interrupted planning run resumes without
    re-evaluating the blocks already stored.

    Raises :class:`ValueError` when some job cannot meet its deadline even
    with the whole machine to itself.
    """
    if total_nodes < 1:
        raise ValueError("the cluster needs at least one node")
    if not obs.active():
        return _plan(jobs, total_nodes, checkpoint_dir)
    with obs.span("batch_plan", jobs=len(jobs), total_nodes=total_nodes) as sp:
        plan = _plan(jobs, total_nodes, checkpoint_dir)
        sp.set(
            makespan_s=plan.makespan_s, total_energy_j=plan.total_energy_j
        )
    if obs.metrics_enabled():
        obs.add("batch.jobs_planned", len(plan.placements))
    return plan


def _plan(
    jobs: Sequence[Job],
    total_nodes: int,
    checkpoint_dir: str | pathlib.Path | None = None,
) -> BatchPlan:
    ordered = sorted(jobs, key=lambda j: j.deadline_s)
    placements: list[PlacedJob] = []
    for job in ordered:
        spec_nodes = min(total_nodes, 8)  # model spaces top out at the spec
        space = ConfigSpace(
            node_counts=tuple(range(1, spec_nodes + 1)),
            core_counts=tuple(range(1, _cores_of(job.model) + 1)),
            frequencies_hz=_frequencies_of(job.model),
        )
        if checkpoint_dir is not None:
            vec, _blocks = evaluate_blocks(
                job.model, space, job.class_name, ResultCache(checkpoint_dir)
            )
            evaluation = SpaceEvaluation(vectorized=vec)
        else:
            # vectorized + LRU-cached: a queue of same-model jobs evaluates
            # its space once and replans from the cached arrays
            evaluation = evaluate_space(job.model, space, job.class_name)
        best: PlacedJob | None = None
        for idx in np.argsort(evaluation.energies_j, kind="stable"):
            pred = evaluation.prediction(int(idx))
            start = _earliest_start(
                placements, pred.config.nodes, total_nodes, pred.time_s
            )
            candidate = PlacedJob(job=job, prediction=pred, start_s=start)
            if candidate.meets_deadline:
                best = candidate
                break
        if best is None:
            raise ValueError(
                f"job {job.name!r} cannot meet its {job.deadline_s}s deadline"
            )
        placements.append(best)
    return BatchPlan(placements=tuple(placements), total_nodes=total_nodes)


def _cores_of(model: HybridProgramModel) -> int:
    return max(key[0] for key in model.inputs.baseline)


def _frequencies_of(model: HybridProgramModel) -> tuple[float, ...]:
    return tuple(sorted({key[1] for key in model.inputs.baseline}))
