"""Time-energy Pareto frontier extraction (paper §V-A).

A configuration is Pareto-optimal if no other configuration is both faster
and uses no more energy (equivalently: it consumes the minimum energy among
all configurations meeting some execution-time deadline).  The set of such
points over all deadlines is the time-energy Pareto frontier of Figs. 8-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.configspace import SpaceEvaluation
from repro.core.model import Prediction


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier member."""

    prediction: Prediction

    @property
    def time_s(self) -> float:
        """Predicted execution time."""
        return self.prediction.time_s

    @property
    def energy_j(self) -> float:
        """Predicted energy."""
        return self.prediction.energy_j

    @property
    def ucr(self) -> float:
        """Predicted UCR at this frontier point."""
        return self.prediction.ucr

    @property
    def label(self) -> str:
        """Paper-style (n,c,f) label."""
        return self.prediction.config.label()


def pareto_mask(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated (min-time, min-energy) points.

    O(m log m), fully vectorized: sort by time (ties by energy), then a
    point survives iff its energy strictly improves the running minimum —
    computed as a cumulative-minimum comparison.  Ties in time keep only
    the lowest energy; exact duplicates keep the first occurrence.
    """
    times = np.asarray(times, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    if times.shape != energies.shape or times.ndim != 1:
        raise ValueError("times and energies must be equal-length 1-D arrays")
    mask = np.zeros(times.shape, dtype=bool)
    if not times.size:
        return mask
    order = np.lexsort((energies, times))
    sorted_energies = energies[order]
    running_min = np.minimum.accumulate(sorted_energies)
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = sorted_energies[1:] < running_min[:-1]
    mask[order[keep]] = True
    return mask


def frontier_indices(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Row indices of the Pareto frontier, sorted by time.

    The :func:`pareto_mask` rows in index order, stably sorted by time —
    the order :func:`pareto_frontier` and the serve ``pareto`` endpoint
    report.
    """
    rows = np.flatnonzero(pareto_mask(times, energies))
    return rows[np.argsort(np.asarray(times)[rows], kind="stable")]


def pareto_frontier(evaluation: SpaceEvaluation) -> list[ParetoPoint]:
    """Extract the frontier from a space evaluation, sorted by time.

    Only the frontier rows are built as :class:`Prediction` objects.
    """
    if not obs.active():
        return _frontier(evaluation)
    with obs.span("pareto", points=len(evaluation.times_s)) as sp:
        points = _frontier(evaluation)
        sp.set(frontier=len(points))
    if obs.metrics_enabled():
        obs.add("pareto.candidates", len(evaluation.times_s))
        obs.add("pareto.frontier_points", len(points))
    return points


def _frontier(evaluation: SpaceEvaluation) -> list[ParetoPoint]:
    return [
        ParetoPoint(prediction=evaluation.prediction(int(i)))
        for i in frontier_indices(evaluation.times_s, evaluation.energies_j)
    ]


def pareto_frontier_streamed(
    model,
    space: object,
    class_name: str | None = None,
    *,
    max_block_bytes: int | None = None,
) -> list[ParetoPoint]:
    """Extract the frontier of a space too large to materialize.

    Runs :func:`repro.core.planner.stream_pareto` — a running-frontier
    reduction over block-streamed evaluation, O(frontier + block) memory
    — and returns the same :class:`ParetoPoint` list (sorted by time)
    that :func:`pareto_frontier` produces over the materialized space:
    frontier membership is exact, member values bit-identical.
    """
    from repro.core import planner

    kwargs = {} if max_block_bytes is None else {
        "max_block_bytes": max_block_bytes
    }
    selection = planner.stream_pareto(model, space, class_name, **kwargs)
    points = [
        ParetoPoint(prediction=p) for p in selection.evaluation.predictions
    ]
    return sorted(points, key=lambda pt: pt.time_s)
