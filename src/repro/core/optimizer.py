"""Deadline / energy-budget configuration queries (paper §I, §V-A).

"These configurations either consume minimum energy for a given execution
time deadline, or execute in the minimum possible time for a given energy
budget" — the two primitive queries users of the approach ask, plus a
knee-point heuristic for users with neither constraint and the
highest-UCR pick of Figs. 10-11.

Every selector is an argmin over an evaluation's aligned arrays and
returns the winning row's index (``None`` when nothing is feasible);
ties go to the first index, like ``np.argmin``.  A caller that needs the
scalar-API view builds it with ``evaluation.prediction(i)``.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class ResultArrays(Protocol):
    """What a selector reads: aligned per-configuration result arrays.

    :class:`~repro.core.configspace.SpaceEvaluation`,
    :class:`~repro.core.vectorized.VectorizedEvaluation` and arrays
    joined across clusters all qualify.
    """

    @property
    def times_s(self) -> np.ndarray:
        """Predicted execution times."""

    @property
    def energies_j(self) -> np.ndarray:
        """Predicted energies."""

    @property
    def ucrs(self) -> np.ndarray:
        """Predicted UCR values."""


def min_energy_within_deadline(
    evaluation: ResultArrays, deadline_s: float
) -> int | None:
    """Index of the minimum-energy configuration meeting the deadline, or
    ``None``.

    The selected point is Pareto-optimal by construction.
    """
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    feasible = evaluation.times_s <= deadline_s
    if not feasible.any():
        return None
    return int(np.argmin(np.where(feasible, evaluation.energies_j, np.inf)))


def min_time_within_budget(
    evaluation: ResultArrays, budget_j: float
) -> int | None:
    """Index of the fastest configuration within the energy budget, or
    ``None``."""
    if budget_j <= 0:
        raise ValueError("energy budget must be positive")
    feasible = evaluation.energies_j <= budget_j
    if not feasible.any():
        return None
    return int(np.argmin(np.where(feasible, evaluation.times_s, np.inf)))


def knee_point(evaluation: ResultArrays) -> int:
    """Index of the frontier knee: minimum normalized Euclidean distance
    to the ideal.

    A convenience for users without explicit constraints: normalizes time
    and energy to [0, 1] over the space and picks the point closest to the
    (0, 0) ideal.
    """
    times = evaluation.times_s
    energies = evaluation.energies_j
    t_span = times.max() - times.min() or 1.0
    e_span = energies.max() - energies.min() or 1.0
    t_norm = (times - times.min()) / t_span
    e_norm = (energies - energies.min()) / e_span
    return int(np.argmin(np.hypot(t_norm, e_norm)))


def max_ucr(evaluation: ResultArrays) -> int:
    """Index of the highest-UCR configuration (first on ties, like
    ``np.argmax``)."""
    return int(np.argmax(evaluation.ucrs))
