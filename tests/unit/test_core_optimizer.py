"""Deadline / budget configuration queries."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.optimizer import (
    knee_point,
    max_ucr,
    min_energy_within_deadline,
    min_time_within_budget,
)
from repro.machines.xeon import xeon_cluster


@pytest.fixture(scope="module")
def evaluation(xeon_sp_model):
    return evaluate_space(xeon_sp_model, ConfigSpace.physical(xeon_cluster()))


def test_deadline_query_minimizes_energy(evaluation):
    deadline = float(sorted(evaluation.times_s)[len(evaluation) // 2])
    index = min_energy_within_deadline(evaluation, deadline)
    assert index is not None
    best = evaluation.prediction(index)
    assert best.time_s <= deadline
    for p in evaluation.predictions:
        if p.time_s <= deadline:
            assert best.energy_j <= p.energy_j


def test_budget_query_minimizes_time(evaluation):
    budget = float(sorted(evaluation.energies_j)[len(evaluation) // 2])
    index = min_time_within_budget(evaluation, budget)
    assert index is not None
    best = evaluation.prediction(index)
    assert best.energy_j <= budget
    for p in evaluation.predictions:
        if p.energy_j <= budget:
            assert best.time_s <= p.time_s


def test_infeasible_deadline_returns_none(evaluation):
    assert min_energy_within_deadline(evaluation, 1e-6) is None


def test_infeasible_budget_returns_none(evaluation):
    assert min_time_within_budget(evaluation, 1e-6) is None


def test_relaxing_deadline_never_increases_energy(evaluation):
    """The core Pareto property behind Figs. 8-9."""
    deadlines = sorted(evaluation.times_s)
    energies = []
    for d in deadlines:
        best = min_energy_within_deadline(evaluation, float(d) + 1e-9)
        assert best is not None
        energies.append(evaluation.energies_j[best])
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))


def test_deadline_and_budget_queries_are_duals(evaluation):
    deadline = float(sorted(evaluation.times_s)[len(evaluation) // 3])
    by_deadline = min_energy_within_deadline(evaluation, deadline)
    assert by_deadline is not None
    by_budget = min_time_within_budget(
        evaluation, float(evaluation.energies_j[by_deadline]) + 1e-9
    )
    assert by_budget is not None
    assert evaluation.times_s[by_budget] <= deadline + 1e-9


def test_knee_point_is_member(evaluation):
    knee = knee_point(evaluation)
    assert isinstance(knee, int)
    assert evaluation.prediction(knee) in evaluation.predictions


def test_selectors_return_indices_with_first_index_ties():
    """Every selector is an ``np.argmin``: ties go to the first index."""
    tied = SimpleNamespace(
        times_s=np.array([2.0, 1.0, 1.0, 3.0]),
        energies_j=np.array([1.0, 5.0, 5.0, 1.0]),
        ucrs=np.array([0.5, 0.9, 0.9, 0.1]),
    )
    assert min_energy_within_deadline(tied, 10.0) == 0
    assert min_energy_within_deadline(tied, 1.5) == 1
    assert min_time_within_budget(tied, 10.0) == 1
    assert min_time_within_budget(tied, 1.0) == 0
    assert max_ucr(tied) == 1
    for index in (
        min_energy_within_deadline(tied, 10.0),
        min_time_within_budget(tied, 10.0),
        knee_point(tied),
        max_ucr(tied),
    ):
        assert type(index) is int


def test_max_ucr_matches_argmax(evaluation):
    assert max_ucr(evaluation) == int(np.argmax(evaluation.ucrs))
    assert evaluation.prediction(max_ucr(evaluation)).ucr == evaluation.ucrs.max()


def test_rejects_nonpositive_constraints(evaluation):
    with pytest.raises(ValueError):
        min_energy_within_deadline(evaluation, 0.0)
    with pytest.raises(ValueError):
        min_time_within_budget(evaluation, -1.0)
