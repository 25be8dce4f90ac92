"""Property tests: streamed top-1 selection == the index selectors, always."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import planner
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.optimizer import min_energy_within_deadline, min_time_within_budget

_SPACE = ConfigSpace(
    node_counts=(1, 2, 4, 8, 16, 32, 64),
    core_counts=(1, 2, 4, 8),
    frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
)

#: Small enough that every query folds several blocks.
_BLOCK_BYTES = 16 * planner.WORKING_BYTES_PER_CONFIG

_suppress = [HealthCheck.function_scoped_fixture]


@pytest.fixture(scope="module")
def evaluation(xeon_sp_model):
    return evaluate_space(xeon_sp_model, _SPACE)


def _streamed(model, **query):
    return planner.stream_topk(
        model, _SPACE, 1, max_block_bytes=_BLOCK_BYTES, **query
    )


def _assert_same_winner(selection, expected, evaluation):
    if expected is None:
        assert len(selection) == 0
        assert selection.best is None
    else:
        assert selection.indices.tolist() == [expected]
        want = evaluation.prediction(expected)
        assert selection.best.config == want.config
        assert selection.best.time_s == want.time_s
        assert selection.best.energy_j == want.energy_j


@given(fraction=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None, suppress_health_check=_suppress)
def test_deadline_search_equivalence(fraction, xeon_sp_model, evaluation):
    times = evaluation.times_s
    deadline = float(
        times.min() * 0.5 + fraction * (times.max() * 1.2 - times.min() * 0.5)
    )
    expected = min_energy_within_deadline(evaluation, deadline)
    found = _streamed(xeon_sp_model, objective="min_energy", deadline_s=deadline)
    _assert_same_winner(found, expected, evaluation)
    assert found.configs == len(_SPACE)


@given(fraction=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None, suppress_health_check=_suppress)
def test_budget_search_equivalence(fraction, xeon_sp_model, evaluation):
    energies = evaluation.energies_j
    budget = float(
        energies.min() * 0.5
        + fraction * (energies.max() * 1.2 - energies.min() * 0.5)
    )
    expected = min_time_within_budget(evaluation, budget)
    found = _streamed(xeon_sp_model, objective="min_time", budget_j=budget)
    _assert_same_winner(found, expected, evaluation)
    assert found.configs == len(_SPACE)


@given(fraction=st.floats(0.05, 1.0))
@settings(max_examples=20, deadline=None, suppress_health_check=_suppress)
def test_search_winner_is_feasible(fraction, xeon_sp_model, evaluation):
    deadline = float(np.quantile(evaluation.times_s, fraction))
    found = _streamed(xeon_sp_model, objective="min_energy", deadline_s=deadline)
    if found.best is not None:
        assert found.best.time_s <= deadline
