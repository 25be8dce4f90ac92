"""Deadline / budget search: the streamed query equals the index selectors.

``planner.stream_topk`` answers the paper's two queries in O(block)
memory; its top-1 row must be the row ``min_energy_within_deadline`` /
``min_time_within_budget`` select over the materialized arrays, at any
block size.
"""

import itertools

import numpy as np
import pytest

from repro.core import planner
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.optimizer import min_energy_within_deadline, min_time_within_budget
from repro.machines.xeon import xeon_cluster

#: One block per config, a few blocks, and one block for the whole space.
BLOCK_BYTES = [n * planner.WORKING_BYTES_PER_CONFIG for n in (1, 50, 10_000)]


@pytest.fixture(scope="module")
def space():
    return ConfigSpace.xeon_pareto(xeon_cluster())


@pytest.fixture(scope="module")
def exhaustive(xeon_sp_model, space):
    return evaluate_space(xeon_sp_model, space)


class TestDeadlineSearch:
    def test_matches_exhaustive_across_deadlines(
        self, xeon_sp_model, space, exhaustive
    ):
        times = np.sort(exhaustive.times_s)
        deadlines = (times[0] * 1.01, float(np.median(times)), times[-1])
        for deadline, block_bytes in itertools.product(deadlines, BLOCK_BYTES):
            expected = min_energy_within_deadline(exhaustive, float(deadline))
            found = planner.stream_topk(
                xeon_sp_model,
                space,
                objective="min_energy",
                deadline_s=float(deadline),
                max_block_bytes=block_bytes,
            )
            assert expected is not None and found.best is not None
            assert found.indices.tolist() == [expected]
            assert found.best.config == exhaustive.prediction(expected).config
            assert found.best.energy_j == exhaustive.energies_j[expected]

    def test_infeasible_deadline(self, xeon_sp_model, space, exhaustive):
        assert min_energy_within_deadline(exhaustive, 1e-6) is None
        for block_bytes in BLOCK_BYTES:
            found = planner.stream_topk(
                xeon_sp_model,
                space,
                objective="min_energy",
                deadline_s=1e-6,
                max_block_bytes=block_bytes,
            )
            assert found.best is None
            assert len(found) == 0
            assert found.configs == len(space)

    def test_rejects_bad_deadline(self, exhaustive):
        with pytest.raises(ValueError):
            min_energy_within_deadline(exhaustive, 0.0)


class TestBudgetSearch:
    def test_matches_exhaustive_across_budgets(
        self, xeon_sp_model, space, exhaustive
    ):
        energies = np.sort(exhaustive.energies_j)
        budgets = (energies[0] * 1.01, float(np.median(energies)), energies[-1])
        for budget, block_bytes in itertools.product(budgets, BLOCK_BYTES):
            expected = min_time_within_budget(exhaustive, float(budget))
            found = planner.stream_topk(
                xeon_sp_model,
                space,
                objective="min_time",
                budget_j=float(budget),
                max_block_bytes=block_bytes,
            )
            assert expected is not None and found.best is not None
            assert found.indices.tolist() == [expected]
            assert found.best.config == exhaustive.prediction(expected).config
            assert found.best.time_s == exhaustive.times_s[expected]

    def test_infeasible_budget(self, xeon_sp_model, space, exhaustive):
        assert min_time_within_budget(exhaustive, 1e-6) is None
        for block_bytes in BLOCK_BYTES:
            found = planner.stream_topk(
                xeon_sp_model,
                space,
                objective="min_time",
                budget_j=1e-6,
                max_block_bytes=block_bytes,
            )
            assert found.best is None
            assert len(found) == 0
            assert found.configs == len(space)

    def test_rejects_bad_budget(self, exhaustive):
        with pytest.raises(ValueError):
            min_time_within_budget(exhaustive, -1.0)
