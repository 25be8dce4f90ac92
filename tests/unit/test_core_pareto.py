"""Pareto frontier extraction."""

import numpy as np
import pytest

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.pareto import pareto_frontier, pareto_mask


class TestParetoMask:
    def test_simple_frontier(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        energies = np.array([4.0, 3.0, 2.0, 1.0])
        assert pareto_mask(times, energies).all()

    def test_dominated_point_excluded(self):
        times = np.array([1.0, 2.0, 3.0])
        energies = np.array([1.0, 2.0, 3.0])
        mask = pareto_mask(times, energies)
        assert mask.tolist() == [True, False, False]

    def test_tie_in_time_keeps_lowest_energy(self):
        times = np.array([1.0, 1.0, 2.0])
        energies = np.array([5.0, 3.0, 1.0])
        mask = pareto_mask(times, energies)
        assert mask.tolist() == [False, True, True]

    def test_duplicate_points_keep_one(self):
        times = np.array([1.0, 1.0])
        energies = np.array([2.0, 2.0])
        assert pareto_mask(times, energies).sum() == 1

    def test_no_kept_point_dominated(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(1, 10, 200)
        energies = rng.uniform(1, 10, 200)
        mask = pareto_mask(times, energies)
        kept_t, kept_e = times[mask], energies[mask]
        for i in range(kept_t.size):
            dominated = (
                (times <= kept_t[i]) & (energies <= kept_e[i])
                & ((times < kept_t[i]) | (energies < kept_e[i]))
            )
            assert not dominated.any()

    def test_every_excluded_point_dominated(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(1, 10, 200)
        energies = rng.uniform(1, 10, 200)
        mask = pareto_mask(times, energies)
        for i in np.where(~mask)[0]:
            dominates = (times <= times[i]) & (energies <= energies[i]) & (
                (times < times[i]) | (energies < energies[i]) | (np.arange(200) != i)
            )
            assert dominates.any()

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pareto_mask(np.zeros(3), np.zeros(4))


class TestParetoFrontier:
    def test_frontier_sorted_and_monotone(self, xeon_sp_model):
        ev = evaluate_space(
            xeon_sp_model, ConfigSpace.physical(xeon_sp_model_spec(xeon_sp_model))
        )
        frontier = pareto_frontier(ev)
        assert len(frontier) >= 2
        times = [p.time_s for p in frontier]
        energies = [p.energy_j for p in frontier]
        assert times == sorted(times)
        assert energies == sorted(energies, reverse=True)

    def test_frontier_members_are_predictions(self, xeon_sp_model):
        ev = evaluate_space(
            xeon_sp_model, ConfigSpace.physical(xeon_sp_model_spec(xeon_sp_model))
        )
        frontier = pareto_frontier(ev)
        for point in frontier:
            assert point.label.startswith("(")
            assert 0 < point.ucr < 1


def xeon_sp_model_spec(model):
    from repro.machines.xeon import xeon_cluster

    return xeon_cluster()


@pytest.mark.parametrize("block_configs", [1, 7, 64, 10_000])
def test_streamed_frontier_equals_materialized(xeon_sp_model, block_configs):
    """``pareto_frontier_streamed`` returns the materialized frontier:
    same labels in the same order, bit-identical time and energy."""
    from repro.core.pareto import pareto_frontier_streamed
    from repro.core.planner import WORKING_BYTES_PER_CONFIG
    from repro.machines.xeon import xeon_cluster

    space = ConfigSpace.xeon_pareto(xeon_cluster())
    want = pareto_frontier(evaluate_space(xeon_sp_model, space))
    got = pareto_frontier_streamed(
        xeon_sp_model,
        space,
        max_block_bytes=block_configs * WORKING_BYTES_PER_CONFIG,
    )
    assert [p.label for p in got] == [p.label for p in want]
    assert [p.time_s for p in got] == [p.time_s for p in want]
    assert [p.energy_j for p in got] == [p.energy_j for p in want]
