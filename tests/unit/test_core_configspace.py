"""Configuration-space enumeration and evaluation."""

import pytest

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.machines.arm import arm_cluster
from repro.machines.xeon import xeon_cluster
from tests.conftest import config


class TestConfigSpace:
    def test_paper_space_sizes(self):
        """216 Xeon (Fig. 8) and 400 ARM (Fig. 9) configurations."""
        assert len(ConfigSpace.xeon_pareto(xeon_cluster())) == 216
        assert len(ConfigSpace.arm_pareto(arm_cluster())) == 400

    def test_validation_spaces(self):
        assert len(ConfigSpace.validation(xeon_cluster())) == 96
        assert len(ConfigSpace.validation(arm_cluster())) == 80

    def test_physical_space(self):
        space = ConfigSpace.physical(xeon_cluster())
        assert len(space) == 8 * 8 * 3
        configs = list(space)
        assert len(configs) == len(space)
        assert all(c.nodes <= 8 for c in configs)

    @pytest.mark.parametrize(
        "axes",
        [
            ((), (1,), (1e9,)),
            ((1,), (), (1e9,)),
            ((1,), (1,), ()),
            ((), (), ()),
        ],
    )
    def test_rejects_empty_axis(self, axes):
        nodes, cores, freqs = axes
        with pytest.raises(ValueError):
            ConfigSpace(
                node_counts=nodes, core_counts=cores, frequencies_hz=freqs
            )

    def test_single_point_space(self):
        space = ConfigSpace((4,), (8,), (1.8e9,))
        assert len(space) == 1
        (only,) = list(space)
        assert (only.nodes, only.cores, only.frequency_hz) == (4, 8, 1.8e9)

    def test_iteration_order_is_cartesian(self):
        space = ConfigSpace((1, 2), (1,), (1e9, 2e9))
        labels = [c.label() for c in space]
        assert labels == ["(1,1,1)", "(1,1,2)", "(2,1,1)", "(2,1,2)"]


class TestEvaluateSpace:
    def test_arrays_aligned(self, xeon_sp_model):
        space = ConfigSpace((1, 2), (1, 8), (1.2e9, 1.8e9))
        ev = evaluate_space(xeon_sp_model, space)
        assert len(ev) == 8
        assert ev.times_s.shape == (8,)
        assert ev.energies_j.shape == (8,)
        assert ev.ucrs.shape == (8,)
        assert len(ev.labels) == 8
        assert all(t > 0 for t in ev.times_s)

    def test_accepts_explicit_config_list(self, xeon_sp_model):
        ev = evaluate_space(xeon_sp_model, [config(1, 1, 1.2), config(2, 4, 1.5)])
        assert len(ev) == 2
        assert ev.labels == ["(1,1,1.2)", "(2,4,1.5)"]

    def test_single_point_space_evaluates(self, xeon_sp_model):
        ev = evaluate_space(xeon_sp_model, ConfigSpace((1,), (8,), (1.8e9,)))
        assert len(ev) == 1
        expected = xeon_sp_model.predict(config(1, 8, 1.8))
        assert float(ev.times_s[0]) == expected.time_s
        assert float(ev.energies_j[0]) == expected.energy_j

    def test_routes_through_vectorized_engine(self, xeon_sp_model):
        ev = evaluate_space(xeon_sp_model, ConfigSpace((1, 2), (8,), (1.8e9,)))
        assert ev.vectorized is not None
        assert len(ev.vectorized) == len(ev)

    def test_predictions_are_built_on_demand(self, xeon_sp_model):
        """Selecting over the arrays builds no Prediction tuple; one row
        is built on request and equals the tuple's row."""
        from repro.core.optimizer import min_energy_within_deadline
        from repro.core.vectorized import clear_evaluation_cache

        clear_evaluation_cache()
        ev = evaluate_space(xeon_sp_model, ConfigSpace((1, 2, 4), (4, 8), (1.8e9,)))
        best = min_energy_within_deadline(ev, float(ev.times_s.max()))
        assert best is not None
        assert "predictions" not in vars(ev.vectorized)
        one = ev.prediction(best)
        assert "predictions" not in vars(ev.vectorized)
        assert one == ev.predictions[best]
        assert one.time_s == float(ev.times_s[best])
        assert one.energy_j == float(ev.energies_j[best])
        assert one.config.label() == ev.labels[best]
