"""Energy metrics and batch planning."""

import pytest

from repro.core.batch import Job, plan_batch
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.metrics import (
    ed2p,
    edp,
    edp_optimal,
    relative_efficiency,
    throughput_per_watt,
)
from repro.core.pareto import pareto_mask
from repro.machines.xeon import xeon_cluster
from tests.conftest import config


@pytest.fixture(scope="module")
def evaluation(xeon_sp_model):
    return evaluate_space(xeon_sp_model, ConfigSpace.physical(xeon_cluster()))


class TestMetrics:
    def test_edp_and_ed2p_values(self, xeon_sp_model):
        pred = xeon_sp_model.predict(config(2, 4, 1.5))
        assert edp(pred) == pytest.approx(pred.energy_j * pred.time_s)
        assert ed2p(pred) == pytest.approx(pred.energy_j * pred.time_s**2)

    def test_edp_optimum_on_frontier(self, evaluation):
        on_frontier = pareto_mask(evaluation.times_s, evaluation.energies_j)
        for weight in (1, 2):
            best = edp_optimal(evaluation, weight=weight)
            assert on_frontier[best]

    def test_ed2p_prefers_speed(self, evaluation):
        """Weighting delay harder never picks a slower configuration."""
        times = evaluation.times_s
        assert times[edp_optimal(evaluation, 2)] <= times[edp_optimal(evaluation, 1)]

    def test_relative_efficiency_bounded(self, evaluation):
        best = evaluation.prediction(edp_optimal(evaluation))
        assert relative_efficiency(evaluation, best) == pytest.approx(1.0)
        for pred in evaluation.predictions[::20]:
            assert 0 < relative_efficiency(evaluation, pred) <= 1.0 + 1e-9

    def test_throughput_per_watt_positive(self, xeon_sp_model):
        pred = xeon_sp_model.predict(config(4, 8, 1.8))
        assert throughput_per_watt(xeon_sp_model, pred) > 0

    def test_rejects_bad_weight(self, evaluation):
        with pytest.raises(ValueError):
            edp_optimal(evaluation, weight=0)


class TestBatchPlanning:
    def make_jobs(self, model, deadlines):
        return [
            Job(name=f"job{i}", model=model, deadline_s=d)
            for i, d in enumerate(deadlines)
        ]

    def test_single_job_meets_deadline_min_energy(self, xeon_sp_model, evaluation):
        plan = plan_batch(self.make_jobs(xeon_sp_model, [60.0]), total_nodes=8)
        assert plan.feasible
        placed = plan.placements[0]
        # matches the plain deadline query
        from repro.core.optimizer import min_energy_within_deadline

        expected = min_energy_within_deadline(evaluation, 60.0)
        assert expected is not None
        assert placed.prediction.energy_j == pytest.approx(
            evaluation.energies_j[expected]
        )

    def test_capacity_never_exceeded(self, xeon_sp_model):
        plan = plan_batch(
            self.make_jobs(xeon_sp_model, [120.0, 120.0, 150.0]), total_nodes=8
        )
        assert plan.feasible
        # peak concurrent node usage at every start point
        for p in plan.placements:
            concurrent = sum(
                q.prediction.config.nodes
                for q in plan.placements
                if q.start_s < p.end_s and q.end_s > p.start_s
            )
            assert concurrent <= 8

    def test_tight_deadlines_force_parallel_configs(self, xeon_sp_model):
        plan = plan_batch(self.make_jobs(xeon_sp_model, [25.0]), total_nodes=8)
        assert plan.feasible
        assert plan.placements[0].prediction.config.nodes >= 2

    def test_infeasible_job_raises(self, xeon_sp_model):
        with pytest.raises(ValueError, match="cannot meet"):
            plan_batch(self.make_jobs(xeon_sp_model, [0.5]), total_nodes=8)

    def test_rejects_bad_inputs(self, xeon_sp_model):
        with pytest.raises(ValueError):
            plan_batch(self.make_jobs(xeon_sp_model, [60.0]), total_nodes=0)
        with pytest.raises(ValueError):
            Job(name="x", model=xeon_sp_model, deadline_s=0.0)

    def test_queueing_stacks_jobs_in_time(self, xeon_sp_model):
        """Two whole-machine-hungry jobs with generous deadlines run
        back-to-back, not concurrently."""
        plan = plan_batch(
            self.make_jobs(xeon_sp_model, [500.0, 500.0]), total_nodes=8
        )
        assert plan.feasible
        a, b = sorted(plan.placements, key=lambda p: p.start_s)
        if a.prediction.config.nodes + b.prediction.config.nodes > 8:
            assert b.start_s >= a.end_s - 1e-9
        assert plan.total_energy_j > 0
        assert plan.makespan_s >= max(p.prediction.time_s for p in plan.placements)

    def test_checkpoint_dir_resumes_without_recomputing(
        self, xeon_sp_model, tmp_path, monkeypatch
    ):
        from repro.core import vectorized

        jobs = self.make_jobs(xeon_sp_model, [120.0, 150.0])
        first = plan_batch(jobs, total_nodes=8, checkpoint_dir=tmp_path)
        # jobs of one model share the content-keyed block entries
        assert [p.name for p in tmp_path.iterdir()] == [
            p.name for p in tmp_path.glob("*.eval")
        ]
        calls = []
        compute = vectorized._compute

        def counted(*args, **kwargs):
            calls.append(args[1])
            return compute(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_compute", counted)
        vectorized.clear_evaluation_cache()  # no in-memory hits
        again = plan_batch(jobs, total_nodes=8, checkpoint_dir=tmp_path)
        assert calls == []
        assert again == first
