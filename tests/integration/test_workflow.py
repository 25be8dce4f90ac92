"""The one-call Fig. 2 workflow."""

import numpy as np
import pytest

from repro.workflow import recommend
from repro.workloads.npb import sp_program


@pytest.fixture(scope="module")
def deadline_rec(xeon_sim, xeon_sp_model):
    return recommend(
        xeon_sim, sp_program(), deadline_s=60.0, model=xeon_sp_model
    )


def test_deadline_recommendation_feasible_and_optimal(deadline_rec, xeon_sp_model):
    assert deadline_rec.choice.time_s <= 60.0
    # the choice is on the frontier
    assert deadline_rec.choice in [p.prediction for p in deadline_rec.frontier]


def test_explanation_components(deadline_rec):
    assert deadline_rec.decomposition.total_s == pytest.approx(
        deadline_rec.choice.time_s, rel=1e-9
    )
    assert deadline_rec.binding_resource in (
        "memory contention",
        "data dependency",
        "network",
        "none (compute-dominated)",
    )
    text = deadline_rec.summary()
    assert "run at" in text and "UCR" in text


def test_budget_recommendation(xeon_sim, xeon_sp_model):
    rec = recommend(
        xeon_sim, sp_program(), budget_j=6000.0, model=xeon_sp_model
    )
    assert rec.choice.energy_j <= 6000.0
    assert "budget" in rec.objective


def test_unconstrained_returns_knee(xeon_sim, xeon_sp_model):
    rec = recommend(xeon_sim, sp_program(), model=xeon_sp_model)
    assert "knee" in rec.objective
    times = np.array([p.time_s for p in rec.frontier])
    assert times.min() <= rec.choice.time_s <= times.max() * 1.01


def test_infeasible_deadline_raises(xeon_sim, xeon_sp_model):
    with pytest.raises(ValueError, match="deadline"):
        recommend(xeon_sim, sp_program(), deadline_s=1e-3, model=xeon_sp_model)


def test_jointly_infeasible_raises(xeon_sim, xeon_sp_model):
    with pytest.raises(ValueError, match="jointly infeasible"):
        recommend(
            xeon_sim,
            sp_program(),
            deadline_s=15.0,
            budget_j=1000.0,
            model=xeon_sp_model,
        )

def test_checkpoint_dir_resumes_without_recomputing(
    arm_sim, tmp_path, monkeypatch
):
    from repro.core import vectorized
    from repro.workloads.registry import get_program

    program = get_program("CP")
    first = recommend(arm_sim, program, checkpoint_dir=tmp_path)
    assert any(tmp_path.glob("*.json"))  # the baseline points
    assert any(tmp_path.glob("*.eval"))  # the sweep's blocks
    calls = []
    compute = vectorized._compute

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(vectorized, "_compute", counted)
    vectorized.clear_evaluation_cache()  # no in-memory hits
    again = recommend(arm_sim, program, checkpoint_dir=tmp_path)
    assert calls == []
    assert again == first
