"""Differential harness: scalar model vs vectorized lanes vs simulator.

Three implementations of the paper's model must agree:

* ``HybridProgramModel.predict`` — the scalar reference path;
* ``evaluate_many`` — the vectorized engine the space sweeps run on
  (every lane must equal the scalar prediction at that configuration,
  including saturated/clamped network lanes);
* the simulator — ground truth the model was calibrated against,
  which must stay within validation-level tolerance of the predictions.

Configurations are drawn by hypothesis over (machine, workload, n, c, f),
including node counts far past the physical testbeds so the M/G/1
saturation clamp is exercised.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import evaluate_many
from repro.workloads.registry import get_program
from tests.conftest import config

#: Relative tolerance for scalar-vs-vectorized lane equality.  The lanes
#: run the same formulas over numpy arrays; they must agree to rounding.
LANE_RTOL = 1e-9

#: Node counts spanning physical (<= 8) through extrapolated territory
#: where the network queue saturates and the rho clamp engages.
NODE_COUNTS = [1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256]

#: Per-prediction scalar fields compared lane-by-lane.
_TIME_FIELDS = (
    "t_cpu_s",
    "t_mem_s",
    "t_net_service_s",
    "t_net_wait_s",
    "utilization_baseline",
    "rho_network",
)
_ENERGY_FIELDS = ("cpu_j", "mem_j", "net_j", "idle_j")


@pytest.fixture(params=["xeon_sp", "arm_cp"], scope="module")
def model(request, xeon_sp_model, arm_cp_model):
    """Both characterized session models, one per parametrization."""
    return {"xeon_sp": xeon_sp_model, "arm_cp": arm_cp_model}[request.param]


def _cores_of(m) -> list[int]:
    return sorted({key[0] for key in m.inputs.baseline})


def _frequencies_of(m) -> list[float]:
    return sorted({key[1] for key in m.inputs.baseline})


def _assert_lane_equals_scalar(model, cfg, rtol=LANE_RTOL):
    """The vectorized lane at ``cfg`` must reproduce the scalar path."""
    scalar = model.predict(cfg)
    vec = evaluate_many(model, (cfg,))
    assert len(vec) == 1
    t, e = scalar.time, scalar.energy
    for name in _TIME_FIELDS:
        assert float(getattr(vec, name)[0]) == pytest.approx(
            getattr(t, name), rel=rtol, abs=1e-12
        ), name
    for name in _ENERGY_FIELDS:
        assert float(getattr(vec, name)[0]) == pytest.approx(
            getattr(e, name), rel=rtol, abs=1e-12
        ), name
    assert bool(vec.saturated[0]) == t.saturated
    assert float(vec.times_s[0]) == pytest.approx(scalar.time_s, rel=rtol)
    assert float(vec.energies_j[0]) == pytest.approx(scalar.energy_j, rel=rtol)
    assert float(vec.ucrs[0]) == pytest.approx(scalar.ucr, rel=rtol)
    # the materialized Prediction must round-trip the lane exactly
    lane_pred = vec.prediction(0)
    assert lane_pred.config == cfg
    assert lane_pred.time_s == pytest.approx(scalar.time_s, rel=rtol)
    return scalar


class TestScalarVsVectorized:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_lane_matches_scalar_prediction(self, model, data):
        n = data.draw(st.sampled_from(NODE_COUNTS), label="nodes")
        c = data.draw(st.sampled_from(_cores_of(model)), label="cores")
        f = data.draw(st.sampled_from(_frequencies_of(model)), label="f_hz")
        _assert_lane_equals_scalar(model, config(n, c, f / 1e9))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_lanes_align_with_per_config_scalars(self, model, data):
        cores = _cores_of(model)
        freqs = _frequencies_of(model)
        configs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(NODE_COUNTS),
                    st.sampled_from(cores),
                    st.sampled_from(freqs),
                ),
                min_size=1,
                max_size=12,
            ),
            label="configs",
        )
        batch = tuple(config(n, c, f / 1e9) for n, c, f in configs)
        vec = evaluate_many(model, batch)
        for i, cfg in enumerate(batch):
            scalar = model.predict(cfg)
            assert float(vec.times_s[i]) == pytest.approx(
                scalar.time_s, rel=LANE_RTOL
            )
            assert float(vec.energies_j[i]) == pytest.approx(
                scalar.energy_j, rel=LANE_RTOL
            )
            assert bool(vec.saturated[i]) == scalar.time.saturated

    def test_saturated_lanes_are_exercised_and_agree(self, model):
        """Choking the network bandwidth clamps the M/G/1 queue, and the
        clamped (extrapolated) lanes must still match the scalar path.

        The characterized testbeds never saturate on their own (peak rho
        stays well under RHO_MAX even at 256 nodes), so the differential
        check reaches the clamp through a what-if bandwidth derating —
        the same mechanism ``repro.core.whatif`` exposes to users."""
        from repro.core.whatif import WhatIf

        choked = WhatIf(model).network_bandwidth(1e-4)
        cores = max(_cores_of(model))
        f = max(_frequencies_of(model))
        saturated_seen = False
        for n in NODE_COUNTS:
            scalar = _assert_lane_equals_scalar(choked, config(n, cores, f / 1e9))
            saturated_seen = saturated_seen or scalar.time.saturated
        assert saturated_seen, "no node count saturated the network queue"

    def test_unsaturated_lanes_exist_too(self, model):
        scalar = model.predict(config(1, 1, _frequencies_of(model)[0] / 1e9))
        assert not scalar.time.saturated


class TestDegradedCalibrationDifferential:
    """The scalar/vectorized agreement must survive degraded calibration:
    a model built from a lossy campaign is still one consistent model."""

    @pytest.fixture(scope="class")
    def degraded_model(self, arm_sim):
        from repro import resilience
        from repro.core.model import HybridProgramModel
        from repro.resilience.pipeline import characterize_resilient
        from repro.workloads.registry import get_program

        # counters only: its losses always degrade gracefully (baseline
        # repetitions are skipped, points survive on the remaining reps);
        # the required power/netpipe scalars stay chaos-free so the
        # campaign is guaranteed to complete
        chaos = resilience.ChaosSchedule(
            seed=1234,
            rules={"counters": resilience.ChaosRule(drop_p=0.4)},
        )
        with resilience.enabled(resilience.RetryPolicy(max_retries=0), chaos):
            inputs, report = characterize_resilient(
                arm_sim, get_program("CP")
            )
        model = HybridProgramModel(
            program=get_program("CP"), inputs=inputs
        )
        return model, report

    def test_campaign_actually_degraded(self, degraded_model):
        _, report = degraded_model
        assert report.degraded
        counters = report.coverage_for("counters")
        assert counters is not None and counters.lost > 0
        assert 0.0 < counters.coverage < 1.0
        # degraded instruments widen their groups' error bars
        sigmas = report.sigmas()
        assert any("w_s" in g or "P_act" in g for g in sigmas)
        for group, sigma in sigmas.items():
            assert sigma > 0.0
        factor = counters.sigma_factor()
        assert factor >= 1.0 / math.sqrt(max(counters.coverage, 1e-9)) - 1e-12

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_degraded_model_lanes_match_scalar(self, degraded_model, data):
        model, _ = degraded_model
        n = data.draw(st.sampled_from(NODE_COUNTS), label="nodes")
        c = data.draw(st.sampled_from(_cores_of(model)), label="cores")
        f = data.draw(st.sampled_from(_frequencies_of(model)), label="f_hz")
        _assert_lane_equals_scalar(model, config(n, c, f / 1e9))


class TestModelVsSimulator:
    """The model must stay within validation-level agreement of the
    simulator it was calibrated against (the paper reports < 15% mean
    error; individual points get a looser bound)."""

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_prediction_tracks_measurement(self, model, xeon_sim, arm_sim, data):
        from repro.analysis.validation import measure_configuration
        from repro.workloads.registry import get_program

        sim = xeon_sim if model.inputs.cluster == xeon_sim.spec.name else arm_sim
        program = get_program(model.inputs.program)
        # physical territory only: the simulator runs real configurations
        n = data.draw(st.sampled_from([1, 2, 4, 8]), label="nodes")
        c = data.draw(st.sampled_from(_cores_of(model)), label="cores")
        f = data.draw(st.sampled_from(_frequencies_of(model)), label="f_hz")
        cfg = config(n, c, f / 1e9)
        t_meas, e_meas = measure_configuration(
            sim, program, cfg, model.inputs.baseline_class, repetitions=2
        )
        pred = model.predict(cfg)
        assert pred.time_s == pytest.approx(t_meas, rel=0.40)
        assert pred.energy_j == pytest.approx(e_meas, rel=0.40)
