"""End-to-end simulated execution: RunResult invariants and batches."""

import dataclasses

import numpy as np
import pytest

from repro.core.roofline import place_workload
from repro.machines.spec import Configuration
from repro.simulate import FaultModel, RunRequest
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.npb import sp_program
from repro.workloads.registry import all_programs, get_program
from tests.conftest import config


def test_reproducible_runs(xeon_sim):
    a = xeon_sim.run(sp_program(), config(2, 4, 1.5), run_index=0)
    b = xeon_sim.run(sp_program(), config(2, 4, 1.5), run_index=0)
    assert a.wall_time_s == b.wall_time_s
    assert a.energy.total_j == b.energy.total_j


def test_distinct_run_indices_differ(xeon_sim):
    a = xeon_sim.run(sp_program(), config(2, 4, 1.5), run_index=0)
    b = xeon_sim.run(sp_program(), config(2, 4, 1.5), run_index=1)
    assert a.wall_time_s != b.wall_time_s


def test_invalid_configuration_rejected(xeon_sim):
    with pytest.raises(ValueError):
        xeon_sim.run(sp_program(), config(16, 1, 1.8))


def test_phase_breakdown_sums_to_wall_time(xeon_sim):
    r = xeon_sim.run(sp_program(), config(4, 4, 1.5))
    assert r.phases.total_s == pytest.approx(r.wall_time_s, rel=1e-6)


def test_energy_components_positive_and_sum(xeon_sim):
    r = xeon_sim.run(sp_program(), config(2, 8, 1.8))
    e = r.energy
    assert e.cpu_active_j > 0
    assert e.cpu_stall_j > 0
    assert e.mem_j > 0
    assert e.net_j > 0
    assert e.idle_j > 0
    assert e.total_j == pytest.approx(
        e.cpu_active_j + e.cpu_stall_j + e.mem_j + e.net_j + e.idle_j
    )


def test_energy_floor_is_idle_power(xeon_sim):
    """A run can never use less than idle power × time × nodes."""
    r = xeon_sim.run(sp_program(), config(4, 1, 1.2))
    floor = xeon_sim.spec.node.power.sys_idle_w * r.wall_time_s * 4
    assert r.energy.total_j > floor
    assert r.energy.idle_j == pytest.approx(floor)


def test_energy_ceiling_is_peak_power(xeon_sim):
    r = xeon_sim.run(sp_program(), config(4, 8, 1.8))
    peak = xeon_sim.spec.node.power.node_peak_w(8, 1.8e9)
    assert r.energy.total_j < peak * r.wall_time_s * 4 * 1.05


def test_utilization_in_unit_interval(xeon_sim):
    for cfg in (config(1, 1, 1.2), config(8, 8, 1.8)):
        r = xeon_sim.run(sp_program(), cfg)
        assert 0.0 < r.counters.utilization <= 1.0


def test_ucr_in_unit_interval(arm_sim):
    for prog in all_programs():
        r = arm_sim.run(prog, config(2, 2, 0.8))
        assert 0.0 < r.ucr < 1.0


def test_more_nodes_reduce_time_for_compute_bound(xeon_sim):
    """Strong scaling holds while compute dominates."""
    t1 = xeon_sim.run(sp_program(), config(1, 4, 1.8)).wall_time_s
    t4 = xeon_sim.run(sp_program(), config(4, 4, 1.8)).wall_time_s
    assert t4 < t1


def test_higher_frequency_reduces_time(xeon_sim):
    slow = xeon_sim.run(sp_program(), config(1, 4, 1.2)).wall_time_s
    fast = xeon_sim.run(sp_program(), config(1, 4, 1.8)).wall_time_s
    assert fast < slow


def test_single_node_has_no_network_phase(xeon_sim):
    r = xeon_sim.run(sp_program(), config(1, 8, 1.8))
    assert r.phases.t_net_s == 0.0
    assert r.messages.total_messages == 0


def test_counters_scale_with_input_class(xeon_sim):
    w = xeon_sim.run(sp_program(), config(1, 4, 1.8), class_name="W")
    c = xeon_sim.run(sp_program(), config(1, 4, 1.8), class_name="C")
    ratio = c.counters.instructions / w.counters.instructions
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_deterministic_variant_removes_os_noise(xeon_sim):
    det = xeon_sim.deterministic()
    a = det.run(sp_program(), config(2, 2, 1.5), run_index=0)
    b = det.run(sp_program(), config(2, 2, 1.5), run_index=1)
    # imbalance draws still differ per run, but OS-level jitter is gone so
    # runs agree much more closely than noisy ones
    assert a.wall_time_s == pytest.approx(b.wall_time_s, rel=0.02)


def test_run_many_returns_distinct_runs(xeon_sim):
    runs = xeon_sim.run_many(sp_program(), config(2, 2, 1.5), repetitions=3)
    times = {r.wall_time_s for r in runs}
    assert len(times) == 3


def test_deterministic_copy_keeps_faults(xeon_sim):
    """The noise-free copy of a faulted cluster is still faulted."""
    fault = FaultModel(straggler_node=0, straggler_factor=1.5)
    faulty = dataclasses.replace(xeon_sim, faults=fault).deterministic()
    assert faulty.faults == fault
    healthy = xeon_sim.deterministic()
    cfg = config(2, 2, 1.8)
    slow = faulty.run(sp_program(), cfg).wall_time_s
    assert slow > 1.2 * healthy.run(sp_program(), cfg).wall_time_s


@pytest.mark.parametrize("repetitions", [0, -2])
def test_run_many_rejects_non_positive_repetitions(xeon_sim, repetitions):
    with pytest.raises(ValueError, match="repetitions"):
        xeon_sim.run_many(sp_program(), config(1, 1, 1.8), repetitions=repetitions)


def test_run_many_matches_indexed_runs(arm_sim):
    cp = get_program("CP")
    cfg = config(1, 4, 1.1)
    many = arm_sim.run_many(cp, cfg, repetitions=3)
    assert many == [arm_sim.run(cp, cfg, run_index=i) for i in range(3)]


def test_replication_campaign_matches_individual_runs(xeon_sim):
    """run_many in the validation campaign's shape vs one run at a time;
    ``==`` on the frozen result records is exact float equality."""
    sp = get_program("SP")
    cfg = config(4, 8, 1.8)
    many = xeon_sim.run_many(sp, cfg, repetitions=5)
    assert len(many) == 5
    for i, result in enumerate(many):
        single = xeon_sim.run(sp, cfg, run_index=i)
        assert result.wall_time_s == single.wall_time_s
        assert result.energy == single.energy
        assert result.counters == single.counters
        assert result.messages == single.messages
        assert result.phases == single.phases
        assert result == single


class TestRunBatch:
    def test_results_come_back_in_request_order(self, xeon_sim):
        sp, lu = get_program("SP"), get_program("LU")
        requests = [
            RunRequest(sp, config(2, 4, 1.8), run_index=0),
            RunRequest(lu, config(1, 2, 1.5), run_index=0),
            RunRequest(sp, config(2, 4, 1.8), run_index=1),
            RunRequest(sp, config(4, 8, 1.2), run_index=0),
            RunRequest(lu, config(1, 2, 1.5), run_index=1),
        ]
        results = xeon_sim.run_batch(requests)
        assert len(results) == len(requests)
        for req, res in zip(requests, results):
            assert res.program == req.program.name
            assert res.config == req.config
            assert res == xeon_sim.run(req.program, req.config, run_index=req.run_index)

    def test_single_request_matches_run(self, arm_sim):
        cp = get_program("CP")
        cfg = config(2, 4, 1.4)
        [only] = arm_sim.run_batch([RunRequest(cp, cfg, run_index=2)])
        assert only == arm_sim.run(cp, cfg, run_index=2)

    def test_mixed_faults_and_dvfs_match_run(self, xeon_sim):
        """Each knob of a mixed batch gives exactly its standalone run."""
        sp = get_program("SP")
        cfg = config(2, 2, 1.8)
        faulty_sim = dataclasses.replace(
            xeon_sim, faults=FaultModel(straggler_node=0, straggler_factor=1.5)
        )
        requests = [
            RunRequest(sp, cfg),
            RunRequest(sp, cfg, stall_frequency_hz=1.2e9),
        ]
        faulty, throttled = faulty_sim.run_batch(requests)
        assert faulty == faulty_sim.run(sp, cfg)
        assert throttled == faulty_sim.run(sp, cfg, stall_frequency_hz=1.2e9)
        # the knobs actually differ: a straggler and a throttle are not
        # the same run
        assert faulty.wall_time_s != xeon_sim.run(sp, cfg).wall_time_s
        assert throttled.wall_time_s != faulty.wall_time_s

    def test_collect_trace_per_request(self, xeon_sim):
        """Tracing is a per-request knob: only the request that asks for a
        trace gets one, and it equals the standalone traced run."""
        sp = get_program("SP")
        cfg = config(2, 2, 1.8)
        requests = [
            RunRequest(sp, cfg, run_index=0, collect_trace=True),
            RunRequest(sp, cfg, run_index=1),
        ]
        traced, untraced = xeon_sim.run_batch(requests)
        assert traced.trace is not None
        assert traced.trace.iterations == sp.iterations(sp.reference_class)
        assert np.array_equal(
            traced.trace.iteration_s,
            xeon_sim.run(sp, cfg, run_index=0, collect_trace=True).trace.iteration_s,
        )
        assert untraced.trace is None
        assert untraced == xeon_sim.run(sp, cfg, run_index=1)

    def test_invalid_configuration_rejected(self, xeon_sim):
        sp = get_program("SP")
        with pytest.raises(ValueError):
            xeon_sim.run_batch([RunRequest(sp, config(1, 1, 9.9))])
        bad_stall = RunRequest(sp, config(1, 1, 1.8), stall_frequency_hz=9.9e9)
        with pytest.raises(ValueError):
            xeon_sim.run_batch([bad_stall])

    def test_empty_batch(self, xeon_sim):
        assert xeon_sim.run_batch([]) == []


class TestReplicationStatistics:
    """Replication means must land where the closed forms say they should."""

    def test_means_track_mg1_model(self, xeon_sim, xeon_sp_model):
        """The analytical model (M/G/1 network wait, Pollaczek-Khinchine
        via ``repro.mg1``) was calibrated against the simulator;
        replication means must stay within validation-level tolerance of
        its prediction."""
        cfg = config(4, 8, 1.8)
        runs = xeon_sim.run_many(get_program("SP"), cfg, repetitions=4)
        pred = xeon_sp_model.predict(cfg)
        assert not pred.time.saturated  # rho < 1: the closed form is live
        t_mean = float(np.mean([r.wall_time_s for r in runs]))
        e_mean = float(np.mean([r.energy.total_j for r in runs]))
        assert t_mean == pytest.approx(pred.time_s, rel=0.40)
        assert e_mean == pytest.approx(pred.energy_j, rel=0.40)

    def test_means_respect_roofline_limits(self, xeon_sim):
        """No replication mean may beat the machine's first-principles
        bounds: single-node time/energy floors from the roofline module."""
        sp = get_program("SP")
        placement = place_workload(xeon_sim.spec, sp)
        cfg = Configuration(
            nodes=1,
            cores=xeon_sim.spec.node.max_cores,
            frequency_hz=xeon_sim.spec.node.core.fmax,
        )
        runs = xeon_sim.run_many(sp, cfg, repetitions=4)
        t_mean = float(np.mean([r.wall_time_s for r in runs]))
        e_mean = float(np.mean([r.energy.total_j for r in runs]))
        assert t_mean >= placement.min_time_s
        assert e_mean >= placement.min_energy_j
