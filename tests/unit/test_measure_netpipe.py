"""NetPIPE network characterization (Fig. 3 reproduction)."""

import dataclasses

import numpy as np
import pytest

from repro.machines.arm import arm_cluster
from repro.machines.epyc import epyc_cluster
from repro.machines.xeon import xeon_cluster
from repro.measure.netpipe import DEFAULT_SIZES, _one_way_time, run_netpipe
from repro.simulate.engine import FifoServer, Simulator


@pytest.fixture(scope="module")
def arm_pipe():
    return run_netpipe(arm_cluster())


@pytest.fixture(scope="module")
def xeon_pipe():
    return run_netpipe(xeon_cluster())


def test_latency_monotone_in_size(arm_pipe):
    """Monotone up to the ±1% measurement jitter."""
    lat = arm_pipe.latency_s
    assert np.all(np.diff(lat) >= -0.03 * lat[:-1])


def test_throughput_grows_then_plateaus(arm_pipe):
    tp = arm_pipe.throughput_mbps
    # small messages are latency-bound: low throughput
    assert tp[0] < 1.0
    # the plateau sits in the top decade of sizes
    assert tp[-1] == pytest.approx(tp.max(), rel=0.1)


def test_arm_plateau_is_ninety_mbps(arm_pipe):
    """Fig. 3's headline: MPI over TCP peaks at ~90 Mbps on a 100 Mbps
    link."""
    assert arm_pipe.peak_throughput_mbps == pytest.approx(90.0, rel=0.05)


def test_xeon_plateau_below_line_rate(xeon_pipe):
    peak = xeon_pipe.peak_throughput_mbps
    assert 800.0 < peak < 1000.0


def test_latency_floor_reflects_protocol_overhead(arm_pipe):
    floor = arm_pipe.latency_floor_s()
    nic = arm_cluster().node.nic
    assert floor >= nic.per_message_overhead_s
    assert floor < 5 * nic.per_message_overhead_s


def test_achievable_bandwidth_converts_units(arm_pipe):
    assert arm_pipe.achievable_bandwidth_bytes_per_s() == pytest.approx(
        arm_pipe.peak_throughput_mbps * 1e6 / 8.0
    )


def test_deterministic_given_seed():
    a = run_netpipe(arm_cluster(), sizes=(64, 4096), root_seed=7)
    b = run_netpipe(arm_cluster(), sizes=(64, 4096), root_seed=7)
    assert np.array_equal(a.latency_s, b.latency_s)


def _event_heap_one_way_time(cluster, size):
    """The same exchange run frame by frame on the discrete-event engine."""
    nic = cluster.node.nic
    frames = max(1, int(np.ceil(size / nic.mtu_bytes)))
    frame_link_time = (size / frames) / nic.effective_bandwidth
    sim = Simulator()
    sender = FifoServer(sim)
    receiver = FifoServer(sim)
    done = []

    def at_switch(_wait, _completion):
        sim.schedule(
            cluster.switch.forwarding_latency_s,
            receiver.submit,
            frame_link_time,
            lambda _w, completion: done.append(completion),
        )

    for index in range(frames):
        overhead = nic.per_message_overhead_s if index == 0 else 0.0
        sim.schedule(overhead, sender.submit, frame_link_time, at_switch)
    sim.run()
    return max(done)


def _zero_overhead(cluster):
    nic = dataclasses.replace(cluster.node.nic, per_message_overhead_s=0.0)
    return dataclasses.replace(
        cluster, node=dataclasses.replace(cluster.node, nic=nic)
    )


# 144282 B on epyc is a size where the rounding of the switch arrival
# time, ``post + (completion - post)``, reaches the final latency.
ORACLE_SIZES = DEFAULT_SIZES + (0, 1501, 3000, 4499, 12345, 144282, 999999)


@pytest.mark.parametrize(
    "cluster",
    [arm_cluster(), xeon_cluster(), epyc_cluster(), _zero_overhead(arm_cluster())],
    ids=["arm", "xeon", "epyc", "arm-zero-overhead"],
)
def test_recursion_matches_event_engine_exactly(cluster):
    for size in ORACLE_SIZES:
        assert _one_way_time(cluster, float(size)) == _event_heap_one_way_time(
            cluster, float(size)
        ), size


def test_second_frame_overtakes_the_first():
    """Frame 1 is sent while frame 0 pays the per-message overhead, so a
    2-frame message arrives exactly when a 1-frame one does."""
    arm = arm_cluster()
    assert _one_way_time(arm, 3000.0) == _one_way_time(arm, 1500.0)
    assert _one_way_time(arm, 1500.0) == pytest.approx(436.67e-6, abs=1e-8)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"repetitions": 0},
        {"sizes": ()},
        {"sizes": (64, -1)},
        {"sizes": (64, float("nan"))},
        {"sizes": (64, float("inf"))},
    ],
    ids=["zero-repetitions", "no-sizes", "negative", "nan", "inf"],
)
def test_rejects_bad_inputs_before_drawing(kwargs):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        run_netpipe(arm_cluster(), rng=rng, **kwargs)
    assert rng.normal() == np.random.default_rng(3).normal()
