"""Inter-node communication resolution."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.machines.arm import arm_cluster
from repro.machines.xeon import xeon_cluster
from repro.simulate.network import _destinations, _message_counts, resolve_network
from repro.simulate.noise import NoiseModel
from repro.workloads.npb import sp_program
from repro.workloads.quantum import cp_program
from tests.conftest import config


def network_for(cluster, cfg, program=None, compute_end=None, seed="net"):
    program = program or sp_program()
    s_iters = program.iterations("W")
    if compute_end is None:
        compute_end = np.full((s_iters, cfg.nodes), 0.1)
    return resolve_network(
        program,
        "W",
        cluster,
        cfg,
        compute_end,
        NoiseModel.disabled(),
        rng_mod.derive(1, seed),
    )


def test_single_node_communicates_nothing():
    net = network_for(xeon_cluster(), config(1, 4, 1.8))
    assert net.messages.sum() == 0
    assert net.bytes_sent.sum() == 0
    assert np.all(net.net_time_s == 0)


def test_message_counts_round_and_floor():
    assert _message_counts(sp_program(), 1) == 0
    assert _message_counts(sp_program(), 4) >= 1
    # CP all-to-all: count grows with n
    assert _message_counts(cp_program(), 8) > _message_counts(cp_program(), 2)


def test_completion_never_before_compute_end():
    net = network_for(xeon_cluster(), config(4, 2, 1.8))
    s = sp_program().iterations("W")
    compute_end = np.full((s, 4), 0.1)
    assert np.all(net.complete_s >= compute_end - 1e-12)
    assert np.all(net.net_time_s >= 0)


def test_total_bytes_match_program_volume():
    cfg = config(4, 1, 1.8)
    net = network_for(xeon_cluster(), cfg)
    prog = sp_program()
    expected = (
        prog.comm_volume_per_process("W", 4) * prog.iterations("W") * 4
    )
    assert net.bytes_sent.sum() == pytest.approx(expected, rel=0.05)


def test_cpu_cost_positive_when_communicating():
    net = network_for(xeon_cluster(), config(2, 1, 1.8))
    assert np.all(net.cpu_cost_s > 0)


def test_destinations_cover_all_peers_never_self():
    for n in (2, 3, 8):
        dests = _destinations(n, 12)
        for p in range(n):
            assert p not in dests[p]
            assert set(dests[p]) == set(range(n)) - {p}


def test_more_senders_more_port_contention():
    """Messages from more concurrent senders collide at receiving ports."""
    arm = arm_cluster()
    wait2 = network_for(arm, config(2, 1, 1.4)).port_wait_s.sum() / 2
    wait8 = network_for(arm, config(8, 1, 1.4)).port_wait_s.sum() / 8
    assert wait8 > wait2


def test_longer_compute_hides_more_transfer():
    """With a long compute phase the posting window overlaps the wire time."""
    cluster = xeon_cluster()
    prog = sp_program()
    s = prog.iterations("W")
    short = resolve_network(
        prog, "W", cluster, config(2, 1, 1.8),
        np.full((s, 2), 0.01), NoiseModel.disabled(), rng_mod.derive(1, "a"),
    )
    long = resolve_network(
        prog, "W", cluster, config(2, 1, 1.8),
        np.full((s, 2), 5.0), NoiseModel.disabled(), rng_mod.derive(1, "a"),
    )
    assert long.net_time_s.sum() < short.net_time_s.sum()


def test_wire_time_scales_with_volume():
    xeon = xeon_cluster()
    n2 = network_for(xeon, config(2, 1, 1.8)).wire_time_s.sum() / 2
    n8 = network_for(xeon, config(8, 1, 1.8)).wire_time_s.sum() / 8
    # per-process volume shrinks with n (surface decomposition)
    assert n8 < n2


@pytest.mark.parametrize(
    "cluster, cfg, compute_end",
    [
        (xeon_cluster(), config(4, 8, 1.8), None),
        (arm_cluster(), config(8, 4, 1.4), "random"),
        (xeon_cluster(), config(3, 1, 1.2), "zero"),
    ],
)
def test_nic_posts_are_sorted_and_skip_only_the_ordering_scan(
    cluster, cfg, compute_end, monkeypatch
):
    """Every row the kernel gets is non-decreasing (the NIC posts are
    sorted offsets times a non-negative compute end, with no ordering
    check), and its waits are byte-equal to the checked lindley_waits."""
    from repro.simulate import network, queueing

    s_iters = sp_program().iterations("W")
    if compute_end == "random":
        compute_end = np.random.default_rng(3).uniform(0.0, 2.0, (s_iters, cfg.nodes))
    elif compute_end == "zero":
        compute_end = np.zeros((s_iters, cfg.nodes))
    calls = []
    kernel = network._lindley_sorted

    def spy(arrivals, services):
        waits = kernel(arrivals, services)
        calls.append((arrivals.copy(), services.copy(), waits.copy()))
        return waits

    monkeypatch.setattr(network, "_lindley_sorted", spy)
    network_for(cluster, cfg, compute_end=compute_end)
    # NIC queues are (R*n, M) matrices, switch ports (R, P, K) stacks
    assert any(arrivals.ndim == 2 for arrivals, _, _ in calls)
    for arrivals, services, waits in calls:
        assert np.all(np.diff(arrivals, axis=-1) >= 0)
        checked = queueing.lindley_waits(arrivals, services)
        assert waits.tobytes() == checked.tobytes()
