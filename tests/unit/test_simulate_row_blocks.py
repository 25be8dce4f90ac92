"""Simulator queues resolved in row blocks are bit-identical to one pass.

``resolve_memory`` and ``resolve_network`` walk their independent queue
rows in blocks of ``queueing._BLOCK_ELEMENTS`` elements.  Every outcome
array, and every whole ``SimulatedCluster.run`` result, must equal byte
for byte both the whole-array code the blocks replaced (copied inline
below) and the blocked code at any budget: one row per block, a prime
number of rows, or the whole run in one block.  The blocks also bound the
working set, which the tracemalloc test pins without timing anything.
"""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.machines.arm import arm_cluster
from repro.machines.epyc import epyc_cluster
from repro.machines.xeon import xeon_cluster
from repro.simulate import queueing, runtime
from repro.simulate.cluster import SimulatedCluster
from repro.simulate.cpu import compute_demand
from repro.simulate.memory import BATCHES, MemoryOutcome, resolve_memory
from repro.simulate.network import (
    POST_WINDOW,
    SIZE_CV,
    NetworkOutcome,
    _destinations,
    _message_counts,
    resolve_network,
)
from repro.simulate.noise import NoiseModel
from repro.workloads.registry import get_program
from tests.conftest import config

#: (cluster factory, configuration, program, class) per covered machine.
CASES = {
    "xeon_8x8": (xeon_cluster, config(8, 8, 1.8), "SP", None),
    "arm_8x4": (arm_cluster, config(8, 4, 1.4), "CP", None),
    "epyc_1x16_A": (epyc_cluster, config(1, 16, 3.5), "SP", "A"),
}

#: Rows per block of the prime-row budget; 7 divides no run's row count.
PRIME_ROWS = 7


def _whole_run_memory(demand, cluster, config, rng, stall_frequency_hz=None):
    """``resolve_memory`` as one whole-array pass (the code row blocks
    replaced)."""
    memory = cluster.node.memory
    core = cluster.node.core
    s_iters, n, c = demand.shape
    f = config.frequency_hz
    f_stall = stall_frequency_hz if stall_frequency_hz is not None else f
    arrival_fractions = rng.uniform(0.0, 1.0, size=(n, s_iters, c * BATCHES))
    bandwidth = memory.bandwidth_bytes_per_s
    latency_per_line = memory.latency_s / core.mlp
    lines_per_byte = 1.0 / core.line_bytes
    fractions = np.ascontiguousarray(np.moveaxis(arrival_fractions, 0, -2))
    batch_bytes = np.repeat(demand.dram_bytes / BATCHES, BATCHES, axis=-1)
    spans = np.repeat(demand.compute_time_s, BATCHES, axis=-1)
    arrivals = fractions * spans
    bw_service = batch_bytes / bandwidth
    lat_exposure = batch_bytes * lines_per_byte * latency_per_line
    _, sorted_arrivals, sorted_service = queueing.fifo_sort(arrivals, bw_service)
    total_wait = queueing.lindley_wait_sums(sorted_arrivals, sorted_service)
    total_wait = total_wait[..., None]
    bytes_total = demand.dram_bytes.sum(axis=-1, keepdims=True)
    share = np.divide(
        demand.dram_bytes,
        bytes_total,
        out=np.full(demand.dram_bytes.shape, 1.0 / c),
        where=bytes_total > 0,
    )
    wait = total_wait * share
    core_cost = np.maximum(bw_service, lat_exposure)
    service = core_cost.reshape(s_iters, n, c, BATCHES).sum(axis=-1)
    exposed = 1.0 - core.memory_overlap
    stall_time = (wait + service) * exposed
    stall_cycles = stall_time * f + demand.cache_stall_cycles
    stall_time_total = stall_time + demand.cache_stall_cycles / f_stall
    return MemoryOutcome(
        stall_time_s=stall_time_total,
        wait_time_s=wait * exposed,
        service_time_s=service * exposed + demand.cache_stall_cycles / f_stall,
        stall_cycles=stall_cycles,
    )


def _whole_run_network(
    program, class_name, cluster, config, compute_end_s, noise, rng
):
    """``resolve_network`` as one whole-array pass (the code row blocks
    replaced)."""
    nic = cluster.node.nic
    switch = cluster.switch
    s_iters, n = compute_end_s.shape
    msgs = _message_counts(program, n)
    if msgs == 0:
        zeros = np.zeros(compute_end_s.shape)
        return NetworkOutcome(
            complete_s=compute_end_s.copy(),
            net_time_s=zeros,
            cpu_cost_s=zeros.copy(),
            port_wait_s=zeros.copy(),
            wire_time_s=zeros.copy(),
            messages=zeros.copy(),
            bytes_sent=zeros.copy(),
        )
    nu = program.bytes_per_message(class_name, n)
    sizes = nu * rng.lognormal(
        mean=-0.5 * np.log1p(SIZE_CV**2),
        sigma=np.sqrt(np.log1p(SIZE_CV**2)),
        size=(s_iters, n, msgs),
    )
    offsets = np.sort(
        rng.uniform(1.0 - POST_WINDOW, 1.0, size=(s_iters, n, msgs)), axis=-1
    )
    posts = compute_end_s[..., None] * offsets
    nic_service = nic.per_message_overhead_s + sizes / nic.effective_bandwidth
    posts_flat = posts.reshape(-1, msgs)
    nic_service_flat = nic_service.reshape(-1, msgs)
    nic_waits = queueing.lindley_waits(posts_flat, nic_service_flat)
    egress = (posts_flat + nic_waits + nic_service_flat).reshape(posts.shape)
    send_complete = egress.max(axis=-1)
    dests_flat = _destinations(n, msgs).ravel()
    port_service = switch.forwarding_latency_s + sizes / switch.port_bytes_per_s
    egress_flat = egress.reshape(s_iters, n * msgs)
    service_flat = port_service.reshape(egress_flat.shape)
    receive_complete = np.zeros(compute_end_s.shape)
    port_wait = np.zeros(compute_end_s.shape)
    wire_time = np.zeros(compute_end_s.shape)
    port_indices = [np.nonzero(dests_flat == q)[0] for q in range(n)]
    by_count: dict[int, list[int]] = {}
    for q, idx in enumerate(port_indices):
        if idx.size:
            by_count.setdefault(idx.size, []).append(q)
    for ports in by_count.values():
        gather = np.stack([port_indices[q] for q in ports])
        arr_q = egress_flat[..., gather]
        svc_q = service_flat[..., gather]
        _, sorted_arr, sorted_svc = queueing.fifo_sort(arr_q, svc_q)
        waits = queueing.lindley_waits(sorted_arr, sorted_svc)
        completions = sorted_arr + waits + sorted_svc
        receive_complete[..., ports] = completions.max(axis=-1)
        port_wait[..., ports] = waits.sum(axis=-1)
        wire_time[..., ports] = sorted_svc.sum(axis=-1)
    complete = np.maximum(
        np.maximum(send_complete, receive_complete), compute_end_s
    )
    cpu_cost = (
        msgs * nic.cpu_cost_per_message_s
        + sizes.sum(axis=-1) * nic.cpu_cost_per_byte_s
    )
    return NetworkOutcome(
        complete_s=complete,
        net_time_s=complete - compute_end_s,
        cpu_cost_s=cpu_cost,
        port_wait_s=port_wait,
        wire_time_s=wire_time,
        messages=np.full(compute_end_s.shape, float(msgs)),
        bytes_sent=sizes.sum(axis=-1),
    )


def _assert_same_bytes(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


def _case(name):
    factory, cfg, program, class_name = CASES[name]
    program = get_program(program)
    return factory(), cfg, program, class_name or program.reference_class


def _demand(cluster, cfg, program, class_name):
    return compute_demand(
        program, class_name, cluster, cfg, NoiseModel(), rng_mod.derive(3, "d")
    )


def _budget(kind, width):
    """Block budget, in elements, giving ``kind`` rows of ``width``."""
    return {
        "one_row": 1,
        "prime_rows": PRIME_ROWS * width,
        "whole_run": 1 << 40,
    }[kind]


BUDGETS = ("one_row", "prime_rows", "whole_run")


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_memory_blocks_match_the_whole_array_pass(monkeypatch, case, budget):
    cluster, cfg, program, class_name = _case(case)
    demand = _demand(cluster, cfg, program, class_name)
    want = _whole_run_memory(demand, cluster, cfg, rng_mod.derive(4, "m"))
    monkeypatch.setattr(
        queueing, "_BLOCK_ELEMENTS", _budget(budget, cfg.cores * BATCHES)
    )
    got = resolve_memory(demand, cluster, cfg, rng_mod.derive(4, "m"))
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_network_blocks_match_the_whole_array_pass(monkeypatch, case, budget):
    cluster, cfg, program, class_name = _case(case)
    demand = _demand(cluster, cfg, program, class_name)
    mem = resolve_memory(demand, cluster, cfg, rng_mod.derive(4, "m"))
    compute_end = (demand.compute_time_s + mem.stall_time_s).max(axis=2)
    args = (program, class_name, cluster, cfg, compute_end, NoiseModel())
    want = _whole_run_network(*args, rng_mod.derive(5, "n"))
    width = cfg.nodes * _message_counts(program, cfg.nodes)
    monkeypatch.setattr(queueing, "_BLOCK_ELEMENTS", _budget(budget, width))
    got = resolve_network(*args, rng_mod.derive(5, "n"))
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_whole_runs_match_the_whole_array_pass(monkeypatch, case, budget):
    cluster, cfg, program, class_name = _case(case)
    sim = SimulatedCluster(cluster)

    def run():
        return sim.run(program, cfg, class_name, collect_trace=True)

    with monkeypatch.context() as whole:
        whole.setattr(runtime, "resolve_memory", _whole_run_memory)
        whole.setattr(runtime, "resolve_network", _whole_run_network)
        want = run()
    # the prime budget gives the memory queues PRIME_ROWS rows per block
    monkeypatch.setattr(
        queueing, "_BLOCK_ELEMENTS", _budget(budget, cfg.cores * BATCHES)
    )
    assert pickle.dumps(run()) == pickle.dumps(want)


def test_tie_fallback_fires_only_for_blocks_holding_ties(monkeypatch):
    """A zero-span thread puts all its batches at t=0.0.  Tie rows 5..9
    straddle the edge between the first two 7-row blocks: exactly those
    two blocks take the stable fallback, and the outcome still equals the
    whole-array pass."""
    cluster, cfg, program, class_name = _case("xeon_8x8")
    demand = _demand(cluster, cfg, program, class_name)
    compute = demand.compute_time_s.copy()
    tied_rows = range(5, 10)
    compute.reshape(-1, cfg.cores)[tied_rows, 1] = 0.0
    demand = dataclasses.replace(demand, compute_time_s=compute)
    want = _whole_run_memory(demand, cluster, cfg, rng_mod.derive(4, "m"))

    fallbacks = []
    stable = queueing._stable_argsort

    def counted(arrivals):
        ranked = np.sort(arrivals, axis=-1)
        fallbacks.append(bool(np.any(ranked[:, 1:] == ranked[:, :-1])))
        return stable(arrivals)

    monkeypatch.setattr(queueing, "_stable_argsort", counted)
    monkeypatch.setattr(
        queueing, "_BLOCK_ELEMENTS", PRIME_ROWS * cfg.cores * BATCHES
    )
    got = resolve_memory(demand, cluster, cfg, rng_mod.derive(4, "m"))
    _assert_same_bytes(got, want)
    blocks_with_ties = {row // PRIME_ROWS for row in tied_rows}
    assert fallbacks == [True] * len(blocks_with_ties)


@pytest.mark.parametrize("rows, width", [(0, 4), (1, 4), (10, 3), (400, 128)])
@pytest.mark.parametrize("budget", [1, 7, 8192])
def test_row_blocks_tile_every_row_once(monkeypatch, rows, width, budget):
    monkeypatch.setattr(queueing, "_BLOCK_ELEMENTS", budget)
    blocks = list(queueing.row_blocks(rows, width))
    covered = [r for b in blocks for r in range(b.start, b.stop)]
    assert covered == list(range(rows))
    step = max(1, budget // width)
    assert all(0 < b.stop - b.start <= step for b in blocks)


class _DrawRecorder:
    """A generator proxy that counts the bytes of every array it draws."""

    def __init__(self, generator):
        self._generator = generator
        self.drawn_bytes = 0

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn_bytes += np.asarray(out).nbytes
            return out

        return draw


#: What a run may hold beyond its own random draws.  Whole-run queue
#: temporaries exceed it on the 8x8 Xeon run by 16 MiB and on the EPYC
#: run by 1.5 MiB; row blocks stay about 0.5 MiB and 1.8 MiB under it.
_WORKING_SET_MARGIN = 3 * 1024 * 1024


@pytest.mark.parametrize("case", ["xeon_8x8", "epyc_1x16_A"])
def test_run_working_set_is_its_draws_plus_a_fixed_margin(monkeypatch, case):
    cluster, cfg, program, class_name = _case(case)
    sim = SimulatedCluster(cluster)
    sim.run(program, cfg, class_name)  # first-call caches stay out of it
    recorders = []
    stream = SimulatedCluster._stream

    def recorded(self, *args, **kwargs):
        recorders.append(_DrawRecorder(stream(self, *args, **kwargs)))
        return recorders[-1]

    monkeypatch.setattr(SimulatedCluster, "_stream", recorded)
    tracemalloc.start()
    try:
        sim.run(program, cfg, class_name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (recorder,) = recorders
    assert peak <= recorder.drawn_bytes + _WORKING_SET_MARGIN, (
        f"peak {peak / 2**20:.2f} MiB over draws "
        f"{recorder.drawn_bytes / 2**20:.2f} MiB + margin"
    )
