"""Memory-controller contention resolution."""

import dataclasses

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.machines.arm import arm_cluster
from repro.machines.xeon import xeon_cluster
from repro.simulate import queueing
from repro.simulate.cpu import compute_demand
from repro.simulate.memory import BATCHES, MemoryOutcome, resolve_memory
from repro.simulate.noise import NoiseModel
from repro.workloads.npb import sp_program
from repro.workloads.synthetic import synthetic_program
from tests.conftest import config


def outcome_for(cluster, cfg, program=None, seed="m"):
    program = program or sp_program()
    rng = rng_mod.derive(1, seed)
    demand = compute_demand(
        program, "W", cluster, cfg, NoiseModel.disabled(), rng
    )
    return demand, resolve_memory(demand, cluster, cfg, rng)


def test_shapes_match_demand():
    demand, mem = outcome_for(xeon_cluster(), config(2, 4, 1.5))
    assert mem.stall_time_s.shape == demand.shape
    assert mem.stall_cycles.shape == demand.shape


def test_all_quantities_nonnegative():
    _, mem = outcome_for(xeon_cluster(), config(2, 8, 1.8))
    for arr in (mem.stall_time_s, mem.wait_time_s, mem.service_time_s, mem.stall_cycles):
        assert np.all(arr >= 0)


def test_single_thread_has_negligible_queue_wait():
    """One thread's batches rarely collide with themselves."""
    _, mem = outcome_for(xeon_cluster(), config(1, 1, 1.8))
    assert mem.wait_time_s.sum() < 0.05 * mem.service_time_s.sum()


def test_contention_grows_with_thread_count():
    """More threads sharing the controller → more waiting per byte."""
    cluster = xeon_cluster()
    _, mem1 = outcome_for(cluster, config(1, 1, 1.8))
    _, mem8 = outcome_for(cluster, config(1, 8, 1.8))
    # per-thread traffic is 8x smaller at c=8, so compare totals
    assert mem8.wait_time_s.sum() > mem1.wait_time_s.sum()


def test_stall_cycles_include_frequency_invariant_cache_part():
    """m = stall_time*f + cache stalls: at equal time terms, higher f means
    the cache component keeps m/f constant while the DRAM part shrinks."""
    demand, mem = outcome_for(xeon_cluster(), config(1, 2, 1.2))
    expected_floor = demand.cache_stall_cycles
    assert np.all(mem.stall_cycles >= expected_floor - 1e-6)


def test_memory_overlap_reduces_stall_time():
    """Xeon hides more memory time than ARM per byte of traffic."""
    xeon = xeon_cluster()
    assert xeon.node.core.memory_overlap > arm_cluster().node.core.memory_overlap
    demand, mem = outcome_for(xeon, config(1, 4, 1.8))
    raw = mem.wait_time_s / (1.0 - xeon.node.core.memory_overlap)
    assert np.all(mem.wait_time_s <= raw + 1e-12)


def test_stall_time_consistent_with_cycles():
    cfg = config(1, 4, 1.5)
    demand, mem = outcome_for(xeon_cluster(), cfg)
    reconstructed = (
        mem.stall_cycles - demand.cache_stall_cycles
    ) / cfg.frequency_hz + demand.cache_stall_cycles / cfg.frequency_hz
    assert np.allclose(reconstructed, mem.stall_time_s)


def test_memory_bound_program_stalls_more():
    heavy = synthetic_program(arithmetic_intensity=1.0)
    light = synthetic_program(arithmetic_intensity=64.0)
    cluster = arm_cluster()
    _, mem_heavy = outcome_for(cluster, config(1, 4, 1.4), heavy)
    _, mem_light = outcome_for(cluster, config(1, 4, 1.4), light)
    assert mem_heavy.stall_time_s.sum() > mem_light.stall_time_s.sum()


def test_wait_attribution_proportional_to_traffic():
    """Per-iteration wait shares follow per-thread byte shares."""
    demand, mem = outcome_for(xeon_cluster(), config(1, 4, 1.8))
    s_iters = demand.shape[0]
    for s in (0, s_iters // 2):
        bytes_row = demand.dram_bytes[s, 0, :]
        waits_row = mem.wait_time_s[s, 0, :]
        total_w = waits_row.sum()
        if total_w > 0:
            assert np.allclose(
                waits_row / total_w, bytes_row / bytes_row.sum(), atol=1e-9
            )


def _stable_sort_resolve_memory(demand, cluster, config, rng):
    """``resolve_memory`` as written before the FIFO kernel: a stable
    argsort and two ``take_along_axis`` gathers (the reference)."""
    memory, core = cluster.node.memory, cluster.node.core
    s_iters, n, c = demand.shape
    f = config.frequency_hz
    arrival_fractions = rng.uniform(0.0, 1.0, size=(n, s_iters, c * BATCHES))
    latency_per_line = memory.latency_s / core.mlp
    fractions = np.ascontiguousarray(np.moveaxis(arrival_fractions, 0, -2))
    batch_bytes = np.repeat(demand.dram_bytes / BATCHES, BATCHES, axis=-1)
    spans = np.repeat(demand.compute_time_s, BATCHES, axis=-1)
    arrivals = fractions * spans
    bw_service = batch_bytes / memory.bandwidth_bytes_per_s
    lat_exposure = batch_bytes * (1.0 / core.line_bytes) * latency_per_line
    order = np.argsort(arrivals, axis=-1, kind="stable")
    sorted_arrivals = np.take_along_axis(arrivals, order, axis=-1)
    sorted_service = np.take_along_axis(bw_service, order, axis=-1)
    total_wait = queueing.lindley_wait_sums(sorted_arrivals, sorted_service)
    bytes_total = demand.dram_bytes.sum(axis=-1, keepdims=True)
    share = np.divide(
        demand.dram_bytes,
        bytes_total,
        out=np.full(demand.dram_bytes.shape, 1.0 / c),
        where=bytes_total > 0,
    )
    wait = total_wait[..., None] * share
    core_cost = np.maximum(bw_service, lat_exposure)
    service = core_cost.reshape(s_iters, n, c, BATCHES).sum(axis=-1)
    exposed = 1.0 - core.memory_overlap
    stall_time = (wait + service) * exposed
    return MemoryOutcome(
        stall_time_s=stall_time + demand.cache_stall_cycles / f,
        wait_time_s=wait * exposed,
        service_time_s=service * exposed + demand.cache_stall_cycles / f,
        stall_cycles=stall_time * f + demand.cache_stall_cycles,
    )


def _resolve_both(monkeypatch, zero_thread):
    """(fifo-kernel outcome, reference outcome, stable fallbacks taken)."""
    cluster, cfg = xeon_cluster(), config(2, 4, 1.8)
    demand = compute_demand(
        sp_program(), "W", cluster, cfg, NoiseModel.disabled(),
        rng_mod.derive(1, "m"),
    )
    if zero_thread:
        compute = demand.compute_time_s.copy()
        compute[..., 1] = 0.0
        demand = dataclasses.replace(demand, compute_time_s=compute)
    fallbacks = []
    stable = queueing._stable_argsort

    def counted(arrivals):
        fallbacks.append(arrivals.shape)
        return stable(arrivals)

    monkeypatch.setattr(queueing, "_stable_argsort", counted)
    got = resolve_memory(demand, cluster, cfg, rng_mod.derive(2, "m"))
    want = _stable_sort_resolve_memory(
        demand, cluster, cfg, rng_mod.derive(2, "m")
    )
    for field in dataclasses.fields(MemoryOutcome):
        assert (
            getattr(got, field.name).tobytes()
            == getattr(want, field.name).tobytes()
        ), field.name
    return fallbacks


def test_zero_compute_thread_takes_the_stable_fallback(monkeypatch):
    """A thread with no compute span puts all its batches at t=0.0: a tie,
    so FIFO order must come from the stable sort, bit for bit."""
    assert _resolve_both(monkeypatch, zero_thread=True), (
        "tied arrivals must take the stable fallback"
    )


def test_untied_arrivals_skip_the_fallback(monkeypatch):
    assert _resolve_both(monkeypatch, zero_thread=False) == []


def test_per_thread_service_product_equals_the_batch_sum():
    """``resolve_memory`` takes a thread's service as ``core_cost *
    BATCHES`` instead of summing ``BATCHES`` repeated batch costs.  NumPy
    adds 8 (or any power of two) equal doubles pairwise, and each step
    only doubles, so the two agree bit for bit; a BATCHES that is not a
    power of two would round differently and must fail here."""
    assert BATCHES > 0 and BATCHES & (BATCHES - 1) == 0
    rng = np.random.default_rng(0)
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    cost = np.concatenate([
        rng.uniform(0.0, 1e-3, 400),
        rng.uniform(0.0, tiny, 100),  # subnormal
        huge / rng.uniform(1.0, 16.0, 100),  # some overflow when multiplied
        [0.0, 5e-324, np.inf, np.nan],
    ]).reshape(-1, 4)
    with np.errstate(over="ignore"):
        summed = np.repeat(cost, BATCHES, axis=-1).reshape(-1, 4, BATCHES).sum(axis=-1)
        assert (cost * BATCHES).tobytes() == summed.tobytes()
