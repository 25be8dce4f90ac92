"""Hybrid MPI+OpenMP execution semantics on the simulated cluster.

Per iteration (paper Listing 1):

1. the OpenMP region: each process's ``c`` threads execute their compute
   shares and contend for the node memory controller
   (:mod:`repro.simulate.cpu` + :mod:`repro.simulate.memory`); the process's
   compute phase ends when its slowest thread finishes (fork/join);
2. the MPI block: processes exchange messages through NIC and the shared
   switch (:mod:`repro.simulate.network`), overlapping transfers with the
   tail of computation;
3. a bulk-synchronous barrier (with skew noise) closes the iteration; the
   OS daemon model can steal time from any node first.

Wall time is the sum of iteration times plus an MPI/OpenMP start-up cost.
Energy is the exact integral of the true node power model over the state
occupancy.  Hardware counters and the message log are accumulated exactly.
"""

from __future__ import annotations

import numpy as np

from repro.machines.spec import ClusterSpec, Configuration
from repro.simulate.cpu import compute_demand
from repro.simulate.faults import FaultModel
from repro.simulate.memory import resolve_memory
from repro.simulate.network import resolve_network
from repro.simulate.noise import NoiseModel
from repro.simulate.power import integrate_energy
from repro.simulate.results import (
    CounterTotals,
    IterationTrace,
    MessageStats,
    PhaseBreakdown,
    RunResult,
)
from repro.workloads.base import HybridProgram


def _startup_time_s(config: Configuration, rng: np.random.Generator, noise: NoiseModel) -> float:
    """MPI launch + OpenMP runtime initialization cost."""
    base = 0.5 + 0.1 * config.nodes
    if not noise.enabled:
        return base
    return base * rng.lognormal(0.0, 0.1)


def execute(
    program: HybridProgram,
    class_name: str,
    cluster: ClusterSpec,
    config: Configuration,
    rng: np.random.Generator,
    noise: NoiseModel | None = None,
    stall_frequency_hz: float | None = None,
    collect_trace: bool = False,
    faults: "FaultModel | None" = None,
) -> RunResult:
    """Execute one run and return everything the testbed can observe.

    ``stall_frequency_hz`` enables phase-aware DVFS (cores throttle to it
    while stalled on memory); ``collect_trace`` attaches the per-iteration
    phase timeline to the result; ``faults`` injects degraded-hardware
    behaviour (see :mod:`repro.simulate.faults`).
    """
    cluster.validate_configuration(config)
    if stall_frequency_hz is not None:
        cluster.validate_configuration(
            Configuration(config.nodes, config.cores, stall_frequency_hz)
        )
    noise = noise if noise is not None else NoiseModel()
    n, c = config.nodes, config.cores
    total_cores = n * c
    s_iters = program.iterations(class_name)

    demand = compute_demand(program, class_name, cluster, config, noise, rng)
    mem = resolve_memory(demand, cluster, config, rng, stall_frequency_hz)

    # fault injection: thermal throttling slows both the pipeline and the
    # memory subsystem of the straggler node
    if faults is not None and faults.active and faults.straggler_node < n:
        k = faults.straggler_node
        demand.compute_time_s[:, k, :] *= faults.straggler_factor
        mem.stall_time_s[:, k, :] *= faults.straggler_factor

    # fork/join: per-process compute phase ends with its slowest thread
    thread_time = demand.compute_time_s + mem.stall_time_s  # (S, n, c)
    compute_end = thread_time.max(axis=2)  # (S, n)

    net = resolve_network(
        program, class_name, cluster, config, compute_end, noise, rng
    )

    # protocol stack processing extends the process's critical path
    process_end = net.complete_s + net.cpu_cost_s  # (S, n)
    # background OS daemons steal time from individual nodes
    process_end = process_end + noise.daemon_time(rng, process_end)
    # bulk-synchronous barrier closes the iteration
    iteration_time = process_end.max(axis=1) + noise.barrier_skews(rng, (s_iters,))

    wall_time = float(iteration_time.sum()) + _startup_time_s(config, rng, noise)

    # ------------------------------------------------------------------
    # hardware counters (per-core averages, paper Eq. 2-7 form)
    # ------------------------------------------------------------------
    busy = float(thread_time.sum()) + float(net.cpu_cost_s.sum())
    counters = CounterTotals(
        instructions=float(demand.instructions.sum()),
        work_cycles=float(demand.work_cycles.sum()) / total_cores,
        nonmem_stall_cycles=float(demand.hazard_cycles.sum()) / total_cores,
        mem_stall_cycles=float(mem.stall_cycles.sum()) / total_cores,
        utilization=min(1.0, busy / (wall_time * total_cores)),
    )

    messages = MessageStats(
        total_messages=float(net.messages.sum()),
        total_bytes=float(net.bytes_sent.sum()),
    )

    # ------------------------------------------------------------------
    # phase breakdown (per-core averages)
    # ------------------------------------------------------------------
    t_cpu = float(demand.compute_time_s.sum()) / total_cores
    t_mem = float(mem.stall_time_s.sum()) / total_cores
    t_net = float(net.net_time_s.sum()) / n
    phases = PhaseBreakdown(
        t_cpu_s=t_cpu,
        t_mem_s=t_mem,
        t_net_s=t_net,
        t_other_s=max(0.0, wall_time - t_cpu - t_mem - t_net),
    )

    # ------------------------------------------------------------------
    # energy: exact integral of the true power model
    # ------------------------------------------------------------------
    active_per_thread = demand.compute_time_s.sum(axis=0)  # (n, c)
    active_per_thread[:, 0] += net.cpu_cost_s.sum(axis=0)  # MPI thread
    stall_per_thread = mem.stall_time_s.sum(axis=0)  # (n, c)
    net_per_process = net.net_time_s.sum(axis=0)  # (n,)
    mem_busy_per_node = mem.stall_time_s.sum(axis=(0, 2)) / c  # (n,)

    energy = integrate_energy(
        cluster,
        config,
        wall_time,
        active_per_thread,
        stall_per_thread,
        net_per_process,
        mem_busy_per_node,
        stall_frequency_hz=stall_frequency_hz,
    )

    trace = None
    if collect_trace:
        trace = IterationTrace(
            compute_s=demand.compute_time_s.mean(axis=(1, 2)),
            memory_s=mem.stall_time_s.mean(axis=(1, 2)),
            network_s=net.net_time_s.mean(axis=1),
            iteration_s=iteration_time,
        )

    return RunResult(
        program=program.name,
        class_name=class_name,
        cluster=cluster.name,
        config=config,
        wall_time_s=wall_time,
        energy=energy,
        counters=counters,
        messages=messages,
        phases=phases,
        trace=trace,
    )
