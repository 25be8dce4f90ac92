"""Compute-phase demand translation: program -> per-thread cycles.

For a run of program ``P`` at input class ``K`` on configuration
``(n, c, f)``, this module materializes the per-(iteration, process, thread)
compute demand:

* native instruction counts — the abstract per-iteration instructions split
  across ``n`` processes and ``c`` threads, plus the program's serial
  fraction (executed on thread 0 only) and its synchronization-overhead
  instructions (which grow superlinearly with ``n*c`` for programs like LB);
* useful work cycles ``w`` and non-memory pipeline stall cycles ``b`` from
  the core's ISA translation;
* frequency-invariant cache-hierarchy stall cycles (part of the paper's
  ``m``; the DRAM part is added by :mod:`repro.simulate.memory`);
* DRAM traffic per thread after cache-miss amplification for this node's
  hierarchy.

Thread and process imbalance are multiplicative lognormal factors drawn per
(iteration, process[, thread]) and normalized to preserve each iteration's
total work — imbalance moves work between threads, it does not create it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.spec import ClusterSpec, Configuration
from repro.simulate.noise import NoiseModel
from repro.workloads.base import HybridProgram


@dataclass(frozen=True)
class ComputeDemand:
    """Per-(iteration, process, thread) compute-phase demand arrays.

    All arrays have shape ``(S, n, c)``; times are seconds at the run's
    frequency, cycle counts are raw cycles.
    """

    instructions: np.ndarray
    work_cycles: np.ndarray
    hazard_cycles: np.ndarray
    cache_stall_cycles: np.ndarray
    dram_bytes: np.ndarray
    compute_time_s: np.ndarray  # (work + hazard) / f, jittered

    @property
    def shape(self) -> tuple[int, ...]:
        """``(S, n, c)``."""
        return self.instructions.shape


def _normalized_imbalance(
    rng: np.random.Generator, cv: float, shape: tuple[int, ...], axis: int
) -> np.ndarray:
    """Lognormal share multipliers with mean 1 along ``axis``.

    A coefficient of variation of 0 (or a single element along the axis)
    yields exact ones.
    """
    if cv <= 0 or shape[axis] == 1:
        return np.ones(shape)
    sigma = np.sqrt(np.log1p(cv * cv))
    draw = rng.lognormal(mean=0.0, sigma=sigma, size=shape)
    return draw / draw.mean(axis=axis, keepdims=True)


def compute_demand(
    program: HybridProgram,
    class_name: str,
    cluster: ClusterSpec,
    config: Configuration,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> ComputeDemand:
    """Materialize compute-phase demand for one run.

    Consumes ``rng`` in a fixed order: process shares, thread shares,
    phase jitter.
    """
    core = cluster.node.core
    memory = cluster.node.memory
    n, c = config.nodes, config.cores
    s_iters = program.iterations(class_name)
    shape = (s_iters, n, c)

    proc_shares = _normalized_imbalance(
        rng, program.process_imbalance, (s_iters, n, 1), axis=1
    )
    thread_shares = _normalized_imbalance(
        rng, program.thread_imbalance, shape, axis=2
    )
    jitter = noise.phase_multipliers(rng, shape)

    # --- abstract instructions per thread ------------------------------
    total_instr = program.instructions(class_name)
    sync_instr = program.sync_instructions(class_name, n, c)
    seq_instr = total_instr * program.sequential_fraction
    par_instr = total_instr - seq_instr

    # parallel share: split across n processes, then c threads, imbalanced
    abstract = (par_instr / (n * c)) * proc_shares * thread_shares
    # serial fraction runs on thread 0 of process 0
    abstract[:, 0, 0] += seq_instr
    # sync overhead is spread across all threads (it is busy-work everywhere)
    abstract += sync_instr / (n * c)

    # --- ISA translation ------------------------------------------------
    native = abstract * core.instruction_scale
    work = native * core.base_cpi
    hazard = native * core.hazard_cpi(program.mix)
    cache_stall = native * program.mix.mem * core.cache_stall_cpi

    # --- DRAM traffic ----------------------------------------------------
    amplification = memory.miss_amplification(program.working_set(class_name))
    dram_total = program.dram_bytes(class_name) * amplification
    dram = (dram_total / (n * c)) * proc_shares * thread_shares

    # --- wall time of the compute burst ---------------------------------
    compute_time = (work + hazard) / config.frequency_hz * jitter

    return ComputeDemand(
        instructions=native,
        work_cycles=work,
        hazard_cycles=hazard,
        cache_stall_cycles=cache_stall,
        dram_bytes=dram,
        compute_time_s=compute_time,
    )
