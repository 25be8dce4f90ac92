"""Shared-memory contention: per-node memory-controller queueing.

Within a node, the ``c`` OpenMP threads of the compute phase contend for one
UMA memory controller (paper §III-C: "the parallel threads within a logical
process contend for shared-memory").  The simulator resolves this
structurally rather than with the model's closed form:

* each thread's per-iteration DRAM traffic is split into ``BATCHES``
  request batches whose arrival instants are spread randomly across the
  thread's compute burst;
* all batches of one (iteration, node) meet at the controller, a FIFO
  server with the spec's sustained bandwidth — waits come from the exact
  Lindley recursion over the merged arrival order;
* a batch's core-visible cost is its queue wait plus the larger of its
  bandwidth term and its latency-exposure term (``lines * latency / mlp``) —
  bandwidth-bound on wide machines, latency-bound on the ARM node;
* the out-of-order engine hides ``memory_overlap`` of that cost under
  computation; the remainder is memory stall time, which the counters
  report as stall *cycles* ``m = stall_time * f`` plus the
  frequency-invariant cache-stall cycles from :mod:`repro.simulate.cpu`.

Everything is vectorized with (iteration, node) rows as independent queues
(queues drain at each barrier), resolved in cache-sized row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.spec import ClusterSpec, Configuration
from repro.simulate.cpu import ComputeDemand
from repro.simulate.queueing import _lindley_sorted, fifo_sort, row_blocks

#: Request batches per thread per iteration.  Large enough to interleave
#: threads realistically, small enough to keep arrays tiny.  A power of
#: two, so a thread's summed batch costs are one product (resolve_memory).
BATCHES = 8


@dataclass(frozen=True)
class MemoryOutcome:
    """Memory-phase results, all arrays shaped ``(S, n, c)`` in seconds.

    ``stall_time_s`` is the core-visible non-overlapped memory time (the
    paper's ``T_w,mem + T_s,mem`` contribution of each thread);
    ``wait_time_s`` / ``service_time_s`` split it into contention and
    service for UCR-style diagnostics; ``stall_cycles`` is what the
    hardware counters report (includes cache-hierarchy stalls).
    """

    stall_time_s: np.ndarray
    wait_time_s: np.ndarray
    service_time_s: np.ndarray
    stall_cycles: np.ndarray


def resolve_memory(
    demand: ComputeDemand,
    cluster: ClusterSpec,
    config: Configuration,
    rng: np.random.Generator,
    stall_frequency_hz: float | None = None,
) -> MemoryOutcome:
    """Resolve memory contention for every (iteration, node, thread).

    ``stall_frequency_hz`` supports phase-aware DVFS (the related-work
    technique the paper says composes with its approach): cores clock down
    to this frequency while stalled on memory.  DRAM waits are time-bound
    and unaffected, but the pipeline-coupled cache stalls take
    ``cycles / f_stall`` of wall time instead of ``cycles / f``.
    """
    memory = cluster.node.memory
    core = cluster.node.core
    s_iters, n, c = demand.shape
    f = config.frequency_hz
    f_stall = stall_frequency_hz if stall_frequency_hz is not None else f

    # uniform [0, 1) positions of each request batch within its thread's
    # compute burst, drawn node-major in one call: (n, S, c*B)
    arrival_fractions = rng.uniform(0.0, 1.0, size=(n, s_iters, c * BATCHES))

    bandwidth = memory.bandwidth_bytes_per_s
    latency_per_line = memory.latency_s / core.mlp
    lines_per_byte = 1.0 / core.line_bytes

    # Controllers are independent per node, so every (iteration, node) row
    # is its own queue — the demand arrays' natural ``(S, n, c)`` layout
    # already exposes them as rows.  Rows are resolved in cache-sized
    # blocks; only the per-row wait total and per-thread service leave a
    # block.
    rows = s_iters * n
    dram_rows = demand.dram_bytes.reshape(rows, c)
    span_rows = demand.compute_time_s.reshape(rows, c)
    total_wait = np.empty(rows)
    service = np.empty((rows, c))
    for block in row_blocks(rows, c * BATCHES):
        # the draws arrive node-major (generator-order constraint):
        # gather this block's (iteration, node) rows out of them
        index = np.arange(block.start, block.stop)
        fractions = arrival_fractions[index % n, index // n]  # (R, c*B)

        # per-thread batch costs are computed once per thread, then
        # repeated over its batches: (R, c) -> (R, c*B)
        batch_bytes = dram_rows[block] / BATCHES
        arrivals = fractions * np.repeat(span_rows[block], BATCHES, axis=-1)

        # bandwidth term occupies the controller; latency term is exposed
        # at the core but pipelined through the controller.
        bw_service = batch_bytes / bandwidth
        lat_exposure = batch_bytes * lines_per_byte * latency_per_line
        # core-visible service: bandwidth vs latency exposure, whichever
        # binds
        core_cost = np.maximum(bw_service, lat_exposure)

        _, sorted_arrivals, sorted_service = fifo_sort(
            arrivals, np.repeat(bw_service, BATCHES, axis=-1)
        )
        total_wait[block] = _lindley_sorted(
            sorted_arrivals, sorted_service
        ).sum(axis=-1)
        # per-thread service, its BATCHES equal batch costs summed: the
        # product is that sum bit for bit (pairwise addition of a power
        # of two of equal doubles only ever doubles)
        service[block] = core_cost * BATCHES
    service = service.reshape(s_iters, n, c)

    # Real contention interleaves at cache-line granularity, so every
    # thread sees the same *average* queue — the per-iteration total
    # waiting (from the exact Lindley pass over the batch arrival
    # pattern) is attributed to threads in proportion to their traffic.
    total_wait = total_wait.reshape(s_iters, n, 1)
    bytes_total = demand.dram_bytes.sum(axis=-1, keepdims=True)
    share = np.divide(
        demand.dram_bytes,
        bytes_total,
        out=np.full(demand.dram_bytes.shape, 1.0 / c),
        where=bytes_total > 0,
    )
    wait = total_wait * share  # (S, n, c)

    exposed = 1.0 - core.memory_overlap
    stall_time = (wait + service) * exposed
    stall_cycles = stall_time * f + demand.cache_stall_cycles
    # cache stalls also consume wall time, at the (possibly throttled)
    # stall-phase frequency
    stall_time_total = stall_time + demand.cache_stall_cycles / f_stall

    return MemoryOutcome(
        stall_time_s=stall_time_total,
        wait_time_s=wait * exposed,
        service_time_s=service * exposed + demand.cache_stall_cycles / f_stall,
        stall_cycles=stall_cycles,
    )
