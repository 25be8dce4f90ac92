"""Inter-node communication: NIC serialization + output-queued switch.

The communication phase of each iteration (paper Listing 1: the MPI_Send /
MPI_Recv block after the OpenMP region) is resolved structurally:

* each logical process posts its ``η_iter`` messages during the tail of its
  compute burst (non-blocking sends progressed by the MPI runtime — the
  computation/communication *overlap* the model's Eq. 6 captures with
  ``max((1-U)·T_CPU, η·ν/B)``);
* a process's NIC serializes its own messages (per-message protocol
  overhead + bytes at the link's effective MPI-over-TCP bandwidth, the
  Fig. 3 plateau);
* the switch is a modern non-blocking fabric: contention happens at the
  *output ports*.  Each message carries a destination (round-robin over
  the peers — halo neighborhoods and all-to-all transposes both spread
  traffic this way), and every destination port is a FIFO server resolved
  with an exact Lindley pass per iteration.  This is the paper's Eq. 5
  queue: messages from multiple senders converging on one receiver wait
  behind each other;
* the iteration ends with a cluster-wide barrier once every process's
  sends and receives have completed (bulk-synchronous exchange).

CPU-side protocol cost (per-message and per-byte) is charged to the
sending process and returned separately so the runtime can add it to busy
time — it is the reason measured CPU utilization ``U`` exceeds the pure-
compute share.

Everything vectorizes with iterations as independent rows, resolved in
cache-sized blocks of iterations; within a block of ``R`` iterations the NIC
queues are a batched Lindley over ``(R*n, M)`` and each output port over
``(R, K_port)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.spec import ClusterSpec, Configuration
from repro.simulate.noise import NoiseModel
from repro.simulate.queueing import (
    _lindley_sorted,
    fifo_sort,
    row_blocks,
)
from repro.workloads.base import HybridProgram

#: Fraction of the compute burst during which sends are posted (the tail).
#: The MPI block follows the OpenMP region (Listing 1), so only a small
#: tail of computation overlaps with message progression.
POST_WINDOW = 0.1

#: Coefficient of variation of individual message sizes around ν.
SIZE_CV = 0.30


@dataclass(frozen=True)
class NetworkOutcome:
    """Communication results per (iteration, process).

    ``complete_s`` — absolute time (within the iteration, relative to the
    iteration start) at which each process's communication — sends accepted
    and inbound messages received — finished;
    ``net_time_s`` — non-overlapped network time per process (wait beyond
    its own compute end);
    ``cpu_cost_s`` — CPU time burned in the protocol stack per process;
    ``port_wait_s`` / ``wire_time_s`` — queueing vs service diagnostics
    (attributed to the receiving process);
    ``messages`` / ``bytes_sent`` — per-process message-log totals for the
    mpiP-style profiler.
    """

    complete_s: np.ndarray
    net_time_s: np.ndarray
    cpu_cost_s: np.ndarray
    port_wait_s: np.ndarray
    wire_time_s: np.ndarray
    messages: np.ndarray
    bytes_sent: np.ndarray


def _message_counts(program: HybridProgram, nodes: int) -> int:
    """Integer messages per process per iteration (>=1 when communicating)."""
    eta = program.messages_per_process(nodes)
    return max(1, int(round(eta))) if nodes > 1 else 0


def _destinations(nodes: int, msgs: int) -> np.ndarray:
    """Destination matrix (n, M): round-robin over the other nodes.

    Models both halo neighborhoods and all-to-all transposes: traffic is
    spread evenly across peers, never self-addressed.
    """
    senders = np.arange(nodes)[:, None]
    k = np.arange(msgs)[None, :]
    return (senders + 1 + (k % (nodes - 1))) % nodes


def resolve_network(
    program: HybridProgram,
    class_name: str,
    cluster: ClusterSpec,
    config: Configuration,
    compute_end_s: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> NetworkOutcome:
    """Resolve the communication phase for every (iteration, process).

    ``compute_end_s`` has shape ``(S, n)``: per-process compute completion
    (including memory stalls) relative to the iteration start.  A
    communicating run consumes ``rng`` in a fixed order — lognormal
    message sizes around ``ν``, then posting offsets within the
    compute-burst tail; a single-node run consumes nothing.
    """
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
    offsets = rng.uniform(1.0 - POST_WINDOW, 1.0, size=(s_iters, n, msgs))
    offsets.sort(axis=-1)

    # Ports are independent queues; round-robin traffic gives (almost)
    # every port the same message count, so ports with equal occupancy
    # stack as extra rows of one Lindley pass.  Each port's messages are
    # gathered in ascending flat (sender, message) order — exactly the
    # order a per-port boolean mask would produce — so per-row results
    # are bit-identical to resolving ports one at a time.
    dests_flat = _destinations(n, msgs).ravel()  # (n*M,)
    port_indices = [np.nonzero(dests_flat == q)[0] for q in range(n)]
    by_count: dict[int, list[int]] = {}
    for q, idx in enumerate(port_indices):
        if idx.size:
            by_count.setdefault(idx.size, []).append(q)
    port_groups = [
        (ports, np.stack([port_indices[q] for q in ports]))  # (P, K)
        for ports in by_count.values()
    ]

    send_complete = np.empty(compute_end_s.shape)
    receive_complete = np.zeros(compute_end_s.shape)
    port_wait = np.zeros(compute_end_s.shape)
    wire_time = np.zeros(compute_end_s.shape)
    # Both queue kinds drain at the barrier, so iterations are independent
    # rows: resolve them in cache-sized blocks of iterations.
    for block in row_blocks(s_iters, n * msgs):
        block_sizes = sizes[block]  # (R, n, M)

        # --- posting times: sends issued during the tail of the burst
        posts = compute_end_s[block, :, None] * offsets[block]

        # --- NIC egress serialization (per-sender FIFO) ------------------
        nic_service = (
            nic.per_message_overhead_s + block_sizes / nic.effective_bandwidth
        )
        posts_flat = posts.reshape(-1, msgs)
        nic_service_flat = nic_service.reshape(-1, msgs)
        # rows are ascending by construction (sorted offsets times a
        # non-negative compute end), so no ordering check is needed
        nic_waits = _lindley_sorted(posts_flat, nic_service_flat)
        egress = (posts_flat + nic_waits + nic_service_flat).reshape(posts.shape)
        send_complete[block] = egress.max(axis=-1)  # last send accepted

        # --- output-port queueing at the switch --------------------------
        port_service = (
            switch.forwarding_latency_s + block_sizes / switch.port_bytes_per_s
        )
        egress_flat = egress.reshape(-1, n * msgs)
        service_flat = port_service.reshape(egress_flat.shape)
        for ports, gather in port_groups:
            arr_q = egress_flat[:, gather]  # (R, P, K)
            svc_q = service_flat[:, gather]
            _, sorted_arr, sorted_svc = fifo_sort(arr_q, svc_q)
            waits = _lindley_sorted(sorted_arr, sorted_svc)
            completions = sorted_arr + waits + sorted_svc
            receive_complete[block, ports] = completions.max(axis=-1)
            port_wait[block, ports] = waits.sum(axis=-1)
            wire_time[block, ports] = sorted_svc.sum(axis=-1)

    complete = np.maximum(
        np.maximum(send_complete, receive_complete), compute_end_s
    )

    bytes_sent = sizes.sum(axis=-1)
    cpu_cost = (
        msgs * nic.cpu_cost_per_message_s + bytes_sent * nic.cpu_cost_per_byte_s
    )

    net_time = complete - compute_end_s
    return NetworkOutcome(
        complete_s=complete,
        net_time_s=net_time,
        cpu_cost_s=cpu_cost,
        port_wait_s=port_wait,
        wire_time_s=wire_time,
        messages=np.full(compute_end_s.shape, float(msgs)),
        bytes_sent=bytes_sent,
    )
