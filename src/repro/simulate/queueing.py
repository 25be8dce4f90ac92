"""Vectorized single-server queue resolution (Lindley recursion).

Both shared resources the paper models — the per-node memory controller and
the cluster's Ethernet switch — are contended single servers.  The simulator
resolves their waiting times *per request* with the Lindley recursion

    W[0] = 0;  W[k] = max(0, W[k-1] + S[k-1] - A[k])

where ``S`` are service times and ``A`` inter-arrival gaps.  Solved naively
this is a Python-speed sequential loop; we use the prefix-form closed
solution instead:

    W[k] = C[k] - min(C[0..k]),   C[k] = cumsum(S[k-1] - A[k])

which is two :func:`numpy.cumsum`-class scans, fully vectorized, and — since
consecutive program iterations are separated by barriers that drain the
queues — batches across iterations as independent rows of a 2D array.

The guide's advice ("vectorize for loops", "beware of cache effects") is
what makes a ~900-run validation campaign take seconds instead of hours.
Because rows are independent, callers resolve them in cache-sized row
blocks (:func:`row_blocks`) rather than one whole-run pass.

One private kernel, ``_lindley_sorted``, does the arithmetic for every
queue: it takes rows already in FIFO order and returns the full wait
matrix, computed in place in one buffer whose column 0 is the first
request's zero wait.  :func:`lindley_waits` checks the ordering and calls
it; :func:`lindley_wait_sums` sums its rows.  The simulator's memory
controller and switch ports call it directly on :func:`fifo_sort` output,
and its NIC queues on posting times built ascending, so they skip the
ordering scan.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# The analytical Pollaczek-Khinchine counterpart the model uses lives in
# :mod:`repro.mg1` — the single shared definition for the scalar model,
# the vectorized engine and these property tests.  Re-exported here so the
# simulator-facing import path keeps working; with the default
# ``rho_max=None`` it returns ``inf`` for a saturated queue (ρ >= 1),
# exactly the theory convention the empirical-convergence tests expect.
from repro.mg1 import mg1_mean_wait

__all__ = [
    "fifo_sort",
    "lindley_waits",
    "lindley_wait_sums",
    "lindley_waits_loop",
    "merge_request_streams",
    "per_owner_totals",
    "mg1_mean_wait",
    "row_blocks",
]

#: Elements per row block of a simulator queue pass (64 KiB per float64
#: temporary).  Whole-run temporaries are large enough that the allocator
#: hands them back to the kernel, so every run faults fresh pages in;
#: block-sized ones are reused from its free lists.
_BLOCK_ELEMENTS = 8192


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices over ``rows`` independent queue rows.

    A row holds ``width`` elements; each block holds as many whole rows as
    fit in ``_BLOCK_ELEMENTS`` elements, and at least one.  Every per-row
    result depends on its own row only, so resolving rows block by block
    is bit-identical to one pass over all of them.
    """
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _lindley_sorted(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """The wait matrix of rows already in FIFO order: the one queue kernel.

    ``W[k] = C[k] - min(0, running_min(C)[k])`` for ``k >= 1``; the first
    request of every row never waits.  The gaps are written straight into
    columns ``1..`` of the result, whose column 0 is the first request's
    zero wait, and every later step runs in place there: one subtract,
    one cumsum, one accumulate, with a single extra temporary.  Rows are
    independent queues; any leading batch axes index rows, so the per-row
    arithmetic (and therefore the bit pattern of every wait) is identical
    no matter how many rows are stacked in front.

    Ordering is not checked: :func:`fifo_sort` output and the NIC posts of
    :func:`repro.simulate.network.resolve_network` (sorted offsets times a
    non-negative compute end) are ascending by construction, and
    :func:`lindley_waits` checks everything else.
    """
    waits = np.empty(arrivals.shape)
    waits[..., 0] = 0.0
    c = waits[..., 1:]
    # X[k] = S[k-1] - A_gap[k]
    np.subtract(arrivals[..., 1:], arrivals[..., :-1], out=c)
    np.subtract(services[..., :-1], c, out=c)
    np.cumsum(c, axis=-1, out=c)
    running_min = np.minimum(c, 0.0)
    np.minimum.accumulate(running_min, axis=-1, out=running_min)
    np.subtract(c, running_min, out=c)
    # guard fp noise: waits are non-negative by construction
    np.maximum(c, 0.0, out=c)
    return waits


def lindley_waits(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Waiting times at a FIFO single server, one row per independent batch.

    Parameters
    ----------
    arrivals:
        Arrival times, shape ``(R,)``, ``(B, R)`` or any ``(..., R)`` —
        the last axis is the request axis, every leading axis indexes
        independent queues.  Each row must be sorted ascending
        (requests are served in arrival order).
    services:
        Service times aligned with ``arrivals``.

    Returns
    -------
    Waiting times (time between arrival and start of service), same shape.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have identical shapes")
    if arrivals.size == 0:
        return np.zeros_like(arrivals)
    if arrivals.ndim == 0:
        raise ValueError("arrivals must have a request axis")
    if np.any(np.diff(arrivals, axis=-1) < -1e-12):
        raise ValueError("each arrival row must be sorted ascending")
    return _lindley_sorted(arrivals, services)


def lindley_wait_sums(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Per-row total waiting time — ``lindley_waits(...).sum(axis=-1)``.

    The memory-controller queue consumes only these totals; it sums the
    kernel's wait matrix the same way, leading zero included, so its
    pairwise-sum order (and every bit) matches this function.
    """
    return lindley_waits(arrivals, services).sum(axis=-1)


def lindley_waits_loop(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Reference O(R) scalar-loop Lindley recursion (for property tests)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    waits = np.zeros_like(arrivals)
    for k in range(1, arrivals.size):
        depart_prev = arrivals[k - 1] + waits[k - 1] + services[k - 1]
        waits[k] = max(0.0, depart_prev - arrivals[k])
    return waits


def _stable_argsort(arrivals: np.ndarray) -> np.ndarray:
    """Row-wise stable argsort: ties keep their input order."""
    return np.argsort(arrivals, axis=-1, kind="stable")


def _gather(
    arrivals: np.ndarray, streams: tuple[np.ndarray, ...], order: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Row-local ``order`` made flat, and every array gathered through it."""
    width = arrivals.shape[-1]
    flat = np.add(
        order,
        np.arange(0, arrivals.size, width).reshape(arrivals.shape[:-1] + (1,)),
        out=order,
    )
    return (flat,) + tuple(a.ravel().take(flat) for a in (arrivals, *streams))


def fifo_sort(
    arrivals: np.ndarray, *streams: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Put every row of ``arrivals`` into FIFO (ascending) order.

    ``streams`` (service times, owners, ...) share ``arrivals``' shape and
    are permuted alongside.  Returns ``(order, sorted_arrivals,
    *sorted_streams)``, where ``order`` indexes the flattened arrays.

    The sort is NumPy's default (SIMD) argsort, gathered by one flat
    ``take`` per array.  When every sorted row is strictly increasing the
    sorting permutation is unique, so it is the stable one bit for bit on
    any host.  A row with a tie (a zero-span thread puts every arrival at
    0.0) or a NaN fails that check and the whole call falls back to the
    stable sort, which serves tied requests in input order.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    streams = tuple(np.asarray(s) for s in streams)
    if arrivals.ndim == 0:
        raise ValueError("arrivals must have a request axis")
    if any(s.shape != arrivals.shape for s in streams):
        raise ValueError("every stream must have the shape of arrivals")
    if arrivals.size == 0:
        order = np.zeros(arrivals.shape, dtype=np.intp)
        return (order, arrivals.copy(), *(s.copy() for s in streams))
    gathered = _gather(arrivals, streams, np.argsort(arrivals, axis=-1))
    ranked = gathered[1]
    if not np.all(ranked[..., 1:] > ranked[..., :-1]):
        gathered = _gather(arrivals, streams, _stable_argsort(arrivals))
    return gathered


def merge_request_streams(
    arrivals: np.ndarray, services: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-owner request streams into one FIFO arrival order.

    Used to interleave the memory-request batches of ``c`` threads (or the
    messages of ``n`` processes) before resolving the shared queue.

    Parameters
    ----------
    arrivals, services, owners:
        Flat, same-length arrays; ``owners`` tags each request with the
        issuing thread/process index.

    Returns
    -------
    ``(sorted_arrivals, sorted_services, sorted_owners, order)`` where
    ``order`` is the permutation applied (so results can be scattered back).
    """
    order, arrivals, services, owners = fifo_sort(
        arrivals, np.asarray(services, dtype=np.float64), owners
    )
    return arrivals, services, owners, order


def per_owner_totals(
    values: np.ndarray, owners: np.ndarray, n_owners: int
) -> np.ndarray:
    """Sum ``values`` by owner index (e.g. per-thread total queue wait)."""
    return np.bincount(
        np.asarray(owners, dtype=np.intp), weights=values, minlength=n_owners
    )
