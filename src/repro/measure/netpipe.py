"""NetPIPE-style network characterization (paper §III-E2, Fig. 3).

NetPIPE ping-pongs messages of exponentially growing sizes between two
nodes and reports per-size latency and throughput.  The paper uses it to
establish that MPI over TCP reaches only ~90 Mbps on the 100 Mbps link —
the ``B`` (communication throughput) input of the model.

One message is simulated at MTU-frame granularity through two FIFO
servers: the sending NIC serializes each frame, the switch
store-and-forwards it, and the receiving link serializes it again.
Frames pipeline across the two servers, so large transfers asymptote to
the link's effective bandwidth while small ones are dominated by the
protocol latency floor — reproducing Fig. 3's two regimes.

Every frame has the same service time, so each server is a plain
recursion over its arrivals in order:
``completion = max(arrival, busy_until) + frame_link_time``.  Frames
1..n−1 are posted to the sender at t=0 and frame 0 at
t=``per_message_overhead_s`` (the per-message protocol overhead is
charged once, on the first frame).  A frame reaches the receiver at
``(post + (completion − post)) + forwarding_latency_s``; the inner sum
keeps the rounding of an event scheduled at an absolute time, so the
latencies are bit-identical to a discrete-event run of the same two
servers (:mod:`repro.simulate.engine`, the test suite's oracle).

Known quirk of this model: frames 1..n−1 overtake frame 0 while it pays
the overhead, so a 2-frame 3000 B message has exactly the one-way
latency of a 1500 B one (436.67 µs on the ARM cluster).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import resilience
from repro import rng as rng_mod
from repro.machines.spec import ClusterSpec
from repro.units import mbps, to_mbps

#: Default NetPIPE sweep: 1 B to 16 MiB, powers of two.
DEFAULT_SIZES = tuple(2**k for k in range(0, 25))


@dataclass(frozen=True)
class NetpipeResult:
    """Latency/throughput curves over message size (Fig. 3's two series)."""

    message_bytes: np.ndarray
    latency_s: np.ndarray
    throughput_mbps: np.ndarray

    @property
    def peak_throughput_mbps(self) -> float:
        """The achievable-bandwidth plateau (the model's ``B``)."""
        return float(self.throughput_mbps.max())

    def achievable_bandwidth_bytes_per_s(self) -> float:
        """Peak throughput converted to bytes/s for the model."""
        return mbps(self.peak_throughput_mbps)

    def latency_floor_s(self) -> float:
        """Small-message one-way latency floor."""
        return float(self.latency_s.min())


def _one_way_time(cluster: ClusterSpec, size: float) -> float:
    """One-way transfer time for one message through sender and receiver."""
    nic = cluster.node.nic
    frames = max(1, int(np.ceil(size / nic.mtu_bytes)))
    frame_link_time = (size / frames) / nic.effective_bandwidth
    forwarding = cluster.switch.forwarding_latency_s

    # Frames in sender order: frame 0 is posted last, after its overhead.
    # Each leaves the sender a whole frame time after the one before, so
    # the receiver serves them in the same order.  Frames 1..n-1 are
    # posted at t=0, where ``max(0, sent)`` is ``sent`` and the arrival's
    # ``0 + (sent - 0)`` is ``sent`` bit for bit.
    sent = received = 0.0
    for _ in range(frames - 1):
        sent += frame_link_time
        arrival = sent + forwarding
        received = (arrival if arrival > received else received) + frame_link_time
    post = nic.per_message_overhead_s
    sent = max(post, sent) + frame_link_time
    arrival = (post + (sent - post)) + forwarding
    return max(arrival, received) + frame_link_time


def run_netpipe(
    cluster: ClusterSpec,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repetitions: int = 3,
    rng: np.random.Generator | None = None,
    root_seed: int = rng_mod.DEFAULT_ROOT_SEED,
) -> NetpipeResult:
    """Run the characterization sweep on a cluster's network."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if len(sizes) == 0:
        raise ValueError("NetPIPE needs at least one message size")
    bad = [size for size in sizes if not 0 <= size < np.inf]
    if bad:
        raise ValueError(
            f"message sizes must be finite and non-negative, got {bad}"
        )
    if rng is None:
        rng = rng_mod.derive(root_seed, "netpipe", cluster.name)
    latencies = np.empty(len(sizes))
    for i, size in enumerate(sizes):
        base = _one_way_time(cluster, float(size))
        # OS scheduling jitter on each timed ping
        observed = base * (1.0 + np.abs(rng.normal(0.0, 0.01, size=repetitions)))
        latencies[i] = observed.mean()
    if resilience.active():
        # All latencies are computed first (so the jitter stream is consumed
        # exactly as in an undisturbed sweep), then each size's timing is
        # routed through the resilience layer.  Sizes whose pings stay lost
        # after every retry are dropped from the curve: the bandwidth
        # plateau and latency floor survive on the remaining points.
        sizes, latencies = _resilient_sizes(cluster, sizes, latencies)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    throughput = to_mbps(sizes_arr / latencies)
    return NetpipeResult(
        message_bytes=sizes_arr,
        latency_s=latencies,
        throughput_mbps=throughput,
    )


def _resilient_sizes(
    cluster: ClusterSpec, sizes: tuple[int, ...], latencies: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-size resilience pass: retry, degrade, or fail actionably."""
    context = resilience.get_context()
    surviving_sizes: list[int] = []
    surviving_lat: list[float] = []
    for i, size in enumerate(sizes):
        try:
            lat = resilience.call(
                "netpipe",
                (cluster.name, f"size={size}"),
                lambda value=float(latencies[i]): value,
                corrupt=lambda value, factor: value * factor,
            )
        except resilience.SampleLost:
            if context is not None:
                context.note_lost_unit("netpipe", f"size={size}")
            continue
        surviving_sizes.append(size)
        surviving_lat.append(lat)
    if len(surviving_sizes) < 2:
        raise resilience.ResilienceError(
            f"NetPIPE lost all but {len(surviving_sizes)} of {len(sizes)} "
            "message sizes; need at least 2 to characterize the network — "
            "raise --retries or relax the chaos schedule"
        )
    return tuple(surviving_sizes), np.asarray(surviving_lat, dtype=np.float64)
