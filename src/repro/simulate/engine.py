"""Minimal discrete-event simulation core — a reference oracle only.

No production code path runs on this engine: the simulator resolves whole
iterations with vectorized queueing (:mod:`repro.simulate.queueing`), and
NetPIPE (:mod:`repro.measure.netpipe`) replays its two FIFO servers as a
plain float recursion.  The engine stays as the event-for-event oracle
those closed forms are checked against:

* the queueing property tests (Lindley solution vs an actual FIFO server);
* the NetPIPE oracle test (recursion vs a frame-by-frame event run);
* the Lindley-vs-event-engine gate in ``benchmarks/bench_sim_throughput.py``.

The engine is deliberately small: a time-ordered heap of callbacks plus a
FIFO single-server resource.  Determinism is guaranteed by a monotone
sequence number breaking ties in event time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())


class Simulator:
    """A time-ordered event loop.

    Events scheduled at equal times fire in scheduling order.  Scheduling in
    the past raises, which catches causality bugs early.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._events_processed

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, _Event(self.now + delay, next(self._seq), callback, args)
        )

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at an absolute time."""
        self.schedule(time - self.now, callback, *args)

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains (or ``until`` is reached).

        Returns the final simulation time.
        """
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return self.now
            event = heapq.heappop(self._heap)
            self.now = event.time
            self._events_processed += 1
            event.callback(*event.args)
        return self.now


class FifoServer:
    """A single FIFO server (memory controller / switch port analogue).

    Requests are served one at a time in submission order; each completed
    request is reported through its completion callback with the request's
    waiting time and completion time.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._busy_until = 0.0
        self.total_busy = 0.0
        self.requests_served = 0

    def submit(
        self,
        service_time: float,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> tuple[float, float]:
        """Submit a request now; returns ``(wait_time, completion_time)``.

        ``on_complete(wait, completion)`` additionally fires as an event at
        the completion time if given.
        """
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        start = max(self._sim.now, self._busy_until)
        wait = start - self._sim.now
        completion = start + service_time
        self._busy_until = completion
        self.total_busy += service_time
        self.requests_served += 1
        if on_complete is not None:
            self._sim.schedule_at(completion, on_complete, wait, completion)
        return wait, completion
