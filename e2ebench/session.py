"""Round bookkeeping shared by the workloads: timing, tracing, accounting.

Every measured sample belongs to a round, and every fresh set-up is a
sample of its own, taken between rounds at fixed points spread over the
run.  Each round and each set-up also records the share of the host's
CPU time the hypervisor stole while it ran (``steal`` in
``/proc/stat``); metrics are taken only from rounds and set-ups the
host left alone (:data:`STEAL_MAX`), and if too few are left, from the
least-disturbed quarter of them.  Values are never rescaled: a sample
is either used as measured or not used, and which samples are used
depends only on the host's steal counter, never on the samples.
"""

from __future__ import annotations

import math
import time
from statistics import median
from typing import Any, Callable, Iterator

import layers
from common import Schedule, llc_mib, run_probe
from tracer import Span, Tracer

#: Rounds in which more than this share of CPU time was stolen are set
#: aside (the measured effect is super-linear: with 20% steal, serve
#: throughput drops by 40%).
STEAL_MAX = 0.02
#: If fewer rounds than this share qualify, use the least-stolen ones.
MIN_KEPT_SHARE = 0.25


def read_steal() -> tuple[int, int]:
    """Cumulative (steal, total) jiffies over all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()[1:9]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    return values[7] if len(values) > 7 else 0, sum(values)


def least_stolen(steal: list[float]) -> set[int]:
    """Indices of the samples to use, given each one's steal share."""
    clean = {i for i, s in enumerate(steal) if s <= STEAL_MAX}
    need = max(1, math.ceil(MIN_KEPT_SHARE * len(steal)))
    if len(clean) >= need:
        return clean
    ranked = sorted(range(len(steal)), key=lambda i: steal[i])
    return set(ranked[:need])


def timed_steal(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``fn()`` and the share of CPU time stolen while it ran."""
    steal0, total0 = read_steal()
    result = fn()
    steal1, total1 = read_steal()
    return result, (steal1 - steal0) / max(1, total1 - total0)


class Session:
    """One benchmark run: rounds, samples, operation counts and a trace.

    With ``trace`` the rounds alternate between traced and untraced, so
    ``trace.overhead_frac`` compares rounds of the same shape measured in
    the same window of host speed.  The traced timeline is the sum of the
    traced windows, each counted once per concurrent lane (connection),
    and per-layer figures come only from spans recorded inside them.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = Tracer(layers.targets()) if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Traced windows as (start, end, lanes).
        self.windows: list[tuple[float, float, int]] = []
        self.round_s: dict[bool, list[float]] = {True: [], False: []}
        self.steal: list[float] = []
        #: Fresh set-up times with the steal share of each.
        self.setups: list[tuple[float, float]] = []
        self.samples: dict[str, list[tuple[int, float]]] = {}
        #: Spans recorded in a child process; replace this process's own.
        self.spans: list[Span] | None = None
        self.index = -1

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a wrong answer counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def sample(self, name: str, value: float) -> None:
        """Record one measured value of ``name`` in the current round."""
        self.samples.setdefault(name, []).append((self.index, value))

    def traced(self, fn: Callable[[], Any], lanes: int = 1) -> Any:
        """Run ``fn`` with the wrappers installed (plain call untraced)."""
        if self.tracer is None:
            return fn()
        self.tracer.install()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.windows.append((start, time.perf_counter(), lanes))
            self.tracer.uninstall()

    def round(
        self,
        fn: Callable[[], Any],
        switch: Callable[[bool], None] | None = None,
        lanes: int = 1,
    ) -> Any:
        """One measured round; traced on every other round when tracing.

        ``switch`` turns tracing on and off elsewhere (in a child
        process) instead of in this one; it runs outside the timing.
        """
        self.index += 1
        traced = self.trace and self.index % 2 == 0
        if traced and switch is not None:
            switch(True)

        def timed() -> tuple[Any, float, float]:
            start = time.perf_counter()
            if traced and switch is None:
                result = self.traced(fn, lanes)
            else:
                result = fn()
            return result, start, time.perf_counter()

        (result, start, end), steal = timed_steal(timed)
        if traced and switch is not None:
            switch(False)
            self.windows.append((start, end, lanes))
        self.round_s[traced].append(end - start)
        self.steal.append(steal)
        return result

    def rounds(
        self, seconds: float, setup: Callable[[], float], setups: int
    ) -> Iterator[None]:
        """Yield once per round for ``seconds`` (at least twice).

        ``setups`` fresh set-ups (``setup()`` returns its time in
        seconds) fall due at even points of the run, each between two
        rounds, so they sample the same windows of host speed as the
        rounds do.
        """
        start = time.perf_counter()
        schedule = Schedule(start, seconds, setups)
        while time.perf_counter() - start < seconds or self.index < 1:
            if schedule.due(time.perf_counter()):
                self.setups.append(timed_steal(setup))
            yield
        while schedule.done < schedule.count:
            schedule.done += 1
            self.setups.append(timed_steal(setup))

    def setup_s(self) -> float:
        """Median fresh set-up time over the set-ups the host left alone."""
        kept = least_stolen([steal for _, steal in self.setups])
        return median([value for i, (value, _) in enumerate(self.setups) if i in kept])

    def kept_rounds(self) -> set[int]:
        """Indices of the rounds whose samples the metrics use."""
        return least_stolen(self.steal)

    def values(self, name: str) -> list[float]:
        """Samples of ``name`` from the kept rounds."""
        kept = self.kept_rounds()
        return [v for i, v in self.samples[name] if i in kept]

    def round_tags(self) -> dict[str, Any]:
        """Round and sample counts and host steal, for the run's tag line."""
        return {
            "rounds": len(self.steal),
            "rounds_kept": len(self.kept_rounds()),
            "samples_kept": {name: len(self.values(name)) for name in self.samples},
            "steal_median": median(self.steal) if self.steal else 0.0,
            "setups": len(self.setups),
            "setups_kept": len(least_stolen([s for _, s in self.setups])),
            "steal_max": STEAL_MAX,
        }

    def overhead_frac(self) -> float:
        """Median traced round time over median untraced round time, - 1."""
        on, off = self.round_s[True], self.round_s[False]
        return median(on) / median(off) - 1.0 if on and off else 0.0

    def check_timeline(self, spans: list[Span], unattributed_s: float) -> None:
        """Check the traced timeline, each check as one operation.

        ``trace.unattributed_s`` is the traced wall time minus every
        span's self time, so the layer self times plus it equal
        ``trace.wall_s`` by definition.  What can go wrong is checked
        instead: a span recorded outside every traced window, and spans
        whose self times add up to more than the traced wall time
        (concurrent spans beyond the windows' lanes), which makes the
        remainder negative.
        """
        outside = sum(
            1
            for span in spans
            if not any(
                lo <= span.start and span.end <= hi for lo, hi, _ in self.windows
            )
        )
        self.check(outside == 0, f"{outside} spans fall outside the traced windows")
        self.check(
            unattributed_s >= 0.0, "layer self times exceed the traced wall time"
        )

    def per_layer(self) -> dict[str, float]:
        """The per-layer table, with the copy bandwidth probed in a child."""
        spans = self.tracer.spans if self.spans is None else self.spans
        llc = llc_mib()
        copy = run_probe("copy", str(4 * llc))
        table = layers.per_layer(
            spans,
            sum((end - start) * lanes for start, end, lanes in self.windows),
            copy["copy_gbs"],
            copy["array_mib"],
            llc,
            self.overhead_frac(),
        )
        self.check_timeline(spans, table["trace.unattributed_s"])
        return table
