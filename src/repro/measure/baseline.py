"""Baseline-execution campaigns (paper §III-A, §III-E1).

The model's workload inputs come from running the program with a *small*
input on a *single node*, sweeping all (c, f) points and reading the
hardware counters: work cycles ``w_s``, non-memory stalls ``b_s``, memory
stalls ``m_s`` and utilization ``U_s``.  Communication characteristics are
profiled with mpiP on small multi-node runs (two node counts, so the
power-law scaling of η and ν can be fitted rather than assumed).

This module drives those campaigns against a :class:`~repro.simulate.
cluster.SimulatedCluster` exactly as an experimenter would drive a physical
one: repeated runs, averaged counter readings, no access to simulator
internals.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs, resilience
from repro.machines.spec import Configuration
from repro.measure.counters import CounterReading, read_counters
from repro.measure.mpip import MpiPReport, profile_run
from repro.measure.timecmd import measure_wall_time
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.base import HybridProgram


@dataclass(frozen=True)
class BaselinePoint:
    """Averaged counter measurements at one (c, f) baseline point."""

    cores: int
    frequency_hz: float
    instructions: float
    work_cycles: float
    nonmem_stall_cycles: float
    mem_stall_cycles: float
    utilization: float
    wall_time_s: float

    @classmethod
    def from_readings(
        cls,
        cores: int,
        frequency_hz: float,
        readings: list[CounterReading],
        wall_times: list[float],
    ) -> "BaselinePoint":
        """Average repeated measurements into one point."""
        return cls(
            cores=cores,
            frequency_hz=frequency_hz,
            instructions=float(np.mean([r.instructions for r in readings])),
            work_cycles=float(np.mean([r.work_cycles for r in readings])),
            nonmem_stall_cycles=float(
                np.mean([r.nonmem_stall_cycles for r in readings])
            ),
            mem_stall_cycles=float(np.mean([r.mem_stall_cycles for r in readings])),
            utilization=float(np.mean([r.utilization for r in readings])),
            wall_time_s=float(np.mean(wall_times)),
        )


@dataclass(frozen=True)
class BaselineSweep:
    """Full single-node (c, f) baseline characterization of one program."""

    program: str
    cluster: str
    class_name: str
    iterations: int
    points: Mapping[tuple[int, float], BaselinePoint]

    def point(self, cores: int, frequency_hz: float) -> BaselinePoint:
        """Look up the baseline point nearest to ``(c, f)``."""
        key = min(
            self.points,
            key=lambda k: (abs(k[0] - cores), abs(k[1] - frequency_hz)),
        )
        if key[0] != cores:
            raise KeyError(f"no baseline measurement for c={cores}")
        return self.points[key]


@dataclass(frozen=True)
class CommProfile:
    """mpiP reports at two node counts — enough to fit the scaling laws."""

    program: str
    class_name: str
    reports: tuple[MpiPReport, ...]

    def __post_init__(self) -> None:
        if len(self.reports) < 2:
            raise ValueError("need mpiP reports at >= 2 node counts to fit scaling")
        if len({r.nodes for r in self.reports}) != len(self.reports):
            raise ValueError("mpiP reports must be at distinct node counts")


#: Marker naming baseline point entries in their identity documents.
POINT_KIND = "repro_baseline_point"


def _campaign_identity(
    cluster: SimulatedCluster,
    program: HybridProgram,
    cls: str,
    repetitions: int,
    context: resilience.ResilienceContext | None,
) -> dict[str, object]:
    """Everything a sweep point depends on besides its own (c, f).

    The whole testbed (spec, noise model, root seed and faults, through
    its dataclass ``repr``), the program, class and repetitions, and the
    active resilience policy and chaos schedule, which drop and corrupt
    samples.  A checkpoint of any other campaign is never addressed.
    """
    return {
        "kind": POINT_KIND,
        "cluster": repr(cluster),
        "program": program.name,
        "class_name": cls,
        "repetitions": repetitions,
        "resilience": (
            None
            if context is None
            else [repr(context.policy), repr(context.chaos)]
        ),
    }


def run_baseline_sweep(
    cluster: SimulatedCluster,
    program: HybridProgram,
    class_name: str | None = None,
    repetitions: int = 3,
    checkpoint: str | pathlib.Path | None = None,
) -> BaselineSweep:
    """Single-node sweep over all (c, f): the paper's baseline executions.

    With ``checkpoint`` (a directory, see
    :mod:`repro.resilience.checkpoint`), each completed point is persisted
    as one disk-cache entry as it finishes and a re-invocation resumes,
    skipping completed points — the resumed sweep is bit-identical to an
    uninterrupted one.  Entries are keyed on the point's full identity
    (:func:`_campaign_identity` plus its (c, f)), so a torn entry or one
    of another campaign is a miss and that point is measured again.
    Under an enabled resilience context, points whose every repetition
    stays lost are dropped (recorded as lost units), as long as every
    core count keeps at least one frequency.
    """
    cls = class_name or program.reference_class
    spec = cluster.spec
    context = resilience.get_context()
    ck = campaign = None
    if checkpoint is not None:
        # imported here: repro.core.params imports this module, and the
        # cache imports the core model
        from repro.resilience.checkpoint import open_checkpoint

        ck = open_checkpoint(checkpoint)
        # a fresh directory holds no point: a cold sweep skips the reads
        stored = bool(ck.entries())
        campaign = _campaign_identity(
            cluster, program, cls, repetitions, context
        )
    points: dict[tuple[int, float], BaselinePoint] = {}
    lost_points: list[str] = []
    with obs.span("baseline_sweep", program=program.name, class_name=cls) as sp:
        for c in spec.node.core_counts:
            for f in spec.frequencies_hz:
                key = f"{c}@{f:.0f}"
                if ck is not None:
                    identity = {**campaign, "cores": c, "frequency_hz": f}
                    done = ck.get_doc(identity) if stored else None
                    if done is not None:
                        if done.get("lost"):
                            lost_points.append(key)
                        else:
                            points[(c, f)] = BaselinePoint(**done["point"])
                        continue
                config = Configuration(nodes=1, cores=c, frequency_hz=f)
                runs = cluster.run_many(
                    program, config, cls, repetitions=repetitions
                )
                readings: list[CounterReading] = []
                walls: list[float] = []
                for r in runs:
                    try:
                        reading = read_counters(r)
                        wall = measure_wall_time(r)
                    except resilience.SampleLost:
                        continue
                    readings.append(reading)
                    walls.append(wall)
                if not readings:
                    # every repetition of this point stayed lost: degrade
                    lost_points.append(key)
                    if context is not None:
                        context.note_lost_unit("baseline", key)
                    if ck is not None:
                        ck.put_doc(identity, {"lost": True})
                    continue
                point = BaselinePoint.from_readings(c, f, readings, walls)
                points[(c, f)] = point
                if ck is not None:
                    ck.put_doc(
                        identity,
                        {"lost": False, "point": dataclasses.asdict(point)},
                    )
        sp.set(points=len(points), repetitions=repetitions)
    missing = sorted(
        set(spec.node.core_counts) - {c for c, _ in points}
    )
    if missing:
        raise resilience.ResilienceError(
            "baseline sweep lost every (c, f) point for core count(s) "
            f"{missing}; the model cannot interpolate across core counts — "
            "raise --retries or relax the chaos schedule"
        )
    if obs.metrics_enabled():
        obs.add("baseline.runs", len(points) * repetitions)
    return BaselineSweep(
        program=program.name,
        cluster=spec.name,
        class_name=cls,
        iterations=program.iterations(cls),
        points=points,
    )


def profile_communication(
    cluster: SimulatedCluster,
    program: HybridProgram,
    class_name: str | None = None,
    node_counts: tuple[int, ...] = (2, 4),
) -> CommProfile:
    """mpiP profiling runs at small node counts (c=1, fmax)."""
    cls = class_name or program.reference_class
    spec = cluster.spec
    context = resilience.get_context()
    reports = []
    with obs.span("comm_profile", program=program.name, class_name=cls):
        for n in node_counts:
            config = Configuration(
                nodes=n, cores=1, frequency_hz=spec.node.core.fmax
            )
            run = cluster.run(program, config, cls)
            try:
                reports.append(
                    profile_run(run, iterations=program.iterations(cls))
                )
            except resilience.SampleLost:
                if context is not None:
                    context.note_lost_unit("mpip", f"n={n}")
    if len(reports) < min(2, len(node_counts)):
        raise resilience.ResilienceError(
            f"communication profiling lost all but {len(reports)} of "
            f"{len(node_counts)} mpiP reports; need reports at >= 2 node "
            "counts to fit the scaling laws — raise --retries or relax the "
            "chaos schedule"
        )
    return CommProfile(program=program.name, class_name=cls, reports=tuple(reports))
