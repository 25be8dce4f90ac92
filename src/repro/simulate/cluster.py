"""`SimulatedCluster`: the facade standing in for a physical testbed.

Owns a :class:`~repro.machines.spec.ClusterSpec`, a noise model and a root
seed, and exposes exactly what an experimenter with SSH access and a wall
meter could do: run a program at a configuration (repeatedly, with
run-to-run variation) and read back wall time, energy, counters and the
message log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro import rng as rng_mod
from repro.machines.spec import ClusterSpec, Configuration
from repro.simulate.faults import FaultModel
from repro.simulate.noise import NoiseModel
from repro.simulate.results import RunResult
from repro.simulate.runtime import execute
from repro.workloads.base import HybridProgram


@dataclass(frozen=True)
class RunRequest:
    """One run of a batch submission (see `SimulatedCluster.run_batch`).

    The same knobs as `SimulatedCluster.run`, as data — a batch is a
    list of these, freely mixing configurations, repetition indices and
    DVFS throttle points.
    """

    program: HybridProgram
    config: Configuration
    class_name: str | None = None
    run_index: int = 0
    stall_frequency_hz: float | None = None
    collect_trace: bool = False


@dataclass
class SimulatedCluster:
    """A runnable cluster: spec + noise + seed discipline.

    Each ``(program, class, config, run_index)`` tuple maps to a unique,
    reproducible random stream, so repeated calls with the same arguments
    return identical results while distinct ``run_index`` values model
    genuinely different executions (the paper's §IV-C "different runs of
    the same program" irregularity).
    """

    spec: ClusterSpec
    noise: NoiseModel = field(default_factory=NoiseModel)
    root_seed: int = rng_mod.DEFAULT_ROOT_SEED
    faults: "FaultModel | None" = None

    def _stream(
        self,
        program: HybridProgram,
        class_name: str,
        config: Configuration,
        run_index: int,
    ) -> np.random.Generator:
        """The named RNG stream owning this run's randomness."""
        return rng_mod.derive(
            self.root_seed,
            self.spec.name,
            program.name,
            class_name,
            f"n={config.nodes},c={config.cores},f={config.frequency_hz:.0f}",
            f"run={run_index}",
        )

    def run(
        self,
        program: HybridProgram,
        config: Configuration,
        class_name: str | None = None,
        run_index: int = 0,
        stall_frequency_hz: float | None = None,
        collect_trace: bool = False,
    ) -> RunResult:
        """Execute one run and return the observable result.

        ``stall_frequency_hz`` throttles stalled cores (phase-aware DVFS);
        ``collect_trace`` attaches the per-iteration phase timeline.
        """
        cls = class_name or program.reference_class
        # the DVFS knob deliberately does NOT enter the stream name: a
        # throttled and an unthrottled run with the same run_index share
        # identical workload randomness, so schedule comparisons are paired
        stream = self._stream(program, cls, config, run_index)
        return execute(
            program,
            cls,
            self.spec,
            config,
            stream,
            self.noise,
            stall_frequency_hz=stall_frequency_hz,
            collect_trace=collect_trace,
            faults=self.faults,
        )

    def run_batch(self, requests: Sequence[RunRequest]) -> list[RunResult]:
        """Execute a batch of runs, results in request order.

        Each run is exactly the equivalent `run` call (same named stream).
        """
        return [
            self.run(
                r.program,
                r.config,
                r.class_name,
                run_index=r.run_index,
                stall_frequency_hz=r.stall_frequency_hz,
                collect_trace=r.collect_trace,
            )
            for r in requests
        ]

    def run_many(
        self,
        program: HybridProgram,
        config: Configuration,
        class_name: str | None = None,
        repetitions: int = 3,
    ) -> list[RunResult]:
        """Repeat a run with independent noise draws (measurement practice)."""
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        return self.run_batch(
            [
                RunRequest(program, config, class_name, run_index=i)
                for i in range(repetitions)
            ]
        )

    def deterministic(self) -> "SimulatedCluster":
        """A noise-free copy (unit tests / debugging); faults are kept."""
        return replace(self, noise=NoiseModel.disabled())
