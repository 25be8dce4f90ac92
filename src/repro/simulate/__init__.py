"""Discrete-event cluster simulator — the testbed substitute.

The paper validates its analytical model against *direct measurement* on
physical Xeon and ARM clusters.  Having no hardware, this package plays the
testbed's role: it executes a :class:`~repro.workloads.base.HybridProgram`
on a :class:`~repro.machines.spec.ClusterSpec` configuration with
*structural* resolution — per-request queueing at the memory controller and
the Ethernet switch (vectorized Lindley recursions), per-thread imbalance,
bulk-synchronous barriers, OS jitter, and power-state accounting — none of
which reuses the analytical model's closed-form M/G/1 expressions, so
model-vs-simulator validation error is a real quantity.

Entry point: :class:`SimulatedCluster` (``cluster.py``), which returns
:class:`RunResult` records carrying wall time, a per-component energy
breakdown, hardware-counter totals and an mpiP-style message log;
:mod:`repro.simulate.runtime` executes each run.
"""

from repro.simulate.cluster import RunRequest, SimulatedCluster
from repro.simulate.results import (
    ComponentEnergy,
    CounterTotals,
    IterationTrace,
    MessageStats,
    RunResult,
)
from repro.simulate.noise import NoiseModel
from repro.simulate.faults import FaultModel, degraded_memory, degraded_network

__all__ = [
    "SimulatedCluster",
    "RunRequest",
    "RunResult",
    "ComponentEnergy",
    "CounterTotals",
    "IterationTrace",
    "MessageStats",
    "NoiseModel",
    "FaultModel",
    "degraded_memory",
    "degraded_network",
]
