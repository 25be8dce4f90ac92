"""Characterization: run the measurement campaigns, assemble ModelInputs.

This is the left half of the paper's Fig. 2: baseline executions on a
single node over all (c, f), mpiP profiling for communication
characteristics, NetPIPE for network throughput and the power
micro-benchmarks — everything the model consumes, produced purely through
the measurement interfaces.

The communication scaling laws are *fitted*, not assumed: mpiP reports at
two (or more) node counts give exact log-log slopes for η(n) and the
per-process volume(n), which is how a practitioner would generalize two
profiling runs to the whole configuration space.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro import obs
from repro.core.params import (
    BaselineArtefacts,
    CommCharacteristics,
    ModelInputs,
    NetworkCharacteristics,
)
from repro.measure.baseline import (
    CommProfile,
    profile_communication,
    run_baseline_sweep,
)
from repro.measure.microbench import characterize_power
from repro.measure.netpipe import run_netpipe
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.base import HybridProgram


def fit_comm_model(profile: CommProfile) -> CommCharacteristics:
    """Fit the η(n) and volume(n) power laws from mpiP reports.

    A log-log least-squares fit over the profiled node counts; with the
    customary two profiling runs this is an exact two-point fit.  Values
    are normalized to the reference node count n = 2.
    """
    nodes = np.array([r.nodes for r in profile.reports], dtype=np.float64)
    eta = np.array([r.eta_per_process_iter for r in profile.reports])
    vol = np.array([r.volume_per_process_iter for r in profile.reports])
    if np.any(eta <= 0) or np.any(vol <= 0):
        raise ValueError("mpiP reports show no communication; cannot fit laws")

    log_n = np.log(nodes / 2.0)
    if np.allclose(log_n, 0.0):
        raise ValueError("need at least one profile at n != 2 to fit exponents")

    eta_exp, log_eta_ref = np.polyfit(log_n, np.log(eta), 1)
    neg_vol_exp, log_vol_ref = np.polyfit(log_n, np.log(vol), 1)
    return CommCharacteristics(
        eta_ref=float(np.exp(log_eta_ref)),
        volume_ref=float(np.exp(log_vol_ref)),
        eta_exponent=float(eta_exp),
        volume_exponent=float(-neg_vol_exp),
    )


def characterize(
    cluster: SimulatedCluster,
    program: HybridProgram,
    class_name: str | None = None,
    repetitions: int = 3,
    comm_node_counts: tuple[int, ...] = (2, 4),
    baseline_checkpoint: str | pathlib.Path | None = None,
) -> ModelInputs:
    """Run the full characterization campaign for one program on one cluster.

    This is the only constructor of :class:`ModelInputs` used in validation:
    every value passes through a measurement interface (counters, mpiP,
    NetPIPE, wall meter), never through simulator internals.

    ``baseline_checkpoint`` (a checkpoint directory) makes the baseline
    (c, f) sweep resumable; under an enabled resilience context the whole
    campaign degrades gracefully on lost samples (see
    :func:`repro.resilience.pipeline.characterize_resilient` for the
    coverage record).
    """
    cls = class_name or program.reference_class
    with obs.span("characterize", program=program.name, class_name=cls):
        sweep = run_baseline_sweep(
            cluster,
            program,
            cls,
            repetitions=repetitions,
            checkpoint=baseline_checkpoint,
        )
        comm = fit_comm_model(
            profile_communication(
                cluster, program, cls, node_counts=comm_node_counts
            )
        )
        pipe = run_netpipe(cluster.spec)
        network = NetworkCharacteristics(
            bandwidth_bytes_per_s=pipe.achievable_bandwidth_bytes_per_s(),
            latency_floor_s=pipe.latency_floor_s(),
        )
        power = characterize_power(cluster.spec)
    if obs.metrics_enabled():
        obs.add("characterize.campaigns")
        obs.add("characterize.baseline_points", len(sweep.points))
    return ModelInputs(
        program=program.name,
        cluster=cluster.spec.name,
        baseline_class=cls,
        baseline_iterations=program.iterations(cls),
        baseline=ModelInputs.baseline_from_sweep(sweep),
        comm=comm,
        network=network,
        power=power,
    )
