"""Residual calibration: probe-run corrections on the model's terms.

The paper contrasts its white-box model with black-box regression
approaches (§II-B: Barnes et al., Lee & Brooks, Prophesy).  This module
combines the two: keep the analytical structure, but fit small
multiplicative corrections to the Eq. 1 terms from a handful of *probe*
runs on the real system:

    T_measured  ≈  a·T_CPU + b·T_mem + c·T_s,net + d·T_w,net

solved by non-negative least squares over the probe set.  Corrections
near 1 confirm the model; systematic deviations absorb structural error
(e.g. barrier/straggler time the per-core means cannot see loads mostly
onto the terms it correlates with).  Unlike pure regression the corrected
model still extrapolates — the terms carry the physics; the coefficients
only rescale them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.energy_model import predict_energy
from repro.core.model import HybridProgramModel, Prediction
from repro.core.time_model import TimeBreakdown
from repro.machines.spec import Configuration
from repro.measure.timecmd import measure_wall_time
from repro.simulate.cluster import SimulatedCluster


@dataclass(frozen=True)
class TermCorrections:
    """Multiplicative corrections for the Eq. 1 terms."""

    cpu: float
    mem: float
    net_service: float
    net_wait: float

    def __post_init__(self) -> None:
        for name in ("cpu", "mem", "net_service", "net_wait"):
            if getattr(self, name) < 0:
                raise ValueError(f"correction {name} must be non-negative")

    @classmethod
    def identity(cls) -> "TermCorrections":
        """No-op corrections (the raw model)."""
        return cls(cpu=1.0, mem=1.0, net_service=1.0, net_wait=1.0)

    def apply(self, time: TimeBreakdown) -> TimeBreakdown:
        """Rescale a time breakdown's terms."""
        return TimeBreakdown(
            t_cpu_s=time.t_cpu_s * self.cpu,
            t_mem_s=time.t_mem_s * self.mem,
            t_net_service_s=time.t_net_service_s * self.net_service,
            t_net_wait_s=time.t_net_wait_s * self.net_wait,
            utilization_baseline=time.utilization_baseline,
            rho_network=time.rho_network,
        )


def _least_squares(
    a: Sequence[Sequence[float]], b: Sequence[float], cols: Sequence[int]
) -> list[float] | None:
    """Unconstrained least squares on the columns ``cols`` of ``a``.

    Householder QR in scalar Python: every dot product is a
    ``math.fsum``, so the bits depend on neither the BLAS build nor the
    interpreter's float ``sum``.  ``None`` when the columns are rank
    deficient.
    """
    m, k = len(b), len(cols)
    r = [[row[j] for j in cols] for row in a]
    y = list(b)
    for j in range(k):
        norm = math.sqrt(math.fsum(r[i][j] * r[i][j] for i in range(j, m)))
        if norm == 0.0:
            return None
        # reflect column j onto -sign(r_jj)·norm·e_j, so v[0] never cancels
        v = [r[i][j] for i in range(j, m)]
        v[0] += norm if v[0] >= 0.0 else -norm
        vv = math.fsum(x * x for x in v)
        for c in range(j, k):
            s = 2.0 * math.fsum(v[i - j] * r[i][c] for i in range(j, m)) / vv
            for i in range(j, m):
                r[i][c] -= s * v[i - j]
        s = 2.0 * math.fsum(v[i - j] * y[i] for i in range(j, m)) / vv
        for i in range(j, m):
            y[i] -= s * v[i - j]
    x = [0.0] * k
    for j in reversed(range(k)):
        tail = math.fsum(r[j][c] * x[c] for c in range(j + 1, k))
        x[j] = (y[j] - tail) / r[j][j]
    return x


def _nnls(a: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """Non-negative least squares ``min ||a x - b||  s.t.  x >= 0``.

    For a full-column-rank ``a`` the problem is strictly convex, and its
    unique minimizer is the unconstrained least-squares solution on its
    own support.  With four terms there are 15 non-empty supports, so
    try each and keep the all-positive solution with the smallest
    residual (``x = 0`` when none beats ``||b||``).
    """
    n = len(a[0])
    best = [0.0] * n
    best_residual = math.fsum(v * v for v in b)
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol = _least_squares(a, b, cols)
        if sol is None or min(sol) <= 0.0:
            continue
        residual = math.fsum(
            math.fsum([row[j] * x for j, x in zip(cols, sol)] + [-bi]) ** 2
            for row, bi in zip(a, b)
        )
        if residual < best_residual:
            best = [0.0] * n
            for j, x in zip(cols, sol):
                best[j] = x
            best_residual = residual
    return best


def fit_corrections(
    model: HybridProgramModel,
    testbed: SimulatedCluster,
    probe_configs: Sequence[Configuration],
    class_name: str | None = None,
    repetitions: int = 2,
    regularization: float = 0.05,
) -> TermCorrections:
    """Fit term corrections from probe runs on the testbed.

    Solves the non-negative least squares problem over the probes, with a
    small Tikhonov pull toward the identity corrections so that terms
    absent from the probe set (e.g. network terms when probing single-node
    configurations) stay at 1 instead of drifting to 0.  The solver is
    :func:`_nnls`: an exact search over the 15 supports of the four terms,
    each solved by Householder QR in scalar Python (no BLAS call).
    """
    if len(probe_configs) < 2:
        raise ValueError("need at least two probe configurations")
    rows = []
    targets = []
    for cfg in probe_configs:
        pred = model.predict(cfg, class_name)
        t = pred.time
        rows.append(
            [t.t_cpu_s, t.t_mem_s, t.t_net_service_s, t.t_net_wait_s]
        )
        measured = float(
            np.mean(
                [
                    measure_wall_time(r)
                    for r in testbed.run_many(
                        model.program, cfg, class_name, repetitions=repetitions
                    )
                ]
            )
        )
        targets.append(measured)

    a = np.asarray(rows, dtype=np.float64)
    b = np.asarray(targets, dtype=np.float64)
    # Tikhonov pull toward the identity corrections, scaled per column so
    # each term's penalty is commensurate with its influence on the fit:
    # minimize ||A x - b||^2 + sum_j lam_j^2 (x_j - 1)^2  with  x >= 0,
    # solved as NNLS on the stacked system [A; diag(lam)] x = [b; lam].
    column_norms = np.linalg.norm(a, axis=0)
    column_norms[column_norms == 0] = np.linalg.norm(b) or 1.0
    lam = regularization * column_norms
    a_aug = np.vstack([a, np.diag(lam)])
    b_aug = np.concatenate([b, lam])
    coeffs = _nnls(a_aug.tolist(), b_aug.tolist())
    return TermCorrections(
        cpu=float(coeffs[0]),
        mem=float(coeffs[1]),
        net_service=float(coeffs[2]),
        net_wait=float(coeffs[3]),
    )


@dataclass(frozen=True)
class CalibratedModel:
    """A model plus fitted term corrections.

    Exposes the same ``predict`` surface as
    :class:`~repro.core.model.HybridProgramModel`.
    """

    base: HybridProgramModel
    corrections: TermCorrections

    def predict(
        self, config: Configuration, class_name: str | None = None
    ) -> Prediction:
        """Predict with corrected Eq. 1 terms (energy re-derived from the
        corrected times via Eqs. 8-12)."""
        raw = self.base.predict(config, class_name)
        time = self.corrections.apply(raw.time)
        energy = predict_energy(
            self.base.inputs.power,
            time,
            nodes=config.nodes,
            cores=config.cores,
            frequency_hz=config.frequency_hz,
        )
        return Prediction(
            config=config,
            class_name=raw.class_name,
            time=time,
            energy=energy,
        )


def calibrate(
    model: HybridProgramModel,
    testbed: SimulatedCluster,
    probe_configs: Sequence[Configuration],
    class_name: str | None = None,
    repetitions: int = 2,
) -> CalibratedModel:
    """Fit corrections and wrap the model."""
    with obs.span(
        "calibrate", program=model.program.name, probes=len(probe_configs)
    ):
        corrections = fit_corrections(
            model, testbed, probe_configs, class_name, repetitions
        )
        return CalibratedModel(base=model, corrections=corrections)
