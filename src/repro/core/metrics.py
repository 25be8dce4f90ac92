"""Energy-efficiency metrics beyond the paper's UCR.

The paper argues CCR is un-normalized and proposes UCR; the wider HPC
energy literature uses several complementary figures of merit, provided
here over :class:`~repro.core.model.Prediction` objects so every analysis
in the library can report them:

* **EDP / ED²P** — energy-delay products (Horowitz): scalarizations of the
  time-energy trade-off that weight delay linearly or quadratically;
* **throughput per watt** — abstract instructions per second per watt,
  the Green500-style rate metric;
* EDP-optimal selection over a space evaluation — a principled
  single-point pick when neither a deadline nor a budget exists (compare
  with the geometric knee of :func:`repro.core.optimizer.knee_point`).
"""

from __future__ import annotations

import numpy as np

from repro.core.configspace import SpaceEvaluation
from repro.core.model import HybridProgramModel, Prediction
from repro.core.optimizer import ResultArrays


def edp(prediction: Prediction) -> float:
    """Energy-delay product ``E * T`` (J*s)."""
    return prediction.energy_j * prediction.time_s


def ed2p(prediction: Prediction) -> float:
    """Energy-delay-squared product ``E * T^2`` (J*s^2) — favours speed."""
    return prediction.energy_j * prediction.time_s**2


def throughput_per_watt(
    model: HybridProgramModel, prediction: Prediction
) -> float:
    """Abstract instructions per second per watt for the whole run."""
    cls = prediction.class_name
    total_instr = (
        model.program.instructions(cls) * model.program.iterations(cls)
    )
    mean_power = prediction.energy_j / prediction.time_s
    return total_instr / prediction.time_s / mean_power


def edp_optimal(evaluation: ResultArrays, weight: int = 1) -> int:
    """Index of the configuration minimizing ``E * T^weight`` over the
    space (first on ties).

    ``weight=1`` is EDP, ``weight=2`` ED²P.  EDP/ED²P optima always lie on
    the time-energy Pareto frontier (a dominated point is beaten on both
    factors), which the tests exploit as an invariant.
    """
    if weight < 1:
        raise ValueError("weight must be at least 1")
    scores = evaluation.energies_j * evaluation.times_s**weight
    return int(np.argmin(scores))


def relative_efficiency(
    evaluation: SpaceEvaluation, prediction: Prediction
) -> float:
    """How close a configuration's EDP comes to the space's best (<= 1)."""
    best = edp(evaluation.prediction(edp_optimal(evaluation)))
    return best / edp(prediction)
