"""Cross-cluster comparison: which machine for which constraint?

The paper motivates its two validation clusters by their "diverse
time-energy performance": the Xeon nodes are fast but power-hungry, the
ARM nodes slow but frugal.  Given models of the same program on several
clusters, this module answers the procurement-style questions that
diversity raises:

* the **combined Pareto frontier** across all machines — which cluster
  owns which stretch of the time-energy trade-off;
* the **winner for a deadline / an energy budget**;
* the **crossover deadline** — the deadline below which the fast cluster
  is mandatory and above which the frugal one wins on energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.core.configspace import SpaceEvaluation
from repro.core.model import Prediction
from repro.core.optimizer import min_energy_within_deadline, min_time_within_budget
from repro.core.pareto import frontier_indices


@dataclass(frozen=True)
class LabeledPrediction:
    """A prediction tagged with the cluster it belongs to."""

    cluster: str
    prediction: Prediction

    @property
    def time_s(self) -> float:
        """Predicted execution time."""
        return self.prediction.time_s

    @property
    def energy_j(self) -> float:
        """Predicted energy."""
        return self.prediction.energy_j


@dataclass(frozen=True)
class _Joint:
    """Every cluster's result arrays end to end, in mapping order."""

    times_s: np.ndarray
    energies_j: np.ndarray
    ucrs: np.ndarray
    starts: np.ndarray  # first joint row of each cluster


@dataclass(frozen=True)
class ClusterComparison:
    """Joint view over per-cluster space evaluations of one program."""

    evaluations: Mapping[str, SpaceEvaluation]

    def __post_init__(self) -> None:
        if len(self.evaluations) < 2:
            raise ValueError("comparison needs at least two clusters")

    def _joint(self) -> _Joint:
        evs = list(self.evaluations.values())
        return _Joint(
            times_s=np.concatenate([ev.times_s for ev in evs]),
            energies_j=np.concatenate([ev.energies_j for ev in evs]),
            ucrs=np.concatenate([ev.ucrs for ev in evs]),
            starts=np.cumsum([0] + [len(ev) for ev in evs[:-1]]),
        )

    def _labeled(self, joint: _Joint, i: int) -> LabeledPrediction:
        """The joint row ``i`` as a prediction tagged with its cluster."""
        k = int(np.searchsorted(joint.starts, i, side="right")) - 1
        name = list(self.evaluations)[k]
        return LabeledPrediction(
            cluster=name,
            prediction=self.evaluations[name].prediction(i - int(joint.starts[k])),
        )

    def combined_frontier(self) -> list[LabeledPrediction]:
        """Pareto frontier over the union of all clusters' spaces."""
        joint = self._joint()
        with obs.span(
            "combined_frontier",
            clusters=len(self.evaluations),
            points=len(joint.times_s),
        ):
            return [
                self._labeled(joint, int(i))
                for i in frontier_indices(joint.times_s, joint.energies_j)
            ]

    def winner_for_deadline(self, deadline_s: float) -> LabeledPrediction | None:
        """Min-energy point across clusters meeting the deadline."""
        joint = self._joint()
        i = min_energy_within_deadline(joint, deadline_s)
        return None if i is None else self._labeled(joint, i)

    def winner_for_budget(self, budget_j: float) -> LabeledPrediction | None:
        """Min-time point across clusters within the energy budget."""
        joint = self._joint()
        i = min_time_within_budget(joint, budget_j)
        return None if i is None else self._labeled(joint, i)

    def frontier_share(self) -> dict[str, int]:
        """How many combined-frontier points each cluster owns."""
        share = {name: 0 for name in self.evaluations}
        for point in self.combined_frontier():
            share[point.cluster] += 1
        return share

    def crossover_deadline(self) -> float | None:
        """The deadline at which the winning cluster flips, if it does.

        Scans the combined frontier from tight to loose deadlines; returns
        the time of the first frontier point whose cluster differs from the
        fastest point's cluster, or ``None`` if one cluster owns the whole
        frontier.
        """
        frontier = self.combined_frontier()
        first = frontier[0].cluster
        for point in frontier[1:]:
            if point.cluster != first:
                return point.time_s
        return None
