"""Configuration-space enumeration and batch evaluation (paper §V-A).

The Pareto analyses sweep spaces larger than the physical testbed — Fig. 8
explores 216 Xeon configurations up to 256 nodes, Fig. 9 explores 400 ARM
configurations up to 20 nodes.  :class:`ConfigSpace` describes such a
space; :func:`evaluate_space` runs the model over every point and returns
aligned arrays for plotting/Pareto extraction.

Evaluation routes through the vectorized engine
(:mod:`repro.core.vectorized`): the whole space is computed as one NumPy
broadcast over the ``(n, c, f)`` axes and cached, so repeated sweeps
(deadline/budget queries, Pareto, batch planning, what-if) reuse
results.  The scalar :meth:`~repro.core.model.HybridProgramModel.predict`
remains the reference implementation the engine is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.model import HybridProgramModel, Prediction
from repro.core.vectorized import VectorizedEvaluation, evaluate_configs
from repro.machines.spec import ClusterSpec, Configuration


@dataclass(frozen=True)
class ConfigSpace:
    """A cartesian (n, c, f) configuration space."""

    node_counts: tuple[int, ...]
    core_counts: tuple[int, ...]
    frequencies_hz: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.node_counts and self.core_counts and self.frequencies_hz):
            raise ValueError("configuration space must be non-empty on all axes")

    def __len__(self) -> int:
        return (
            len(self.node_counts) * len(self.core_counts) * len(self.frequencies_hz)
        )

    def __iter__(self) -> Iterator[Configuration]:
        for n, c, f in itertools.product(
            self.node_counts, self.core_counts, self.frequencies_hz
        ):
            yield Configuration(nodes=n, cores=c, frequency_hz=f)

    @classmethod
    def physical(cls, spec: ClusterSpec) -> "ConfigSpace":
        """The testbed's full physical space."""
        return cls(
            node_counts=tuple(range(1, spec.max_nodes + 1)),
            core_counts=spec.node.core_counts,
            frequencies_hz=spec.frequencies_hz,
        )

    @classmethod
    def validation(cls, spec: ClusterSpec) -> "ConfigSpace":
        """The paper's validation sweep: n ∈ {1,2,4,8}, all c, all f
        (96 Xeon / 80 ARM configurations, §IV-B)."""
        return cls(
            node_counts=(1, 2, 4, 8),
            core_counts=spec.node.core_counts,
            frequencies_hz=spec.frequencies_hz,
        )

    @classmethod
    def xeon_pareto(cls, spec: ClusterSpec) -> "ConfigSpace":
        """Fig. 8's extrapolated Xeon space: n ∈ powers of two up to 256,
        c ∈ 1..8, f ∈ {1.2, 1.5, 1.8} GHz — 216 configurations."""
        return cls(
            node_counts=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            core_counts=spec.node.core_counts,
            frequencies_hz=spec.frequencies_hz,
        )

    @classmethod
    def arm_pareto(cls, spec: ClusterSpec) -> "ConfigSpace":
        """Fig. 9's extrapolated ARM space: n ∈ 1..20, c ∈ 1..4,
        f ∈ {0.2..1.4} GHz — 400 configurations."""
        return cls(
            node_counts=tuple(range(1, 21)),
            core_counts=spec.node.core_counts,
            frequencies_hz=spec.frequencies_hz,
        )


@dataclass(frozen=True)
class SpaceEvaluation:
    """Model predictions over a whole space, as aligned arrays.

    A thin view of the engine's :class:`VectorizedEvaluation`: the metric
    properties return its read-only arrays (shared with the cache), and a
    :class:`Prediction` is built only for the rows someone asks for —
    :meth:`prediction` builds one, :attr:`predictions` the whole tuple.
    """

    vectorized: VectorizedEvaluation

    @property
    def times_s(self) -> np.ndarray:
        """Predicted execution times."""
        return self.vectorized.times_s

    @property
    def energies_j(self) -> np.ndarray:
        """Predicted energies."""
        return self.vectorized.energies_j

    @property
    def ucrs(self) -> np.ndarray:
        """Predicted UCR values."""
        return self.vectorized.ucrs

    @property
    def labels(self) -> list[str]:
        """Paper-style (n,c,f) labels."""
        return self.vectorized.labels

    def prediction(self, i: int) -> Prediction:
        """The scalar-API :class:`Prediction` for row ``i``."""
        return self.vectorized.prediction(i)

    @property
    def predictions(self) -> tuple[Prediction, ...]:
        """Every row as a :class:`Prediction` (built on first read)."""
        return self.vectorized.predictions

    def __len__(self) -> int:
        return len(self.vectorized)


def evaluate_space(
    model: HybridProgramModel,
    space: ConfigSpace | Sequence[Configuration],
    class_name: str | None = None,
) -> SpaceEvaluation:
    """Predict every configuration in a space (vectorized, LRU-cached).

    Repeated calls with equal model parameters and space share the same
    underlying arrays from the cache.
    """
    return SpaceEvaluation(vectorized=evaluate_configs(model, space, class_name))
