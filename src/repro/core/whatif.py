"""What-if analysis: resource scaling on the model inputs (paper §V-B).

The paper's closing example: "doubling the memory bandwidth reduces the
number of stall cycles due to shared-memory contention by two times, and
thus improves the UCR of SP program executed on Xeon configuration
(1,8,1.8) from 0.67 to 0.81", also cutting 7 s and 590 J — the system-
designer workflow of optimizing the Pareto frontier by rebalancing
resources.  Because the model is white-box, such studies are direct input
transformations, no re-measurement needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.configspace import ConfigSpace, SpaceEvaluation, evaluate_space
from repro.core.model import HybridProgramModel
from repro.core.params import NetworkCharacteristics
from repro.machines.spec import Configuration


@dataclass(frozen=True)
class SpaceDelta:
    """Whole-space effect of a what-if transformation.

    Both evaluations route through the vectorized engine and its LRU
    cache, so sweeping several transformations against the same baseline
    reuses the baseline arrays.
    """

    base: SpaceEvaluation
    variant: SpaceEvaluation

    @property
    def time_delta_s(self) -> np.ndarray:
        """Per-configuration time change (negative = faster)."""
        return self.variant.times_s - self.base.times_s

    @property
    def energy_delta_j(self) -> np.ndarray:
        """Per-configuration energy change (negative = cheaper)."""
        return self.variant.energies_j - self.base.energies_j

    @property
    def ucr_delta(self) -> np.ndarray:
        """Per-configuration UCR change (positive = more useful work)."""
        return self.variant.ucrs - self.base.ucrs

    @property
    def best_energy_saving_j(self) -> float:
        """Largest per-configuration energy saving over the space."""
        return float(-self.energy_delta_j.min()) if len(self.base) else 0.0

    def at(self, index: int) -> tuple[float, float, float]:
        """(Δtime, Δenergy, ΔUCR) of one configuration by index."""
        return (
            float(self.time_delta_s[index]),
            float(self.energy_delta_j[index]),
            float(self.ucr_delta[index]),
        )


@dataclass(frozen=True)
class WhatIf:
    """Fluent what-if transformations over a model."""

    model: HybridProgramModel

    def memory_bandwidth(self, factor: float) -> HybridProgramModel:
        """Scale memory bandwidth: memory stall cycles scale by 1/factor.

        This is the paper's own approximation — contention and service both
        shrink proportionally with controller bandwidth.
        """
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        new_baseline = {
            key: replace(art, mem_stall_cycles=art.mem_stall_cycles / factor)
            for key, art in self.model.inputs.baseline.items()
        }
        return self.model.with_inputs(
            replace(self.model.inputs, baseline=new_baseline)
        )

    def network_bandwidth(self, factor: float) -> HybridProgramModel:
        """Scale achievable network throughput ``B``."""
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        net = self.model.inputs.network
        new_net = NetworkCharacteristics(
            bandwidth_bytes_per_s=net.bandwidth_bytes_per_s * factor,
            latency_floor_s=net.latency_floor_s,
        )
        return self.model.with_inputs(
            replace(self.model.inputs, network=new_net)
        )

    def network_latency(self, factor: float) -> HybridProgramModel:
        """Scale the per-message latency floor (e.g. kernel-bypass NICs)."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        net = self.model.inputs.network
        new_net = NetworkCharacteristics(
            bandwidth_bytes_per_s=net.bandwidth_bytes_per_s,
            latency_floor_s=net.latency_floor_s * factor,
        )
        return self.model.with_inputs(
            replace(self.model.inputs, network=new_net)
        )

    def idle_power(self, factor: float) -> HybridProgramModel:
        """Scale the platform idle floor (energy-proportionality studies)."""
        if factor < 0:
            raise ValueError("idle power factor must be non-negative")
        power = replace(
            self.model.inputs.power,
            sys_idle_w=self.model.inputs.power.sys_idle_w * factor,
        )
        return self.model.with_inputs(replace(self.model.inputs, power=power))

    def compare(
        self,
        variant: HybridProgramModel,
        space: ConfigSpace | Sequence[Configuration],
        class_name: str | None = None,
    ) -> SpaceDelta:
        """Evaluate base vs. transformed model over a whole space.

        The paper's §V-B study — "doubling the memory bandwidth … improves
        the UCR of SP on (1,8,1.8) from 0.67 to 0.81" — becomes::

            delta = WhatIf(model).compare(
                WhatIf(model).memory_bandwidth(2.0), space
            )

        Both sweeps run through the vectorized engine and the space LRU,
        so a battery of what-if variants pays for the baseline once.
        """
        if not obs.active():
            return SpaceDelta(
                base=evaluate_space(self.model, space, class_name),
                variant=evaluate_space(variant, space, class_name),
            )
        with obs.span("whatif") as sp:
            delta = SpaceDelta(
                base=evaluate_space(self.model, space, class_name),
                variant=evaluate_space(variant, space, class_name),
            )
            sp.set(configs=len(delta.base))
        if obs.metrics_enabled():
            obs.add("whatif.comparisons")
        return delta

    def compare_streamed(
        self,
        variant: HybridProgramModel,
        space: ConfigSpace | Sequence[Configuration],
        class_name: str | None = None,
        *,
        max_block_bytes: int | None = None,
    ) -> "StreamedSpaceDelta":
        """Base-vs-variant comparison of a space too large to materialize.

        Streams the space once through the planner's block pipeline and
        evaluates the variant on each of its blocks, so deltas subtract
        aligned configurations, and keeps only running summaries.
        Min/max deltas are exact — each block's per-configuration deltas
        are bit-identical to the materialized ones — while the means
        accumulate block sums (equal to the materialized mean within
        floating-point reassociation, well inside a 1e-9 relative
        tolerance).
        """
        from repro.core import planner, vectorized

        blocks = planner._blocks(
            self.model,
            space,
            class_name,
            "bracketed",
            True,
            planner.DEFAULT_MAX_BLOCK_BYTES
            if max_block_bytes is None
            else max_block_bytes,
        )
        configs = 0
        sums = np.zeros(3)
        mins = np.full(3, np.inf)
        maxs = np.full(3, -np.inf)
        with obs.span("whatif_streamed") as sp:
            for _offset, sub, b_vec in blocks:
                if not len(b_vec):
                    continue
                v_vec = vectorized._compute(
                    variant, sub, class_name, "bracketed", True, instrument=False
                )
                deltas = (
                    v_vec.times_s - b_vec.times_s,
                    v_vec.energies_j - b_vec.energies_j,
                    v_vec.ucrs - b_vec.ucrs,
                )
                configs += len(b_vec)
                for i, d in enumerate(deltas):
                    sums[i] += float(d.sum())
                    mins[i] = min(mins[i], float(d.min()))
                    maxs[i] = max(maxs[i], float(d.max()))
            sp.set(configs=configs)
        if obs.metrics_enabled():
            obs.add("whatif.comparisons")
        if not configs:
            mins = maxs = np.zeros(3)
        means = sums / max(configs, 1)
        return StreamedSpaceDelta(
            configs=configs,
            time_delta_min_s=float(mins[0]),
            time_delta_max_s=float(maxs[0]),
            time_delta_mean_s=float(means[0]),
            energy_delta_min_j=float(mins[1]),
            energy_delta_max_j=float(maxs[1]),
            energy_delta_mean_j=float(means[1]),
            ucr_delta_min=float(mins[2]),
            ucr_delta_max=float(maxs[2]),
            ucr_delta_mean=float(means[2]),
        )


@dataclass(frozen=True)
class StreamedSpaceDelta:
    """Summary deltas of a block-streamed what-if comparison.

    Unlike :class:`SpaceDelta` this holds no per-configuration arrays —
    only the min/max/mean of each delta over the space — so memory stays
    O(1) however large the space.  ``best_energy_saving_j`` matches
    :attr:`SpaceDelta.best_energy_saving_j` exactly.
    """

    configs: int
    time_delta_min_s: float
    time_delta_max_s: float
    time_delta_mean_s: float
    energy_delta_min_j: float
    energy_delta_max_j: float
    energy_delta_mean_j: float
    ucr_delta_min: float
    ucr_delta_max: float
    ucr_delta_mean: float

    @property
    def best_energy_saving_j(self) -> float:
        """Largest per-configuration energy saving over the space."""
        return -self.energy_delta_min_j if self.configs else 0.0
