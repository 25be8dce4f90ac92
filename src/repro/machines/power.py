"""Node power models and characterized power tables (paper Section III-E3).

Two representations live here:

* :class:`NodePowerModel` — the machine's *true* power behaviour as smooth
  DVFS laws.  Only the simulator integrates this (through
  :mod:`repro.simulate.power`) to produce wall-meter energy measurements.
* :class:`PowerTable` — the *characterized* power parameters the analytical
  model consumes: per-(c, f) active/stall core power plus memory, network and
  system-idle power.  Tables are produced by the micro-benchmarks in
  :mod:`repro.measure.microbench` and therefore carry bounded measurement
  error (paper §IV-C reports up to 0.4 W on ARM and 2 W on Xeon).

The paper classifies core power into *active* (executing work cycles) and
*stall* (memory-related stalls) states, with idle power folded into the
system-level ``P_sys,idle`` (Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np


def nearest_key(
    table: Mapping[tuple[int, float], object], c: int, f_hz: float
) -> tuple[int, float]:
    """The key of a ``(c, f)`` table nearest to ``(c, f_hz)``.

    Nearest core count first, then nearest frequency; of equally near
    keys, the first in the table's iteration order wins.  This is the one
    rule :meth:`PowerTable.active`, :meth:`PowerTable.stall` and
    :meth:`repro.core.params.ModelInputs.artefacts` apply to a request
    that is not a key (an off-DVFS frequency); exact keys never reach it.
    """
    return min(table, key=lambda k: (abs(k[0] - c), abs(k[1] - f_hz)))


@dataclass(frozen=True)
class NodePowerModel:
    """True power behaviour of one node.

    Core dynamic power follows the classic DVFS law ``P = P_leak +
    P_dyn * (f / fmax)**alpha`` with ``alpha`` between 1.5 and 3 because
    voltage scales (sub)linearly with frequency.  Stalled cores clock-gate
    part of the pipeline, so stall power is ``stall_fraction`` of the dynamic
    component plus full leakage.

    Attributes
    ----------
    fmax_hz:
        Frequency the dynamic law is normalized to.
    core_leakage_w:
        Per-core static power, frequency-independent.
    core_dynamic_w:
        Per-core dynamic power at ``fmax``.
    dvfs_alpha:
        Exponent of the dynamic-power-vs-frequency law.
    stall_fraction:
        Fraction of dynamic power drawn while stalled on memory.
    uncore_active_w:
        Per-node power of shared uncore (caches, ring/bus) that switches on
        whenever at least one core is active; scales mildly with active core
        count through ``uncore_per_core_w``.
    mem_active_w:
        DRAM + controller power while servicing requests (paper ``P_mem``,
        from JEDEC specs).
    net_active_w:
        NIC power while transmitting/receiving (paper ``P_net``).
    sys_idle_w:
        Whole-node idle power: regulators, storage, idle cores, fans
        (paper ``P_sys,idle``).
    """

    fmax_hz: float
    core_leakage_w: float
    core_dynamic_w: float
    dvfs_alpha: float
    stall_fraction: float
    uncore_active_w: float
    uncore_per_core_w: float
    mem_active_w: float
    net_active_w: float
    sys_idle_w: float

    def __post_init__(self) -> None:
        if self.fmax_hz <= 0:
            raise ValueError("fmax must be positive")
        if not 0 <= self.stall_fraction <= 1:
            raise ValueError("stall_fraction must be in [0, 1]")
        if self.dvfs_alpha < 1:
            raise ValueError("dvfs_alpha below 1 is not physical for CMOS")

    def _dynamic(self, f_hz: float) -> float:
        return self.core_dynamic_w * (f_hz / self.fmax_hz) ** self.dvfs_alpha

    def core_active_w(self, f_hz: float) -> float:
        """Per-core power while executing work cycles at ``f``."""
        return self.core_leakage_w + self._dynamic(f_hz)

    def core_stall_w(self, f_hz: float) -> float:
        """Per-core power while stalled on memory at ``f``."""
        return self.core_leakage_w + self.stall_fraction * self._dynamic(f_hz)

    def uncore_w(self, active_cores: int) -> float:
        """Shared uncore power with ``active_cores`` cores switched on."""
        if active_cores <= 0:
            return 0.0
        return self.uncore_active_w + self.uncore_per_core_w * active_cores

    def node_peak_w(self, cores: int, f_hz: float) -> float:
        """Upper bound on node draw: all cores active, memory and NIC busy."""
        return (
            self.sys_idle_w
            + cores * self.core_active_w(f_hz)
            + self.uncore_w(cores)
            + self.mem_active_w
            + self.net_active_w
        )


@dataclass(frozen=True)
class PowerTable:
    """Characterized power parameters consumed by the analytical model.

    Maps each ``(c, f)`` point measured by the power micro-benchmarks to the
    *effective per-core* active and stall power (uncore power amortized over
    the active cores, matching what a wall-meter regression can actually
    attribute), plus scalar memory / network / idle power.

    Keys of ``core_active_w``/``core_stall_w`` are ``(c, f_hz)`` with ``f_hz``
    rounded to the spec's DVFS points.  A lookup at a key is one dict
    access; any other ``(c, f)`` resolves through :func:`nearest_key`.
    """

    core_active_w: Mapping[tuple[int, float], float]
    core_stall_w: Mapping[tuple[int, float], float]
    mem_w: float
    net_w: float
    sys_idle_w: float

    def _lookup(
        self, table: Mapping[tuple[int, float], float], c: int, f_hz: float
    ) -> float:
        try:
            return table[(c, f_hz)]
        except KeyError:
            pass
        key = nearest_key(table, c, f_hz)
        if key[0] != c:
            raise KeyError(f"no power characterization for c={c}")
        return table[key]

    def active(self, c: int, f_hz: float) -> float:
        """Characterized per-core active power at ``(c, f)``."""
        return self._lookup(self.core_active_w, c, f_hz)

    def stall(self, c: int, f_hz: float) -> float:
        """Characterized per-core stall power at ``(c, f)``."""
        return self._lookup(self.core_stall_w, c, f_hz)

    @classmethod
    def exact(
        cls,
        power: NodePowerModel,
        core_counts: tuple[int, ...],
        frequencies_hz: tuple[float, ...],
    ) -> "PowerTable":
        """Error-free table straight from the true model (for unit tests).

        Uncore power is amortized per active core, mirroring how the
        micro-benchmark regression attributes wall power to cores.
        """
        active: dict[tuple[int, float], float] = {}
        stall: dict[tuple[int, float], float] = {}
        for c in core_counts:
            for f in frequencies_hz:
                amortized_uncore = power.uncore_w(c) / c
                active[(c, f)] = power.core_active_w(f) + amortized_uncore
                stall[(c, f)] = power.core_stall_w(f) + amortized_uncore
        return cls(
            core_active_w=active,
            core_stall_w=stall,
            mem_w=power.mem_active_w,
            net_w=power.net_active_w,
            sys_idle_w=power.sys_idle_w,
        )

    def perturbed(
        self, rng: np.random.Generator, max_error_w: float
    ) -> "PowerTable":
        """A copy with bounded characterization error on every entry.

        Models the paper's §IV-C observation that characterized power values
        differ from true draw by up to ``max_error_w`` (0.4 W ARM, 2 W Xeon).
        The perturbation is uniform in ``[-max_error_w, +max_error_w]`` and
        clipped so no entry goes non-positive.
        """

        def jitter(v: float) -> float:
            return max(1e-3, v + rng.uniform(-max_error_w, max_error_w))

        return PowerTable(
            core_active_w={k: jitter(v) for k, v in self.core_active_w.items()},
            core_stall_w={k: jitter(v) for k, v in self.core_stall_w.items()},
            mem_w=jitter(self.mem_w),
            net_w=jitter(self.net_w),
            sys_idle_w=jitter(self.sys_idle_w),
        )
