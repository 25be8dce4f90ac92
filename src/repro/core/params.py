"""Model parameter records (paper Table 1).

Everything the analytical model is allowed to know is collected in
:class:`ModelInputs`: baseline counter measurements, fitted communication
characteristics, the characterized network throughput and the characterized
power table.  The model never touches the simulator's true internals — the
only channel from testbed to model is measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.machines.power import PowerTable, nearest_key
from repro.measure.baseline import BaselineSweep


@dataclass(frozen=True)
class BaselineArtefacts:
    """Workload artefacts at one (c, f) point (paper Table 1, "Baseline
    Execution" block): ``I_s, w_s, b_s, m_s, U_s``."""

    instructions: float
    work_cycles: float
    nonmem_stall_cycles: float
    mem_stall_cycles: float
    utilization: float

    @property
    def useful_cycles(self) -> float:
        """``w_s + b_s`` (Eq. 3)."""
        return self.work_cycles + self.nonmem_stall_cycles


@dataclass(frozen=True)
class CommCharacteristics:
    """Fitted communication signature (paper's η and ν with scaling laws).

    Quantities are per logical process per iteration at the baseline input
    class, normalized to the reference node count ``n = 2``; predictions at
    other node counts follow the fitted power laws:

    * ``η(n) = eta_ref * (n/2) ** eta_exponent``
    * ``volume(n) = volume_ref * (2/n) ** volume_exponent``  (per process)
    * ``ν(n) = volume(n) / η(n)``
    """

    eta_ref: float
    volume_ref: float
    eta_exponent: float
    volume_exponent: float

    def eta(self, nodes: int) -> float:
        """Messages per process per iteration at ``nodes``."""
        if nodes <= 1:
            return 0.0
        return self.eta_ref * (nodes / 2.0) ** self.eta_exponent

    def volume(self, nodes: int) -> float:
        """Bytes per process per iteration at ``nodes``."""
        if nodes <= 1:
            return 0.0
        return self.volume_ref * (2.0 / nodes) ** self.volume_exponent

    def nu(self, nodes: int) -> float:
        """Mean message volume ν (bytes) at ``nodes``."""
        if nodes <= 1:
            return 0.0
        return self.volume(nodes) / self.eta(nodes)


@dataclass(frozen=True)
class NetworkCharacteristics:
    """NetPIPE-derived network inputs: achievable throughput ``B`` and the
    per-message latency floor."""

    bandwidth_bytes_per_s: float
    latency_floor_s: float


@dataclass(frozen=True)
class ModelInputs:
    """Everything the analytical model knows (paper Fig. 2's inputs).

    ``baseline`` holds the single-node counter sweep; ``comm`` the fitted
    mpiP characteristics; ``network`` the NetPIPE results; ``power`` the
    characterized (not true) power table; ``baseline_iterations`` is
    ``S_s``.
    """

    program: str
    cluster: str
    baseline_class: str
    baseline_iterations: int
    baseline: Mapping[tuple[int, float], BaselineArtefacts]
    comm: CommCharacteristics
    network: NetworkCharacteristics
    power: PowerTable

    def artefacts(self, cores: int, frequency_hz: float) -> BaselineArtefacts:
        """Baseline artefacts at the (c, f) point nearest to the request."""
        try:
            return self.baseline[(cores, frequency_hz)]
        except KeyError:
            pass
        key = nearest_key(self.baseline, cores, frequency_hz)
        if key[0] != cores:
            raise KeyError(f"no baseline artefacts for c={cores}")
        return self.baseline[key]

    def point_values(
        self, cores: int, frequency_hz: float
    ) -> tuple[float, float, float, float, float]:
        """The :data:`DENSE_ROWS` quantities at one ``(c, f)`` through the
        scalar lookups: the fallback for requests that are not exact keys
        of :attr:`dense` (they resolve by :func:`nearest_key`)."""
        art = self.artefacts(cores, frequency_hz)
        return (
            art.useful_cycles,
            art.mem_stall_cycles,
            art.utilization,
            self.power.active(cores, frequency_hz),
            self.power.stall(cores, frequency_hz),
        )

    @cached_property
    def dense(self) -> "DenseTable":
        """The per-(c, f) tables as dense arrays, built on first use.

        Cached on the instance, so a what-if variant (a new instance)
        gets its own table and nothing outlives the inputs it came from.
        Threads racing on the first use can at worst each build an equal
        table.
        """
        return DenseTable.build(self)

    @classmethod
    def baseline_from_sweep(
        cls, sweep: BaselineSweep
    ) -> dict[tuple[int, float], BaselineArtefacts]:
        """Convert a measured sweep into the model's artefact table."""
        return {
            key: BaselineArtefacts(
                instructions=p.instructions,
                work_cycles=p.work_cycles,
                nonmem_stall_cycles=p.nonmem_stall_cycles,
                mem_stall_cycles=p.mem_stall_cycles,
                utilization=p.utilization,
            )
            for key, p in sweep.points.items()
        }


#: The per-(c, f) quantities of :attr:`DenseTable.values`, in row order:
#: ``w_s + b_s``, ``m_s``, ``U_s``, active and stall power per core.
DENSE_ROWS = ("useful_cycles", "mem_stall_cycles", "utilization", "active_w", "stall_w")


@dataclass(frozen=True)
class DenseTable:
    """A :class:`ModelInputs`'s (c, f) lookups compiled into arrays.

    ``values[:, i, j]`` holds the :data:`DENSE_ROWS` at
    ``(cores[i], frequencies_hz[j])`` — the exact values the scalar
    lookups return there — wherever ``exact[i, j]``: the point is a key
    of the baseline table and of both power tables.  Both axes are
    ascending.  Arrays are read-only (tables are shared across threads).
    """

    cores: np.ndarray
    frequencies_hz: np.ndarray
    values: np.ndarray
    exact: np.ndarray

    @classmethod
    def build(cls, inputs: ModelInputs) -> "DenseTable":
        """Compile ``inputs``'s baseline and power tables."""
        active = inputs.power.core_active_w
        stall = inputs.power.core_stall_w
        # keys whose numbers survive float64 unchanged, so an array match
        # is a dict-key match
        keys = [
            k
            for k in inputs.baseline
            if k in active and k in stall
            and float(k[0]) == k[0] and float(k[1]) == k[1]
        ]
        cores = sorted({float(k[0]) for k in keys})
        freqs = sorted({float(k[1]) for k in keys})
        row = {c: i for i, c in enumerate(cores)}
        col = {f: j for j, f in enumerate(freqs)}
        values = np.zeros((len(DENSE_ROWS), len(cores), len(freqs)))
        exact = np.zeros((len(cores), len(freqs)), dtype=bool)
        for k in keys:
            art = inputs.baseline[k]
            i, j = row[float(k[0])], col[float(k[1])]
            values[:, i, j] = (
                art.useful_cycles,
                art.mem_stall_cycles,
                art.utilization,
                active[k],
                stall[k],
            )
            exact[i, j] = True
        table = cls(
            cores=np.array(cores, dtype=np.float64),
            frequencies_hz=np.array(freqs, dtype=np.float64),
            values=values,
            exact=exact,
        )
        for a in (table.cores, table.frequencies_hz, values, exact):
            a.setflags(write=False)
        return table

    def gather(
        self, cores: np.ndarray, frequencies_hz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows at each query ``(c, f)`` and where they are exact.

        ``cores`` and ``frequencies_hz`` broadcast against each other (two
        aligned vectors, or a column of core counts against a row of
        frequencies).  Returns ``values`` of shape ``(5, *broadcast)`` —
        one fancy index into the table — and the boolean ``exact`` mask;
        entries where it is ``False`` are placeholders the caller fills
        with :meth:`ModelInputs.point_values`.
        """
        if self.exact.size == 0:
            shape = np.broadcast_shapes(np.shape(cores), np.shape(frequencies_hz))
            return np.zeros((len(DENSE_ROWS), *shape)), np.zeros(shape, dtype=bool)
        i = np.minimum(
            np.searchsorted(self.cores, cores), self.cores.size - 1
        )
        j = np.minimum(
            np.searchsorted(self.frequencies_hz, frequencies_hz),
            self.frequencies_hz.size - 1,
        )
        exact = (
            (self.cores[i] == cores)
            & (self.frequencies_hz[j] == frequencies_hz)
            & self.exact[i, j]
        )
        return self.values[:, i, j], exact
