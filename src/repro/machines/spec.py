"""Hardware specification dataclasses (paper Table 3).

A :class:`ClusterSpec` is a homogeneous cluster of :class:`NodeSpec` nodes
behind a single Ethernet :class:`SwitchSpec` — exactly the system class the
paper's model targets (single NIC per node, UMA shared memory within a node).

The specs are *descriptive*: they carry the physical parameters (frequencies,
bandwidths, cache sizes, instruction-translation factors) that both the
discrete-event simulator (:mod:`repro.simulate`) and the analytical model
(:mod:`repro.core`) consume.  Behaviour lives in those packages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.units import GIB, to_gbps, to_ghz, to_mbps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machines.power import NodePowerModel


@dataclass(frozen=True)
class InstructionMix:
    """Dynamic instruction mix of a workload's compute phase.

    Fractions must sum to 1.  The mix drives the per-ISA translation of
    abstract work into cycles: floating-point heavy codes stress different
    pipeline resources than branchy or memory-heavy codes.
    """

    flops: float
    mem: float
    branch: float
    other: float

    def __post_init__(self) -> None:
        total = self.flops + self.mem + self.branch + self.other
        if not abs(total - 1.0) < 1e-9:
            raise ValueError(f"instruction mix must sum to 1, got {total!r}")
        for name in ("flops", "mem", "branch", "other"):
            if getattr(self, name) < 0:
                raise ValueError(f"instruction mix fraction {name} is negative")


@dataclass(frozen=True)
class CoreSpec:
    """A single CPU core's micro-architectural parameters.

    Attributes
    ----------
    name, isa:
        Human-readable identifiers (``"x86_64"``, ``"ARMv7-A"``).
    frequencies_hz:
        Discrete DVFS operating points, ascending, in Hz.
    instruction_scale:
        Dynamic instruction count multiplier relative to the abstract
        (ISA-neutral) instruction count of a workload.  RISC ISAs execute
        more, simpler instructions for the same source program.
    base_cpi:
        Cycles per instruction for useful work with no stalls (captures issue
        width and typical ILP extraction).
    hazard_cpi_flops / hazard_cpi_branch / hazard_cpi_other:
        Non-memory pipeline stall cycles per instruction attributable to
        long-latency FP ops, branch mispredictions and structural hazards.
        These produce the paper's ``b`` (non-memory stall cycles), which the
        paper attributes to "complex out-of-order pipeline architectures".
    l1_kb:
        Per-core L1 data cache size (Table 3).
    line_bytes:
        Cache line size — the memory-system transfer granule.
    memory_overlap:
        Fraction of memory wait time the out-of-order engine hides under
        computation.  This is the intra-node analogue of Eq. 6's overlap:
        only the *non-overlapped* remainder becomes memory stall cycles
        ``m``.  Wide Xeon cores hide much more than the narrow Cortex-A9 —
        the main reason Xeon UCRs (≤0.96) dwarf ARM UCRs (≤0.54) in §V-B.
    mlp:
        Memory-level parallelism: average number of outstanding misses the
        core sustains.  DRAM latency for a burst of ``k`` lines is exposed
        as ``k * latency / mlp`` rather than ``k * latency``.
    cache_stall_cpi:
        Memory-related stall cycles per memory-mix instruction spent waiting
        on the cache hierarchy (L1 misses served by L2/L3).  Unlike DRAM
        waits these stalls are pipeline-coupled — fixed in *cycles*, not in
        wall time — so they depress UCR equally at every frequency.  They
        are counted in the paper's ``m`` (memory-related stalls), and the
        Xeon/ARM contrast in this constant is what caps ARM UCR near 0.54
        while Xeon reaches 0.96 (paper §V-B).
    """

    name: str
    isa: str
    frequencies_hz: tuple[float, ...]
    instruction_scale: float
    base_cpi: float
    hazard_cpi_flops: float
    hazard_cpi_branch: float
    hazard_cpi_other: float
    l1_kb: int
    line_bytes: int = 64
    memory_overlap: float = 0.5
    mlp: float = 2.0
    cache_stall_cpi: float = 0.2

    def __post_init__(self) -> None:
        if not self.frequencies_hz:
            raise ValueError("core must expose at least one frequency")
        if list(self.frequencies_hz) != sorted(self.frequencies_hz):
            raise ValueError("frequencies must be ascending")
        if self.instruction_scale <= 0 or self.base_cpi <= 0:
            raise ValueError("instruction_scale and base_cpi must be positive")
        if not 0 <= self.memory_overlap < 1:
            raise ValueError("memory_overlap must be in [0, 1)")
        if self.mlp < 1:
            raise ValueError("mlp must be at least 1")

    @property
    def fmin(self) -> float:
        """Lowest DVFS operating point in Hz."""
        return self.frequencies_hz[0]

    @property
    def fmax(self) -> float:
        """Highest DVFS operating point in Hz."""
        return self.frequencies_hz[-1]

    def instructions(self, abstract_instructions: float) -> float:
        """Translate ISA-neutral instruction count to this ISA."""
        return abstract_instructions * self.instruction_scale

    def work_cycles(self, abstract_instructions: float) -> float:
        """Useful work cycles ``w`` for the given abstract instruction count."""
        return self.instructions(abstract_instructions) * self.base_cpi

    def hazard_cpi(self, mix: InstructionMix) -> float:
        """Non-memory stall cycles per (native) instruction for a mix."""
        return (
            mix.flops * self.hazard_cpi_flops
            + mix.branch * self.hazard_cpi_branch
            + (mix.other + mix.mem) * self.hazard_cpi_other
        )

    def nonmem_stall_cycles(
        self, abstract_instructions: float, mix: InstructionMix
    ) -> float:
        """Non-memory stall cycles ``b`` (paper Eq. 3) for the mix."""
        return self.instructions(abstract_instructions) * self.hazard_cpi(mix)

    def cache_stall_cycles(
        self, abstract_instructions: float, mix: InstructionMix
    ) -> float:
        """Frequency-invariant memory stall cycles (cache-hierarchy waits).

        Part of the paper's ``m``; the DRAM part (which is fixed in *time*,
        so grows in cycles with ``f``) is added by the memory subsystem
        model on top of this.
        """
        return self.instructions(abstract_instructions) * mix.mem * self.cache_stall_cpi


@dataclass(frozen=True)
class MemorySpec:
    """Per-node shared-memory subsystem (UMA, one controller per node).

    Attributes
    ----------
    capacity_bytes:
        Installed DRAM.
    bandwidth_bytes_per_s:
        Sustainable memory-controller bandwidth — the service rate of the
        contention queue.
    latency_s:
        Uncontended DRAM access latency (seconds) for one cache line.
    l2_kb / l3_kb:
        Shared cache sizes; ``l3_kb`` of 0 means no L3 (ARM node).
    channels:
        Independent controller channels (parallel servers in the queue).
    """

    capacity_bytes: float
    bandwidth_bytes_per_s: float
    latency_s: float
    l2_kb: int
    l3_kb: int = 0
    channels: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0 or self.latency_s <= 0:
            raise ValueError("memory bandwidth and latency must be positive")
        if self.channels < 1:
            raise ValueError("memory controller needs at least one channel")

    @property
    def llc_bytes(self) -> float:
        """Last-level cache capacity in bytes (L3 if present, else L2)."""
        return (self.l3_kb if self.l3_kb else self.l2_kb) * 1024.0

    def miss_amplification(self, working_set_bytes: float) -> float:
        """DRAM traffic multiplier for a working set vs. this cache hierarchy.

        Workloads declare their DRAM traffic at a *reference* hierarchy that
        fully captures their reuse; a smaller last-level cache re-fetches data
        that no longer fits.  The multiplier grows with the square root of the
        capacity ratio (empirically a good fit for the blocked stencil /
        linear-algebra kernels in the NPB programs) and saturates at 16x.
        """
        if working_set_bytes <= self.llc_bytes:
            return 1.0
        return float(min(16.0, (working_set_bytes / self.llc_bytes) ** 0.5))

    def line_service_time(self, line_bytes: int) -> float:
        """Seconds for the controller to transfer one cache line."""
        return line_bytes / self.bandwidth_bytes_per_s

    def scaled(self, bandwidth_factor: float) -> "MemorySpec":
        """A copy with memory bandwidth scaled (what-if analysis, §V-B)."""
        from dataclasses import replace

        return replace(
            self,
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s * bandwidth_factor,
        )


@dataclass(frozen=True)
class NetworkSpec:
    """Per-node NIC and protocol stack parameters.

    The paper's network characterization (Fig. 3) shows MPI-over-TCP reaching
    only ~90 Mbps on a 100 Mbps link; ``protocol_efficiency`` captures that
    ceiling, ``per_message_overhead_s`` captures the latency floor for small
    messages, and ``cpu_cost_per_byte_s``/``cpu_cost_per_message_s`` capture
    the CPU time burned in the stack (which overlaps with computation on one
    side of Eq. 6's ``max``).
    """

    link_bytes_per_s: float
    per_message_overhead_s: float
    protocol_efficiency: float
    cpu_cost_per_message_s: float
    cpu_cost_per_byte_s: float
    mtu_bytes: int = 1500

    def __post_init__(self) -> None:
        if not 0 < self.protocol_efficiency <= 1:
            raise ValueError("protocol efficiency must be in (0, 1]")
        if self.link_bytes_per_s <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.per_message_overhead_s < 0:
            raise ValueError("per-message overhead must be non-negative")

    @property
    def effective_bandwidth(self) -> float:
        """Achievable MPI throughput in bytes/s (Fig. 3's plateau)."""
        return self.link_bytes_per_s * self.protocol_efficiency

    def wire_time(self, message_bytes: float) -> float:
        """Time on the wire for one message of the given size."""
        return self.per_message_overhead_s + message_bytes / self.effective_bandwidth


@dataclass(frozen=True)
class SwitchSpec:
    """The shared Ethernet switch all nodes communicate through.

    Modeled as the single server of the paper's M/G/1 network-contention
    queue (Eq. 5): messages from all nodes serialize through it.
    """

    port_bytes_per_s: float
    forwarding_latency_s: float

    def __post_init__(self) -> None:
        if self.port_bytes_per_s <= 0:
            raise ValueError("switch port bandwidth must be positive")


@dataclass(frozen=True)
class NodeSpec:
    """One homogeneous cluster node: cores + UMA memory + single NIC."""

    core: CoreSpec
    max_cores: int
    memory: MemorySpec
    nic: NetworkSpec
    power: "NodePowerModel"

    def __post_init__(self) -> None:
        if self.max_cores < 1:
            raise ValueError("node needs at least one core")

    @property
    def core_counts(self) -> tuple[int, ...]:
        """Configurable active-core counts ``c`` (1..cmax)."""
        return tuple(range(1, self.max_cores + 1))


@dataclass(frozen=True)
class Configuration:
    """One execution configuration ``(n, c, f)`` — paper Section III-A.

    ``n`` nodes each running one logical MPI process of ``c`` OpenMP threads
    pinned to ``c`` active cores clocked at ``f`` Hz (the paper sets the
    number of logical processes l = n and threads per process τ = c).
    """

    nodes: int
    cores: int
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.cores < 1:
            raise ValueError("configuration needs n >= 1 and c >= 1")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def total_threads(self) -> int:
        """Total parallel threads n*c across the cluster."""
        return self.nodes * self.cores

    def label(self, with_frequency: bool = True) -> str:
        """Paper-style label ``(n,c,f[GHz])`` or ``(n,c)``."""
        if with_frequency:
            return f"({self.nodes},{self.cores},{to_ghz(self.frequency_hz):g})"
        return f"({self.nodes},{self.cores})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: identical nodes behind one switch.

    ``max_nodes`` is the physical testbed size (8 in the paper's validation);
    model-side analyses may extrapolate beyond it (Fig. 8 explores up to 256
    Xeon nodes), which :meth:`configurations` supports via ``node_counts``.
    """

    name: str
    node: NodeSpec
    max_nodes: int
    switch: SwitchSpec
    description: str = ""

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("cluster needs at least one node")

    @property
    def frequencies_hz(self) -> tuple[float, ...]:
        """DVFS points of the (homogeneous) cores."""
        return self.node.core.frequencies_hz

    def validate_configuration(
        self, config: Configuration, allow_extrapolation: bool = False
    ) -> None:
        """Raise :class:`ValueError` if ``config`` is not runnable here.

        ``allow_extrapolation`` lifts the physical ``max_nodes`` bound for
        model-side what-if exploration but never the per-node bounds.
        """
        if config.cores > self.node.max_cores:
            raise ValueError(
                f"{config} exceeds {self.node.max_cores} cores/node on {self.name}"
            )
        if not allow_extrapolation and config.nodes > self.max_nodes:
            raise ValueError(
                f"{config} exceeds {self.max_nodes} nodes on {self.name}"
            )
        if not any(
            abs(config.frequency_hz - f) < 1e-3 for f in self.frequencies_hz
        ):
            raise ValueError(
                f"{config} frequency not a DVFS point of {self.name}: "
                f"{self.frequencies_hz}"
            )

    def configurations(
        self,
        node_counts: Sequence[int] | None = None,
        core_counts: Sequence[int] | None = None,
        frequencies_hz: Sequence[float] | None = None,
    ) -> Iterator[Configuration]:
        """Enumerate the (n, c, f) configuration space.

        Defaults enumerate the physical space: n in 1..max_nodes, c in
        1..cores/node, all DVFS points.  Pass explicit sequences to restrict
        (validation sweeps) or extend (model extrapolation) the space.
        """
        ns = node_counts if node_counts is not None else range(1, self.max_nodes + 1)
        cs = core_counts if core_counts is not None else self.node.core_counts
        fs = frequencies_hz if frequencies_hz is not None else self.frequencies_hz
        for n, c, f in itertools.product(ns, cs, fs):
            yield Configuration(nodes=int(n), cores=int(c), frequency_hz=float(f))

    def spec_table(self) -> dict[str, str]:
        """Table 3 row for this cluster (used by the table bench and docs)."""
        mem = self.node.memory
        return {
            "System": self.name,
            "ISA": self.node.core.isa,
            "Nodes": str(self.max_nodes),
            "Cores/node": str(self.node.max_cores),
            "Clock Frequency": "-".join(
                f"{to_ghz(f):g}" for f in (self.frequencies_hz[0], self.frequencies_hz[-1])
            )
            + " GHz",
            "L1 data cache": f"{self.node.core.l1_kb}kB / core",
            "L2 cache": f"{mem.l2_kb // 1024}MB / node" if mem.l2_kb >= 1024 else f"{mem.l2_kb}kB / node",
            "L3 cache": f"{mem.l3_kb // 1024}MB / node" if mem.l3_kb else "NA",
            "Memory": f"{mem.capacity_bytes / GIB:g}GB",
            "I/O bandwidth": (
                f"{to_gbps(self.node.nic.link_bytes_per_s):g}Gbps"
                if to_gbps(self.node.nic.link_bytes_per_s) >= 1.0
                else f"{to_mbps(self.node.nic.link_bytes_per_s):g}Mbps"
            ),
        }
