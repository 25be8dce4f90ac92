"""Vectorized configuration-space evaluation engine (beyond-paper scalability).

The paper's Pareto analyses (Figs. 8-11) and the UCR search sweep hundreds
of ``(n, c, f)`` points; batch planning and what-if studies re-sweep the
same spaces repeatedly.  Walking those spaces one
:meth:`~repro.core.model.HybridProgramModel.predict` call at a time costs
a Python-level fixed-point loop per configuration.  This module computes
the full time model (Eqs. 1-7) and energy model (Eqs. 8-12) over an entire
space as NumPy array operations, broadcasting over the ``(n, c, f)`` axes
in one shot, plus an LRU-cached space-evaluation layer keyed on
``(model parameters, space)`` so repeated sweeps reuse results.

Two properties are deliberately preserved:

* **The scalar model stays the reference implementation.**  Every
  elementwise operation below mirrors :func:`repro.core.time_model.predict_time`
  and :func:`repro.core.energy_model.predict_energy` in the same order.
  The per-``(c, f)`` operands are one gather from the model's dense table
  (:attr:`repro.core.params.ModelInputs.dense`), which holds exactly what
  ``ModelInputs.artefacts`` and ``PowerTable.active``/``stall`` return at
  each characterized key; any other point goes through those scalar
  lookups and their nearest-key rule.  The per-``n`` values call the same
  scalar laws (``CommCharacteristics.eta`` …).  The vectorized results
  therefore agree with the scalar path to within floating-point
  determinism (the test suite pins 1e-9 relative tolerance via a
  hypothesis equivalence test, and bit equality on the shipped models).
* **The Eq. 5 fixed point is iterated lane-wise.**  Each configuration's
  damped iteration sequence is identical to the scalar loop; only the
  multi-node lanes iterate, and each leaves the working set as it
  converges.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro import obs
from repro.core.energy_model import EnergyBreakdown
from repro.core.model import HybridProgramModel, Prediction
from repro.core.params import ModelInputs
from repro.core.time_model import (
    _BURST_FLOOR,
    _DAMPING,
    _FIXPOINT_TOL,
    _MAX_FIXPOINT_ITER,
    TimeBreakdown,
)
from repro.machines.spec import Configuration
from repro.mg1 import RHO_MAX, exponential_second_moment, mg1_mean_wait, mg1_utilization
from repro.units import MIB


def _is_grid(space: object) -> bool:
    """Duck-typed check for :class:`~repro.core.configspace.ConfigSpace`
    (imported structurally to avoid a circular import)."""
    return (
        hasattr(space, "node_counts")
        and hasattr(space, "core_counts")
        and hasattr(space, "frequencies_hz")
    )


@dataclass(frozen=True)
class VectorizedEvaluation:
    """Model predictions over a whole space as flat, aligned arrays.

    Arrays are ordered exactly like ``ConfigSpace`` iteration (cartesian
    product, node-major) or like the explicit configuration sequence that
    produced them.  All arrays are read-only: evaluations are shared
    through the LRU cache.
    """

    class_name: str
    space: object  # ConfigSpace or tuple[Configuration, ...]
    nodes: np.ndarray
    cores: np.ndarray
    frequencies_hz: np.ndarray
    t_cpu_s: np.ndarray
    t_mem_s: np.ndarray
    t_net_service_s: np.ndarray
    t_net_wait_s: np.ndarray
    utilization_baseline: np.ndarray
    rho_network: np.ndarray
    saturated: np.ndarray
    cpu_j: np.ndarray
    mem_j: np.ndarray
    net_j: np.ndarray
    idle_j: np.ndarray
    times_s: np.ndarray
    energies_j: np.ndarray
    ucrs: np.ndarray

    def __len__(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def t_net_s(self) -> np.ndarray:
        """Total network time ``T_w,net + T_s,net`` per configuration."""
        return self.t_net_service_s + self.t_net_wait_s

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        """The configurations, aligned with the arrays.

        ``space`` is ``None`` for evaluations rehydrated from the
        persistent disk cache (:mod:`repro.core.cache`); the
        configurations are then rebuilt from the aligned arrays.
        """
        if self.space is None:
            return tuple(
                Configuration(
                    nodes=int(n), cores=int(c), frequency_hz=float(f)
                )
                for n, c, f in zip(self.nodes, self.cores, self.frequencies_hz)
            )
        if isinstance(self.space, tuple):
            return self.space
        return tuple(self.space)

    @cached_property
    def labels(self) -> list[str]:
        """Paper-style (n,c,f) labels."""
        return [cfg.label() for cfg in self.configs]

    def prediction(self, i: int) -> Prediction:
        """Materialize the scalar-API :class:`Prediction` for one point."""
        time = TimeBreakdown(
            t_cpu_s=float(self.t_cpu_s[i]),
            t_mem_s=float(self.t_mem_s[i]),
            t_net_service_s=float(self.t_net_service_s[i]),
            t_net_wait_s=float(self.t_net_wait_s[i]),
            utilization_baseline=float(self.utilization_baseline[i]),
            rho_network=float(self.rho_network[i]),
            saturated=bool(self.saturated[i]),
        )
        energy = EnergyBreakdown(
            cpu_j=float(self.cpu_j[i]),
            mem_j=float(self.mem_j[i]),
            net_j=float(self.net_j[i]),
            idle_j=float(self.idle_j[i]),
        )
        if isinstance(self.space, tuple):
            config = self.space[i]
        else:  # one configuration, not the whole ``configs`` tuple
            config = Configuration(
                nodes=int(self.nodes[i]),
                cores=int(self.cores[i]),
                frequency_hz=float(self.frequencies_hz[i]),
            )
        return Prediction(
            config=config,
            class_name=self.class_name,
            time=time,
            energy=energy,
        )

    @cached_property
    def predictions(self) -> tuple[Prediction, ...]:
        """All predictions materialized (built once, then cached)."""
        return tuple(self.prediction(i) for i in range(len(self)))


# ----------------------------------------------------------------------
# LRU-cached space-evaluation layer
# ----------------------------------------------------------------------

class CacheInfo(NamedTuple):
    """Cache statistics, mirroring :func:`functools.lru_cache` (plus the
    eviction count the obs layer also tracks and the result-array bytes
    the cache retains)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    evictions: int = 0
    currbytes: int = 0


_MISSING = object()


#: Result-array bytes the space-evaluation LRU retains before evicting
#: its oldest entries (~129 bytes per configuration).  Two 192k-config
#: grids (~23.6 MiB each) fit; 64 entries the size of the paper
#: pipeline's spaces (<= 0.16 MiB) or of serve queries never reach it.
EVALUATION_CACHE_MAX_BYTES = 64 * MIB


def _result_bytes(value: object) -> int:
    """Bytes of the arrays an entry holds (0 for a value without any)."""
    return sum(
        a.nbytes
        for a in getattr(value, "__dict__", {}).values()
        if isinstance(a, np.ndarray)
    )


class _LRUCache:
    """A small explicit LRU (model fingerprints are not lru_cache-able).

    Bounded twice: at most ``maxsize`` entries, and — oldest first —
    entries are evicted while the retained result arrays exceed
    ``maxbytes`` (the newest entry always stays, however large).
    All dict mutation and the ``hits``/``misses``/``evictions``/
    ``currbytes`` stats are guarded by a lock: `repro serve` calls into
    the engine from worker threads, so ``get``/``put`` race once
    requests run concurrently.  Hit/miss/eviction events are mirrored
    into the observability layer (``vectorized.cache.*`` counters,
    reported outside the lock) whenever metrics are enabled.
    """

    def __init__(
        self, maxsize: int, maxbytes: int = EVALUATION_CACHE_MAX_BYTES
    ) -> None:
        self.maxsize = maxsize
        self.maxbytes = maxbytes
        self._data: OrderedDict[object, VectorizedEvaluation] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.currbytes = 0  # guarded-by: _lock

    def get(self, key: object) -> VectorizedEvaluation | None:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        if value is _MISSING:
            obs.add("vectorized.cache.misses")
            return None
        obs.add("vectorized.cache.hits")
        return value  # type: ignore[return-value]

    def put(self, key: object, value: VectorizedEvaluation) -> None:
        size = _result_bytes(value)
        evicted = 0
        with self._lock:
            previous = self._data.pop(key, None)
            if previous is not None:
                self.currbytes -= _result_bytes(previous)
            self._data[key] = value
            self.currbytes += size
            while len(self._data) > self.maxsize or (
                self.currbytes > self.maxbytes and len(self._data) > 1
            ):
                _, oldest = self._data.popitem(last=False)
                self.currbytes -= _result_bytes(oldest)
                self.evictions += 1
                evicted += 1
        for _ in range(evicted):
            obs.add("vectorized.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.currbytes = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self.hits, self.misses, self.maxsize, len(self._data),
                self.evictions, self.currbytes,
            )


_EVALUATION_CACHE = _LRUCache(maxsize=64)


def evaluation_cache_info() -> CacheInfo:
    """Statistics of the space-evaluation LRU cache."""
    return _EVALUATION_CACHE.info()


def clear_evaluation_cache() -> None:
    """Drop all cached space evaluations (tests, memory pressure)."""
    _EVALUATION_CACHE.clear()


def _freeze(mapping: Mapping) -> tuple:
    return tuple(sorted(mapping.items()))


def model_fingerprint(model: HybridProgramModel) -> tuple:
    """A hashable digest of everything a prediction depends on.

    Covers the program's input-class table (scale factors / iterations)
    and every :class:`~repro.core.params.ModelInputs` field, so what-if
    variants and recalibrated models never collide in the cache.
    """
    prog = model.program
    inputs = model.inputs
    classes = tuple(
        sorted((n, ic.iterations, ic.size_factor) for n, ic in prog.classes.items())
    )
    power = inputs.power
    return (
        prog.name,
        prog.reference_class,
        classes,
        inputs.baseline_class,
        inputs.baseline_iterations,
        _freeze(inputs.baseline),
        inputs.comm,
        inputs.network,
        _freeze(power.core_active_w),
        _freeze(power.core_stall_w),
        power.mem_w,
        power.net_w,
        power.sys_idle_w,
    )


def model_identity(model: HybridProgramModel) -> str:
    """``repr(model_fingerprint(model))``, built once per model instance.

    The text names a model in every persisted identity (disk-cache
    entries and sweep checkpoints) and keys the in-memory LRU;
    its hash is computed once with it.  Models are frozen, and what-if
    variants are new instances, so the cached text cannot go stale.
    Threads racing on a model's first call each store the same text.
    """
    state = model.__dict__
    identity = state.get("_model_identity")
    if identity is None:
        identity = state["_model_identity"] = repr(model_fingerprint(model))
    return identity


def _space_key(space: object) -> tuple:
    if _is_grid(space):
        return (
            "grid",
            space.node_counts,
            space.core_counts,
            space.frequencies_hz,
        )
    return ("configs", tuple(space))


def cache_key(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
) -> tuple:
    """The LRU key: (model params, space, evaluation options)."""
    cls = class_name or model.inputs.baseline_class
    return (
        model_identity(model),
        _space_key(space),
        cls,
        queueing,
        service_overlap,
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _flat(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Materialize a broadcastable array as a flat contiguous copy (a
    full-shape contiguous array is only reshaped)."""
    if a.shape == shape and a.flags.c_contiguous:
        return a.reshape(-1)
    return np.ascontiguousarray(np.broadcast_to(a, shape)).reshape(-1)


def evaluate_configs(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    use_cache: bool = True,
) -> VectorizedEvaluation:
    """Predict every configuration of a space in one broadcast pass.

    ``space`` is a :class:`~repro.core.configspace.ConfigSpace` or any
    sequence of :class:`Configuration`.  ``queueing`` and
    ``service_overlap`` select the same time-model variants as
    :func:`repro.core.time_model.predict_time`.  With ``use_cache`` the
    result is served from / stored into the module LRU, keyed on
    ``(model params, space, options)``.
    """
    if queueing not in ("bracketed", "mg1", "none"):
        raise ValueError(f"unknown queueing variant {queueing!r}")
    if not obs.active():
        return _evaluate(
            model, space, class_name, queueing, service_overlap, use_cache
        )
    t_start = time.perf_counter()
    with obs.span("evaluate_space", queueing=queueing) as sp:
        result = _evaluate(
            model, space, class_name, queueing, service_overlap, use_cache
        )
        sp.set(configs=len(result), class_name=result.class_name)
    obs.observe("vectorized.evaluate_seconds", time.perf_counter() - t_start)
    return result


def _evaluate(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    use_cache: bool,
    instrument: bool = True,
) -> VectorizedEvaluation:
    if not _is_grid(space) and not isinstance(space, tuple):
        space = tuple(space)
    key = (
        cache_key(model, space, class_name, queueing, service_overlap)
        if use_cache
        else None
    )
    # Past the LRU, planner.execute is the one execution path: the
    # ambient disk cache, then the broadcast engine (streamed when over
    # the active block budget).  The import is deferred:
    # repro.core.planner imports this module.
    from repro.core import planner as _planner

    if key is not None:
        cached = _EVALUATION_CACHE.get(key)
        if cached is not None:
            if instrument:
                _planner.record_selection("cached")
            return cached

    result = _planner.execute(
        model,
        space,
        class_name,
        queueing,
        service_overlap,
        cacheable=use_cache,
        instrument=instrument,
    )
    if key is not None:
        _EVALUATION_CACHE.put(key, result)
    return result


def _compute(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    instrument: bool = True,
) -> VectorizedEvaluation:
    """The broadcast engine itself (no caches, no dispatch).

    :func:`repro.core.planner.execute` and every block of the planner's
    block pipeline (:func:`repro.core.planner._blocks`) call exactly this
    function, which is why streamed results are bit-identical to
    materialized ones.
    """
    inputs = model.inputs
    cls_name = class_name or inputs.baseline_class
    scale = model.program.scale_factor(cls_name, inputs.baseline_class)
    iterations = model.program.iterations(cls_name)
    if scale <= 0 or iterations < 1:
        raise ValueError("scale must be positive and iterations >= 1")
    size_ratio = scale * inputs.baseline_iterations / iterations

    # --- broadcastable (n, c, f) views and per-point parameter tables.
    # The per-(c, f) operands are one gather from the model's dense table
    # (the exact values the scalar lookups return); the per-n ones come
    # from the same scalar laws the reference model uses, called once per
    # distinct value, so the elementwise math below sees bit-identical
    # operands.
    if _is_grid(space):
        # grid: three small axes broadcast to shape (N, C, F), no sorting
        n_ax = np.asarray(space.node_counts, dtype=np.float64)
        c_ax = np.asarray(space.core_counts, dtype=np.float64)
        f_ax = np.asarray(space.frequencies_hz, dtype=np.float64)
        shape = (n_ax.size, c_ax.size, f_ax.size)
        n = n_ax.reshape(-1, 1, 1)
        c = c_ax.reshape(1, -1, 1)
        f = f_ax.reshape(1, 1, -1)
        useful, mem, util, p_act, p_stall = _table_values(
            inputs, c_ax.reshape(-1, 1), f_ax.reshape(1, -1), sort_misses=False
        )[:, None]
        node_values = [int(v) for v in n_ax]
        eta_total = np.array(
            [inputs.comm.eta(v) * iterations for v in node_values]
        ).reshape(-1, 1, 1)
        volume_total = np.array(
            [inputs.comm.volume(v) * size_ratio * iterations for v in node_values]
        ).reshape(-1, 1, 1)
        space_ref: object = space
    else:
        # explicit configuration list: per-n values once per distinct n
        cfgs = tuple(space)
        shape = (len(cfgs),)
        n = np.array([cfg.nodes for cfg in cfgs], dtype=np.float64)
        c = np.array([cfg.cores for cfg in cfgs], dtype=np.float64)
        f = np.array([cfg.frequency_hz for cfg in cfgs], dtype=np.float64)
        useful, mem, util, p_act, p_stall = _table_values(
            inputs, c, f, sort_misses=True
        )
        uniq_n, inv_n = np.unique(n, return_inverse=True)
        eta_u = np.array(
            [inputs.comm.eta(int(v)) * iterations for v in uniq_n]
        )
        vol_u = np.array(
            [inputs.comm.volume(int(v)) * size_ratio * iterations for v in uniq_n]
        )
        eta_total = eta_u[inv_n]
        volume_total = vol_u[inv_n]
        space_ref = cfgs

    if n.size and (n.min() < 1 or c.min() < 1):
        raise ValueError("need nodes >= 1 and cores >= 1")

    # Eqs. 2-4 and Eq. 7: per-core cycles split across n nodes
    t_cpu = useful * scale / (n * f)
    t_mem = mem * scale / (n * f)

    # communication characteristics (single-node lanes carry zeros)
    nu = np.divide(
        volume_total, eta_total, out=np.zeros_like(volume_total), where=eta_total > 0
    )
    bandwidth = inputs.network.bandwidth_bytes_per_s
    overhead = inputs.network.latency_floor_s
    multi = n > 1
    if bandwidth <= 0 and bool(np.any(np.broadcast_to(multi, shape))):
        raise ValueError("network bandwidth must be positive for nodes > 1")

    # Eq. 6: non-overlapped network service time (zero on a single node).
    # The overlap slack is clamped at zero exactly like the scalar path.
    wire_time = eta_total * overhead + (
        volume_total / bandwidth if bandwidth > 0 else np.zeros_like(volume_total)
    )
    slack = np.maximum(0.0, 1.0 - util)
    if service_overlap:
        t_net_service = np.maximum(slack * t_cpu, wire_time)
    else:
        t_net_service = slack * t_cpu + wire_time
    t_net_service = np.where(multi, t_net_service, 0.0)

    # Eq. 5: switch waiting time via the damped fixed point, lane-wise,
    # through the shared P-K formula (repro.mg1) with the exponential
    # second moment — the same formula the scalar model uses.  Each lane
    # follows exactly the scalar iteration sequence; only the multi-node
    # lanes iterate, and each one leaves the loop as it converges.
    y_mean = (
        nu / bandwidth if bandwidth > 0 else np.zeros_like(nu)
    )
    y_m2 = exponential_second_moment(y_mean)
    drain_bound = eta_total * y_mean
    burst_floor = np.where(n > 2, _BURST_FLOOR * drain_bound, 0.0)

    t_base = t_cpu + t_mem + t_net_service
    wait = np.zeros(shape)
    rho_out = np.zeros(shape)
    saturated = np.zeros(shape, dtype=bool)
    iters = 0
    lanes = np.flatnonzero(np.broadcast_to(multi, shape))
    if queueing != "none":
        # lanes are independent: iterate them in cache-sized blocks, which
        # also bounds the working set a large grid adds to peak memory
        for start in range(0, lanes.size, _LANE_BLOCK):
            iters = max(iters, _fixpoint(
                lanes[start:start + _LANE_BLOCK],
                shape,
                t_base,
                (eta_total, y_mean, y_m2, burst_floor, drain_bound),
                queueing == "bracketed",
                wait,
                rho_out,
                saturated,
            ))
    if instrument and obs.metrics_enabled():
        obs.add("vectorized.fixpoint_iterations", iters)
        obs.add("vectorized.lanes", int(np.prod(shape)))
        obs.add("vectorized.multi_node_lanes", int(lanes.size))
        obs.add("vectorized.saturated_lanes", int(saturated.sum()))
        if queueing == "bracketed" and lanes.size:
            # one post-hoc pass: lanes whose final wait sits on a bracket
            # edge were clamped away from the raw M/G/1 estimate
            on_edge = np.broadcast_to(multi, shape) & (
                (wait <= np.broadcast_to(burst_floor, shape))
                | (wait >= np.broadcast_to(drain_bound, shape))
            )
            obs.add(
                "vectorized.fixpoint_bracket_clamped_lanes",
                int(np.count_nonzero(on_edge & (wait > 0))),
            )

    # totals, associated exactly like TimeBreakdown.total_s
    t_net = t_net_service + wait
    times = t_cpu + t_mem + t_net
    ucrs = np.divide(t_cpu, times, out=np.zeros(shape), where=times > 0)

    # Eqs. 8-12
    power = inputs.power
    cpu_j = (p_act * t_cpu + p_stall * t_mem) * c * n
    mem_j = power.mem_w * t_mem * n
    net_j = power.net_w * t_net * n
    idle_j = power.sys_idle_w * times * n
    energies = cpu_j + mem_j + net_j + idle_j

    result = VectorizedEvaluation(
        class_name=cls_name,
        space=space_ref,
        nodes=_readonly(_flat(n, shape)),
        cores=_readonly(_flat(c, shape)),
        frequencies_hz=_readonly(_flat(f, shape)),
        t_cpu_s=_readonly(_flat(t_cpu, shape)),
        t_mem_s=_readonly(_flat(t_mem, shape)),
        t_net_service_s=_readonly(_flat(t_net_service, shape)),
        t_net_wait_s=_readonly(_flat(wait, shape)),
        utilization_baseline=_readonly(_flat(util, shape)),
        rho_network=_readonly(_flat(rho_out, shape)),
        saturated=_readonly(_flat(saturated, shape)),
        cpu_j=_readonly(_flat(cpu_j, shape)),
        mem_j=_readonly(_flat(mem_j, shape)),
        net_j=_readonly(_flat(net_j, shape)),
        idle_j=_readonly(_flat(idle_j, shape)),
        times_s=_readonly(_flat(times, shape)),
        energies_j=_readonly(_flat(energies, shape)),
        ucrs=_readonly(_flat(ucrs, shape)),
    )
    return result


def _table_values(
    inputs: ModelInputs,
    cores: np.ndarray,
    frequencies_hz: np.ndarray,
    sort_misses: bool,
) -> np.ndarray:
    """The five per-(c, f) operands (:data:`repro.core.params.DENSE_ROWS`)
    at each query point, shape ``(5, *broadcast)``.

    Exact keys come from one gather out of ``inputs.dense``; every other
    point takes the scalar lookups' nearest-key rule through
    :meth:`~repro.core.params.ModelInputs.point_values`, in the order the
    per-point loop used to visit them (row-major over a grid, ascending
    ``(c, f)`` over a configuration list), so the first missing core
    count raises the same ``KeyError``.  Core counts are truncated to
    integers as the scalar lookups receive them.
    """
    values, exact = inputs.dense.gather(np.trunc(cores), frequencies_hz)
    if not exact.all():
        c_b, f_b = np.broadcast_arrays(cores, frequencies_hz)
        c_b, f_b = c_b.reshape(-1), f_b.reshape(-1)
        misses = np.flatnonzero(~exact)
        if sort_misses:
            misses = misses[np.lexsort((f_b[misses], c_b[misses]))]
        flat = values.reshape(values.shape[0], -1)
        for k in misses:
            flat[:, k] = inputs.point_values(int(c_b[k]), float(f_b[k]))
    return values


#: Lanes per block of the Eq. 5 fixed point (64 KiB per float64 operand).
_LANE_BLOCK = 8192


def _fixpoint(
    lanes: np.ndarray,
    shape: tuple[int, ...],
    t_base: np.ndarray,
    per_node: tuple[np.ndarray, ...],
    bracketed: bool,
    wait: np.ndarray,
    rho_out: np.ndarray,
    saturated: np.ndarray,
) -> int:
    """Iterate the Eq. 5 damped fixed point over the multi-node ``lanes``
    (flat indices into ``shape``, at least one); returns the number of
    passes run.

    Each lane's operands are gathered by its node index from the small
    ``per_node`` arrays (``eta_total, y_mean, y_m2, burst_floor,
    drain_bound``, each varying only along the node axis) and from the
    full-shape ``t_base``.  A lane's final wait, load and saturation flag
    are written into ``wait``/``rho_out``/``saturated`` when it converges
    (or at the iteration cap), and the lane leaves the compacted working
    set.  The per-lane arithmetic, and its order, is the scalar loop's.
    """
    node = lanes // int(np.prod(shape[1:], dtype=np.int64))
    eta, y, m2, floor, drain = (a.reshape(-1)[node] for a in per_node)
    base = t_base.reshape(-1)[lanes]
    # mg1_mean_wait's negative-input guards, hoisted out of the loop: the
    # first pass is the only one that can trip them (afterwards every
    # total is t_base plus a non-negative wait)
    mg1_mean_wait(eta / base, y, m2, rho_max=RHO_MAX)
    total = base
    lane_wait = np.zeros(lanes.size)
    lane_sat = np.zeros(lanes.size, dtype=bool)
    wait_flat = wait.reshape(-1)
    rho_flat = rho_out.reshape(-1)
    sat_flat = saturated.reshape(-1)
    passes = 0
    while lanes.size and passes < _MAX_FIXPOINT_ITER:
        passes += 1
        lam = eta / total
        rho_raw = mg1_utilization(lam, y)
        rho = np.minimum(rho_raw, RHO_MAX)
        # mg1_mean_wait(lam, y, m2, rho_max=RHO_MAX), term for term
        new_wait = eta * (lam * m2 / (2.0 * (1.0 - rho)))
        if bracketed:
            new_wait = np.minimum(np.maximum(new_wait, floor), drain)
        new_total = base + new_wait
        conv = np.abs(new_total - total) <= _FIXPOINT_TOL * total
        damped = _DAMPING * new_wait + (1.0 - _DAMPING) * lane_wait
        # any-iteration semantics, matching the scalar flag: the clamp
        # engaging anywhere along the lane's fixed point marks it
        lane_sat |= rho_raw >= RHO_MAX
        if np.count_nonzero(conv):
            out = lanes[conv]
            wait_flat[out] = new_wait[conv]
            rho_flat[out] = rho[conv]
            sat_flat[out] = lane_sat[conv]
            keep = ~conv
            lanes, eta, y, m2, base, damped, rho, lane_sat = (
                a[keep] for a in (lanes, eta, y, m2, base, damped, rho, lane_sat)
            )
            if bracketed:
                floor, drain = floor[keep], drain[keep]
        lane_wait = damped
        total = base + damped
    # lanes still unconverged at the iteration cap keep their last pass
    wait_flat[lanes] = lane_wait
    rho_flat[lanes] = rho
    sat_flat[lanes] = lane_sat
    return passes


def evaluate_many(
    model: HybridProgramModel,
    configs: Iterable[Configuration],
    class_name: str | None = None,
) -> VectorizedEvaluation:
    """Vectorized evaluation of an explicit configuration batch (uncached).

    Convenience for callers holding ad-hoc configuration lists, where
    caching arbitrary subsets would only churn the LRU.  Deliberately
    *uninstrumented*: such callers invoke it from inner loops inside
    their own span, so per-call spans and lane metrics would dominate
    both the trace and the < 2% overhead budget that
    ``benchmarks/bench_obs_overhead.py`` enforces.
    """
    return _evaluate(
        model, tuple(configs), class_name, "bracketed", True, False, instrument=False
    )
