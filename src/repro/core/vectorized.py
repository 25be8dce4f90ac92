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
  hypothesis equivalence test, and bit equality on the shipped models
  and on the drawn models of ``tests/property/test_pinned_fixpoint.py``).
* **The Eq. 5 fixed point is solved lane-wise.**  Each configuration's
  result, and the pass count, are the scalar loop's.  Only the
  multi-node lanes iterate, and each leaves the working set as it
  converges.  A bracketed lane whose first-pass wait is below its
  node's burst floor stays clamped at the floor on every pass (each
  IEEE operation of a pass is monotone and the total never decreases),
  so its damped wait runs a sequence of the floor alone.
  :func:`_solve_pinned` finds each such lane's converging pass by a
  guess confirmed with the loop's own expressions over a per-node table
  of that sequence, instead of running the passes.
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
    # distinct node count (``node_counts``; ``lane_node`` maps a flat
    # configuration index to its entry, ``None`` meaning the grid's
    # node-major order), so the elementwise math below sees bit-identical
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
        node_counts, lane_node = n_ax, None
        space_ref: object = space
    else:
        # explicit configuration list
        cfgs = tuple(space)
        shape = (len(cfgs),)
        n = np.array([cfg.nodes for cfg in cfgs], dtype=np.float64)
        c = np.array([cfg.cores for cfg in cfgs], dtype=np.float64)
        f = np.array([cfg.frequency_hz for cfg in cfgs], dtype=np.float64)
        useful, mem, util, p_act, p_stall = _table_values(
            inputs, c, f, sort_misses=True
        )
        node_counts, lane_node = np.unique(n, return_inverse=True)
        space_ref = cfgs
    eta_node = np.array(
        [inputs.comm.eta(int(v)) * iterations for v in node_counts]
    )
    vol_node = np.array(
        [inputs.comm.volume(int(v)) * size_ratio * iterations for v in node_counts]
    )

    def per_point(a: np.ndarray) -> np.ndarray:
        """A per-node array as a broadcastable per-configuration one."""
        return a.reshape(-1, 1, 1) if lane_node is None else a[lane_node]

    eta_total = per_point(eta_node)
    volume_total = per_point(vol_node)

    if n.size and (n.min() < 1 or c.min() < 1):
        raise ValueError("need nodes >= 1 and cores >= 1")

    # Eqs. 2-4 and Eq. 7: per-core cycles split across n nodes
    t_cpu = useful * scale / (n * f)
    t_mem = mem * scale / (n * f)

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
    # second moment — the same formula the scalar model uses.  Its
    # per-node operands (single-node entries carry zeros) are computed
    # once per distinct node count; only the multi-node lanes are solved
    # (see _fixpoint).
    nu = np.divide(
        vol_node, eta_node, out=np.zeros_like(vol_node), where=eta_node > 0
    )
    y_mean = nu / bandwidth if bandwidth > 0 else np.zeros_like(nu)
    y_m2 = exponential_second_moment(y_mean)
    drain_bound = eta_node * y_mean
    burst_floor = np.where(node_counts > 2, _BURST_FLOOR * drain_bound, 0.0)

    t_base = t_cpu + t_mem + t_net_service
    wait = np.zeros(shape)
    rho_out = np.zeros(shape)
    saturated = np.zeros(shape, dtype=bool)
    iters = 0
    lanes = np.flatnonzero(np.broadcast_to(multi, shape))
    if queueing != "none":
        per_node = (
            eta_node, y_mean, y_m2, burst_floor, drain_bound,
            _pinnable_floor(burst_floor, drain_bound),
        )
        stride = int(np.prod(shape[1:], dtype=np.int64))
        # lanes are independent: solve them in cache-sized blocks, which
        # also bounds the working set a large grid adds to peak memory
        for start in range(0, lanes.size, _LANE_BLOCK):
            block = lanes[start:start + _LANE_BLOCK]
            iters = max(iters, _fixpoint(
                block,
                block // stride if lane_node is None else lane_node[block],
                t_base,
                per_node,
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
                (wait <= np.broadcast_to(per_point(burst_floor), shape))
                | (wait >= np.broadcast_to(per_point(drain_bound), shape))
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
#: Guesses :func:`_solve_pinned` makes at a lane's pass count before
#: leaving the lane to the damped loop.
_SEARCH_ROUNDS = 3


def _pinnable_floor(floor: np.ndarray, drain: np.ndarray) -> np.ndarray:
    """Per node: the burst floor :func:`_solve_pinned` may pin lanes at.

    A floor qualifies when it is a finite normal number inside the
    bracket (``floor <= drain``) and one damped step from it does not
    overshoot it, which keeps the damped sequence from 0 non-decreasing
    and at most ``floor``.  Other nodes get 0.0, which no first-pass raw
    wait (never negative) is below, so their lanes run the loop.
    """
    damped = _DAMPING * floor + (1.0 - _DAMPING) * floor
    exact = (
        (floor >= np.finfo(np.float64).tiny)
        & (floor < np.inf)
        & (floor <= drain)
        & (damped <= floor)
    )
    return np.where(exact, floor, 0.0)


def _fixpoint(
    lanes: np.ndarray,
    node: np.ndarray,
    t_base: np.ndarray,
    per_node: tuple[np.ndarray, ...],
    bracketed: bool,
    wait: np.ndarray,
    rho_out: np.ndarray,
    saturated: np.ndarray,
) -> int:
    """Solve the Eq. 5 damped fixed point for the multi-node ``lanes``
    (flat indices into ``t_base``'s shape, at least one); returns the
    number of passes the scalar loop runs for the slowest of them.

    ``node`` is each lane's index into the small ``per_node`` arrays
    (``eta_total, y_mean, y_m2, burst_floor, drain_bound`` and the
    :func:`_pinnable_floor`).  Each lane's final wait, load and
    saturation flag are written into ``wait``/``rho_out``/``saturated``
    when it converges (or at the iteration cap), and the lane leaves the
    compacted working set; the per-lane arithmetic, and its order, is
    the scalar loop's.  Bracketed lanes whose first-pass M/G/1 wait is
    below a pinnable burst floor follow a known path:
    :func:`_solve_pinned` places them before the loop starts, and the
    loop runs the other lanes (and any the search leaves) from pass 1.
    """
    eta, y, m2, floor, drain, pin_floor = per_node
    lane_eta, lane_y = eta[node], y[node]
    base = t_base.reshape(-1)[lanes]
    # the first pass's load and raw wait, through mg1_mean_wait so that
    # its negative-input guards run.  No later pass can trip them, and
    # the raw load never rises again: every later total is t_base plus a
    # non-negative wait.  So the saturation flag (the clamp engaging
    # anywhere along the fixed point, as in the scalar loop) is settled.
    lam = lane_eta / base
    raw = lane_eta * mg1_mean_wait(lam, lane_y, m2[node], rho_max=RHO_MAX)
    lane_sat = mg1_utilization(lam, lane_y) >= RHO_MAX
    pinned_passes = 0
    if bracketed:
        rows = np.flatnonzero(raw < pin_floor[node])
        if rows.size:
            if rows.size == lanes.size:  # views, not copies, when all are
                rows = slice(None)
            placed, pinned_passes = _solve_pinned(
                *(a[rows] for a in (lanes, node, base, lane_eta, lane_y, lane_sat)),
                pin_floor, wait, rho_out, saturated,
            )
            keep = np.ones(lanes.size, dtype=bool)
            keep[rows] = ~placed
            if not keep.any():
                return pinned_passes
            lanes, node, base, lane_eta, lane_y, lane_sat = (
                a[keep] for a in (lanes, node, base, lane_eta, lane_y, lane_sat)
            )
    lane_m2 = m2[node]
    bracket = (floor[node], drain[node]) if bracketed else None
    total = base
    lane_wait = rho = np.zeros(lanes.size)
    wait_flat = wait.reshape(-1)
    rho_flat = rho_out.reshape(-1)
    sat_flat = saturated.reshape(-1)
    passes = 0
    while lanes.size and passes < _MAX_FIXPOINT_ITER:
        passes += 1
        lam = lane_eta / total
        rho = np.minimum(mg1_utilization(lam, lane_y), RHO_MAX)
        # mg1_mean_wait(lam, y, m2, rho_max=RHO_MAX), term for term
        new_wait = lane_eta * (lam * lane_m2 / (2.0 * (1.0 - rho)))
        if bracket is not None:
            new_wait = np.minimum(np.maximum(new_wait, bracket[0]), bracket[1])
        new_total = base + new_wait
        conv = np.abs(new_total - total) <= _FIXPOINT_TOL * total
        damped = _DAMPING * new_wait + (1.0 - _DAMPING) * lane_wait
        if np.count_nonzero(conv):
            out = lanes[conv]
            wait_flat[out] = new_wait[conv]
            rho_flat[out] = rho[conv]
            sat_flat[out] = lane_sat[conv]
            keep = ~conv
            lanes, lane_eta, lane_y, lane_m2, base, damped, rho, lane_sat = (
                a[keep] for a in (
                    lanes, lane_eta, lane_y, lane_m2, base, damped, rho, lane_sat
                )
            )
            if bracket is not None:
                bracket = (bracket[0][keep], bracket[1][keep])
        lane_wait = damped
        total = base + damped
    # lanes still unconverged at the iteration cap keep their last pass
    wait_flat[lanes] = lane_wait
    rho_flat[lanes] = rho
    sat_flat[lanes] = lane_sat
    return max(passes, pinned_passes)


def _solve_pinned(
    lanes: np.ndarray,
    node: np.ndarray,
    base: np.ndarray,
    eta: np.ndarray,
    y: np.ndarray,
    lane_sat: np.ndarray,
    pin_floor: np.ndarray,
    wait: np.ndarray,
    rho_out: np.ndarray,
    saturated: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Place lanes pinned at their burst floor without the pass loop.

    Every lane here has a first-pass raw wait below its node's pinnable
    floor.  Each IEEE operation of a pass is monotone and the total never
    decreases from pass to pass, so the raw wait never rises: the
    clamped wait is the floor on every pass, and the damped wait runs
    ``w_0 = 0, w_k = damped(floor, w_{k-1})``, a sequence of the node
    alone.  The lane converges at the first pass ``K`` where
    ``|(base + floor) - (base + w_{K-1})| <= tol * (base + w_{K-1})``;
    the test is monotone in ``K`` (``w`` is non-decreasing and at most
    the floor), so ``K`` is guessed from the gap halving each pass and
    confirmed by the test holding at ``K`` and failing at ``K - 1``,
    with the loop's own expressions over a per-node table of ``w``.  The
    outputs follow: the wait is the floor, the load is the pass-``K``
    one, and the saturation flag is the first pass's (the raw load never
    rises either).

    Returns the mask of the lanes placed and the largest ``K`` among
    them; a lane unconfirmed after :data:`_SEARCH_ROUNDS` guesses, or
    past the pass cap, is not placed.
    """
    floor = pin_floor[node]
    new_total = base + floor
    # one guess per lane: the gap to the floor halves each pass, so
    # about log2(floor / (tol * total)) passes after the first
    k = np.frexp(floor / (_FIXPOINT_TOL * new_total))[1].astype(np.intp)
    np.maximum(k, 0, out=k)
    k += 1
    depth = min(int(k.max()) + 1, _MAX_FIXPOINT_ITER)
    np.minimum(k, depth, out=k)
    # row k of the table holds each node's w_{k-1}, the damped wait a
    # pass-k total adds to base; row 0 is NaN, so no lane converges at
    # "pass 0"
    lo, hi = int(node.min()), int(node.max())
    if hi - lo < node.size:
        column = node - lo
        floors = pin_floor[lo:hi + 1]
    else:
        uniq, column = np.unique(node, return_inverse=True)
        floors = pin_floor[uniq]
    width = floors.size
    table = np.empty((depth + 1, width))
    table[0] = np.nan
    table[1] = 0.0
    step = _DAMPING * floors
    for j in range(2, depth + 1):
        np.multiply(1.0 - _DAMPING, table[j - 1], out=table[j])
        np.add(step, table[j], out=table[j])
    flat = table.reshape(-1)
    for attempt in range(_SEARCH_ROUNDS):
        if attempt:
            k += ~hit
            k -= early
            np.minimum(k, depth, out=k)
        at = k * width + column
        total = base + flat[at]
        hit = np.abs(new_total - total) <= _FIXPOINT_TOL * total
        before = base + flat[at - width]
        early = np.abs(new_total - before) <= _FIXPOINT_TOL * before
        found = hit & ~early
        if found.all():
            break
    else:  # some lanes unconfirmed: place the others
        lanes, floor, total, eta, y, lane_sat, k = (
            a[found] for a in (lanes, floor, total, eta, y, lane_sat, k)
        )
    wait.reshape(-1)[lanes] = floor
    rho_out.reshape(-1)[lanes] = np.minimum(
        mg1_utilization(eta / total, y), RHO_MAX
    )
    saturated.reshape(-1)[lanes] = lane_sat
    return found, int(k.max()) if k.size else 0


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
