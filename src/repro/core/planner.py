"""Adaptive execution planner + block-streamed huge-space evaluation.

The repo grew four ways to answer "evaluate this ``(n, c, f)`` space":
the scalar reference loop (:meth:`~repro.core.model.HybridProgramModel.predict`
per point), the vectorized broadcast engine
(:func:`repro.core.vectorized._compute`), the sharded multiprocess engine
(:mod:`repro.core.parallel`) and the caches (in-memory LRU + persistent
:class:`~repro.core.cache.ResultCache`).  Nothing *chose* between them —
the parallel bench even recorded a 0.67x "speedup" sharding 4 ways on a
1-CPU host.  This module adds the missing decision layer plus a
block-streamed execution mode for spaces too large to materialize:

* **Cost model** (:class:`CostModel`): per-strategy wall-time estimates,
  either *calibrated* from the committed bench reports
  (``benchmarks/out/vectorized_speedup.json`` +
  ``parallel_speedup.json`` via :func:`calibrate` / ``repro plan
  calibrate``) or a conservative static *fallback* table.
* **Decision** (:func:`decide`): picks ``cached`` / ``scalar`` /
  ``vectorized`` / ``sharded`` per request from the cost model, the
  space size, the ambient :class:`~repro.core.parallel.ExecutionPlan`
  and the host's CPU affinity mask.  Hard invariant, pinned by a
  regression test: **an effective single-CPU host never selects
  ``sharded``**, whatever the cost model says.
* **Streaming** (:func:`iter_block_spaces`, :func:`stream_blocks`,
  :func:`evaluate_space_streamed`, :func:`stream_topk`,
  :func:`stream_pareto`): evaluates a space in contiguous flat-order
  blocks sized by a byte budget (``--max-block-bytes``), with running
  top-k / Pareto reductions whose results are **bit-identical** to the
  materialized path — every block stays grid-shaped, every lane's
  arithmetic is independent (the Eq. 5 fixed point freezes converged
  lanes), and the reductions replicate NumPy's stable tie-breaking
  exactly.  The property suite pins this contract.

The planner only takes charge when a :class:`PlannerConfig` is active
(``repro --plan/--max-block-bytes``, :func:`planner_config`, or a
``repro serve`` instance); without one, execution follows the legacy
ambient-:class:`~repro.core.parallel.ExecutionPlan` dispatch unchanged,
so explicit operator plans (and the tests pinning them) keep their exact
semantics.  Every selection is recorded as a labeled counter exported as
``repro_plan_selected_total{strategy="…"}``.  See ``docs/PLANNER.md``.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

import numpy as np

from repro import obs
from repro.core import parallel, vectorized
from repro.core.cache import ARRAY_FIELDS, entry_identity
from repro.core.model import HybridProgramModel, Prediction
from repro.core.parallel import _SubGrid
from repro.core.vectorized import VectorizedEvaluation
from repro.resilience.checkpoint import atomic_write_text
from repro.units import MIB

#: Execution strategies the planner chooses between.
PLAN_STRATEGIES = ("cached", "scalar", "vectorized", "sharded")

#: ``--plan`` modes: ``auto`` consults the cost model, the rest force one
#: strategy (``sharded`` still degrades to ``vectorized`` on a host whose
#: affinity mask yields a single effective worker).
PLAN_MODES = ("auto", "scalar", "vectorized", "sharded")

#: Default streaming budget: bounds the *working set* of one evaluation
#: block (result rows + broadcast temporaries), not the final output.
DEFAULT_MAX_BLOCK_BYTES = 64 * MIB

#: Bytes of result arrays one configuration occupies (the 17 persisted
#: ``ARRAY_FIELDS`` rows; ``saturated`` is 1 byte but counted as a full
#: float64 to keep the estimate conservative).
RESULT_BYTES_PER_CONFIG = len(ARRAY_FIELDS) * np.dtype(np.float64).itemsize

#: Conservative per-configuration working-set estimate for one streamed
#: block: result rows plus the broadcast engine's intermediate arrays
#: (~25 temporaries of the block shape during the Eq. 5 fixed point).
WORKING_BYTES_PER_CONFIG = 4 * RESULT_BYTES_PER_CONFIG

#: Environment variable naming a persisted calibration file
#: (:func:`save_cost_model`) that :func:`resolve_cost_model` loads when
#: no explicit cost model is configured.
CALIBRATION_ENV = "REPRO_PLANNER_CALIBRATION"

#: Marker + version of the persisted calibration document.
CALIBRATION_KIND = "repro_planner_calibration"
CALIBRATION_VERSION = 1


class CalibrationError(ValueError):
    """A calibration source or persisted calibration file is unusable."""


# ----------------------------------------------------------------------
# the cost model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Per-strategy wall-time estimates, linear in the space size.

    ``scalar`` costs ``size * scalar_per_config_s``; ``vectorized`` pays
    a fixed base (table lookups, array setup) plus a per-config slope;
    ``sharded`` divides the vectorized slope across effective workers
    but adds fixed dispatch plus per-config transport overhead (memmap
    write + read-back); ``cached`` models a warm
    :class:`~repro.core.cache.ResultCache` read.  ``source`` records
    whether the numbers were fit from bench reports (``"calibrated"``)
    or are the static conservative table (``"fallback"``); ``cpus`` is
    the calibration host's CPU count (informational).
    """

    source: str
    scalar_per_config_s: float
    vectorized_base_s: float
    vectorized_per_config_s: float
    shard_dispatch_s: float
    shard_overhead_per_config_s: float
    cache_read_base_s: float
    cache_read_per_config_s: float
    cpus: int = 1

    def __post_init__(self) -> None:
        """Reject non-positive core rates (degenerate fits)."""
        if self.scalar_per_config_s <= 0 or self.vectorized_per_config_s <= 0:
            raise CalibrationError("per-config costs must be positive")

    def estimate(self, strategy: str, size: int, workers: int = 1) -> float:
        """Estimated wall seconds for ``strategy`` over ``size`` configs."""
        if strategy == "scalar":
            return size * self.scalar_per_config_s
        if strategy == "vectorized":
            return self.vectorized_base_s + size * self.vectorized_per_config_s
        if strategy == "sharded":
            w = max(1, workers)
            return (
                self.shard_dispatch_s
                + self.vectorized_base_s
                + size
                * (
                    self.vectorized_per_config_s / w
                    + self.shard_overhead_per_config_s
                )
            )
        if strategy == "cached":
            return self.cache_read_base_s + size * self.cache_read_per_config_s
        raise ValueError(f"unknown strategy {strategy!r}")

    def to_doc(self) -> dict[str, Any]:
        """JSON document for :func:`save_cost_model`."""
        return {
            "kind": CALIBRATION_KIND,
            "format_version": CALIBRATION_VERSION,
            "source": self.source,
            "scalar_per_config_s": self.scalar_per_config_s,
            "vectorized_base_s": self.vectorized_base_s,
            "vectorized_per_config_s": self.vectorized_per_config_s,
            "shard_dispatch_s": self.shard_dispatch_s,
            "shard_overhead_per_config_s": self.shard_overhead_per_config_s,
            "cache_read_base_s": self.cache_read_base_s,
            "cache_read_per_config_s": self.cache_read_per_config_s,
            "cpus": self.cpus,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "CostModel":
        """Rebuild a model from :meth:`to_doc` output, validated."""
        if not isinstance(doc, dict) or doc.get("kind") != CALIBRATION_KIND:
            raise CalibrationError("not a repro planner calibration document")
        if doc.get("format_version") != CALIBRATION_VERSION:
            raise CalibrationError(
                f"unsupported calibration version {doc.get('format_version')!r}"
            )
        try:
            return cls(
                source=str(doc["source"]),
                scalar_per_config_s=float(doc["scalar_per_config_s"]),
                vectorized_base_s=float(doc["vectorized_base_s"]),
                vectorized_per_config_s=float(doc["vectorized_per_config_s"]),
                shard_dispatch_s=float(doc["shard_dispatch_s"]),
                shard_overhead_per_config_s=float(
                    doc["shard_overhead_per_config_s"]
                ),
                cache_read_base_s=float(doc["cache_read_base_s"]),
                cache_read_per_config_s=float(doc["cache_read_per_config_s"]),
                cpus=int(doc.get("cpus", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"bad calibration document: {exc}") from exc


#: The conservative static table used when no calibration exists.  The
#: orders of magnitude come from the committed bench reports (scalar
#: ~0.6 ms/config, vectorized ~1 µs/config after a ~2 ms base); the
#: shard dispatch cost is deliberately pessimistic so auto mode only
#: shards sweeps large enough (> ~10^5 configs at 4 workers) to clearly
#: amortize process fan-out.
FALLBACK_COST_MODEL = CostModel(
    source="fallback",
    scalar_per_config_s=5e-4,
    vectorized_base_s=2e-3,
    vectorized_per_config_s=1e-6,
    shard_dispatch_s=5e-2,
    shard_overhead_per_config_s=3e-7,
    cache_read_base_s=1e-3,
    cache_read_per_config_s=2e-7,
    cpus=1,
)

#: Fixed dispatch floor attributed to process fan-out when calibrating
#: the shard overhead from a single measured (sharded_s, single_s) pair.
_SHARD_DISPATCH_FLOOR_S = 1e-2


def calibrate(
    bench_dir: str | pathlib.Path = "benchmarks/out",
) -> CostModel:
    """Fit a :class:`CostModel` from the committed bench reports.

    Reads ``vectorized_speedup.json`` (scalar vs. vectorized vs. cached
    timings over several sizes — the per-config scalar rate, the
    vectorized base+slope least-squares fit and the cache read base) and,
    when present, ``parallel_speedup.json`` (single vs. sharded timing at
    one large size — the shard transport overhead, the per-config warm
    cache read rate and the calibration host's CPU count).  Raises
    :class:`CalibrationError` when the vectorized report is missing or
    unusable; missing parallel data falls back to the static table's
    shard/cache rates.
    """
    bench_dir = pathlib.Path(bench_dir)
    vec_doc = _load_report(bench_dir / "vectorized_speedup.json")
    if vec_doc is None:
        raise CalibrationError(
            f"no usable vectorized_speedup.json under {bench_dir}"
        )
    cases = vec_doc.get("extra", {}).get("cases", [])
    points = []
    scalar_rates = []
    cache_bases = []
    for case in cases:
        try:
            configs = int(case["configs"])
            scalar_s = float(case["scalar_s"])
            vectorized_s = float(case["vectorized_s"])
        except (KeyError, TypeError, ValueError):
            continue
        if configs < 1 or scalar_s <= 0 or vectorized_s <= 0:
            continue
        points.append((configs, vectorized_s))
        scalar_rates.append(scalar_s / configs)
        cached_s = case.get("cached_s")
        if isinstance(cached_s, (int, float)) and cached_s > 0:
            cache_bases.append(float(cached_s))
    if not points or not scalar_rates:
        raise CalibrationError("vectorized_speedup.json has no usable cases")

    fallback = FALLBACK_COST_MODEL
    shard_dispatch = fallback.shard_dispatch_s
    shard_overhead = fallback.shard_overhead_per_config_s
    cache_per_config = fallback.cache_read_per_config_s
    cpus = fallback.cpus

    par_doc = _load_report(bench_dir / "parallel_speedup.json")
    extra = (par_doc or {}).get("extra", {})
    try:
        par_configs = int(extra["configs"])
        single_s = float(extra["single_process_s"])
        sharded_s = float(extra["sharded_s"])
        cpus = max(1, int(extra.get("cpu_count", 1)))
        workers = max(1, int(extra.get("workers", 1)))
    except (KeyError, TypeError, ValueError):
        par_configs = 0
    if par_configs > 0 and single_s > 0:
        # the large single-process point anchors the vectorized slope
        # where shard decisions actually happen
        points.append((par_configs, single_s))
        eff = max(1, min(workers, cpus))
        # one measured (single, sharded) pair can't separate fixed
        # dispatch from per-config transport; attribute a fixed floor
        # and put the rest on the per-config term (conservative: large
        # sweeps keep paying it).
        shard_dispatch = _SHARD_DISPATCH_FLOOR_S
        overhead_total = max(0.0, sharded_s - single_s / eff - shard_dispatch)
        shard_overhead = max(1e-9, overhead_total / par_configs)
        warm_s = extra.get("cache_warm_s")
        if isinstance(warm_s, (int, float)) and warm_s > 0:
            cache_per_config = max(1e-12, float(warm_s) / par_configs)

    sizes = np.array([p[0] for p in points], dtype=np.float64)
    seconds = np.array([p[1] for p in points], dtype=np.float64)
    if sizes.size >= 2:
        slope, base = np.polyfit(sizes, seconds, 1)
    else:
        slope, base = seconds[0] / sizes[0], 0.0
    return CostModel(
        source="calibrated",
        scalar_per_config_s=float(min(scalar_rates)),
        vectorized_base_s=float(max(0.0, base)),
        vectorized_per_config_s=float(max(1e-9, slope)),
        shard_dispatch_s=float(shard_dispatch),
        shard_overhead_per_config_s=float(shard_overhead),
        cache_read_base_s=float(
            min(cache_bases) if cache_bases else fallback.cache_read_base_s
        ),
        cache_read_per_config_s=float(cache_per_config),
        cpus=cpus,
    )


def _load_report(path: pathlib.Path) -> dict[str, Any] | None:
    """One bench report JSON, or ``None`` when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def save_cost_model(model: CostModel, path: str | pathlib.Path) -> pathlib.Path:
    """Persist a calibration atomically (temp file + ``os.replace``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path, json.dumps(model.to_doc(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_cost_model(path: str | pathlib.Path) -> CostModel:
    """Load a persisted calibration; :class:`CalibrationError` if unusable."""
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"calibration {path} is not JSON: {exc}") from exc
    return CostModel.from_doc(doc)


#: Memoized env-var calibrations, keyed by path (tests clear via
#: :func:`invalidate_cost_model_cache`).
_COST_MODEL_CACHE: dict[str, CostModel] = {}


def invalidate_cost_model_cache() -> None:
    """Forget memoized ``REPRO_PLANNER_CALIBRATION`` loads (tests)."""
    _COST_MODEL_CACHE.clear()


def resolve_cost_model() -> CostModel:
    """The cost model in effect: config > env calibration > fallback.

    An unusable file named by ``REPRO_PLANNER_CALIBRATION`` degrades to
    the fallback table (the planner must always be able to decide).
    """
    cfg = active_config()
    if cfg is not None and cfg.cost_model is not None:
        return cfg.cost_model
    path = os.environ.get(CALIBRATION_ENV)
    if path:
        model = _COST_MODEL_CACHE.get(path)
        if model is None:
            try:
                model = load_cost_model(path)
            except CalibrationError:
                model = FALLBACK_COST_MODEL
            _COST_MODEL_CACHE[path] = model
        return model
    return FALLBACK_COST_MODEL


# ----------------------------------------------------------------------
# the ambient planner configuration (thread-local)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlannerConfig:
    """How the planner decides while this config is active.

    ``mode`` forces one strategy or lets the cost model choose
    (``auto``); ``max_block_bytes`` bounds the streamed working set (and
    makes over-budget sweeps stream); ``cost_model`` overrides
    :func:`resolve_cost_model`; ``allow_scalar`` lets callers whose
    responses must be byte-stable across space sizes (``repro serve``)
    exclude the scalar strategy, whose results match the vectorized path
    only to 1e-9, not bit-for-bit.
    """

    mode: str = "auto"
    max_block_bytes: int | None = None
    cost_model: CostModel | None = None
    allow_scalar: bool = True

    def __post_init__(self) -> None:
        """Validate the mode and the block budget."""
        if self.mode not in PLAN_MODES:
            raise ValueError(
                f"unknown plan mode {self.mode!r}; choose from {PLAN_MODES}"
            )
        if self.max_block_bytes is not None and self.max_block_bytes < 1:
            raise ValueError("max_block_bytes must be >= 1")


#: Thread-local holder: `repro serve` evaluates queries on worker
#: threads, so per-request configs must not race across requests.
_TLS = threading.local()


def active_config() -> PlannerConfig | None:
    """The planner config active on this thread, or ``None`` (legacy)."""
    return getattr(_TLS, "config", None)


def activate_config(config: PlannerConfig | None) -> PlannerConfig | None:
    """Install ``config`` on this thread; returns the previous one."""
    previous = active_config()
    _TLS.config = config
    return previous


@contextmanager
def planner_config(
    config: PlannerConfig | None = None, /, **options: Any
) -> Iterator[PlannerConfig]:
    """Activate a :class:`PlannerConfig` for a ``with`` block.

    Pass a prebuilt config positionally, or keyword options forwarded to
    :class:`PlannerConfig`.  The previous config is restored on exit.
    """
    cfg = config if config is not None else PlannerConfig(**options)
    previous = activate_config(cfg)
    try:
        yield cfg
    finally:
        activate_config(previous)


# ----------------------------------------------------------------------
# the decision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: the strategy plus its supporting estimates."""

    strategy: str
    size: int
    workers: int
    streamed: bool
    reason: str
    estimates: tuple[tuple[str, float], ...]

    def estimate_for(self, strategy: str) -> float | None:
        """The recorded estimate for ``strategy`` (``None`` if absent)."""
        for name, est in self.estimates:
            if name == strategy:
                return est
        return None


def record_selection(strategy: str) -> None:
    """Count one strategy selection (``plan_selected_total{strategy=…}``)."""
    if obs.metrics_enabled():
        obs.add(f'plan_selected{{strategy="{strategy}"}}')


def decide(
    size: int,
    *,
    workers: int = 1,
    cpus: int | None = None,
    cache_hit: bool = False,
    mode: str = "auto",
    cost_model: CostModel | None = None,
    max_block_bytes: int | None = None,
    allow_scalar: bool = True,
    min_parallel_configs: int | None = None,
    record: bool = False,
) -> PlanDecision:
    """Choose an execution strategy for a sweep of ``size`` configs.

    ``workers`` is the ambient plan's requested worker count and ``cpus``
    the host's affinity-mask CPU count (defaults to
    :func:`repro.core.parallel.available_cpus`); sharding is only ever a
    candidate when ``min(workers, cpus) > 1`` — a single effective CPU
    never shards, regardless of ``mode`` or the cost model (the recorded
    0.67x pessimization).  ``cache_hit`` marks a warm persistent-cache
    entry; in ``auto`` mode it wins outright.  A ``max_block_bytes``
    budget smaller than the sweep's working set forces the streamed
    vectorized path (memory beats speed).  With ``record`` the selection
    is counted into the labeled ``plan_selected`` metric.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown plan mode {mode!r}; choose from {PLAN_MODES}")
    if not obs.active():
        decision = _decide(
            size,
            workers,
            cpus,
            cache_hit,
            mode,
            cost_model,
            max_block_bytes,
            allow_scalar,
            min_parallel_configs,
        )
    else:
        with obs.span("plan_decision", size=size, mode=mode) as sp:
            decision = _decide(
                size,
                workers,
                cpus,
                cache_hit,
                mode,
                cost_model,
                max_block_bytes,
                allow_scalar,
                min_parallel_configs,
            )
            sp.set(
                strategy=decision.strategy,
                streamed=decision.streamed,
                reason=decision.reason,
            )
        obs.add("planner.decisions")
    if record:
        record_selection(decision.strategy)
    return decision


def _decide(
    size: int,
    workers: int,
    cpus: int | None,
    cache_hit: bool,
    mode: str,
    cost_model: CostModel | None,
    max_block_bytes: int | None,
    allow_scalar: bool,
    min_parallel_configs: int | None,
) -> PlanDecision:
    cm = cost_model if cost_model is not None else resolve_cost_model()
    host_cpus = cpus if cpus is not None else parallel.available_cpus()
    eff = max(1, min(workers, host_cpus))
    min_parallel = (
        min_parallel_configs
        if min_parallel_configs is not None
        else parallel.DEFAULT_MIN_PARALLEL_CONFIGS
    )
    streamed = (
        max_block_bytes is not None
        and size * WORKING_BYTES_PER_CONFIG > max_block_bytes
    )
    estimates = [
        ("scalar", cm.estimate("scalar", size)),
        ("vectorized", cm.estimate("vectorized", size)),
    ]
    if eff > 1:
        estimates.append(("sharded", cm.estimate("sharded", size, eff)))
    if cache_hit:
        estimates.append(("cached", cm.estimate("cached", size)))
    table = tuple(estimates)

    def result(strategy: str, reason: str) -> PlanDecision:
        return PlanDecision(
            strategy=strategy,
            size=size,
            workers=eff,
            streamed=streamed and strategy == "vectorized",
            reason=reason,
            estimates=table,
        )

    if mode != "auto":
        if mode == "sharded":
            if eff <= 1:
                return result(
                    "vectorized",
                    "forced sharded degraded: a single effective CPU never "
                    "shards (recorded 0.67x pessimization)",
                )
            if streamed:
                return result(
                    "vectorized",
                    "forced sharded degraded: the max-block-bytes budget "
                    "requires the streamed vectorized path",
                )
            return result("sharded", "forced by plan mode")
        return result(mode, "forced by plan mode")

    if cache_hit:
        return result("cached", "warm persistent-cache entry")
    if streamed:
        return result(
            "vectorized",
            "streamed: sweep working set exceeds the max-block-bytes budget",
        )
    candidates = ["vectorized"]
    if eff > 1 and size >= min_parallel:
        candidates.append("sharded")
    if allow_scalar:
        candidates.append("scalar")
    by_name = dict(table)
    best = min(candidates, key=lambda name: by_name[name])
    return result(
        best,
        f"cheapest estimate ({cm.source} cost model: "
        + ", ".join(f"{n}={by_name[n]:.3g}s" for n in candidates)
        + ")",
    )


# ----------------------------------------------------------------------
# the scalar strategy
# ----------------------------------------------------------------------


def _scalar_compute(
    model: HybridProgramModel,
    space: object,
    class_name: str,
    queueing: str,
    service_overlap: bool,
) -> VectorizedEvaluation:
    """Evaluate via the scalar reference loop, packed as aligned arrays.

    One :meth:`~repro.core.model.HybridProgramModel.predict` call per
    configuration, in canonical space order.  Results agree with the
    vectorized engine to the pinned 1e-9 tolerance (not bit-for-bit),
    which is why byte-stable callers exclude this strategy
    (:attr:`PlannerConfig.allow_scalar`).
    """
    cfgs = tuple(space)
    preds = [
        model.predict(
            cfg, class_name, queueing=queueing, service_overlap=service_overlap
        )
        for cfg in cfgs
    ]
    space_ref = space if vectorized._is_grid(space) else cfgs

    def column(values: list, dtype: type = np.float64) -> np.ndarray:
        arr = np.array(values, dtype=dtype)
        arr.setflags(write=False)
        return arr

    return VectorizedEvaluation(
        class_name=class_name,
        space=space_ref,
        nodes=column([c.nodes for c in cfgs]),
        cores=column([c.cores for c in cfgs]),
        frequencies_hz=column([c.frequency_hz for c in cfgs]),
        t_cpu_s=column([p.time.t_cpu_s for p in preds]),
        t_mem_s=column([p.time.t_mem_s for p in preds]),
        t_net_service_s=column([p.time.t_net_service_s for p in preds]),
        t_net_wait_s=column([p.time.t_net_wait_s for p in preds]),
        utilization_baseline=column(
            [p.time.utilization_baseline for p in preds]
        ),
        rho_network=column([p.time.rho_network for p in preds]),
        saturated=column([p.time.saturated for p in preds], dtype=np.bool_),
        cpu_j=column([p.energy.cpu_j for p in preds]),
        mem_j=column([p.energy.mem_j for p in preds]),
        net_j=column([p.energy.net_j for p in preds]),
        idle_j=column([p.energy.idle_j for p in preds]),
        times_s=column([p.time_s for p in preds]),
        energies_j=column([p.energy_j for p in preds]),
        ucrs=column([p.ucr for p in preds]),
    )


# ----------------------------------------------------------------------
# block-streamed evaluation
# ----------------------------------------------------------------------


def block_configs(max_block_bytes: int) -> int:
    """Configurations per block under a byte budget (always >= 1)."""
    if max_block_bytes < 1:
        raise ValueError("max_block_bytes must be >= 1")
    return max(1, int(max_block_bytes) // WORKING_BYTES_PER_CONFIG)


def iter_block_spaces(
    space: object, max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES
) -> Iterator[tuple[int, int, object]]:
    """Split a space into contiguous flat-order blocks under a budget.

    Yields ``(offset, length, subspace)`` whose concatenation in yield
    order is exactly the canonical iteration order of ``space``.  Grids
    split hierarchically — node axis first, then (when a single node row
    exceeds the budget) the core axis, then the frequency axis — so
    every block is itself grid-shaped and takes the same grid-broadcast
    path as the whole space, which is what makes streamed results
    bit-identical to materialized ones.  A budget larger than the space
    yields a single block; an empty explicit sequence yields one empty
    block.
    """
    limit = block_configs(max_block_bytes)
    if not vectorized._is_grid(space):
        cfgs = tuple(space)
        if not cfgs:
            yield (0, 0, cfgs)
            return
        for start in range(0, len(cfgs), limit):
            stop = min(start + limit, len(cfgs))
            yield (start, stop - start, cfgs[start:stop])
        return
    nodes = tuple(space.node_counts)
    cores = tuple(space.core_counts)
    freqs = tuple(space.frequencies_hz)
    per_node = len(cores) * len(freqs)
    per_core = len(freqs)
    offset = 0
    if per_node <= limit:
        rows = max(1, limit // per_node)
        for start in range(0, len(nodes), rows):
            chunk = nodes[start : start + rows]
            length = len(chunk) * per_node
            yield (offset, length, _SubGrid(chunk, cores, freqs))
            offset += length
        return
    for node in nodes:
        if per_core <= limit:
            rows = max(1, limit // per_core)
            for start in range(0, len(cores), rows):
                chunk = cores[start : start + rows]
                length = len(chunk) * per_core
                yield (offset, length, _SubGrid((node,), chunk, freqs))
                offset += length
        else:
            for core in cores:
                for start in range(0, len(freqs), limit):
                    chunk = freqs[start : start + limit]
                    yield (offset, len(chunk), _SubGrid((node,), (core,), chunk))
                    offset += len(chunk)


def stream_blocks(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> Iterator[tuple[int, VectorizedEvaluation]]:
    """Generator-of-blocks evaluation: ``(offset, block evaluation)``.

    Each block runs the plain single-process broadcast engine on a
    flat-order :func:`iter_block_spaces` slice; consuming one block at a
    time bounds live memory by the budget while the concatenation of all
    blocks equals the materialized arrays bit for bit.
    """
    for offset, _length, sub in iter_block_spaces(space, max_block_bytes):
        vec = vectorized._compute(
            model, sub, class_name, queueing, service_overlap, instrument=False
        )
        yield offset, vec


def evaluate_space_streamed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    transport: str = "memory",
) -> VectorizedEvaluation:
    """Full-space evaluation assembled block by block.

    The broadcast engine's working set (≈4x the result rows in
    intermediate arrays) stays bounded by ``max_block_bytes``; the
    assembled output arrays are exactly the materialized engine's, bit
    for bit.  ``transport="memory"`` assembles into plain arrays
    (output still occupies ``size * RESULT_BYTES_PER_CONFIG`` bytes of
    RAM); ``transport="memmap"`` reuses the shard-transport idiom —
    per-field scratch files written per block, reopened read-only and
    unlinked — so the output pages are file-backed and reclaimable, for
    spaces whose *results* outgrow RAM.  Use the streaming reductions
    (:func:`stream_topk`, :func:`stream_pareto`) when only extrema are
    needed: they are O(block), not O(space).
    """
    if transport not in ("memory", "memmap"):
        raise ValueError(f"unknown transport {transport!r}")
    total = parallel._space_size(space)
    if not obs.active():
        return _assemble_streamed(
            model,
            space,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
            transport,
            total,
        )
    with obs.span(
        "evaluate_space_streamed", configs=total, transport=transport
    ) as sp:
        result = _assemble_streamed(
            model,
            space,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
            transport,
            total,
        )
        sp.set(class_name=result.class_name)
    return result


def _assemble_streamed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    max_block_bytes: int,
    transport: str,
    total: int,
) -> VectorizedEvaluation:
    import shutil
    import tempfile

    scratch: str | None = None
    arrays: dict[str, np.ndarray] = {}
    if transport == "memmap":
        scratch = tempfile.mkdtemp(prefix="repro-stream-")
    try:
        if scratch is None:
            for name in ARRAY_FIELDS:
                arrays[name] = np.empty(total, dtype=parallel._field_dtype(name))
        else:
            for name in ARRAY_FIELDS:
                arrays[name] = np.memmap(
                    os.path.join(scratch, f"{name}.bin"),
                    dtype=parallel._field_dtype(name),
                    mode="w+",
                    shape=(total,),
                )
        cls_name = class_name or model.inputs.baseline_class
        blocks = 0
        for offset, vec in stream_blocks(
            model,
            space,
            class_name,
            queueing=queueing,
            service_overlap=service_overlap,
            max_block_bytes=max_block_bytes,
        ):
            cls_name = vec.class_name
            for name in ARRAY_FIELDS:
                arrays[name][offset : offset + len(vec)] = getattr(vec, name)
            blocks += 1
        if obs.metrics_enabled():
            obs.add("planner.stream_blocks", blocks)
            obs.add("planner.stream_configs", total)
        if scratch is not None:
            # flush dirty pages, reopen read-only; unlinking keeps the
            # mapping alive (the pages become anonymous-like, reclaimed
            # when the arrays are garbage collected)
            reopened = {}
            for name in ARRAY_FIELDS:
                mm = arrays[name]
                mm.flush()  # type: ignore[attr-defined]
                del mm
                path = os.path.join(scratch, f"{name}.bin")
                reopened[name] = np.memmap(
                    path,
                    dtype=parallel._field_dtype(name),
                    mode="r",
                    shape=(total,),
                )
            arrays = reopened
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    space_ref = space if vectorized._is_grid(space) else tuple(space)
    for name in ARRAY_FIELDS:
        arr = arrays[name]
        if not isinstance(arr, np.memmap):
            arr.setflags(write=False)
    return VectorizedEvaluation(
        class_name=cls_name, space=space_ref, **arrays
    )


# ----------------------------------------------------------------------
# streaming reductions
# ----------------------------------------------------------------------

#: Reduction objectives: ``(score source, constraint source)``.  Scores
#: are minimized; constraints (when given) mark lanes infeasible.
STREAM_OBJECTIVES = ("min_energy", "min_time", "max_ucr")


@dataclass(frozen=True)
class StreamedSelection:
    """Rows selected by a streaming reduction, aligned with ``indices``.

    ``indices`` are global flat positions in the space's canonical
    iteration order; ``evaluation`` carries the selected rows' full
    result columns (``space=None`` — configurations rebuild from the
    arrays, exactly like disk-cache rehydration).
    """

    indices: np.ndarray
    evaluation: VectorizedEvaluation
    blocks: int
    configs: int

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def best(self) -> Prediction | None:
        """The top-ranked selection as a scalar-API prediction."""
        return self.evaluation.prediction(0) if len(self) else None

    def predictions(self) -> tuple[Prediction, ...]:
        """All selected rows as scalar-API predictions."""
        return self.evaluation.predictions


def topk_merge(
    scores: np.ndarray, indices: np.ndarray, k: int
) -> np.ndarray:
    """Positions of the ``k`` smallest scores, ties to the lowest index.

    Matches ``np.argsort(kind="stable")[:k]`` over the full array (and
    ``np.argmin`` for ``k=1``) when ``indices`` are the global flat
    positions — which is what makes the streamed top-k selection exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.lexsort((indices, scores))
    return order[: min(k, order.size)]


def _block_scores(
    vec: VectorizedEvaluation,
    objective: str,
    deadline_s: float | None,
    budget_j: float | None,
) -> np.ndarray:
    """Per-lane minimization scores; infeasible lanes become ``+inf``."""
    if objective == "min_energy":
        scores = np.array(vec.energies_j, dtype=np.float64)
        if deadline_s is not None:
            scores = np.where(vec.times_s <= deadline_s, scores, np.inf)
        return scores
    if objective == "min_time":
        scores = np.array(vec.times_s, dtype=np.float64)
        if budget_j is not None:
            scores = np.where(vec.energies_j <= budget_j, scores, np.inf)
        return scores
    if objective == "max_ucr":
        return -np.array(vec.ucrs, dtype=np.float64)
    raise ValueError(
        f"unknown objective {objective!r}; choose from {STREAM_OBJECTIVES}"
    )


def _take_rows(
    vec: VectorizedEvaluation, local: np.ndarray
) -> dict[str, np.ndarray]:
    """The selected rows of every result column of a block."""
    return {name: np.array(getattr(vec, name)[local]) for name in ARRAY_FIELDS}


def _concat_rows(
    parts: list[dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Concatenate row dicts column-wise (empty parts list allowed)."""
    out = {}
    for name in ARRAY_FIELDS:
        dtype = parallel._field_dtype(name)
        cols = [p[name] for p in parts]
        out[name] = (
            np.concatenate(cols)
            if cols
            else np.empty(0, dtype=dtype)
        )
    return out


def _selection(
    rows: dict[str, np.ndarray],
    indices: np.ndarray,
    class_name: str,
    blocks: int,
    configs: int,
) -> StreamedSelection:
    """Pack reduced rows into a :class:`StreamedSelection`."""
    for name in ARRAY_FIELDS:
        rows[name].setflags(write=False)
    evaluation = VectorizedEvaluation(
        class_name=class_name, space=None, **rows
    )
    indices = np.array(indices, dtype=np.int64)
    indices.setflags(write=False)
    return StreamedSelection(
        indices=indices, evaluation=evaluation, blocks=blocks, configs=configs
    )


def stream_topk(
    model: HybridProgramModel,
    space: object,
    k: int = 1,
    *,
    objective: str = "min_energy",
    deadline_s: float | None = None,
    budget_j: float | None = None,
    class_name: str | None = None,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> StreamedSelection:
    """Top-k reduction over a block-streamed evaluation, O(block) memory.

    Keeps a running candidate set of at most ``k`` feasible rows merged
    per block; the final indices equal a stable argsort (lowest score,
    ties to the lowest flat index) of the fully materialized scores —
    exactly, because block lanes are bit-identical to materialized lanes
    and the merge replicates the same tie-breaking.  Infeasible rows
    (deadline/budget violations) never enter the candidate set; an
    entirely infeasible space yields an empty selection.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if objective not in STREAM_OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; choose from {STREAM_OBJECTIVES}"
        )
    if not obs.active():
        return _stream_topk(
            model,
            space,
            k,
            objective,
            deadline_s,
            budget_j,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
        )
    with obs.span("stream_topk", objective=objective, k=k) as sp:
        selection = _stream_topk(
            model,
            space,
            k,
            objective,
            deadline_s,
            budget_j,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
        )
        sp.set(blocks=selection.blocks, configs=selection.configs)
    return selection


def _stream_topk(
    model: HybridProgramModel,
    space: object,
    k: int,
    objective: str,
    deadline_s: float | None,
    budget_j: float | None,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    max_block_bytes: int,
) -> StreamedSelection:
    cls_name = class_name or model.inputs.baseline_class
    run_rows: dict[str, np.ndarray] | None = None
    run_scores = np.empty(0, dtype=np.float64)
    run_idx = np.empty(0, dtype=np.int64)
    blocks = 0
    configs = 0
    for offset, vec in stream_blocks(
        model,
        space,
        class_name,
        queueing=queueing,
        service_overlap=service_overlap,
        max_block_bytes=max_block_bytes,
    ):
        blocks += 1
        configs += len(vec)
        cls_name = vec.class_name
        scores = _block_scores(vec, objective, deadline_s, budget_j)
        feasible = np.flatnonzero(np.isfinite(scores))
        if feasible.size > k:
            # block-local prefilter: only the block's own top-k can
            # survive the merge (same stable tie-breaking)
            feasible = feasible[
                topk_merge(scores[feasible], feasible.astype(np.int64), k)
            ]
        if not feasible.size:
            continue
        cand_scores = np.concatenate((run_scores, scores[feasible]))
        cand_idx = np.concatenate(
            (run_idx, (offset + feasible).astype(np.int64))
        )
        cand_rows = _concat_rows(
            ([run_rows] if run_rows is not None else [])
            + [_take_rows(vec, feasible)]
        )
        keep = topk_merge(cand_scores, cand_idx, k)
        run_scores = cand_scores[keep]
        run_idx = cand_idx[keep]
        run_rows = {name: cand_rows[name][keep] for name in ARRAY_FIELDS}
    if run_rows is None:
        run_rows = _concat_rows([])
    if obs.metrics_enabled():
        obs.add("planner.stream_blocks", blocks)
        obs.add("planner.stream_configs", configs)
    return _selection(run_rows, run_idx, cls_name, blocks, configs)


def stream_pareto(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> StreamedSelection:
    """Running-Pareto reduction over a block-streamed evaluation.

    Per block, the running frontier is merged with the block's own
    frontier and re-filtered through
    :func:`repro.core.pareto.pareto_mask`.  The final membership equals
    the materialized mask *exactly*: Pareto(A ∪ B) = Pareto(Pareto(A) ∪
    B), candidates stay in ascending flat-index order (running indices
    always precede the block's), and the mask's duplicate rule (first
    occurrence in array order wins) therefore keeps the same indices the
    materialized pass keeps.  Memory is O(frontier + block), never
    O(space).
    """
    if not obs.active():
        return _stream_pareto(
            model, space, class_name, queueing, service_overlap, max_block_bytes
        )
    with obs.span("stream_pareto") as sp:
        selection = _stream_pareto(
            model, space, class_name, queueing, service_overlap, max_block_bytes
        )
        sp.set(
            blocks=selection.blocks,
            configs=selection.configs,
            frontier=len(selection),
        )
    return selection


def _stream_pareto(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    max_block_bytes: int,
) -> StreamedSelection:
    from repro.core.pareto import pareto_mask

    cls_name = class_name or model.inputs.baseline_class
    run_rows: dict[str, np.ndarray] | None = None
    run_idx = np.empty(0, dtype=np.int64)
    blocks = 0
    configs = 0
    for offset, vec in stream_blocks(
        model,
        space,
        class_name,
        queueing=queueing,
        service_overlap=service_overlap,
        max_block_bytes=max_block_bytes,
    ):
        blocks += 1
        configs += len(vec)
        cls_name = vec.class_name
        local = np.flatnonzero(pareto_mask(vec.times_s, vec.energies_j))
        if not local.size:
            continue
        cand_rows = _concat_rows(
            ([run_rows] if run_rows is not None else [])
            + [_take_rows(vec, local)]
        )
        cand_idx = np.concatenate(
            (run_idx, (offset + local).astype(np.int64))
        )
        keep = pareto_mask(cand_rows["times_s"], cand_rows["energies_j"])
        run_idx = cand_idx[keep]
        run_rows = {name: cand_rows[name][keep] for name in ARRAY_FIELDS}
    if run_rows is None:
        run_rows = _concat_rows([])
    if obs.metrics_enabled():
        obs.add("planner.stream_blocks", blocks)
        obs.add("planner.stream_configs", configs)
    return _selection(run_rows, run_idx, cls_name, blocks, configs)


# ----------------------------------------------------------------------
# the dispatch
# ----------------------------------------------------------------------


def execute(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    *,
    cacheable: bool = True,
    instrument: bool = True,
) -> VectorizedEvaluation:
    """Run one space evaluation under the planner's chosen strategy.

    This is the dispatch point :func:`repro.core.vectorized._evaluate`
    routes through.  Without an active :class:`PlannerConfig` the legacy
    semantics apply unchanged: an ambient
    :class:`~repro.core.parallel.ExecutionPlan` dispatches through
    :func:`~repro.core.parallel.evaluate_plan` (operator contract —
    explicit plans keep their exact behavior, including
    ``clamp_workers=False``), otherwise the plain broadcast engine runs.
    With a config, :func:`decide` picks the strategy and this function
    executes it, handling the persistent disk cache around whichever
    strategy ran.
    """
    cfg = active_config()
    plan = parallel.active_plan()
    cls = class_name or model.inputs.baseline_class

    if cfg is None:
        if plan is not None:
            return parallel.evaluate_plan(
                plan,
                model,
                space,
                class_name,
                queueing,
                service_overlap,
                cacheable=cacheable,
                record_strategy=instrument,
            )
        result = vectorized._compute(
            model, space, cls, queueing, service_overlap, instrument
        )
        if instrument:
            record_selection("vectorized")
        return result

    size = parallel._space_size(space)
    workers = plan.workers if plan is not None else 1
    identity = None
    cache_hit = False
    if plan is not None and plan.cache is not None and cacheable:
        identity = entry_identity(model, space, cls, queueing, service_overlap)
        cache_hit = plan.cache.contains(identity)
    decision = decide(
        size,
        workers=workers,
        cache_hit=cache_hit,
        mode=cfg.mode,
        cost_model=cfg.cost_model,
        max_block_bytes=cfg.max_block_bytes,
        allow_scalar=cfg.allow_scalar,
        min_parallel_configs=(
            plan.min_parallel_configs if plan is not None else None
        ),
        record=instrument,
    )

    if decision.strategy == "cached":
        assert plan is not None and plan.cache is not None
        cached = plan.cache.get(identity)
        if cached is not None:
            return cached
        # torn/foreign entry rejected between probe and read: fall
        # through to a fresh computation
        decision = replace(decision, strategy="vectorized")

    if decision.strategy == "sharded":
        assert plan is not None
        eff = parallel.effective_workers(workers)
        result = parallel._run_sharded(
            plan, eff, model, space, cls, queueing, service_overlap
        )
    elif decision.strategy == "scalar":
        result = _scalar_compute(model, space, cls, queueing, service_overlap)
    elif decision.streamed:
        assert cfg.max_block_bytes is not None
        result = evaluate_space_streamed(
            model,
            space,
            cls,
            queueing=queueing,
            service_overlap=service_overlap,
            max_block_bytes=cfg.max_block_bytes,
        )
    else:
        result = vectorized._compute(
            model, space, cls, queueing, service_overlap, instrument
        )
    if identity is not None and plan is not None and plan.cache is not None:
        plan.cache.put(identity, result)
    return result
