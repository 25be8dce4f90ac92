"""The execution layer: one path from a space to its evaluation.

Every space evaluation that misses the in-memory LRU
(:func:`repro.core.vectorized._evaluate`) runs :func:`execute`, which
takes the same three steps each time:

1. read the ambient disk cache (:attr:`PlannerConfig.cache`, installed
   by ``repro --cache-dir``);
2. on a miss, run the broadcast engine
   (:func:`repro.core.vectorized._compute`) — or, when the sweep's
   working set exceeds the active ``max_block_bytes`` budget
   (``repro --max-block-bytes``), assemble it block by block with
   :func:`evaluate_space_streamed`;
3. write the result into the disk cache.

Nothing else chooses: there is one engine, so no result can depend on
which strategy ran.  :func:`decide` names the branch taken (``cached``
or ``vectorized``, streamed or not) and records it as a labeled counter
exported as ``repro_plan_selected_total{strategy="…"}``.

**The block pipeline** (:func:`_blocks` over :func:`iter_block_spaces`)
evaluates a space in contiguous flat-order blocks sized by a byte
budget, reading or writing each block as its own disk-cache entry when
a cache is given.  Every piecewise evaluation is a fold over it: assembly
(:func:`evaluate_space_streamed`, and :func:`evaluate_blocks`, which
checkpointed sweeps run), the running top-k / Pareto
selections (:func:`stream_topk`, :func:`stream_pareto`) and the what-if
deltas (:meth:`repro.core.whatif.WhatIf.compare_streamed`).  Results
are **bit-identical** to the materialized path — every block stays
grid-shaped, every lane's arithmetic is independent (the Eq. 5 fixed
point freezes converged lanes), and the reductions replicate NumPy's
stable tie-breaking exactly.  The property suite pins this contract.
See ``docs/PLANNER.md``.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro import obs
from repro.core import vectorized
from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity, field_dtype
from repro.core.configspace import ConfigSpace
from repro.core.model import HybridProgramModel, Prediction
from repro.core.pareto import pareto_mask
from repro.core.vectorized import VectorizedEvaluation
from repro.units import MIB

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


# ----------------------------------------------------------------------
# the ambient configuration (thread-local)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlannerConfig:
    """What :func:`execute` does while this config is active.

    ``max_block_bytes`` bounds the streamed working set (sweeps over it
    stream); ``cache`` is the persistent disk cache read before and
    written after every cacheable evaluation.  ``mode`` accepts only
    ``"auto"``, the one remaining mode.
    """

    mode: str = "auto"
    max_block_bytes: int | None = None
    cache: ResultCache | None = None

    def __post_init__(self) -> None:
        """Validate the mode and the block budget."""
        if self.mode != "auto":
            raise ValueError(f"unknown plan mode {self.mode!r}; only 'auto'")
        if self.max_block_bytes is not None and self.max_block_bytes < 1:
            raise ValueError("max_block_bytes must be >= 1")


#: What :func:`execute` does with no config active: no disk cache, no
#: streaming budget.
_DEFAULT_CONFIG = PlannerConfig()

#: Thread-local holder: `repro serve` evaluates queries on worker
#: threads, so per-request configs must not race across requests.
_TLS = threading.local()


def active_config() -> PlannerConfig | None:
    """The planner config active on this thread, or ``None``."""
    return getattr(_TLS, "config", None)


@contextmanager
def planner_config(
    config: PlannerConfig | None = None, /, **options: Any
) -> Iterator[PlannerConfig]:
    """Activate a :class:`PlannerConfig` for a ``with`` block.

    Pass a prebuilt config positionally, or keyword options forwarded to
    :class:`PlannerConfig`.  The previous config is restored on exit.
    """
    cfg = config if config is not None else PlannerConfig(**options)
    previous = active_config()
    _TLS.config = cfg
    try:
        yield cfg
    finally:
        _TLS.config = previous


# ----------------------------------------------------------------------
# the decision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDecision:
    """Which branch of :func:`execute` a sweep takes, and why."""

    strategy: str
    streamed: bool
    reason: str


def record_selection(strategy: str) -> None:
    """Count one strategy selection (``plan_selected_total{strategy=…}``)."""
    if obs.metrics_enabled():
        obs.add(f'plan_selected{{strategy="{strategy}"}}')


def decide(
    size: int,
    *,
    cache_hit: bool = False,
    max_block_bytes: int | None = None,
) -> PlanDecision:
    """The branch :func:`execute` takes for a sweep of ``size`` configs.

    A warm disk-cache entry (``cache_hit``) is served as ``cached``;
    anything else runs the ``vectorized`` engine, streamed when the
    sweep's working set exceeds ``max_block_bytes``.  The selection is
    counted into the labeled ``plan_selected`` metric.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if not obs.active():
        decision = _decide(size, cache_hit, max_block_bytes)
    else:
        with obs.span("plan_decision", size=size) as sp:
            decision = _decide(size, cache_hit, max_block_bytes)
            sp.set(
                strategy=decision.strategy,
                streamed=decision.streamed,
                reason=decision.reason,
            )
        obs.add("planner.decisions")
    record_selection(decision.strategy)
    return decision


def _decide(
    size: int, cache_hit: bool, max_block_bytes: int | None
) -> PlanDecision:
    if cache_hit:
        return PlanDecision("cached", False, "warm disk-cache entry")
    if (
        max_block_bytes is not None
        and size * WORKING_BYTES_PER_CONFIG > max_block_bytes
    ):
        return PlanDecision(
            "vectorized",
            True,
            "streamed: sweep working set exceeds the max-block-bytes budget",
        )
    return PlanDecision("vectorized", False, "one broadcast pass")


# ----------------------------------------------------------------------
# the block pipeline
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
    every block is itself a :class:`ConfigSpace` and takes the same
    grid-broadcast path as the whole space, which is what makes streamed
    results bit-identical to materialized ones.  A budget larger than
    the space yields a single block; an empty explicit sequence yields
    one empty block.
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
            yield (offset, length, ConfigSpace(chunk, cores, freqs))
            offset += length
        return
    for node in nodes:
        if per_core <= limit:
            rows = max(1, limit // per_core)
            for start in range(0, len(cores), rows):
                chunk = cores[start : start + rows]
                length = len(chunk) * per_core
                yield (offset, length, ConfigSpace((node,), chunk, freqs))
                offset += length
        else:
            for core in cores:
                for start in range(0, len(freqs), limit):
                    chunk = freqs[start : start + limit]
                    yield (offset, len(chunk), ConfigSpace((node,), (core,), chunk))
                    offset += len(chunk)


def _materialize(space: object) -> object:
    """A grid as is; anything else read once into a tuple."""
    return space if vectorized._is_grid(space) else tuple(space)


def _blocks(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    max_block_bytes: int,
    cache: ResultCache | None = None,
) -> Iterator[tuple[int, object, VectorizedEvaluation]]:
    """The one block pipeline: ``(offset, block space, block evaluation)``.

    Cuts ``space`` with :func:`iter_block_spaces`.  With a ``cache``,
    each block is its own entry keyed on the block's sub-space: a
    verified entry is read back, and any other block runs the broadcast
    engine and is stored.  Block lanes are bit-identical to materialized
    lanes, so every fold over these blocks (assembly, top-k, Pareto,
    what-if deltas) equals the same fold over the materialized arrays.
    """
    cls = class_name or model.inputs.baseline_class
    blocks = configs = 0
    for offset, length, sub in iter_block_spaces(
        _materialize(space), max_block_bytes
    ):
        identity = vec = None
        if cache is not None:
            identity = entry_identity(model, sub, cls, queueing, service_overlap)
            vec = cache.get(identity)
        if vec is None:
            vec = vectorized._compute(
                model, sub, cls, queueing, service_overlap, instrument=False
            )
            if cache is not None:
                cache.put(identity, vec)
        blocks += 1
        configs += length
        yield offset, sub, vec
    if obs.metrics_enabled():
        obs.add("planner.stream_blocks", blocks)
        obs.add("planner.stream_configs", configs)


def evaluate_space_streamed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> VectorizedEvaluation:
    """Full-space evaluation assembled block by block.

    The broadcast engine's working set (≈4x the result rows in
    intermediate arrays) stays bounded by ``max_block_bytes``; the
    assembled output arrays are exactly the materialized engine's, bit
    for bit, and still occupy ``size * RESULT_BYTES_PER_CONFIG`` bytes.
    Use the streaming reductions (:func:`stream_topk`,
    :func:`stream_pareto`) when only extrema are needed: they are
    O(block), not O(space).
    """
    space = _materialize(space)
    with obs.span("evaluate_space_streamed", configs=len(space)) as sp:
        result, blocks = _assemble(
            _blocks(
                model, space, class_name, queueing, service_overlap,
                max_block_bytes,
            ),
            space,
            class_name or model.inputs.baseline_class,
        )
        sp.set(class_name=result.class_name, blocks=blocks)
    return result


def evaluate_blocks(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    cache: ResultCache | None,
) -> tuple[VectorizedEvaluation, int]:
    """Assemble ``space`` from blocks cut under the active budget.

    The budget is the active ``max_block_bytes``, else the default.
    With a ``cache``, every block is its own entry: stored blocks are
    read back and the rest are computed and stored, so an interrupted
    sweep resumes from its directory bit for bit.  Returns the
    evaluation and the block count.
    """
    config = active_config()
    budget = (config and config.max_block_bytes) or DEFAULT_MAX_BLOCK_BYTES
    space = _materialize(space)
    cls = class_name or model.inputs.baseline_class
    return _assemble(
        _blocks(model, space, cls, "bracketed", True, budget, cache), space, cls
    )


def _assemble(
    blocks: Iterable[tuple[int, object, VectorizedEvaluation]],
    space: object,
    class_name: str,
) -> tuple[VectorizedEvaluation, int]:
    """Fold pipeline blocks over a materialized ``space`` into its full
    read-only result arrays; returns the evaluation and the block count."""
    arrays = {
        name: np.empty(len(space), dtype=field_dtype(name))
        for name in ARRAY_FIELDS
    }
    count = 0
    for offset, _sub, vec in blocks:
        for name in ARRAY_FIELDS:
            arrays[name][offset : offset + len(vec)] = getattr(vec, name)
        count += 1
    for arr in arrays.values():
        arr.setflags(write=False)
    return (
        VectorizedEvaluation(class_name=class_name, space=space, **arrays),
        count,
    )


# ----------------------------------------------------------------------
# streaming reductions
# ----------------------------------------------------------------------

#: Reduction objectives: ``(score source, constraint source)``.  Scores
#: are minimized; constraints (when given) mark lanes infeasible.
STREAM_OBJECTIVES = ("min_energy", "min_time", "max_ucr")

#: Result columns by field name: a block's arrays or the running rows.
Columns = Mapping[str, np.ndarray]


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


def _scores(
    cols: Columns,
    objective: str,
    deadline_s: float | None,
    budget_j: float | None,
) -> np.ndarray:
    """Per-lane minimization scores; infeasible lanes become ``+inf``."""
    if objective == "min_energy":
        scores = np.array(cols["energies_j"], dtype=np.float64)
        if deadline_s is not None:
            scores = np.where(cols["times_s"] <= deadline_s, scores, np.inf)
        return scores
    if objective == "min_time":
        scores = np.array(cols["times_s"], dtype=np.float64)
        if budget_j is not None:
            scores = np.where(cols["energies_j"] <= budget_j, scores, np.inf)
        return scores
    return -np.array(cols["ucrs"], dtype=np.float64)


def _topk_rows(
    cols: Columns,
    indices: np.ndarray,
    *,
    k: int,
    objective: str,
    deadline_s: float | None,
    budget_j: float | None,
) -> np.ndarray:
    """Top-k selector: the ``k`` best feasible rows (see :func:`topk_merge`)."""
    scores = _scores(cols, objective, deadline_s, budget_j)
    feasible = np.flatnonzero(np.isfinite(scores))
    return feasible[topk_merge(scores[feasible], indices[feasible], k)]


def _pareto_rows(cols: Columns, indices: np.ndarray) -> np.ndarray:
    """Pareto selector: the non-dominated rows, in row order."""
    return np.flatnonzero(pareto_mask(cols["times_s"], cols["energies_j"]))


def _select(
    blocks: Iterable[tuple[int, object, VectorizedEvaluation]],
    select: Callable[[Columns, np.ndarray], np.ndarray],
    class_name: str,
) -> StreamedSelection:
    """Fold pipeline blocks into a running selection of rows.

    ``select(columns, indices)`` returns the positions to keep among
    rows whose global flat positions are ``indices``.  Per block it
    selects the block's local rows, then re-selects over the running
    rows followed by those.  Running rows always precede the block's,
    so candidates stay in ascending flat-index order for a selector
    (Pareto) that breaks duplicates by array order.
    """
    rows = {name: np.empty(0, dtype=field_dtype(name)) for name in ARRAY_FIELDS}
    idx = np.empty(0, dtype=np.int64)
    count = configs = 0
    for offset, _sub, vec in blocks:
        count += 1
        configs += len(vec)
        cols = {name: getattr(vec, name) for name in ARRAY_FIELDS}
        block_idx = offset + np.arange(len(vec), dtype=np.int64)
        local = select(cols, block_idx)
        if not local.size:
            continue
        cand = {
            name: np.concatenate((rows[name], cols[name][local]))
            for name in ARRAY_FIELDS
        }
        cand_idx = np.concatenate((idx, block_idx[local]))
        keep = select(cand, cand_idx)
        idx = cand_idx[keep]
        rows = {name: cand[name][keep] for name in ARRAY_FIELDS}
    for name in ARRAY_FIELDS:
        rows[name].setflags(write=False)
    idx.setflags(write=False)
    return StreamedSelection(
        indices=idx,
        evaluation=VectorizedEvaluation(
            class_name=class_name, space=None, **rows
        ),
        blocks=count,
        configs=configs,
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
    with obs.span("stream_topk", objective=objective, k=k) as sp:
        selection = _select(
            _blocks(
                model, space, class_name, queueing, service_overlap,
                max_block_bytes,
            ),
            functools.partial(
                _topk_rows,
                k=k,
                objective=objective,
                deadline_s=deadline_s,
                budget_j=budget_j,
            ),
            class_name or model.inputs.baseline_class,
        )
        sp.set(blocks=selection.blocks, configs=selection.configs)
    return selection


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
    with obs.span("stream_pareto") as sp:
        selection = _select(
            _blocks(
                model, space, class_name, queueing, service_overlap,
                max_block_bytes,
            ),
            _pareto_rows,
            class_name or model.inputs.baseline_class,
        )
        sp.set(
            blocks=selection.blocks,
            configs=selection.configs,
            frontier=len(selection),
        )
    return selection


# ----------------------------------------------------------------------
# the one execution path
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
    """Evaluate one space: disk cache, then the engine, streamed if big.

    This is the path :func:`repro.core.vectorized._evaluate` takes after
    its in-memory LRU misses.  The active :class:`PlannerConfig` (none:
    no disk cache, no budget) supplies the disk cache and the streaming
    budget.  ``cacheable`` is false for uncached sweeps (``use_cache=False``,
    :func:`~repro.core.vectorized.evaluate_many`'s ad-hoc batches), which
    would only fill the disk cache with entries nobody asks for again.
    """
    cfg = active_config() or _DEFAULT_CONFIG
    cls = class_name or model.inputs.baseline_class
    cache = cfg.cache if cacheable else None
    identity = None
    cached = None
    if cache is not None:
        identity = entry_identity(model, space, cls, queueing, service_overlap)
        cached = cache.get(identity)
    size = len(space)
    if instrument:
        decision = decide(
            size,
            cache_hit=cached is not None,
            max_block_bytes=cfg.max_block_bytes,
        )
    else:
        # uninstrumented callers (evaluate_many's inner loops) get no
        # decision span or counter, like no engine span
        decision = _decide(size, cached is not None, cfg.max_block_bytes)
    if cached is not None:
        return cached
    if decision.streamed:
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
    if identity is not None:
        cache.put(identity, result)
    return result
