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

**Streaming** (:func:`iter_block_spaces`, :func:`stream_blocks`,
:func:`evaluate_space_streamed`, :func:`stream_topk`,
:func:`stream_pareto`) evaluates a space in contiguous flat-order blocks
sized by a byte budget, with running top-k / Pareto reductions whose
results are **bit-identical** to the materialized path — every block
stays grid-shaped, every lane's arithmetic is independent (the Eq. 5
fixed point freezes converged lanes), and the reductions replicate
NumPy's stable tie-breaking exactly.  The property suite pins this
contract.  See ``docs/PLANNER.md``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core import vectorized
from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity, field_dtype
from repro.core.model import HybridProgramModel, Prediction
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
# block-streamed evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SubGrid:
    """A contiguous axis-aligned slice of a grid space.

    Duck-typed like :class:`~repro.core.configspace.ConfigSpace` (the
    engine only reads the three axis tuples, and iteration follows the
    same node-major canonical order), so streamed blocks take the same
    grid-broadcast path as the whole space.
    """

    node_counts: tuple[int, ...]
    core_counts: tuple[int, ...]
    frequencies_hz: tuple[float, ...]

    def __len__(self) -> int:
        return (
            len(self.node_counts)
            * len(self.core_counts)
            * len(self.frequencies_hz)
        )

    def __iter__(self):
        from repro.machines.spec import Configuration

        for n, c, f in itertools.product(
            self.node_counts, self.core_counts, self.frequencies_hz
        ):
            yield Configuration(nodes=n, cores=c, frequency_hz=f)


def _space_size(space: object) -> int:
    """Number of configurations in a grid or explicit sequence."""
    if vectorized._is_grid(space):
        return (
            len(space.node_counts)
            * len(space.core_counts)
            * len(space.frequencies_hz)
        )
    return len(space) if isinstance(space, Sequence) else len(tuple(space))


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
    total = _space_size(space)
    if not obs.active():
        return _assemble_streamed(
            model, space, class_name, queueing, service_overlap,
            max_block_bytes, total,
        )
    with obs.span("evaluate_space_streamed", configs=total) as sp:
        result = _assemble_streamed(
            model, space, class_name, queueing, service_overlap,
            max_block_bytes, total,
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
    total: int,
) -> VectorizedEvaluation:
    arrays = {
        name: np.empty(total, dtype=field_dtype(name)) for name in ARRAY_FIELDS
    }
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
    for arr in arrays.values():
        arr.setflags(write=False)
    space_ref = space if vectorized._is_grid(space) else tuple(space)
    return VectorizedEvaluation(class_name=cls_name, space=space_ref, **arrays)


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
        dtype = field_dtype(name)
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
    budget.  ``cacheable`` is false for ad-hoc candidate subsets (the
    pruned search's chunks), which would only fill the disk cache with
    entries nobody asks for again.
    """
    cfg = active_config() or _DEFAULT_CONFIG
    cls = class_name or model.inputs.baseline_class
    cache = cfg.cache if cacheable else None
    identity = None
    cached = None
    if cache is not None:
        identity = entry_identity(model, space, cls, queueing, service_overlap)
        cached = cache.get(identity)
    size = _space_size(space)
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
