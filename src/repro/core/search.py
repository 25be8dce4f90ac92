"""Pruned configuration-space search (beyond-paper scalability).

The paper enumerates its spaces exhaustively (216 and 400 points) — fine
at testbed scale, but a datacenter-sized space (hundreds of node counts ×
dozens of DVFS points × wide nodes) multiplies fast.  Both optimizer
queries admit sound pruning from a *bound that needs no fixed point*:

    T(config)  >=  T_CPU(config)  =  (w_s + b_s) · scale / (n · f)

because every other Eq. 1 term is non-negative, and

    E(config)  >=  n · (P_idle + c · P_act) · T_CPU(config)

because the idle floor is paid for at least ``T >= T_CPU`` and the useful
cycles are executed at active power.  Configurations whose *bound*
already misses the deadline / exceeds the incumbent energy are discarded
without evaluating the model; candidates are visited most-promising-first
so the incumbent tightens quickly, in vectorized blocks so surviving
candidates cost one broadcast pass instead of one Python call each.

Correctness is checked against the exhaustive optimizer in the test
suite — the pruned search returns bit-identical winners.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import obs
from repro.core.model import HybridProgramModel, Prediction
from repro.core.vectorized import evaluate_many, model_identity
from repro.machines.spec import Configuration
from repro.resilience.checkpoint import (
    Checkpoint,
    fingerprint,
    prediction_from_dict,
    prediction_to_dict,
)

#: Candidates surviving the bound filter are evaluated through the
#: vectorized engine in blocks of this size; the incumbent-based cutoff is
#: re-checked between blocks.  Small enough that at most a block's worth of
#: extra evaluations happens versus the one-at-a-time scalar loop, large
#: enough to amortize the engine's per-call overhead.
_CHUNK_SIZE = 32


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one pruned search."""

    total: int
    evaluated: int

    @property
    def pruned(self) -> int:
        """Configurations discarded from bounds alone."""
        return self.total - self.evaluated

    @property
    def evaluated_fraction(self) -> float:
        """Share of the space that needed a full model evaluation."""
        return self.evaluated / self.total if self.total else 0.0


def _cpu_bound_time(
    model: HybridProgramModel, config: Configuration, scale: float
) -> float:
    """The fixed-point-free lower bound ``T_CPU`` (Eqs. 2-4)."""
    art = model.inputs.artefacts(config.cores, config.frequency_hz)
    return art.useful_cycles * scale / (config.nodes * config.frequency_hz)


def _energy_bound(
    model: HybridProgramModel, config: Configuration, t_cpu: float
) -> float:
    """Sound energy lower bound from the idle floor + useful work."""
    power = model.inputs.power
    p_idle = power.sys_idle_w
    p_act = power.active(config.cores, config.frequency_hz)
    return config.nodes * t_cpu * (p_idle + config.cores * p_act)


def _search_checkpoint(
    checkpoint: str | pathlib.Path | Checkpoint | None,
    model: HybridProgramModel,
    configs: list[Configuration],
    kind: str,
    constraint: float,
    cls: str,
) -> Checkpoint | None:
    """Open (or pass through) a search checkpoint, fingerprinted over the
    model parameters, the space, the objective and its constraint.

    The chunk size is part of the identity: chunk indices are only
    meaningful for one chunking, so a checkpoint written under another
    chunk size is refused rather than mixed.
    """
    if checkpoint is None or isinstance(checkpoint, Checkpoint):
        return checkpoint
    return Checkpoint.open(
        checkpoint,
        "search",
        fingerprint(
            {
                "model": model_identity(model),
                "space": [(c.nodes, c.cores, c.frequency_hz) for c in configs],
                "kind": kind,
                "constraint": constraint,
                "class_name": cls,
                "chunk_size": _CHUNK_SIZE,
            }
        ),
    )


def _restore_search_state(
    ck: Checkpoint | None,
) -> tuple[int, Prediction | None, int, bool]:
    """Replay a search checkpoint: (next chunk index, incumbent, evaluated,
    done).  Chunking and candidate order are deterministic, so the state
    recorded after chunk *k* fully determines resumption at chunk *k + 1*."""
    if ck is None:
        return 0, None, 0, False
    index, best, evaluated, done = 0, None, 0, False
    while True:
        state = ck.get(f"chunk{index}")
        if state is None:
            break
        evaluated = state["evaluated"]
        best = (
            prediction_from_dict(state["best"])
            if state["best"] is not None
            else None
        )
        done = bool(state.get("done", False))
        index += 1
    return index, best, evaluated, done


def _record_search_chunk(
    ck: Checkpoint | None,
    index: int,
    best: Prediction | None,
    evaluated: int,
    done: bool,
) -> None:
    if ck is None:
        return
    ck.record(
        f"chunk{index}",
        {
            "evaluated": evaluated,
            "best": prediction_to_dict(best) if best is not None else None,
            "done": done,
        },
    )


def search_min_energy_within_deadline(
    model: HybridProgramModel,
    space: Iterable[Configuration],
    deadline_s: float,
    class_name: str | None = None,
    checkpoint: str | pathlib.Path | Checkpoint | None = None,
) -> tuple[Prediction | None, SearchStats]:
    """Minimum-energy configuration meeting the deadline, with pruning.

    Returns the same winner as exhaustively evaluating the space (or
    ``None`` if infeasible) plus the pruning statistics.  With
    ``checkpoint``, the incumbent and position are persisted after every
    evaluated chunk and a re-invocation resumes where the last one
    stopped, returning the identical winner.
    """
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    if not obs.active():
        return _search_min_energy(model, space, deadline_s, class_name, checkpoint)
    with obs.span("search", kind="min_energy_within_deadline") as sp:
        best, stats = _search_min_energy(
            model, space, deadline_s, class_name, checkpoint
        )
        sp.set(total=stats.total, evaluated=stats.evaluated, pruned=stats.pruned)
    _record_search_stats(stats)
    return best, stats


def _search_min_energy(
    model: HybridProgramModel,
    space: Iterable[Configuration],
    deadline_s: float,
    class_name: str | None,
    checkpoint: str | pathlib.Path | Checkpoint | None = None,
) -> tuple[Prediction | None, SearchStats]:
    cls = class_name or model.inputs.baseline_class
    scale = model.program.scale_factor(cls, model.inputs.baseline_class)

    configs = list(space)
    ck = _search_checkpoint(
        checkpoint,
        model,
        configs,
        "min_energy_within_deadline",
        deadline_s,
        cls,
    )
    start_index, best, evaluated, done = _restore_search_state(ck)
    if done:
        return best, SearchStats(total=len(configs), evaluated=evaluated)

    bounded = []
    for cfg in configs:
        t_lb = _cpu_bound_time(model, cfg, scale)
        if t_lb > deadline_s:
            continue  # cannot meet the deadline even with zero overhead
        bounded.append((cfg, t_lb, _energy_bound(model, cfg, t_lb)))

    # most promising (lowest energy bound) first: the incumbent tightens fast
    bounded.sort(key=lambda item: item[2])

    for index, pos in enumerate(range(0, len(bounded), _CHUNK_SIZE)):
        if index < start_index:
            continue  # chunk already evaluated before the interruption
        chunk = bounded[pos : pos + _CHUNK_SIZE]
        if best is not None:
            # sorted by bound: only candidates whose bound still beats the
            # incumbent can win (strict <); the rest of the list is pruned
            chunk = [item for item in chunk if item[2] < best.energy_j]
            if not chunk:
                _record_search_chunk(ck, index, best, evaluated, done=True)
                break
        preds = _evaluate_chunk(model, [item[0] for item in chunk], cls)
        evaluated += len(chunk)
        for pred in preds:
            if pred.time_s > deadline_s:
                continue
            if best is None or pred.energy_j < best.energy_j:
                best = pred
        _record_search_chunk(ck, index, best, evaluated, done=False)
    return best, SearchStats(total=len(configs), evaluated=evaluated)


def search_min_time_within_budget(
    model: HybridProgramModel,
    space: Iterable[Configuration],
    budget_j: float,
    class_name: str | None = None,
    checkpoint: str | pathlib.Path | Checkpoint | None = None,
) -> tuple[Prediction | None, SearchStats]:
    """Fastest configuration within the energy budget, with pruning."""
    if budget_j <= 0:
        raise ValueError("energy budget must be positive")
    if not obs.active():
        return _search_min_time(model, space, budget_j, class_name, checkpoint)
    with obs.span("search", kind="min_time_within_budget") as sp:
        best, stats = _search_min_time(
            model, space, budget_j, class_name, checkpoint
        )
        sp.set(total=stats.total, evaluated=stats.evaluated, pruned=stats.pruned)
    _record_search_stats(stats)
    return best, stats


def _search_min_time(
    model: HybridProgramModel,
    space: Iterable[Configuration],
    budget_j: float,
    class_name: str | None,
    checkpoint: str | pathlib.Path | Checkpoint | None = None,
) -> tuple[Prediction | None, SearchStats]:
    cls = class_name or model.inputs.baseline_class
    scale = model.program.scale_factor(cls, model.inputs.baseline_class)

    configs = list(space)
    ck = _search_checkpoint(
        checkpoint,
        model,
        configs,
        "min_time_within_budget",
        budget_j,
        cls,
    )
    start_index, best, evaluated, done = _restore_search_state(ck)
    if done:
        return best, SearchStats(total=len(configs), evaluated=evaluated)

    bounded = []
    for cfg in configs:
        t_lb = _cpu_bound_time(model, cfg, scale)
        if _energy_bound(model, cfg, t_lb) > budget_j:
            continue  # cannot fit the budget even with zero overhead
        bounded.append((cfg, t_lb))

    # most promising (lowest time bound) first
    bounded.sort(key=lambda item: item[1])

    for index, pos in enumerate(range(0, len(bounded), _CHUNK_SIZE)):
        if index < start_index:
            continue  # chunk already evaluated before the interruption
        chunk = bounded[pos : pos + _CHUNK_SIZE]
        if best is not None:
            # no candidate whose time bound misses the incumbent can win
            chunk = [item for item in chunk if item[1] < best.time_s]
            if not chunk:
                _record_search_chunk(ck, index, best, evaluated, done=True)
                break
        preds = _evaluate_chunk(model, [item[0] for item in chunk], cls)
        evaluated += len(chunk)
        for pred in preds:
            if pred.energy_j > budget_j:
                continue
            if best is None or pred.time_s < best.time_s:
                best = pred
        _record_search_chunk(ck, index, best, evaluated, done=False)
    return best, SearchStats(total=len(configs), evaluated=evaluated)


def _record_search_stats(stats: SearchStats) -> None:
    """Mirror one search's pruning statistics into the obs counters."""
    if obs.metrics_enabled():
        obs.add("search.candidates", stats.total)
        obs.add("search.evaluated", stats.evaluated)
        obs.add("search.pruned", stats.pruned)


def _evaluate_chunk(
    model: HybridProgramModel, configs: Sequence[Configuration], cls: str
) -> tuple[Prediction, ...]:
    """Evaluate a candidate block through the vectorized engine.

    Uncached: ad-hoc candidate subsets would only churn the space LRU.
    """
    return evaluate_many(model, configs, cls).predictions


# ----------------------------------------------------------------------
# streamed variants (block-bounded memory)
# ----------------------------------------------------------------------


def stream_min_energy_within_deadline(
    model: HybridProgramModel,
    space: object,
    deadline_s: float,
    class_name: str | None = None,
    *,
    k: int = 1,
    max_block_bytes: int | None = None,
):
    """Deadline-constrained minimum-energy search, O(block) memory.

    The streamed counterpart of :func:`search_min_energy_within_deadline`
    for spaces too large to materialize: blocks flow through
    :func:`repro.core.planner.stream_topk`, which keeps only a running
    top-``k`` candidate set.  Returns a
    :class:`~repro.core.planner.StreamedSelection` whose ``.best`` is the
    winning :class:`~repro.core.model.Prediction` (``None`` when no
    configuration meets the deadline); winner indices are exactly the
    materialized optimizer's (same stable tie-breaking).
    """
    from repro.core import planner

    kwargs = {} if max_block_bytes is None else {
        "max_block_bytes": max_block_bytes
    }
    return planner.stream_topk(
        model,
        space,
        k,
        objective="min_energy",
        deadline_s=deadline_s,
        class_name=class_name,
        **kwargs,
    )


def stream_min_time_within_budget(
    model: HybridProgramModel,
    space: object,
    budget_j: float,
    class_name: str | None = None,
    *,
    k: int = 1,
    max_block_bytes: int | None = None,
):
    """Energy-budgeted minimum-time search, O(block) memory.

    The streamed counterpart of :func:`search_min_time_within_budget`;
    see :func:`stream_min_energy_within_deadline` for the contract.
    """
    from repro.core import planner

    kwargs = {} if max_block_bytes is None else {
        "max_block_bytes": max_block_bytes
    }
    return planner.stream_topk(
        model,
        space,
        k,
        objective="min_time",
        budget_j=budget_j,
        class_name=class_name,
        **kwargs,
    )
