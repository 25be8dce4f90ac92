"""engine_sweep: the in-process engine API on the Xeon SP model.

Calls go through module attributes (``vectorized.evaluate_configs``), so
the traced run's wrappers see them.  Set-up characterizes SP on the Xeon testbed (``repetitions=3``, the
batched simulator backend).  Each round then evaluates, all on distinct
grids so the engine LRU never hits:

1. one large materialized grid (``evaluate_configs``);
2. one big grid streamed twice under a ``max_block_bytes`` budget:
   ``stream_topk`` (min energy within a deadline) and ``stream_pareto``;
3. ``SMALL_QUERIES`` Figure 8-sized grids (216 configs each).  They are
   not timed: their latency is bimodal with the host's state (see
   README.md), but they exercise the per-call glue in the traced run and
   feed the streamed-vs-materialized check.

Outside the timed intervals, streamed top-k and Pareto answers are
compared with the materialized ones: on the first small grid of every
round (streamed in several blocks) and on the large grid of the first
round.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

import gen
from common import peak_rss_mb, run_probe
from session import Session

LARGE_NODES = 8_000  # x 24 (c, f) points = 192k configs
STREAM_NODES = 41_667  # x 24 = 1.0M configs
SMALL_QUERIES = 20
STREAM_BLOCK_BYTES = 8 * 2**20
#: Streams a 216-config check grid in several blocks.
SMALL_BLOCK_BYTES = 48 * 4 * 17 * 8  # 48 configs x WORKING_BYTES_PER_CONFIG
TOP_K = 5
SETUP_SAMPLES = 8


def _materialized_topk(ev, deadline_s: float, k: int) -> np.ndarray:
    scores = np.where(ev.times_s <= deadline_s, ev.energies_j, np.inf)
    order = np.lexsort((np.arange(scores.size), scores))[:k]
    return order[np.isfinite(scores[order])]


def _streams_match(model, space, ev, deadline_s: float, block_bytes: int) -> bool:
    from repro.core import planner
    from repro.core.pareto import pareto_mask

    top = planner.stream_topk(
        model, space, TOP_K, objective="min_energy", deadline_s=deadline_s,
        max_block_bytes=block_bytes,
    )
    front = planner.stream_pareto(model, space, max_block_bytes=block_bytes)
    want_top = _materialized_topk(ev, deadline_s, TOP_K)
    want_front = np.flatnonzero(pareto_mask(ev.times_s, ev.energies_j))
    return (
        np.array_equal(top.indices, want_top)
        and np.array_equal(top.evaluation.energies_j, ev.energies_j[want_top])
        and np.array_equal(front.indices, want_front)
        and np.array_equal(front.evaluation.times_s, ev.times_s[want_front])
    )


def build_model():
    """The set-up the workload pays in process: characterize Xeon SP."""
    from repro.core.model import HybridProgramModel
    from repro.machines.registry import get_cluster
    from repro.simulate.cluster import SimulatedCluster
    from repro.workloads.registry import get_program

    return HybridProgramModel.from_measurements(
        SimulatedCluster(get_cluster("xeon")), get_program("SP"), repetitions=3
    )


def run(seed: int, seconds: float, session: Session, work) -> dict:
    from repro.core import planner, vectorized
    from repro.core.configspace import ConfigSpace

    model = session.traced(build_model)
    cores, freqs = gen.GRID_AXES["xeon"]
    freqs_hz = tuple(f * 1e9 for f in freqs)
    config = planner.PlannerConfig(mode="auto")

    def grid(nodes):
        return ConfigSpace(
            node_counts=nodes, core_counts=cores, frequencies_hz=freqs_hz
        )

    def one_round(spec: gen.EngineRound, first: bool) -> None:
        large = grid(spec.large_nodes)
        misses = vectorized.evaluation_cache_info().misses
        with planner.planner_config(config):
            t0 = time.perf_counter()
            ev = vectorized.evaluate_configs(model, large)
            eval_s = time.perf_counter() - t0
        session.sample("op_ms", 1e3 * eval_s)
        session.check(
            vectorized.evaluation_cache_info().misses == misses + 1 and len(ev) == len(large),
            "large grid did not miss the engine LRU",
        )

        huge = grid(spec.stream_nodes)
        t0 = time.perf_counter()
        top = planner.stream_topk(
            model, huge, TOP_K, objective="min_energy",
            deadline_s=spec.deadline_s, max_block_bytes=STREAM_BLOCK_BYTES,
        )
        front = planner.stream_pareto(model, huge, max_block_bytes=STREAM_BLOCK_BYTES)
        stream_s = time.perf_counter() - t0
        configs = len(ev) + top.configs + front.configs
        session.sample("work", configs / (eval_s + stream_s))
        session.check(
            top.configs == front.configs == len(huge) and len(top) == TOP_K,
            "streamed pass covered the wrong number of configs",
        )

        small = [grid(nodes) for nodes in spec.small_nodes]
        with planner.planner_config(config):
            results = [vectorized.evaluate_configs(model, space) for space in small]
        for space, result in zip(small, results):
            session.check(len(result) == 216, "small grid is not 216 configs")

        session.check(
            _streams_match(
                model, small[0], results[0], spec.deadline_s, SMALL_BLOCK_BYTES
            ),
            "streamed answers differ from materialized (small grid)",
        )
        if first:
            session.check(
                _streams_match(model, large, ev, spec.deadline_s, STREAM_BLOCK_BYTES),
                "streamed answers differ from materialized (large grid)",
            )

    rounds = gen.engine_rounds(seed, LARGE_NODES, STREAM_NODES, SMALL_QUERIES)

    def setup() -> float:
        return run_probe("setup", "3")["setup_s"]

    for _ in session.rounds(seconds, setup, SETUP_SAMPLES):
        spec = next(rounds)
        session.round(lambda: one_round(spec, session.index == 0))

    return {
        "setup_s": (session.setup_s(), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "work_per_s": (median(session.values("work")), "1/s"),
        "op_ms_p50": (median(session.values("op_ms")), "ms"),
    }
