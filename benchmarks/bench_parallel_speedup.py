"""Planner-routed execution vs. the bare engine (perf regression gates).

Times the broadcast engine (``repro.core.vectorized._compute``) against
the *planner-routed* path (``repro.core.planner.execute`` under a
:class:`~repro.core.planner.PlannerConfig` carrying a disk cache),
checks the planner-routed arrays are bit-identical to the engine's,
times the persistent result cache's warm path, and measures the
per-decision overhead plus the peak RSS of block-streamed reduction
over a huge space.  A machine-readable record goes to
``benchmarks/out/parallel_speedup.json`` for CI trend tracking.

Two modes:

* full (default): a ~100k-config sweep, and a streamed reduction over
  a 10^7-config grid;
* smoke (``REPRO_BENCH_SMOKE=1``): a ~4.3k-config sweep and a
  10^6-config streamed grid.

The planner floor binds in both modes: the planner-routed path must
never lose to the bare engine (>= 1.0x), because it adds only a cache
probe in front of the same engine and serves repeats from the warm
cache.  The engine must never be slower than the scalar reference loop,
the warm cache must not be slower than recomputing, and the streamed
top-k must not depend on the block size.
"""

import multiprocessing
import os
import resource
import time

import numpy as np

from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity
from repro.core.configspace import ConfigSpace
from repro.core.planner import decide, planner_config, stream_topk
from repro.core.vectorized import _compute, clear_evaluation_cache, evaluate_configs
from repro.units import KIB, MIB

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: The planner-routed path must never lose to the bare engine — in any
#: mode, on any host: it adds one cache probe and answers repeats from
#: the warm cache, so >= 1.0x is always achievable.
PLANNER_SPEEDUP_FLOOR = 1.0
_REPEATS = 2 if SMOKE else 3

#: Streamed-reduction budget and grid (10^6 configs smoke, 10^7 full).
STREAM_BLOCK_BYTES = 32 * MIB
STREAM_NODES = 41_667 if SMOKE else 416_667
#: Peak-RSS allowance for the streamed reduction: generous against
#: allocator slack, but far below what materializing the full result
#: arrays (plus broadcast temporaries) would need.
STREAM_RSS_ALLOWANCE = 512 * MIB


def _synthetic_space() -> ConfigSpace:
    """~100k configs on the Xeon axes (~4.3k in smoke mode)."""
    max_nodes = 180 if SMOKE else 4170
    return ConfigSpace(
        node_counts=tuple(range(1, max_nodes + 1)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )


def _stream_space() -> ConfigSpace:
    """The huge streamed grid: 24 configs per node row."""
    return ConfigSpace(
        node_counts=tuple(range(1, STREAM_NODES + 1)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )


def _best_of(fn, repeats: int = _REPEATS) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stream_child(model, space, block_bytes, k, conn):
    """Run a streamed top-k in a fresh process and report its peak RSS.

    The child warms up on a one-block slice first so interpreter +
    import RSS is excluded; the delta then isolates the streamed
    reduction's own working set.  ``ru_maxrss`` is KiB on Linux.
    """
    warmup = ConfigSpace(
        node_counts=space.node_counts[:2],
        core_counts=space.core_counts,
        frequencies_hz=space.frequencies_hz,
    )
    stream_topk(model, warmup, k, max_block_bytes=block_bytes)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB
    t0 = time.perf_counter()
    selection = stream_topk(model, space, k, max_block_bytes=block_bytes)
    elapsed = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB
    conn.send(
        {
            "rss_delta_bytes": max(0, after - before),
            "elapsed_s": elapsed,
            "indices": selection.indices.tolist(),
            "energies": selection.evaluation.energies_j.tolist(),
            "blocks": selection.blocks,
            "configs": selection.configs,
        }
    )
    conn.close()


def _measure_stream(model, space, block_bytes, k=8):
    """Fork a child, stream the space, return its RSS/timing record."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_stream_child, args=(model, space, block_bytes, k, child)
    )
    proc.start()
    child.close()
    record = parent.recv()
    proc.join()
    assert proc.exitcode == 0
    return record


def test_parallel_speedup(
    benchmark, xeon_sim, model_cache, write_artifact, write_report, tmp_path
):
    """Gate planner-routed, warm-cache and streamed execution."""
    model = model_cache(xeon_sim, "SP")
    space = _synthetic_space()

    single_s, single = _best_of(
        lambda: _compute(model, space, None, "bracketed", True)
    )

    # the planner-routed path: the first pass computes and writes the
    # disk cache, repeats are served from it
    def planner_pass():
        clear_evaluation_cache()  # time the planner, not the LRU
        with planner_config(cache=ResultCache(tmp_path / "planner-cache")):
            return evaluate_configs(model, space)

    planner_s, planner_result = _best_of(planner_pass)
    benchmark.pedantic(planner_pass, rounds=1, iterations=1)

    bit_identical = all(
        np.array_equal(getattr(planner_result, name), getattr(single, name))
        for name in ARRAY_FIELDS
    )

    # warm-cache path: one write, then repeated reads of the same entry
    cache = ResultCache(tmp_path / "cache")
    identity = entry_identity(model, space, "A", "bracketed", True)
    put_s, _ = _best_of(lambda: cache.put(identity, single), repeats=1)
    warm_s, warm = _best_of(lambda: cache.get(identity))
    assert warm is not None

    # decision overhead per decide() call
    decisions = 1000
    t0 = time.perf_counter()
    for _ in range(decisions):
        decide(len(space), max_block_bytes=STREAM_BLOCK_BYTES)
    planner_overhead_s = (time.perf_counter() - t0) / decisions

    # the engine must never be slower than the scalar reference loop
    # (gated in smoke mode too): time both on the paper's 216-config
    # space
    paper_space = ConfigSpace(
        node_counts=tuple(range(1, 10)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )
    scalar_s, _ = _best_of(
        lambda: [model.predict(cfg) for cfg in paper_space], repeats=1
    )
    chosen_s, _ = _best_of(
        lambda: (
            clear_evaluation_cache(),
            evaluate_configs(model, paper_space),
        )[1]
    )

    # streamed huge-space reduction: fixed block budget, peak RSS in a
    # fresh process, and the same winners at two different block sizes
    stream_space = _stream_space()
    stream = _measure_stream(model, stream_space, STREAM_BLOCK_BYTES)
    stream_alt = _measure_stream(model, stream_space, STREAM_BLOCK_BYTES // 4)
    stream_invariant = (
        stream["indices"] == stream_alt["indices"]
        and stream["energies"] == stream_alt["energies"]
    )

    record = {
        "cpu_count": os.cpu_count() or 1,
        "configs": len(space),
        "single_process_s": single_s,
        "planner_s": planner_s,
        "cache_put_s": put_s,
        "cache_warm_s": warm_s,
        "scalar_216_s": scalar_s,
        "planner_216_s": chosen_s,
        "planner_speedup_floor_x": PLANNER_SPEEDUP_FLOOR,
        "stream_configs": stream["configs"],
        "stream_blocks": stream["blocks"],
        "stream_block_bytes": STREAM_BLOCK_BYTES,
        "stream_elapsed_s": stream["elapsed_s"],
        "stream_rss_allowance_bytes": STREAM_RSS_ALLOWANCE,
        "stream_block_invariant": stream_invariant,
    }
    write_report(
        "parallel_speedup",
        {
            "planner_speedup_x": (single_s / planner_s, "x"),
            "warm_cache_speedup_x": (single_s / warm_s, "x"),
            "bit_identical": (1.0 if bit_identical else 0.0, "bool"),
            "planner_overhead": (planner_overhead_s, "s"),
            "stream_peak_rss": (float(stream["rss_delta_bytes"]), "bytes"),
        },
        extra=record,
    )

    write_artifact(
        "parallel_speedup.txt",
        "\n".join(
            [
                "Planner-routed evaluation vs. the bare engine",
                "",
                f"configs:        {len(space)} (host CPUs: {record['cpu_count']})",
                f"engine:         {single_s:.4f} s",
                f"planner:        {planner_s:.4f} s  "
                f"({single_s / planner_s:.2f}x)",
                f"warm cache:     {warm_s:.4f} s  "
                f"({single_s / warm_s:.2f}x)",
                f"bit-identical:  {bit_identical}",
                f"decision cost:  {planner_overhead_s * 1e6:.1f} us",
                f"scalar 216:     {scalar_s:.4f} s vs engine {chosen_s:.4f} s",
                f"streamed:       {stream['configs']} configs in "
                f"{stream['blocks']} blocks, peak RSS delta "
                f"{stream['rss_delta_bytes'] / MIB:.1f} MiB "
                f"({stream['elapsed_s']:.2f} s)",
                f"floor:          planner >= {PLANNER_SPEEDUP_FLOOR}x",
            ]
        ),
    )

    # correctness is unconditional: exact equality, not a tolerance
    assert bit_identical, "planner-routed arrays diverged from the engine"
    # the warm cache must never lose to recomputation
    assert warm_s <= single_s, (
        f"warm cache slower than recompute: {warm_s:.4f}s vs {single_s:.4f}s"
    )
    # the planner floor binds in every mode: the routed path must match
    # or beat the bare engine (it answers repeats from the warm cache)
    assert single_s / planner_s >= PLANNER_SPEEDUP_FLOOR, (
        f"planner-routed path lost to the bare engine: "
        f"{single_s / planner_s:.2f}x"
    )
    # ... and the engine must never be slower than the scalar loop
    assert chosen_s <= scalar_s, (
        f"engine slower than scalar: {chosen_s:.4f}s vs {scalar_s:.4f}s"
    )
    # streamed reduction: fixed memory budget, block-size-independent result
    assert stream["rss_delta_bytes"] <= STREAM_RSS_ALLOWANCE, (
        f"streamed peak RSS {stream['rss_delta_bytes'] / MIB:.1f} MiB "
        f"exceeds {STREAM_RSS_ALLOWANCE / MIB:.0f} MiB"
    )
    assert stream_invariant, "streamed top-k depends on the block size"
    assert stream["configs"] == len(stream_space)
    if not SMOKE:
        assert len(space) >= 100_000
        assert stream["configs"] >= 10**7
        # near-instant warm reads: at least 2x faster than recomputing
        assert warm_s <= single_s / 2
