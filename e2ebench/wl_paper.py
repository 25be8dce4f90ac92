"""paper_repro: the shipped 8-stage pipeline, cold into a fresh store, then warm.

Each round runs the pipeline cold into an empty artifact store and then
reruns it warm ``WARM_RERUNS`` times against the filled store.  The
engine's in-process LRU is cleared before every cold run, so a cold run
shares nothing with the one before it.  ``op_ms_p50`` times the cold
run alone.  Warm reruns are not timed on their own (their few
milliseconds of file-system work swing by 40% between runs on the
reference host, README.md); ``work_per_s`` counts the stages a round
visits, cold and warm, over the whole round's time.  The seed picks the
calibration probes of the calibrate stage; every other stage is the
shipped default.  Checks: every cold run executes all 8 stages
and yields the same artifact digests as the first cold run, every warm
rerun executes nothing, and the Figure 8 stage covers 216 configs.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from statistics import median

import gen
from common import peak_rss_mb, run_probe
from session import Session

WARM_RERUNS = 5
SETUP_SAMPLES = 8


def _pipeline(probes: list[list[float]]):
    from repro.pipeline.dag import Pipeline
    from repro.pipeline.paper import paper_pipeline

    stages = []
    for stage in paper_pipeline():
        if stage.name == "calibrate-xeon-sp":
            stage = dataclasses.replace(
                stage, params={**stage.params, "probes": probes}
            )
        stages.append(stage)
    return Pipeline(stages)


def run(seed: int, seconds: float, session: Session, work) -> dict:
    from repro.core.vectorized import clear_evaluation_cache
    from repro.pipeline import runner
    from repro.pipeline.store import ArtifactStore

    pipeline = _pipeline(gen.calibration_probes(seed))
    stages = len(pipeline)
    reference: dict | None = None

    def one_round(index: int) -> None:
        nonlocal reference
        directory = work / f"store{index}"
        t_round = time.perf_counter()
        store = ArtifactStore(directory)
        clear_evaluation_cache()
        t0 = time.perf_counter()
        cold = runner.run_pipeline(pipeline, store)
        session.sample("op_ms", 1e3 * (time.perf_counter() - t0))
        visited = len(cold.executed)
        digests = {r.name: dict(r.output_digests) for r in cold.reports}
        if reference is None:
            reference = digests
        session.check(len(cold.executed) == stages, "cold run skipped stages")
        session.check(digests == reference, "cold artifact digests differ")
        fig8 = cold.artifacts["fig8_pareto_xeon_sp"]["configurations"]
        session.check(fig8 == 216, f"fig8 stage covered {fig8} configs")
        for _ in range(WARM_RERUNS):
            warm = runner.run_pipeline(pipeline, store)
            visited += len(warm.cached)
            session.check(not warm.executed, "warm rerun executed stages")
        session.sample("work", visited / (time.perf_counter() - t_round))
        shutil.rmtree(directory)

    def setup() -> float:
        return run_probe("setup", "1")["setup_s"]

    for _ in session.rounds(seconds, setup, SETUP_SAMPLES):
        session.round(lambda: one_round(session.index))

    return {
        "setup_s": (session.setup_s(), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "work_per_s": (median(session.values("work")), "1/s"),
        "op_ms_p50": (median(session.values("op_ms")), "ms"),
    }
