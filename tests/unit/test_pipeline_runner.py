"""Incremental pipeline execution: minimal recomputation, early cutoff,
status reasons, and the caller's thread and planner config."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.pipeline.dag import Pipeline, PipelineError
from repro.pipeline.runner import pipeline_status, run_pipeline
from repro.pipeline.stage import Stage
from repro.pipeline.store import ArtifactStore


class Workbench:
    """A tiny two-branch DAG over real input files, counting executions.

        source.txt -> parse -> combine <- enrich <- extra.txt
                                  |
                               report
    ``parse`` discards everything after '#', so appending a comment to
    ``source.txt`` changes the input digest but not the parsed output —
    the early-cutoff scenario.
    """

    def __init__(self, tmp_path):
        self.source = tmp_path / "source.txt"
        self.extra = tmp_path / "extra.txt"
        self.source.write_text("alpha beta")
        self.extra.write_text("gamma")
        self.store = ArtifactStore(tmp_path / "store")
        self.calls: list[str] = []
        self.threads: set[int] = set()

    def _count(self, fn):
        def wrapped(ctx):
            self.calls.append(ctx.stage.name)
            self.threads.add(threading.get_ident())
            return fn(ctx)

        return wrapped

    def pipeline(self, report_params=None):
        return Pipeline(
            [
                Stage(
                    name="parse",
                    run=self._count(
                        lambda ctx: {
                            "words": sorted(
                                self.source.read_text().split("#")[0].split()
                            )
                        }
                    ),
                    outputs=("words",),
                    inputs=(str(self.source),),
                ),
                Stage(
                    name="enrich",
                    run=self._count(
                        lambda ctx: {"extras": [self.extra.read_text()]}
                    ),
                    outputs=("extras",),
                    inputs=(str(self.extra),),
                ),
                Stage(
                    name="combine",
                    run=self._count(
                        lambda ctx: {
                            "combined": ctx.artifact("words")
                            + ctx.artifact("extras")
                        }
                    ),
                    outputs=("combined",),
                    deps=("parse", "enrich"),
                ),
                Stage(
                    name="report",
                    run=self._count(
                        lambda ctx: {
                            "report": {
                                "n": len(ctx.artifact("combined")),
                                **dict(ctx.params),
                            }
                        }
                    ),
                    outputs=("report",),
                    deps=("combine",),
                    params=report_params or {"title": "demo"},
                ),
            ]
        )


@pytest.fixture
def bench(tmp_path):
    return Workbench(tmp_path)


# ----------------------------------------------------------------------
# minimal recomputation
# ----------------------------------------------------------------------


def test_cold_run_executes_everything_in_order(bench):
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == ("parse", "enrich", "combine", "report")
    assert run.cached == ()
    assert run.artifacts["combined"] == ["alpha", "beta", "gamma"]
    assert run.artifacts["report"] == {"n": 3, "title": "demo"}


def test_warm_run_is_fully_cached(bench):
    run_pipeline(bench.pipeline(), bench.store)
    bench.calls.clear()
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == () and len(run.cached) == 4
    assert bench.calls == []
    assert run.artifacts["combined"] == ["alpha", "beta", "gamma"]


def test_workspace_is_made_on_first_access_only(tmp_path):
    """A stage that never touches ``ctx.workspace`` leaves no directory;
    one that does gets its own writable directory under the store."""

    def scratch(ctx):
        note = ctx.workspace / "note.txt"
        note.write_text("scratch")
        return {"scratch": [str(ctx.workspace), note.read_text()]}

    store = ArtifactStore(tmp_path / "store")
    run = run_pipeline(
        Pipeline([
            Stage(name="plain", run=lambda ctx: {"plain": 1}, outputs=("plain",)),
            Stage(name="scratch", run=scratch, outputs=("scratch",)),
        ]),
        store,
    )
    workspace = store.directory / "workspace"
    assert run.artifacts["scratch"] == [str(workspace / "scratch"), "scratch"]
    assert sorted(p.name for p in workspace.iterdir()) == ["scratch"]


def test_tuple_params_hit_their_own_entry(tmp_path):
    # params read back from the entry as lists; the canonical JSON of
    # the identity is what must match
    calls = []
    pipeline = Pipeline(
        [
            Stage(
                name="probe",
                run=lambda ctx: calls.append(1) or {"out": [1]},
                outputs=("out",),
                params={"probes": ((1, 2),)},
            )
        ]
    )
    store = ArtifactStore(tmp_path / "store")
    runs = [run_pipeline(pipeline, store) for _ in range(3)]
    assert [run.executed for run in runs] == [("probe",), (), ()]
    assert len(calls) == 1
    stats = store.stats()
    assert (stats["hits"], stats["writes"], stats["rejected"]) == (2, 1, 0)


def test_warm_stage_hashes_its_identity_twice(bench, monkeypatch):
    # once for the report's fingerprint, once to address the store entry
    from repro.core import cache
    from repro.pipeline import fingerprint

    run_pipeline(bench.pipeline(), bench.store)
    calls = []
    digest = cache.fingerprint

    def counted(identity):
        calls.append(identity)
        return digest(identity)

    monkeypatch.setattr(cache, "fingerprint", counted)
    monkeypatch.setattr(fingerprint, "fingerprint", counted)
    run = run_pipeline(bench.pipeline(), bench.store)
    assert len(run.cached) == 4
    assert len(calls) == 2 * 4


def test_changed_input_reruns_only_its_downstream(bench):
    run_pipeline(bench.pipeline(), bench.store)
    bench.source.write_text("alpha beta delta")
    bench.calls.clear()
    run = run_pipeline(bench.pipeline(), bench.store)
    # enrich's branch is untouched
    assert run.executed == ("parse", "combine", "report")
    assert run.cached == ("enrich",)
    assert run.artifacts["combined"] == ["alpha", "beta", "delta", "gamma"]


def test_early_cutoff_revalidates_downstream(bench):
    run_pipeline(bench.pipeline(), bench.store)
    # changes the input digest, not the parsed output
    bench.source.write_text("alpha beta # a comment")
    bench.calls.clear()
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == ("parse",)
    assert set(run.cached) == {"enrich", "combine", "report"}


def test_changed_param_reruns_the_stage(bench):
    run_pipeline(bench.pipeline(), bench.store)
    run = run_pipeline(
        bench.pipeline(report_params={"title": "v2"}), bench.store
    )
    assert run.executed == ("report",)
    assert run.artifacts["report"]["title"] == "v2"


def test_reverting_an_edit_needs_no_recomputation(bench):
    run_pipeline(bench.pipeline(), bench.store)
    bench.source.write_text("other words")
    run_pipeline(bench.pipeline(), bench.store)
    bench.source.write_text("alpha beta")  # revert
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == ()  # old entries are still addressed


def test_force_reexecutes_selected_stages(bench):
    run_pipeline(bench.pipeline(), bench.store)
    run = run_pipeline(bench.pipeline(), bench.store, force=True)
    assert len(run.executed) == 4


def test_selection_runs_only_the_closure(bench):
    run = run_pipeline(bench.pipeline(), bench.store, stages=["parse"])
    assert run.executed == ("parse",)
    assert "combined" not in run.artifacts


def test_selection_serves_fresh_ancestors_from_store(bench):
    run_pipeline(bench.pipeline(), bench.store, stages=["parse", "enrich"])
    bench.calls.clear()
    run = run_pipeline(bench.pipeline(), bench.store, stages=["combine"])
    assert run.executed == ("combine",)
    assert bench.calls == ["combine"]


def test_workers_fan_out_matches_serial_results(bench, tmp_path):
    # stages no longer fan out to worker threads: a cold run into a second
    # store executes the same stages, on the caller's thread, with the
    # same artifacts as the first
    first = run_pipeline(bench.pipeline(), bench.store)
    second = run_pipeline(bench.pipeline(), ArtifactStore(tmp_path / "store2"))
    assert second.artifacts == first.artifacts
    assert second.executed == first.executed
    assert bench.threads == {threading.get_ident()}


def test_pool_stages_see_the_callers_planner_config(tmp_path):
    # there is no stage pool: every stage runs on the caller's thread, so
    # it sees the caller's thread-local planner config
    from repro.core.cache import ResultCache
    from repro.core.planner import active_config, planner_config

    seen = {}

    def probe(name):
        def run(ctx):
            seen[name] = (threading.get_ident(), active_config())
            return {name: name}

        return run

    pipeline = Pipeline(
        [Stage(name=n, run=probe(n), outputs=(n,)) for n in ("a", "b")]
    )
    cache = ResultCache(tmp_path / "cache")
    with planner_config(max_block_bytes=4096, cache=cache) as config:
        run_pipeline(pipeline, ArtifactStore(tmp_path / "store"))
    caller = threading.get_ident()
    assert seen == {"a": (caller, config), "b": (caller, config)}
    assert config.max_block_bytes == 4096 and config.cache is cache
    assert active_config() is None


def test_undeclared_outputs_are_rejected(bench, tmp_path):
    bad = Pipeline(
        [
            Stage(
                name="bad",
                run=lambda ctx: {"other": 1},
                outputs=("declared",),
            )
        ]
    )
    with pytest.raises(PipelineError, match="returned outputs"):
        run_pipeline(bad, bench.store)


def test_stage_runs_counters(bench):
    registry = obs.enable_metrics()
    try:
        run_pipeline(bench.pipeline(), bench.store)
        run_pipeline(bench.pipeline(), bench.store)
        counters = registry.snapshot()["counters"]
        assert counters["pipeline.stage_runs.executed"] == 4
        assert counters["pipeline.stage_runs.cached"] == 4
        assert counters["pipeline.runs"] == 2
    finally:
        obs.disable()


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------


def _states(pipeline, store):
    return {s.name: s for s in pipeline_status(pipeline, store)}


def test_status_cold_is_missing_then_stale_downstream(bench):
    st = _states(bench.pipeline(), bench.store)
    assert st["parse"].state == "missing"
    assert st["parse"].reasons == ("never executed",)
    assert st["combine"].state == "stale"
    assert "upstream stage not fresh: parse" in st["combine"].reasons


def test_status_fresh_after_a_run(bench):
    run_pipeline(bench.pipeline(), bench.store)
    st = _states(bench.pipeline(), bench.store)
    assert all(s.state == "fresh" for s in st.values())
    assert all(s.fingerprint for s in st.values())


def test_status_names_the_changed_input(bench):
    run_pipeline(bench.pipeline(), bench.store)
    bench.source.write_text("changed")
    st = _states(bench.pipeline(), bench.store)
    assert st["parse"].state == "stale"
    assert st["parse"].reasons == (f"input changed: {bench.source}",)
    assert st["enrich"].state == "fresh"
    assert st["combine"].state == "stale"


def test_status_names_the_changed_param(bench):
    run_pipeline(bench.pipeline(), bench.store)
    st = _states(bench.pipeline(report_params={"title": "v2"}), bench.store)
    assert st["report"].state == "stale"
    assert st["report"].reasons == ("param changed: title",)


def test_status_names_the_changed_upstream_artifact(bench):
    run_pipeline(bench.pipeline(), bench.store)
    # re-run only enrich after its input changed: its output digest moves,
    # so combine is stale because of the *artifact*, not a file or param
    bench.extra.write_text("delta")
    run_pipeline(bench.pipeline(), bench.store, stages=["enrich"])
    st = _states(bench.pipeline(), bench.store)
    assert st["enrich"].state == "fresh"
    assert st["combine"].state == "stale"
    assert st["combine"].reasons == ("upstream artifact changed: extras",)


def _latest_files(store):
    return {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in (store.directory / "latest").iterdir()
    }


def test_warm_rerun_leaves_latest_pointers_untouched(bench):
    run_pipeline(bench.pipeline(), bench.store)
    before = _latest_files(bench.store)
    assert len(before) == 4
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == ()
    assert _latest_files(bench.store) == before  # no write, no rename


def test_status_reasons_after_an_edit_and_its_revert(bench):
    run_pipeline(bench.pipeline(), bench.store)
    bench.source.write_text("other words")
    edited = {"title": "v2", "draft": True}
    run_pipeline(bench.pipeline(report_params=edited), bench.store)
    bench.source.write_text("alpha beta")  # revert both edits
    run = run_pipeline(bench.pipeline(), bench.store)
    assert run.executed == ()
    st = _states(bench.pipeline(), bench.store)
    assert all(s.state == "fresh" for s in st.values())
    # the cached rerun moved the pointers back to the reverted
    # identities, so a new edit is explained against them: diffed with
    # the edited run, report would also name "title"
    st = _states(
        bench.pipeline(report_params={"title": "demo", "draft": False}),
        bench.store,
    )
    assert st["report"].reasons == ("param changed: draft",)
    bench.source.write_text("third")
    st = _states(bench.pipeline(), bench.store)
    assert st["parse"].reasons == (f"input changed: {bench.source}",)
    assert st["enrich"].state == "fresh"


def test_status_reports_evicted_entries_as_missing(bench):
    run_pipeline(bench.pipeline(), bench.store)
    for entry in bench.store.cache.entries():
        entry.unlink()
    st = _states(bench.pipeline(), bench.store)
    assert st["parse"].state == "missing"
    assert st["parse"].reasons == ("artifact entry missing from store",)
