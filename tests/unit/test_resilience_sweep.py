"""The checkpointed sweep: the planner's block pipeline persisting blocks.

A sweep checkpoint is a disk-cache directory with one entry per
pipeline block, keyed on the block's own sub-space.  A resume reads the
verified entries back; a resume under another block budget recomputes
only the blocks whose sub-space differs; a torn entry is a miss and is
recomputed; a file at the checkpoint path (an old JSON ledger) is
refused instead of misread.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import vectorized
from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.planner import (
    DEFAULT_MAX_BLOCK_BYTES,
    WORKING_BYTES_PER_CONFIG,
    iter_block_spaces,
    planner_config,
)
from repro.core.vectorized import clear_evaluation_cache
from repro.machines.arm import arm_cluster
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.pipeline import evaluate_space_checkpointed

BUDGET = 16 * WORKING_BYTES_PER_CONFIG
SPACE = ConfigSpace.physical(arm_cluster())


def _block_paths(directory, model, space, budget):
    """The entry file of every block of ``space`` under ``budget``."""
    cache = ResultCache(directory)
    cls = model.inputs.baseline_class
    return [
        cache.path_for(entry_identity(model, sub, cls, "bracketed", True))
        for _offset, _length, sub in iter_block_spaces(space, budget)
    ]


def _truncate(directory, model, space, budget, keep):
    """Delete every block entry after the first ``keep``, as a crash
    after ``keep`` stored blocks would leave the directory."""
    paths = _block_paths(directory, model, space, budget)
    assert 0 < keep < len(paths), "truncation must bite"
    for path in paths[keep:]:
        path.unlink()


def _counting_compute(monkeypatch):
    calls = []
    compute = vectorized._compute

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(vectorized, "_compute", counted)
    return calls


def _assert_bit_identical(a, b):
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_explicit_config_list_resumes_bit_identically(
    arm_cp_model, tmp_path, monkeypatch
):
    cfgs = list(SPACE)[::3]
    ck = tmp_path / "space"
    with planner_config(max_block_bytes=BUDGET):
        full = evaluate_space_checkpointed(arm_cp_model, cfgs, checkpoint_path=ck)
        blocks = len(list(ck.glob("*.eval")))  # one entry per block
        _truncate(ck, arm_cp_model, cfgs, BUDGET, keep=2)
        calls = _counting_compute(monkeypatch)
        resumed = evaluate_space_checkpointed(
            arm_cp_model, cfgs, checkpoint_path=ck
        )
    assert len(calls) == blocks - 2  # stored blocks are read back
    plain = vectorized._compute(
        arm_cp_model, tuple(cfgs), None, "bracketed", True, False
    )
    _assert_bit_identical(resumed.vectorized, full.vectorized)
    _assert_bit_identical(full.vectorized, plain)
    assert resumed.vectorized.configs == tuple(cfgs)


def test_resume_under_another_block_budget_is_bit_identical(
    arm_cp_model, tmp_path, monkeypatch
):
    # the same blocks, other blocks, and no active budget (the default)
    for number, budget in enumerate(
        (15 * WORKING_BYTES_PER_CONFIG, 2 * BUDGET, None)
    ):
        ck = tmp_path / f"space{number}"
        with planner_config(max_block_bytes=BUDGET):
            first = evaluate_space_checkpointed(
                arm_cp_model, SPACE, checkpoint_path=ck
            )
        stored = {sub for _o, _l, sub in iter_block_spaces(SPACE, BUDGET)}
        cut = [
            sub
            for _o, _l, sub in iter_block_spaces(
                SPACE, budget or DEFAULT_MAX_BLOCK_BYTES
            )
        ]
        calls = _counting_compute(monkeypatch)
        with planner_config(max_block_bytes=budget):
            again = evaluate_space_checkpointed(
                arm_cp_model, SPACE, checkpoint_path=ck
            )
        monkeypatch.undo()
        # only the blocks whose sub-space differs are recomputed
        assert calls == [sub for sub in cut if sub not in stored], budget
        _assert_bit_identical(again.vectorized, first.vectorized)


def test_entries_of_another_block_budget_are_kept(arm_cp_model, tmp_path):
    # the directory is a plain disk cache that plan_batch shares across
    # jobs, so a sweep never prunes blocks it no longer cuts; only
    # ResultCache.clear() (or deleting the directory) reclaims them
    ck = tmp_path / "space"
    counts = []
    for budget in (BUDGET, 2 * BUDGET, BUDGET):
        with planner_config(max_block_bytes=budget):
            evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
        counts.append(len(list(ck.glob("*.eval"))))
    assert counts == [16, 24, 24]
    assert ResultCache(ck).clear() == 24
    assert not list(ck.glob("*.eval"))


def test_torn_entry_is_recomputed_alone(arm_cp_model, tmp_path, monkeypatch):
    ck = tmp_path / "space"
    with planner_config(max_block_bytes=BUDGET):
        full = evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
        paths = _block_paths(ck, arm_cp_model, SPACE, BUDGET)
        torn = paths[len(paths) // 2]
        blob = torn.read_bytes()
        torn.write_bytes(blob[: len(blob) - 100])  # cut mid-array
        calls = _counting_compute(monkeypatch)
        with obs.observed() as (registry, _tracer):
            resumed = evaluate_space_checkpointed(
                arm_cp_model, SPACE, checkpoint_path=ck
            )
    assert len(calls) == 1
    assert registry.counter_value("cache.disk.rejected") == 1
    assert registry.counter_value("cache.disk.hits") == len(paths) - 1
    assert torn.read_bytes() == blob  # the recomputed block is stored again
    _assert_bit_identical(resumed.vectorized, full.vectorized)


def test_sweep_blocks_are_ordinary_cache_entries(arm_cp_model, tmp_path):
    ck = tmp_path / "space"
    with planner_config(max_block_bytes=BUDGET):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    _offset, _length, sub = next(iter_block_spaces(SPACE, BUDGET))
    cache = ResultCache(ck)
    clear_evaluation_cache()  # force the disk-cache path
    registry = obs.enable_metrics()
    try:
        with planner_config(cache=cache):
            served = evaluate_space(arm_cp_model, sub)
        selected = registry.counter_value('plan_selected{strategy="cached"}')
    finally:
        obs.disable()
    assert selected == 1
    assert cache.stats()["hits"] == 1 and cache.stats()["writes"] == 0
    plain = vectorized._compute(arm_cp_model, sub, None, "bracketed", True, False)
    _assert_bit_identical(served.vectorized, plain)


def test_old_chunk_layout_checkpoint_is_refused(arm_cp_model, tmp_path):
    # a JSON ledger of an earlier layout sits where the directory goes
    ck = tmp_path / "space.json"
    old = {
        "format_version": 1,
        "kind": "repro_checkpoint",
        "task": "evaluate_space",
        "fingerprint": "deadbeefdeadbeef",
        "completed": {"chunk0": {}},
    }
    ck.write_text(json.dumps(old))
    with pytest.raises(CheckpointError, match="is a file.*directory"):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    assert json.loads(ck.read_text()) == old


def test_empty_space_is_rejected(arm_cp_model):
    with pytest.raises(ValueError, match="empty"):
        evaluate_space_checkpointed(arm_cp_model, iter(()))


def test_checkpointed_sweep_opens_one_span(arm_cp_model, tmp_path):
    ck = tmp_path / "space"
    with planner_config(max_block_bytes=BUDGET):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
        _truncate(ck, arm_cp_model, SPACE, BUDGET, keep=3)
        with obs.observed() as (registry, tracer):
            evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    [span] = [s for s in tracer.spans if s.name == "evaluate_space_checkpointed"]
    assert span.attrs == {
        "configs": len(SPACE),
        "blocks": len(list(iter_block_spaces(SPACE, BUDGET))),
        "resumed": 3,
    }
    assert registry.counter_value("planner.stream_blocks") == span.attrs["blocks"]
    assert registry.counter_value("cache.disk.hits") == 3
    assert registry.counter_value("cache.disk.writes") == span.attrs["blocks"] - 3
