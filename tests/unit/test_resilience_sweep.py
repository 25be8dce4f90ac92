"""The checkpointed sweep: the planner's block pipeline persisting blocks.

A checkpoint records one entry per pipeline block.  Its identity is the
disk-cache entry identity plus the block budget, so a resume under a
different budget (different blocks) or from a file of another task is
refused instead of misread.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import vectorized
from repro.core.cache import ARRAY_FIELDS
from repro.core.configspace import ConfigSpace
from repro.core.planner import (
    WORKING_BYTES_PER_CONFIG,
    iter_block_spaces,
    planner_config,
)
from repro.machines.arm import arm_cluster
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.pipeline import evaluate_space_checkpointed

BUDGET = 16 * WORKING_BYTES_PER_CONFIG
SPACE = ConfigSpace.physical(arm_cluster())


def _truncate(path, keep):
    """Cut the ledger to its first ``keep`` units: the header line (which
    carries the first unit) plus the next ``keep - 1`` unit lines."""
    lines = path.read_text().splitlines(keepends=True)
    assert 0 < keep < len(lines), "truncation must bite"
    path.write_text("".join(lines[:keep]))


def _counting_compute(monkeypatch):
    calls = []
    compute = vectorized._compute

    def counted(*args, **kwargs):
        calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(vectorized, "_compute", counted)
    return calls


def test_explicit_config_list_resumes_bit_identically(
    arm_cp_model, tmp_path, monkeypatch
):
    cfgs = list(SPACE)[::3]
    ck = tmp_path / "space.json"
    with planner_config(max_block_bytes=BUDGET):
        full = evaluate_space_checkpointed(arm_cp_model, cfgs, checkpoint_path=ck)
        blocks = len(ck.read_text().splitlines())  # one line per block
        _truncate(ck, keep=2)
        calls = _counting_compute(monkeypatch)
        resumed = evaluate_space_checkpointed(
            arm_cp_model, cfgs, checkpoint_path=ck
        )
    assert len(calls) == blocks - 2  # recorded blocks are read back
    plain = vectorized._compute(
        arm_cp_model, tuple(cfgs), None, "bracketed", True, False
    )
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(
            getattr(resumed.vectorized, name), getattr(full.vectorized, name)
        )
        np.testing.assert_array_equal(
            getattr(full.vectorized, name), getattr(plain, name)
        )
    assert resumed.vectorized.configs == tuple(cfgs)


def test_resume_under_another_block_budget_is_refused(arm_cp_model, tmp_path):
    ck = tmp_path / "space.json"
    with planner_config(max_block_bytes=BUDGET):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    with planner_config(max_block_bytes=2 * BUDGET):
        with pytest.raises(
            CheckpointError, match="different evaluate_space_blocks configuration"
        ):
            evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    # no active budget is the default budget: a different campaign too
    with pytest.raises(CheckpointError):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)


def test_old_chunk_layout_checkpoint_is_refused(arm_cp_model, tmp_path):
    ck = tmp_path / "space.json"
    old = {
        "format_version": 1,
        "kind": "repro_checkpoint",
        "task": "evaluate_space",
        "fingerprint": "deadbeefdeadbeef",
        "completed": {"chunk0": {}},
    }
    ck.write_text(json.dumps(old))
    with pytest.raises(CheckpointError, match="belongs to task 'evaluate_space'"):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    assert json.loads(ck.read_text()) == old


def test_empty_space_is_rejected(arm_cp_model):
    with pytest.raises(ValueError, match="empty"):
        evaluate_space_checkpointed(arm_cp_model, iter(()))


def test_checkpointed_sweep_opens_one_span(arm_cp_model, tmp_path):
    ck = tmp_path / "space.json"
    with planner_config(max_block_bytes=BUDGET):
        evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
        _truncate(ck, keep=3)
        with obs.observed() as (registry, tracer):
            evaluate_space_checkpointed(arm_cp_model, SPACE, checkpoint_path=ck)
    [span] = [s for s in tracer.spans if s.name == "evaluate_space_checkpointed"]
    assert span.attrs == {
        "configs": len(SPACE),
        "blocks": len(list(iter_block_spaces(SPACE, BUDGET))),
        "resumed": 3,
    }
    assert registry.counter_value("planner.stream_blocks") == span.attrs["blocks"]
