"""Checkpoint directories and the baseline sweep's point entries.

A baseline checkpoint is a disk-cache directory holding one JSON entry
per (c, f) point, keyed on everything the point depends on: the whole
simulated testbed, the program, class and repetitions, and the active
resilience policy and chaos schedule.  A resume reads the verified
entries back; a torn entry, or one written by any other campaign, is a
miss and that point is measured again.
"""

from dataclasses import replace

import pytest

from repro import obs, resilience
from repro.core.cache import ResultCache
from repro.machines.arm import arm_cluster
from repro.measure.baseline import run_baseline_sweep
from repro.resilience.checkpoint import CheckpointError, open_checkpoint
from repro.simulate.cluster import SimulatedCluster
from repro.simulate.noise import NoiseModel
from repro.workloads.registry import get_program

PROGRAM = get_program("CP")
POINTS = len(arm_cluster().node.core_counts) * len(arm_cluster().frequencies_hz)


def _sweep(sim, checkpoint=None):
    """One baseline sweep, with its cache.disk counters."""
    with obs.observed(tracing=False) as (registry, _tracer):
        sweep = run_baseline_sweep(
            sim, PROGRAM, repetitions=1, checkpoint=checkpoint
        )
    counts = {
        name: registry.counter_value(f"cache.disk.{name}")
        for name in ("hits", "misses", "writes", "rejected")
    }
    return sweep, counts


def test_open_creates_the_directory(tmp_path):
    cache = open_checkpoint(tmp_path / "a" / "ck")
    assert isinstance(cache, ResultCache)
    assert cache.directory.is_dir() and cache.entries() == []


def test_file_at_the_path_is_refused_and_left_untouched(tmp_path):
    ledger = tmp_path / "baseline.json"
    ledger.write_text('{"kind": "repro_checkpoint"}\n["1@1", {}]\n')
    with pytest.raises(CheckpointError, match="is a file.*directory"):
        open_checkpoint(ledger)
    with pytest.raises(CheckpointError, match="is a file"):
        run_baseline_sweep(
            SimulatedCluster(arm_cluster()), PROGRAM, checkpoint=ledger
        )
    assert ledger.read_text() == '{"kind": "repro_checkpoint"}\n["1@1", {}]\n'


def test_points_persist_and_resume_bit_identically(tmp_path):
    sim = SimulatedCluster(arm_cluster())
    plain, _ = _sweep(sim)
    first, cold = _sweep(sim, tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == POINTS  # one per point
    assert cold["writes"] == POINTS and cold["hits"] == 0
    again, warm = _sweep(sim, tmp_path)
    assert warm["hits"] == POINTS and warm["writes"] == 0
    assert first == plain and again == plain  # every float identical


def test_interrupted_sweep_measures_only_the_missing_points(tmp_path):
    sim = SimulatedCluster(arm_cluster())
    full, _ = _sweep(sim, tmp_path)
    entries = sorted(tmp_path.glob("*.json"))
    for path in entries[5:]:
        path.unlink()
    torn = entries[0]
    torn.write_text(torn.read_text()[:40])  # a torn entry is a miss
    resumed, counts = _sweep(sim, tmp_path)
    assert counts["hits"] == 4 and counts["rejected"] == 1
    assert counts["writes"] == POINTS - 4
    assert resumed == full


_ARM = arm_cluster()
_SLOW_MEMORY = replace(
    _ARM, node=replace(_ARM.node, memory=_ARM.node.memory.scaled(0.5))
)


@pytest.mark.parametrize(
    "other",
    [
        SimulatedCluster(_ARM, root_seed=2),
        SimulatedCluster(_ARM, noise=NoiseModel(phase_jitter_sigma=0.05)),
        SimulatedCluster(_SLOW_MEMORY),  # same spec name, other field
    ],
    ids=["root_seed", "noise", "spec_field"],
)
def test_another_testbed_remeasures_every_point(tmp_path, other):
    first, _ = _sweep(SimulatedCluster(_ARM, root_seed=1), tmp_path)
    resumed, counts = _sweep(other, tmp_path)
    assert counts["hits"] == 0 and counts["writes"] == POINTS
    fresh, _ = _sweep(other)
    assert resumed == fresh != first


def test_another_chaos_schedule_remeasures_every_point(tmp_path):
    sim = SimulatedCluster(_ARM)
    policy = resilience.RetryPolicy.aggressive()

    def corrupting(seed):
        rule = resilience.ChaosRule(corrupt_p=0.5)
        return resilience.ChaosSchedule(seed=seed, rules={"counters": rule})

    with resilience.enabled(policy, corrupting(3)):
        first, _ = _sweep(sim, tmp_path)
    with resilience.enabled(policy, corrupting(4)):
        resumed, counts = _sweep(sim, tmp_path)
    assert counts["hits"] == 0 and counts["writes"] == POINTS
    with resilience.enabled(policy, corrupting(4)):
        fresh, _ = _sweep(sim)
    assert resumed == fresh != first
    with resilience.enabled(policy, corrupting(4)):
        again, counts = _sweep(sim, tmp_path)  # the same campaign resumes
    assert counts["hits"] == POINTS and again == fresh
