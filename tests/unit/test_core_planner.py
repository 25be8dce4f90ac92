"""Execution layer: the decision, the ambient config, blocks, the disk
cache around the engine, and the labeled selection metric."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.optimizer import min_energy_within_deadline
from repro.core.planner import (
    DEFAULT_MAX_BLOCK_BYTES,
    WORKING_BYTES_PER_CONFIG,
    PlannerConfig,
    active_config,
    decide,
    iter_block_spaces,
    planner_config,
)
from repro.core.vectorized import clear_evaluation_cache, evaluate_configs
from tests.conftest import config


@pytest.fixture(autouse=True)
def _clean_planner_state():
    """Each test starts without an ambient config or a warm LRU."""
    clear_evaluation_cache()
    assert active_config() is None
    yield
    assert active_config() is None
    clear_evaluation_cache()


# ----------------------------------------------------------------------
# decision table
# ----------------------------------------------------------------------


class TestDecisionTable:
    """The (grid size, cache state, block budget) corners."""

    def test_medium_space_prefers_vectorized(self):
        for size in (1, 100, 4096, 100080, 10**7):
            d = decide(size)
            assert d.strategy == "vectorized" and not d.streamed

    def test_empty_space_is_harmless(self, xeon_sp_model):
        d = decide(0, max_block_bytes=1)
        assert d.strategy == "vectorized" and not d.streamed
        # an empty sweep evaluates to empty arrays, streamed or not
        for budget in (None, 1):
            with planner_config(max_block_bytes=budget):
                ev = evaluate_configs(xeon_sp_model, (), use_cache=False)
            assert ev.configs == ()
            for name in ARRAY_FIELDS:
                assert getattr(ev, name).shape == (0,)

    def test_warm_cache_wins_in_auto_mode(self):
        d = decide(10**6, cache_hit=True, max_block_bytes=1)
        assert d.strategy == "cached"
        assert not d.streamed

    def test_forced_cache_mode_does_not_exist(self):
        with pytest.raises(ValueError, match="unknown plan mode"):
            PlannerConfig(mode="cached")

    def test_block_budget_forces_streamed_vectorized(self):
        size = 10**7
        budget = 1_000_000
        assert size * WORKING_BYTES_PER_CONFIG > budget
        d = decide(size, max_block_bytes=budget)
        assert d.strategy == "vectorized"
        assert d.streamed

    def test_generous_budget_does_not_stream(self):
        d = decide(100, max_block_bytes=DEFAULT_MAX_BLOCK_BYTES)
        assert not d.streamed
        # the budget is a strict bound: a sweep exactly at it still fits
        exact = decide(100, max_block_bytes=100 * WORKING_BYTES_PER_CONFIG)
        assert not exact.streamed

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            decide(-1)


class TestAmbientConfig:
    def test_planner_config_restores_previous(self):
        outer = PlannerConfig(max_block_bytes=4096)
        with planner_config(outer):
            assert active_config() is outer
            with planner_config(max_block_bytes=1):
                assert active_config().max_block_bytes == 1
            assert active_config() is outer
        assert active_config() is None

    def test_nested_cache_configs_restore_in_order(self, tmp_path):
        with planner_config(cache=ResultCache(tmp_path / "a")) as outer:
            assert active_config() is outer
            with planner_config(cache=ResultCache(tmp_path / "b")) as inner:
                assert active_config() is inner
                assert inner.cache is not outer.cache
            assert active_config() is outer
        assert active_config() is None

    def test_planner_config_restores_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with planner_config(cache=ResultCache(tmp_path)):
                raise RuntimeError("boom")
        assert active_config() is None

    def test_config_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = active_config()

        with planner_config(max_block_bytes=1):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert active_config() is not None
        assert seen["other"] is None

    def test_invalid_mode_rejected(self):
        for mode in ("psychic", "scalar", "vectorized", "sharded"):
            with pytest.raises(ValueError, match="unknown plan mode"):
                PlannerConfig(mode=mode)
        with pytest.raises(ValueError, match="max_block_bytes"):
            PlannerConfig(max_block_bytes=0)

    def test_bad_knobs_rejected(self):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_block_bytes"):
                PlannerConfig(max_block_bytes=budget)
        # the keyword form validates too, and leaves no config behind
        with pytest.raises(ValueError, match="max_block_bytes"):
            with planner_config(max_block_bytes=0):
                pass
        with pytest.raises(TypeError):
            PlannerConfig(workers=2)
        assert active_config() is None


# ----------------------------------------------------------------------
# block iteration
# ----------------------------------------------------------------------


def _flatten_blocks(space, max_block_bytes):
    blocks = list(iter_block_spaces(space, max_block_bytes))
    # offsets are contiguous and lengths consistent
    expect = 0
    cfgs = []
    for offset, length, sub in blocks:
        assert offset == expect
        sub_cfgs = list(sub)
        assert len(sub_cfgs) == length
        cfgs.extend(sub_cfgs)
        expect += length
    return blocks, cfgs


class TestBlockIteration:
    GRID = ConfigSpace(
        node_counts=(1, 2, 3, 5),
        core_counts=(1, 2, 4),
        frequencies_hz=(1.6e9, 2.0e9, 2.4e9),
    )

    @pytest.mark.parametrize(
        "budget",
        [
            1,  # single config per block: freq-axis splitting
            2 * WORKING_BYTES_PER_CONFIG,  # freq-axis runs
            4 * WORKING_BYTES_PER_CONFIG,  # core-axis splitting
            12 * WORKING_BYTES_PER_CONFIG,  # node rows
            10**9,  # whole grid in one block
        ],
    )
    def test_grid_blocks_concatenate_to_canonical_order(self, budget):
        blocks, cfgs = _flatten_blocks(self.GRID, budget)
        assert cfgs == list(self.GRID)
        if budget >= 10**9:
            assert len(blocks) == 1

    def test_single_config_grid(self):
        grid = ConfigSpace(
            node_counts=(1,), core_counts=(8,), frequencies_hz=(2.0e9,)
        )
        blocks, cfgs = _flatten_blocks(grid, 1)
        assert len(blocks) == 1 and cfgs == list(grid)

    def test_explicit_sequence_slices(self):
        seq = tuple(config(n, 2, 2.0) for n in range(1, 8))
        blocks, cfgs = _flatten_blocks(seq, 3 * WORKING_BYTES_PER_CONFIG)
        assert cfgs == list(seq)
        assert [b[1] for b in blocks] == [3, 3, 1]

    def test_empty_sequence_yields_one_empty_block(self):
        blocks = list(iter_block_spaces((), 1))
        assert blocks == [(0, 0, ())]

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_block_bytes"):
            list(iter_block_spaces(self.GRID, 0))


# ----------------------------------------------------------------------
# execute() dispatch + labeled metrics
# ----------------------------------------------------------------------


SPACE = ConfigSpace(
    node_counts=(1, 2, 4), core_counts=(1, 4), frequencies_hz=(1.6e9, 2.4e9)
)


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestExecuteDispatch:
    def test_streamed_config_is_bit_identical(self, xeon_sp_model):
        vec = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        with planner_config(max_block_bytes=1):
            streamed = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        for name in ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(streamed, name), getattr(vec, name)
            )

    def test_planner_uses_disk_cache_when_plan_has_one(
        self, xeon_sp_model, tmp_path
    ):
        cache = ResultCache(tmp_path)
        identity = entry_identity(
            xeon_sp_model, SPACE, "W", "bracketed", True
        )
        with planner_config(cache=ResultCache(tmp_path)):
            first = evaluate_configs(xeon_sp_model, SPACE)
            assert cache.contains(identity)
            clear_evaluation_cache()
            again = evaluate_configs(xeon_sp_model, SPACE)
        _assert_bit_identical(again, first)

    def test_warm_disk_hit_is_served(self, xeon_sp_model, tmp_path):
        cache = ResultCache(tmp_path)
        registry = obs.enable_metrics()
        try:
            with planner_config(cache=cache):
                cold = evaluate_space(xeon_sp_model, SPACE)
                assert cache.stats()["writes"] == 1
                assert cache.stats()["misses"] == 1
                clear_evaluation_cache()  # force the disk-cache path
                warm = evaluate_space(xeon_sp_model, SPACE)
                assert cache.stats()["hits"] == 1
                assert cache.stats()["writes"] == 1
            selected = registry.counter_value('plan_selected{strategy="cached"}')
        finally:
            obs.disable()
        assert selected == 1
        _assert_bit_identical(warm.vectorized, cold.vectorized)
        # rehydrated evaluations rebuild their configs from the arrays
        assert warm.vectorized.configs == tuple(SPACE)

    def test_uncacheable_sweeps_skip_disk(self, xeon_sp_model, tmp_path):
        cache = ResultCache(tmp_path)
        cfgs = tuple(config(n, 8, 1.8) for n in (1, 2, 4))
        with planner_config(cache=cache):
            evaluate_configs(xeon_sp_model, cfgs, use_cache=False)
        assert cache.stats()["writes"] == 0
        assert cache.stats()["misses"] == 0
        assert cache.entries() == []

    def test_evaluate_space_under_config_matches(self, xeon_sp_model, tmp_path):
        baseline = evaluate_space(xeon_sp_model, SPACE)
        clear_evaluation_cache()
        cache = ResultCache(tmp_path)
        with planner_config(max_block_bytes=1, cache=cache):
            planned = evaluate_space(xeon_sp_model, SPACE)
        _assert_bit_identical(planned.vectorized, baseline.vectorized)

    def test_search_identical_under_config(self, xeon_sp_model, tmp_path):
        plain = evaluate_space(xeon_sp_model, SPACE)
        best_plain = min_energy_within_deadline(plain, deadline_s=1e6)
        clear_evaluation_cache()
        cache = ResultCache(tmp_path)
        with planner_config(max_block_bytes=1, cache=cache):
            planned = evaluate_space(xeon_sp_model, SPACE)
            best_cfg = min_energy_within_deadline(planned, deadline_s=1e6)
        assert best_plain is not None and best_cfg is not None
        assert best_cfg == best_plain
        won_cfg, won_plain = planned.prediction(best_cfg), plain.prediction(best_plain)
        assert won_cfg.config == won_plain.config
        assert won_cfg.energy_j == won_plain.energy_j
        # the planned sweep is one cacheable entry, written once
        assert len(cache.entries()) == 1

    def test_selection_counter_is_labeled_in_prometheus_text(
        self, xeon_sp_model
    ):
        registry = obs.enable_metrics()
        try:
            evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
            text = registry.to_prometheus_text()
        finally:
            obs.disable()
        assert 'repro_plan_selected_total{strategy="vectorized"} 1' in text
        # one TYPE line for the whole family
        assert text.count("# TYPE repro_plan_selected_total counter") == 1

    def test_lru_hit_records_cached_selection(self, xeon_sp_model):
        registry = obs.enable_metrics()
        try:
            evaluate_configs(xeon_sp_model, SPACE)
            evaluate_configs(xeon_sp_model, SPACE)
            value = registry.counter_value('plan_selected{strategy="cached"}')
        finally:
            obs.disable()
        assert value >= 1


class TestResultCacheContains:
    def test_contains_probe_tracks_entry_files(self, xeon_sp_model, tmp_path):
        cache = ResultCache(tmp_path)
        identity = entry_identity(xeon_sp_model, SPACE, "W", "bracketed", True)
        assert not cache.contains(identity)
        vec = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        cache.put(identity, vec)
        assert cache.contains(identity)
        # the probe does not count as a get
        assert cache.stats()["hits"] == 0
