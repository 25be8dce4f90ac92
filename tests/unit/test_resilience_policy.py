"""Unit tests for the retry policy and the resilience facade."""

from __future__ import annotations

import pathlib

import pytest

from repro import obs, resilience
from repro.core.inputs import characterize
from repro.io import model_inputs_to_dict
from repro.machines.arm import arm_cluster
from repro.resilience import (
    ChaosRule,
    ChaosSchedule,
    ResilienceError,
    RetryPolicy,
    SampleLost,
)
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program


class TestRetryPolicy:
    def test_attempts_counts_first_read(self):
        assert RetryPolicy(max_retries=0).attempts == 1
        assert RetryPolicy(max_retries=3).attempts == 4

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_rejects_zero_timeout_with_actionable_message(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            RetryPolicy(timeout_s=0.0)

    def test_rejects_shrinking_backoff_and_bad_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_s("counters", (), 0) == pytest.approx(0.1)
        assert policy.backoff_s("counters", (), 1) == pytest.approx(0.2)
        assert policy.backoff_s("counters", (), 3) == pytest.approx(0.8)

    def test_backoff_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.1)
        a = policy.backoff_s("counters", ("run1",), 0)
        b = policy.backoff_s("counters", ("run1",), 0)
        assert a == b  # same identity -> bit-identical backoff
        assert 0.09 <= a <= 0.11
        # different identity -> (almost surely) different jitter
        assert policy.backoff_s("counters", ("run2",), 0) != a

    def test_aggressive_preset(self):
        assert RetryPolicy.aggressive().max_retries == 8


class TestFacade:
    @pytest.fixture(autouse=True)
    def _no_ambient_context(self):
        """These tests assert on the facade's enabled/disabled state, so
        the session-wide REPRO_CHAOS context (CI's chaos job) must be
        stashed for their duration and restored afterwards."""
        prev = resilience.get_context()
        resilience.disable()
        try:
            yield
        finally:
            resilience._context = prev

    def test_disabled_is_passthrough(self):
        assert not resilience.active()
        assert resilience.call("x", (), lambda: 42) == 42

    def test_enabled_context_restores_previous(self):
        with resilience.enabled(RetryPolicy()):
            assert resilience.active()
            with resilience.enabled(RetryPolicy(max_retries=1)) as inner:
                assert resilience.get_context() is inner
            assert resilience.active()
        assert not resilience.active()

    def test_clean_call_counts_one_attempt(self):
        with resilience.enabled(RetryPolicy()) as ctx:
            assert resilience.call("pmu", ("a",), lambda: 1.0) == 1.0
        stats = ctx.stats["pmu"]
        assert stats.attempts == 1
        assert stats.succeeded == 1
        assert stats.retries == 0
        assert stats.coverage == 1.0

    def test_drop_everything_raises_sample_lost(self):
        chaos = ChaosSchedule(seed=1, rules={"*": ChaosRule(drop_p=1.0)})
        with resilience.enabled(RetryPolicy(max_retries=2), chaos) as ctx:
            with pytest.raises(SampleLost, match="raise --retries"):
                resilience.call("pmu", ("a",), lambda: 1.0)
        stats = ctx.stats["pmu"]
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.lost == 1
        assert stats.coverage == 0.0

    def test_sample_lost_is_a_resilience_error(self):
        assert issubclass(SampleLost, ResilienceError)

    def test_retry_returns_identical_value(self):
        # drop_p=0.5: with enough retries every sample eventually lands,
        # and the idempotent closure returns the original value
        chaos = ChaosSchedule(seed=7, rules={"*": ChaosRule(drop_p=0.5)})
        values = {}
        with resilience.enabled(RetryPolicy(max_retries=12), chaos) as ctx:
            for i in range(50):
                values[i] = resilience.call("pmu", (f"s{i}",), lambda v=i: v * 1.5)
        assert values == {i: i * 1.5 for i in range(50)}
        assert ctx.stats["pmu"].retries > 0  # chaos actually bit

    def test_delay_past_timeout_counts_as_failure(self):
        chaos = ChaosSchedule(
            seed=3, rules={"*": ChaosRule(delay_p=1.0, delay_s=10.0)}
        )
        with resilience.enabled(
            RetryPolicy(max_retries=1, timeout_s=1.0), chaos
        ) as ctx:
            with pytest.raises(SampleLost):
                resilience.call("pmu", ("a",), lambda: 1.0)
        assert ctx.stats["pmu"].lost == 1
        # without the timeout the same schedule only delays, never loses
        with resilience.enabled(RetryPolicy(max_retries=1), chaos) as ctx2:
            assert resilience.call("pmu", ("a",), lambda: 1.0) == 1.0
        assert ctx2.stats["pmu"].delayed == 1

    def test_corruption_applies_factor(self):
        chaos = ChaosSchedule(
            seed=5, rules={"*": ChaosRule(corrupt_p=1.0, corrupt_sigma=0.1)}
        )
        with resilience.enabled(RetryPolicy(), chaos) as ctx:
            value = resilience.call(
                "pmu", ("a",), lambda: 100.0, corrupt=lambda v, f: v * f
            )
        assert value != 100.0
        assert value == pytest.approx(100.0, rel=0.5)
        assert ctx.stats["pmu"].corrupted == 1

    def test_obs_counters_mirror_outcomes(self):
        chaos = ChaosSchedule(seed=1, rules={"*": ChaosRule(drop_p=1.0)})
        registry = obs.enable_metrics()
        try:
            with resilience.enabled(RetryPolicy(max_retries=1), chaos):
                with pytest.raises(SampleLost):
                    resilience.call("pmu", ("a",), lambda: 1.0)
            counters = {
                name: registry.counter_value(name)
                for name in (
                    "resilience.attempts",
                    "resilience.retries",
                    "resilience.chaos.drops",
                    "resilience.losses",
                )
            }
        finally:
            obs.disable()
        assert counters["resilience.attempts"] == 2
        assert counters["resilience.retries"] == 1
        assert counters["resilience.chaos.drops"] == 2
        assert counters["resilience.losses"] == 1

    def test_value_token_distinguishes_close_values(self):
        assert resilience.value_token(1.0) != resilience.value_token(
            1.0 + 1e-12
        )
        assert resilience.value_token(2.5) == resilience.value_token(2.5)


class TestChaosRecovery:
    """The campaign ``bench_resilience_overhead.py`` times for
    ``chaos_recovery_pct``: under the CI drop/delay schedule with
    aggressive retries it must recover every read and equal the clean
    campaign, so the reported cost is recovery cost and nothing else."""

    def test_ci_schedule_campaign_equals_the_clean_one(self):
        schedule = ChaosSchedule.load(
            pathlib.Path(__file__).parents[1]
            / "fixtures" / "chaos" / "schedule_ci.json"
        )

        def campaign():
            return model_inputs_to_dict(
                characterize(SimulatedCluster(arm_cluster()), get_program("CP"))
            )

        clean = campaign()
        with resilience.enabled(RetryPolicy.aggressive(), schedule) as ctx:
            recovered = campaign()
        stats = ctx.stats.values()
        assert sum(s.retries for s in stats) > 0, "chaos never fired"
        assert sum(s.lost for s in stats) == 0
        assert not ctx.lost_units
        assert recovered == clean
