"""Vectorized Lindley recursion and queueing helpers."""

import numpy as np
import pytest

from repro.simulate.queueing import (
    lindley_waits,
    lindley_waits_loop,
    merge_request_streams,
    mg1_mean_wait,
    per_owner_totals,
)


class TestLindley:
    def test_no_contention_no_waits(self):
        arrivals = np.array([0.0, 10.0, 20.0])
        services = np.array([1.0, 1.0, 1.0])
        assert np.allclose(lindley_waits(arrivals, services), 0.0)

    def test_back_to_back_serialization(self):
        arrivals = np.zeros(4)
        services = np.full(4, 2.0)
        waits = lindley_waits(arrivals, services)
        assert np.allclose(waits, [0.0, 2.0, 4.0, 6.0])

    def test_known_hand_computed_case(self):
        arrivals = np.array([0.0, 1.0, 2.0, 5.0])
        services = np.array([3.0, 1.0, 1.0, 1.0])
        # dep0=3 → wait1=2 (dep1=4) → wait2=2 (dep2=5) → wait3=0 (dep3=6)
        waits = lindley_waits(arrivals, services)
        assert np.allclose(waits, [0.0, 2.0, 2.0, 0.0])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0, 100, size=200))
        services = rng.exponential(0.4, size=200)
        assert np.allclose(
            lindley_waits(arrivals, services),
            lindley_waits_loop(arrivals, services),
        )

    def test_batched_rows_independent(self):
        rng = np.random.default_rng(4)
        arrivals = np.sort(rng.uniform(0, 10, size=(5, 40)), axis=1)
        services = rng.exponential(0.3, size=(5, 40))
        batched = lindley_waits(arrivals, services)
        for i in range(5):
            assert np.allclose(batched[i], lindley_waits(arrivals[i], services[i]))

    def test_empty_input(self):
        out = lindley_waits(np.array([]), np.array([]))
        assert out.size == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            lindley_waits(np.zeros(3), np.zeros(4))

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(ValueError, match="sorted"):
            lindley_waits(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_nd_lanes_match_rows(self):
        # the memory and switch queues pass (S, rows, R) stacks: any
        # (..., R) shape resolves, each row independently
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.uniform(0, 10, size=(2, 3, 20)), axis=-1)
        services = rng.exponential(0.3, size=(2, 3, 20))
        stacked = lindley_waits(arrivals, services)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(
                    stacked[i, j], lindley_waits(arrivals[i, j], services[i, j])
                )

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            lindley_waits(np.float64(1.0), np.float64(1.0))


class TestMergeAndAggregate:
    def test_merge_orders_by_arrival(self):
        arrivals = np.array([3.0, 1.0, 2.0])
        services = np.array([0.3, 0.1, 0.2])
        owners = np.array([2, 0, 1])
        a, s, o, order = merge_request_streams(arrivals, services, owners)
        assert np.allclose(a, [1.0, 2.0, 3.0])
        assert np.allclose(s, [0.1, 0.2, 0.3])
        assert list(o) == [0, 1, 2]
        assert list(order) == [1, 2, 0]

    def test_per_owner_totals(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        owners = np.array([0, 1, 0, 2])
        totals = per_owner_totals(values, owners, 4)
        assert np.allclose(totals, [4.0, 2.0, 4.0, 0.0])


class TestMG1:
    def test_zero_load_zero_wait(self):
        assert mg1_mean_wait(0.0, 1.0, 2.0) == 0.0

    def test_saturation_is_infinite(self):
        assert mg1_mean_wait(1.0, 1.0, 2.0) == float("inf")
        assert mg1_mean_wait(2.0, 1.0, 2.0) == float("inf")

    def test_exponential_service_known_value(self):
        """M/M/1: W = rho/(mu - lambda); with E[y^2] = 2/mu^2."""
        lam, mu = 0.5, 1.0
        w = mg1_mean_wait(lam, 1.0 / mu, 2.0 / mu**2)
        assert w == pytest.approx(lam / (mu * (mu - lam)))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            mg1_mean_wait(-1.0, 1.0, 1.0)
