"""The single shared Pollaczek-Khinchine module (`repro.mg1`).

The headline unification: exactly one M/G/1 mean-wait definition in the
codebase, used by the scalar time model, the vectorized engine and the
queueing property tests — under both saturation conventions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mg1 import (
    RHO_MAX,
    exponential_second_moment,
    mg1_mean_wait,
    mg1_saturated,
    mg1_utilization,
)


class TestSingleDefinition:
    def test_queueing_module_reexports_the_same_function(self):
        """`repro.simulate.queueing.mg1_mean_wait` IS `repro.mg1.mg1_mean_wait`."""
        import repro.simulate.queueing as queueing

        assert queueing.mg1_mean_wait is mg1_mean_wait

    def test_time_model_imports_the_shared_helper(self):
        import repro.core.time_model as tm
        import repro.core.vectorized as vec

        assert tm.mg1_mean_wait is mg1_mean_wait
        assert vec.mg1_mean_wait is mg1_mean_wait
        assert tm.RHO_MAX == vec.RHO_MAX == RHO_MAX


class TestTheoryConvention:
    """rho_max=None: the textbook form, inf at saturation."""

    def test_pk_formula(self):
        # λ=0.5, E[y]=1, E[y²]=2 -> ρ=0.5, W = 0.5·2/(2·0.5) = 1.0
        assert mg1_mean_wait(0.5, 1.0, 2.0) == pytest.approx(1.0)

    def test_zero_arrivals_zero_wait(self):
        assert mg1_mean_wait(0.0, 1.0, 2.0) == 0.0

    def test_saturated_queue_is_infinite(self):
        assert mg1_mean_wait(1.0, 1.0, 2.0) == float("inf")
        assert mg1_mean_wait(2.0, 1.0, 2.0) == float("inf")

    def test_negative_inputs_raise(self):
        for args in [(-1.0, 1.0, 2.0), (1.0, -1.0, 2.0), (1.0, 1.0, -2.0)]:
            with pytest.raises(ValueError):
                mg1_mean_wait(*args)

    def test_vector_inputs_mix_stable_and_saturated(self):
        lam = np.array([0.5, 1.5])
        wait = mg1_mean_wait(lam, 1.0, 2.0)
        assert wait[0] == pytest.approx(1.0)
        assert wait[1] == float("inf")


class TestPredictorConvention:
    """rho_max=RHO_MAX: the model's clamped form, always finite."""

    def test_clamped_wait_is_finite_beyond_saturation(self):
        wait = mg1_mean_wait(2.0, 1.0, 2.0, rho_max=RHO_MAX)
        assert np.isfinite(wait)
        assert wait == pytest.approx(2.0 * 2.0 / (2.0 * (1.0 - RHO_MAX)))

    def test_matches_theory_below_the_clamp(self):
        assert mg1_mean_wait(0.5, 1.0, 2.0, rho_max=RHO_MAX) == mg1_mean_wait(
            0.5, 1.0, 2.0
        )

    def test_paper_eq5_form_bit_exact(self):
        """Eq. 5's λ·ŷ²/(1-ρ) == P-K with the exponential second moment,
        bit for bit: E[y²] = 2·fl(ŷ²), and scaling a quotient's numerator
        and denominator by two is exact in IEEE-754.  (The λ·(ŷ·ŷ)
        association matches what the pre-unification code computed, so
        calibrated outputs are preserved exactly.)"""
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = float(rng.uniform(1e-9, 1e3))
            lam = float(rng.uniform(0.0, 0.9 / y))
            rho = min(lam * y, RHO_MAX)
            paper_form = lam * (y * y) / (1.0 - rho)
            pk_form = mg1_mean_wait(
                lam, y, exponential_second_moment(y), rho_max=RHO_MAX
            )
            assert pk_form == paper_form  # exact equality, not approx


class TestHelpers:
    def test_exponential_second_moment(self):
        assert exponential_second_moment(3.0) == 18.0
        np.testing.assert_array_equal(
            exponential_second_moment(np.array([1.0, 2.0])), [2.0, 8.0]
        )

    def test_exponential_second_moment_scalar_and_array_agree(self):
        """A float and an array get the same bits.  A float's ``** 2``
        goes through the C library's pow, which with glibc lands one ulp
        above ``y * y`` (the product NumPy squares an array by) at 6e-5
        and at 3 of these 4,000 draws."""
        y = 6.0 / 100000.0
        ys = np.random.default_rng(7).uniform(1e-7, 1e-3, 4000)
        ys = np.append(ys, y)
        scalar = [exponential_second_moment(v) for v in ys.tolist()]
        assert scalar == exponential_second_moment(ys).tolist()
        assert scalar[-1] == 2.0 * (y * y)

    def test_utilization(self):
        assert mg1_utilization(2.0, 0.25) == 0.5
        np.testing.assert_allclose(
            mg1_utilization(np.array([1.0, 4.0]), 0.5), [0.5, 2.0]
        )

    def test_saturated_flag(self):
        assert not mg1_saturated(0.5, 1.0)
        assert mg1_saturated(1.0, 1.0)
        assert bool(np.all(mg1_saturated(np.array([1.0, 2.0]), 1.0)))
