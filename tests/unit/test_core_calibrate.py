"""Residual calibration."""

import importlib

import numpy as np
import pytest

from repro.core.calibrate import TermCorrections, calibrate, fit_corrections
from repro.measure.timecmd import measure_wall_time
from repro.workloads.npb import sp_program
from tests.conftest import config

calibrate_module = importlib.import_module("repro.core.calibrate")

# the shipped Xeon probes of the paper pipeline's calibrate-xeon-sp stage
PROBES = [
    config(1, 1, 1.2),
    config(1, 8, 1.8),
    config(2, 4, 1.5),
    config(4, 8, 1.8),
    config(8, 2, 1.2),
    config(8, 8, 1.8),
]

HELD_OUT = [
    config(2, 8, 1.8),
    config(4, 1, 1.5),
    config(4, 4, 1.2),
    config(8, 4, 1.5),
]


class TestTermCorrections:
    def test_identity_is_noop(self, xeon_sp_model):
        pred = xeon_sp_model.predict(config(4, 8, 1.8))
        same = TermCorrections.identity().apply(pred.time)
        assert same.total_s == pytest.approx(pred.time_s)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TermCorrections(cpu=-0.1, mem=1.0, net_service=1.0, net_wait=1.0)

    def test_apply_scales_terms(self, xeon_sp_model):
        pred = xeon_sp_model.predict(config(4, 8, 1.8))
        doubled = TermCorrections(2.0, 1.0, 1.0, 1.0).apply(pred.time)
        assert doubled.t_cpu_s == pytest.approx(2 * pred.time.t_cpu_s)
        assert doubled.t_mem_s == pytest.approx(pred.time.t_mem_s)


class TestFit:
    def test_corrections_near_identity_for_good_model(self, xeon_sim, xeon_sp_model):
        """The raw model is already accurate, so fitted corrections must
        land near 1 — confirming rather than replacing the physics."""
        corr = fit_corrections(xeon_sp_model, xeon_sim, PROBES)
        assert 0.8 < corr.cpu < 1.3
        assert corr.mem >= 0.0
        assert corr.net_service >= 0.0

    def test_rejects_too_few_probes(self, xeon_sim, xeon_sp_model):
        with pytest.raises(ValueError):
            fit_corrections(xeon_sp_model, xeon_sim, PROBES[:1])


class TestCalibratedModel:
    @pytest.fixture(scope="class")
    def calibrated(self, xeon_sim, xeon_sp_model):
        return calibrate(xeon_sp_model, xeon_sim, PROBES)

    def _mean_error(self, sim, predictor, configs):
        errs = []
        for cfg in configs:
            measured = np.mean(
                [
                    measure_wall_time(r)
                    for r in sim.run_many(sp_program(), cfg, repetitions=2)
                ]
            )
            errs.append(abs(predictor.predict(cfg).time_s - measured) / measured)
        return float(np.mean(errs))

    def test_no_worse_on_held_out_configs(self, xeon_sim, xeon_sp_model, calibrated):
        raw = self._mean_error(xeon_sim, xeon_sp_model, HELD_OUT)
        cal = self._mean_error(xeon_sim, calibrated, HELD_OUT)
        assert cal < raw * 1.25  # never much worse
        assert cal < 0.15

    def test_energy_rederived_consistently(self, calibrated):
        pred = calibrated.predict(config(4, 8, 1.8))
        assert pred.energy_j > 0
        assert pred.time_s == pytest.approx(pred.time.total_s)

    def test_extrapolates_beyond_probes(self, calibrated):
        pred = calibrated.predict(config(64, 8, 1.8))
        assert pred.time_s > 0

def stacked_system(a, b, regularization=0.05):
    """``fit_corrections``' Tikhonov-stacked NNLS system for the term
    matrix ``a`` and the measured times ``b``."""
    column_norms = np.linalg.norm(a, axis=0)
    column_norms[column_norms == 0] = np.linalg.norm(b) or 1.0
    lam = regularization * column_norms
    return np.vstack([a, np.diag(lam)]), np.concatenate([b, lam])


def random_probe_system(rng):
    """A random stacked system shaped like ``fit_corrections``': 2-12
    probes of four term times on their own scales, a quarter with no
    network terms, and measured times off the model by enough noise to
    pin some corrections at 0."""
    m = int(rng.integers(2, 13))
    scales = 10.0 ** rng.uniform(-1.0, 2.5, size=4)
    a = rng.uniform(0.0, 1.0, size=(m, 4)) * scales
    if rng.random() < 0.25:
        a[:, 2:] = 0.0
    x = rng.uniform(0.0, 2.0, size=4)
    noise = rng.normal(0.0, 0.1 * scales.mean(), size=m)
    b = a @ x * rng.uniform(0.8, 1.2, size=m) + noise
    return stacked_system(a, b)


class TestSolverAgainstScipy:
    """scipy's NNLS as an oracle.  The package no longer calls scipy, so
    this bounds the distance to it; the exact bits are pinned in
    test_core_calibrate_import.py."""

    @pytest.fixture(scope="class")
    def scipy_nnls(self):
        return pytest.importorskip("scipy.optimize").nnls

    def _assert_agrees(self, scipy_nnls, a, b):
        expected, _ = scipy_nnls(a, b)
        got = np.array(calibrate_module._nnls(a.tolist(), b.tolist()))
        np.testing.assert_array_equal(got > 0, expected > 0)  # same support
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(
            np.abs(expected)
        )
        return got

    def test_pinned_probe_system(
        self, scipy_nnls, xeon_sim, xeon_sp_model, monkeypatch
    ):
        systems = []
        solve = calibrate_module._nnls

        def spy(a, b):
            systems.append((np.array(a), np.array(b)))
            return solve(a, b)

        monkeypatch.setattr(calibrate_module, "_nnls", spy)
        fit_corrections(xeon_sp_model, xeon_sim, PROBES, repetitions=1)
        (a, b), = systems
        assert a.shape == (len(PROBES) + 4, 4)
        self._assert_agrees(scipy_nnls, a, b)

    def test_random_probe_systems(self, scipy_nnls):
        rng = np.random.default_rng(20150525)
        active = 0
        for _ in range(1000):
            got = self._assert_agrees(scipy_nnls, *random_probe_system(rng))
            active += got.min() == 0
        assert active > 100  # the bound is exercised, not only the interior
