"""Properties of the calibration fit's NNLS solver.

On random Tikhonov-stacked systems shaped like ``fit_corrections``', the
solution is feasible (x >= 0), satisfies the KKT conditions of
``min ||A x - b||^2  s.t.  x >= 0``, and has a residual no larger than
that of any feasible least-squares solution on a subset of the terms.
"""

from __future__ import annotations

import importlib
import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tests.unit.test_core_calibrate import stacked_system

_nnls = importlib.import_module("repro.core.calibrate")._nnls

_RTOL = 1e-9


def _fractions(n):
    # a grid on [0, 1] keeps exact zeros and stays clear of subnormals
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n).map(
        lambda v: np.array(v) / 1000.0
    )


@st.composite
def probe_systems(draw):
    """Stacked systems shaped like ``fit_corrections``': 2-12 probes of
    four term times on their own scales, a quarter with no network
    terms, and measured times off the model by noise."""
    m = draw(st.integers(2, 12))
    scales = 10.0 ** draw(
        st.lists(st.floats(-1.0, 2.5), min_size=4, max_size=4).map(np.array)
    )
    a = draw(_fractions(4 * m)).reshape(m, 4) * scales
    if draw(st.integers(0, 3)) == 0:
        a[:, 2:] = 0.0
    x = 2.0 * draw(_fractions(4))
    noise = (draw(_fractions(m)) - 0.5) * scales.mean()
    return stacked_system(a, a @ x + noise)


def _residual(a, b, x):
    return float(np.sum((a @ x - b) ** 2))


@given(system=probe_systems())
def test_solution_is_feasible_and_satisfies_kkt(system):
    a, b = system
    x = np.array(_nnls(a.tolist(), b.tolist()))
    assert (x >= 0).all()
    # gradient of ||A x - b||^2 / 2: zero on the support, >= 0 off it,
    # to within the rounding of its terms
    gradient = a.T @ (a @ x - b)
    scale = np.abs(a).T @ (np.abs(a) @ x + np.abs(b))
    tol = _RTOL * scale
    on = x > 0
    assert (np.abs(gradient[on]) <= tol[on]).all()
    assert (gradient[~on] >= -tol[~on]).all()


@given(system=probe_systems())
def test_residual_no_larger_than_any_feasible_subset_solution(system):
    a, b = system
    x = np.array(_nnls(a.tolist(), b.tolist()))
    best = _residual(a, b, x)
    for k in range(1, a.shape[1] + 1):
        for cols in itertools.combinations(range(a.shape[1]), k):
            sub, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if (sub < 0).any():
                continue
            candidate = np.zeros(a.shape[1])
            candidate[list(cols)] = sub
            assert best <= _residual(a, b, candidate) * (1 + _RTOL)
