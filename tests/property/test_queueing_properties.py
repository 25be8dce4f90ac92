"""Property-based tests of the Lindley queueing machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mg1 import RHO_MAX
from repro.simulate.queueing import (
    _lindley_sorted,
    fifo_sort,
    lindley_wait_sums,
    lindley_waits,
    lindley_waits_loop,
    mg1_mean_wait,
)

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def request_batch(min_size=1, max_size=64):
    """Random (sorted arrivals, services) pair."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=finite),
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
            ),
        )
    )


@given(request_batch())
@settings(max_examples=200)
def test_vectorized_matches_scalar_reference(batch):
    arrivals, services = batch
    arrivals = np.sort(arrivals)
    assert np.allclose(
        lindley_waits(arrivals, services),
        lindley_waits_loop(arrivals, services),
        rtol=1e-9,
        atol=1e-6,
    )


@given(request_batch())
def test_waits_nonnegative(batch):
    arrivals, services = batch
    waits = lindley_waits(np.sort(arrivals), services)
    assert np.all(waits >= 0.0)


@given(request_batch(), st.floats(0.1, 100.0, allow_nan=False))
def test_time_scaling_invariance(batch, k):
    """Scaling all times by k scales all waits by k."""
    arrivals, services = batch
    arrivals = np.sort(arrivals)
    base = lindley_waits(arrivals, services)
    scaled = lindley_waits(arrivals * k, services * k)
    assert np.allclose(scaled, base * k, rtol=1e-6, atol=1e-6)


@given(request_batch(), st.floats(0.0, 1e5, allow_nan=False))
def test_arrival_shift_invariance(batch, shift):
    """Shifting every arrival by a constant leaves waits unchanged."""
    arrivals, services = batch
    arrivals = np.sort(arrivals)
    base = lindley_waits(arrivals, services)
    shifted = lindley_waits(arrivals + shift, services)
    assert np.allclose(shifted, base, rtol=1e-9, atol=1e-6)


@given(request_batch())
def test_longer_service_never_reduces_waits(batch):
    """Monotonicity: inflating any service time cannot reduce any wait."""
    arrivals, services = batch
    arrivals = np.sort(arrivals)
    base = lindley_waits(arrivals, services)
    inflated = lindley_waits(arrivals, services * 1.5 + 0.1)
    assert np.all(inflated >= base - 1e-9)


@given(request_batch())
def test_first_request_never_waits(batch):
    arrivals, services = batch
    waits = lindley_waits(np.sort(arrivals), services)
    assert waits[0] == 0.0


@given(
    st.floats(0.01, 0.99, allow_nan=False),
    st.floats(1e-6, 10.0, allow_nan=False),
)
def test_mg1_wait_positive_below_saturation(rho, y):
    lam = rho / y
    w = mg1_mean_wait(lam, y, 2 * y * y)
    assert np.isfinite(w)
    assert w >= 0.0


@given(st.floats(1e-6, 10.0, allow_nan=False))
def test_mg1_wait_increases_with_load(y):
    lam_low = 0.2 / y
    lam_high = 0.8 / y
    assert mg1_mean_wait(lam_high, y, 2 * y * y) > mg1_mean_wait(
        lam_low, y, 2 * y * y
    )


# arrival values drawn from a tiny pool force ties, all-zero rows,
# repeated values and NaNs; free floats give rows without ties
arrival_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _tied_rows():
    """(arrivals, services) of shape (rows, width), services all distinct."""
    return st.tuples(st.integers(1, 4), st.integers(1, 48)).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(np.float64, shape, elements=arrival_values),
            st.just(np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)),
        )
    )


@given(_tied_rows())
@example(  # one wide all-tied row: a non-stable sort reorders it
    (np.zeros((1, 48)), np.arange(48, dtype=np.float64).reshape(1, 48))
)
@example(
    (
        np.tile([2.5, 0.0, 1.0], (3, 16)),
        np.arange(144, dtype=np.float64).reshape(3, 48),
    )
)
@settings(max_examples=200)
def test_fifo_sort_equals_stable_argsort_bytes(rows):
    """Tied requests are served in input order, bit for bit."""
    arrivals, services = rows
    order = np.argsort(arrivals, axis=-1, kind="stable")
    _, got_arrivals, got_services = fifo_sort(arrivals, services)
    assert (
        got_arrivals.tobytes()
        == np.take_along_axis(arrivals, order, axis=-1).tobytes()
    )
    assert (
        got_services.tobytes()
        == np.take_along_axis(services, order, axis=-1).tobytes()
    )


def _padded_waits(arrivals, services):
    """The Lindley pass the sorted-row kernel replaced, copied inline:
    gaps by ``np.diff``, waits computed on them, then zero-padded into a
    fresh full-width matrix."""
    gaps = np.diff(arrivals, axis=-1)
    np.subtract(services[..., :-1], gaps, out=gaps)
    c = np.cumsum(gaps, axis=-1, out=gaps)
    running_min = np.minimum(c, 0.0)
    np.minimum.accumulate(running_min, axis=-1, out=running_min)
    np.subtract(c, running_min, out=c)
    np.maximum(c, 0.0, out=c)
    full = np.zeros(arrivals.shape, dtype=np.float64)
    full[..., 1:] = c
    return full


def _random_service_rows():
    """(arrivals, services) of shape (rows, width), services random."""
    return st.tuples(st.integers(1, 4), st.integers(1, 48)).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(np.float64, shape, elements=arrival_values),
            hnp.arrays(
                np.float64,
                shape,
                elements=st.floats(0.0, 1e3, allow_nan=False),
            ),
        )
    )


@given(st.one_of(_tied_rows(), _random_service_rows()))
@example(  # an all-tied row takes fifo_sort's stable fallback
    (np.zeros((2, 16)), np.arange(32, dtype=np.float64).reshape(2, 16))
)
@settings(max_examples=300)
def test_sorted_kernel_on_fifo_sort_output_is_bit_identical(rows):
    """The kernel the simulator calls on ``fifo_sort`` output (no ordering
    scan) equals ``lindley_waits``, ``lindley_wait_sums`` and the
    zero-pad-and-copy pass it replaced, byte for byte."""
    _, arrivals, services = fifo_sort(*rows)
    waits = _lindley_sorted(arrivals, services)
    reference = _padded_waits(arrivals, services)
    assert waits.tobytes() == reference.tobytes()
    assert waits.tobytes() == lindley_waits(arrivals, services).tobytes()
    assert (
        waits.sum(axis=-1).tobytes()
        == lindley_wait_sums(arrivals, services).tobytes()
    )
    assert (
        lindley_wait_sums(arrivals, services).tobytes()
        == reference.sum(axis=-1).tobytes()
    )


def _bits(value):
    return np.float64(value).tobytes()


mg1_inputs = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@given(mg1_inputs, st.floats(0.0, 10.0, allow_nan=False), mg1_inputs)
@example(1.0, 1.0, 2.0)  # rho exactly 1: clamped to RHO_MAX
@example(0.5, 3.0, 18.0)  # saturated well past the clamp
@example(0.0, 0.0, 0.0)
@settings(max_examples=300)
def test_mg1_float_branch_equals_the_array_path(lam, y, m2):
    """Plain-float and ``np.float64`` inputs take the pure-float branch;
    0-d arrays take the array path.  Both give the same bits."""
    array_path = mg1_mean_wait(
        np.asarray(lam), np.asarray(y), np.asarray(m2), rho_max=RHO_MAX
    )
    for cast in (float, np.float64):
        got = mg1_mean_wait(cast(lam), cast(y), cast(m2), rho_max=RHO_MAX)
        assert type(got) is float
        assert _bits(got) == _bits(array_path)


@pytest.mark.parametrize("cast", [float, np.float64])
def test_mg1_float_branch_rejects_negative_inputs(cast):
    for args in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
        with pytest.raises(ValueError, match="non-negative"):
            mg1_mean_wait(*map(cast, args), rho_max=RHO_MAX)


@pytest.mark.parametrize("cast", [float, np.float64])
def test_mg1_theory_convention_still_diverges_for_floats(cast):
    """``rho_max=None`` keeps the array path: ``inf`` once saturated."""
    assert mg1_mean_wait(cast(1.0), cast(1.0), cast(2.0)) == float("inf")
    assert mg1_mean_wait(cast(2.0), cast(1.0), cast(2.0)) == float("inf")
    assert np.isfinite(mg1_mean_wait(cast(0.5), cast(1.0), cast(2.0)))
