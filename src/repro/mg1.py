"""The single shared M/G/1 mean-wait implementation (paper Eq. 5).

Every place the repo needs the Pollaczek-Khinchine mean waiting time —
the scalar time model (:mod:`repro.core.time_model`), the vectorized
engine (:mod:`repro.core.vectorized`) and the simulator-side queueing
theory helpers (:mod:`repro.simulate.queueing`) — routes through
:func:`mg1_mean_wait` below.  There is deliberately **exactly one**
definition of the formula in the code base; the regression tests pin the
three call sites to each other at 1e-9 relative tolerance.

Which convention is the paper's Eq. 5?
--------------------------------------

The paper writes the switch waiting time as ``T_w = λ·ŷ² / (1 − ρ)``.
The textbook Pollaczek-Khinchine result is

    W = λ·E[y²] / (2·(1 − ρ)),        ρ = λ·E[y]

with ``E[y²]`` the *second moment* of the service time.  The two agree
exactly when service times are **exponentially distributed**, where
``E[y²] = 2·ŷ²``:

    W = λ·(2·ŷ²) / (2·(1 − ρ)) = λ·ŷ² / (1 − ρ).

So Eq. 5 is P-K under exponential (M/M/1) service, *not* deterministic
service (``E[y²] = ŷ²`` would introduce a genuine ½ factor).  The model
call sites therefore pass ``second_moment = 2·ŷ²`` — numerically
identical to the paper's form, bit-for-bit, because scaling numerator
and denominator by two is exact in floating point.

Saturation semantics
--------------------

The predictor's fixed point needs a *finite* wait even when the offered
load transiently exceeds capacity, so the model clamps ``ρ`` at
``RHO_MAX`` and reports a ``saturated`` flag instead of diverging.  Pure
queueing theory (property tests validating the simulator's empirical
waits) wants the honest divergence.  Both behaviours live behind the
same formula: pass ``rho_max=RHO_MAX`` to clamp (the model convention),
or ``rho_max=None`` to get ``inf`` at ρ ≥ 1 (the theory convention).
"""

from __future__ import annotations

from typing import cast

import numpy as np
from numpy.typing import NDArray

#: Scalar-or-array input/output type: every helper below is elementwise.
FloatLike = float | NDArray[np.float64]

#: Elementwise boolean result of :func:`mg1_saturated`.
BoolLike = bool | NDArray[np.bool_]

#: Utilization clamp used by the predictor: an offered load above this
#: stretches T through the fixed point rather than producing a negative
#: (or infinite) waiting time.  Shared by the scalar and vectorized paths.
RHO_MAX = 0.985


def exponential_second_moment(mean_service: FloatLike) -> FloatLike:
    """``E[y²] = 2·ŷ²`` for exponentially distributed service times.

    This is the convention the paper's Eq. 5 corresponds to (see the
    module docstring); the model call sites use it so the P-K form below
    reproduces the paper's ``λ·ŷ²/(1−ρ)`` exactly.  The square is a
    product, not ``**``: NumPy squares an array by multiplying, while a
    float's ``**`` goes through the C library's ``pow``, which can land
    one ulp off ``ŷ·ŷ`` (it does at ``ŷ = 6e-5``); scalar and array
    callers must get the same bits.
    """
    return cast("FloatLike", 2.0 * (mean_service * mean_service))


def mg1_utilization(arrival_rate: FloatLike, mean_service: FloatLike) -> FloatLike:
    """Offered load ``ρ = λ·E[y]`` (unclamped; works elementwise)."""
    return cast("FloatLike", arrival_rate * mean_service)


def mg1_saturated(
    arrival_rate: FloatLike, mean_service: FloatLike, rho_max: float = RHO_MAX
) -> BoolLike:
    """True where the offered load reaches the clamp (``ρ ≥ rho_max``)."""
    return cast("BoolLike", mg1_utilization(arrival_rate, mean_service) >= rho_max)


def mg1_mean_wait(
    arrival_rate: FloatLike,
    mean_service: FloatLike,
    second_moment: FloatLike,
    rho_max: float | None = None,
) -> FloatLike:
    """Pollaczek-Khinchine M/G/1 mean waiting time (paper Eq. 5).

    ``T_w = λ·E[y²] / (2·(1−ρ))`` with ``ρ = λ·E[y]``.  Accepts floats or
    ``numpy`` arrays (elementwise); scalar inputs return a ``float``.

    Parameters
    ----------
    arrival_rate:
        ``λ`` — request arrival rate (1/s).
    mean_service:
        ``E[y] = ŷ`` — mean service time (s).
    second_moment:
        ``E[y²]`` — second moment of the service time (s²).  Pass
        :func:`exponential_second_moment` of ``ŷ`` for the paper's Eq. 5
        convention, ``ŷ²`` for deterministic service.
    rho_max:
        ``None`` (default) is the pure-theory convention: the wait is
        ``inf`` for a saturated queue (ρ ≥ 1).  A float clamps ρ at that
        value — the predictor convention, which always yields a finite
        wait; pair with :func:`mg1_saturated` to surface the clamp.
    """
    if (
        rho_max is not None
        and rho_max < 1.0
        and isinstance(arrival_rate, float)
        and isinstance(mean_service, float)
        and isinstance(second_moment, float)
    ):
        # the scalar fixed point's path: the array branch's IEEE
        # operations on plain floats (1 - rho > 0, so no division by zero)
        lam_f, y_f, m2_f = (
            float(arrival_rate),
            float(mean_service),
            float(second_moment),
        )
        if lam_f < 0 or y_f < 0 or m2_f < 0:
            raise ValueError(
                "rates, service times and moments must be non-negative"
            )
        rho_f = lam_f * y_f
        rho_f = rho_max if rho_f > rho_max else rho_f  # np.minimum keeps NaN
        return lam_f * m2_f / (2.0 * (1.0 - rho_f))
    lam = np.asarray(arrival_rate, dtype=np.float64)
    y = np.asarray(mean_service, dtype=np.float64)
    m2 = np.asarray(second_moment, dtype=np.float64)
    if np.any(lam < 0) or np.any(y < 0) or np.any(m2 < 0):
        raise ValueError("rates, service times and moments must be non-negative")
    rho = lam * y
    if rho_max is not None:
        rho = np.minimum(rho, rho_max)
        wait = lam * m2 / (2.0 * (1.0 - rho))
    else:
        saturated = rho >= 1.0
        # evaluate the quotient only where it is well defined
        safe_rho = np.where(saturated, 0.0, rho)
        wait = np.where(saturated, np.inf, lam * m2 / (2.0 * (1.0 - safe_rho)))
    if wait.ndim == 0:
        return float(wait)
    return cast("NDArray[np.float64]", wait)
