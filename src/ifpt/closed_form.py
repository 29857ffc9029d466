"""Exact kernels and series for Brownian first-passage problems with linear
boundaries: the one-sided linear-boundary hitting density, the crossing-
corrected transition kernel, constant-boundary hitting CDFs, and image-
expansion series for two-sided linear boundaries.

All functions are pure and safe for unrestricted concurrent use.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import ConvergenceError, NumericalConsistencyError, BoundarySide

__all__ = [
    "LinearSegment",
    "AndersonParams",
    "linear_fpt_density",
    "linear_transition_kernel",
    "linear_boundary_cdf",
    "constant_boundary_cdf",
    "anderson_two_sided_density",
    "symmetric_linear_density",
]

log = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Hard cap on series terms; tails decay like exp(-c * r**2 / t).
SERIES_MAX_TERMS = 64

#: The corridor's constant-boundary cdf sums its reflection series where
#: x / sqrt(t) is at least this, and its spectral series below.
_REFLECTION_MIN = 0.8

#: Both series stop at the first term below this: the reflection series
#: relative to its running sum, the spectral series absolutely.
_CONSTANT_CDF_TOL = 1e-14


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


@dataclass(frozen=True)
class LinearSegment:
    """Linear upper boundary ``intercept + slope*(t - start_time)`` seen from
    a process sitting at ``start_state`` at ``start_time``.

    ``intercept`` is the boundary value at the start; the process must start
    strictly below it.
    """

    slope: float
    intercept: float
    start_time: float = 0.0
    start_state: float = 0.0

    def __post_init__(self) -> None:
        if not self.intercept > self.start_state:
            raise ValueError("process must start strictly below the boundary")


def linear_fpt_density(seg: LinearSegment, t):
    """Hitting-time density of a linear upper boundary.

    For a standard Brownian motion started at ``seg.start_state`` the first
    passage to the line has the classical closed-form density

        (D - x0) / sqrt(2 pi s^3) * exp(-(D + C s - x0)^2 / (2 s))

    with s the elapsed time, C the slope and D the starting boundary value.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= seg.start_time):
        raise ValueError("evaluation time must exceed the segment start time")
    s = t_arr - seg.start_time
    gap = seg.intercept - seg.start_state
    out = gap / np.sqrt(2.0 * np.pi * s**3) * np.exp(
        -np.square(gap + seg.slope * s) / (2.0 * s)
    )
    return float(out) if t_arr.ndim == 0 else out


def linear_boundary_cdf(seg: LinearSegment, t):
    """Probability of hitting the linear boundary by time t.

    Closed form Phi(-(D + C s - x0)/sqrt(s)) + exp(-2 C (D - x0)) *
    Phi((C s - (D - x0))/sqrt(s)); reduces to 2 Phi(-D/sqrt(s)) for a
    constant boundary.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < seg.start_time):
        raise ValueError("evaluation time must not precede the segment start")
    s = t_arr - seg.start_time
    gap = seg.intercept - seg.start_state
    with np.errstate(divide="ignore", invalid="ignore"):
        rt = np.sqrt(s)
        out = ndtr(-(gap + seg.slope * s) / rt) + np.exp(-2.0 * seg.slope * gap) * ndtr(
            (seg.slope * s - gap) / rt
        )
    out = np.where(s == 0.0, 0.0, out)
    return float(out) if t_arr.ndim == 0 else out


def linear_transition_kernel(g0, g1, t0, x0, t1, x1):
    """Transition density of the motion absorbed at a linear boundary.

    The boundary runs linearly from value ``g0`` at time ``t0`` to ``g1`` at
    ``t1``.  The result is the free Gaussian kernel multiplied by the bridge
    non-crossing factor ``1 - exp(-2 (g0-x0)(g1-x1)/(t1-t0))``; it vanishes
    at ``x1 = g1`` and never exceeds the free kernel.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if not x0 < g0:
        raise ValueError("start state already at or above the boundary")
    dt = t1 - t0
    x1_arr = np.asarray(x1, dtype=float)
    gauss = np.exp(-np.square(x1_arr - x0) / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)
    # clamping covers x1 > g1, where the result is masked to 0 below
    factor = -np.expm1(np.minimum(-2.0 * (g0 - x0) * (g1 - x1_arr) / dt, 0.0))
    out = np.where(x1_arr <= g1, factor * gauss, 0.0)
    return float(out) if x1_arr.ndim == 0 else out


def _symmetric_constant_cdf_scalar(x: float, t: float) -> float:
    if t == 0.0:
        return 0.0
    a = x / math.sqrt(t)
    if a >= _REFLECTION_MIN:
        # reflection form: crossing probability as an alternating Phi series,
        # accurate relative to the (possibly tiny) result
        total = 0.0
        sign = 1.0
        for j in range(SERIES_MAX_TERMS):
            term = 4.0 * float(ndtr(-(2 * j + 1) * a))
            total += sign * term
            if term < _CONSTANT_CDF_TOL * max(total, 1e-300):
                return min(total, 1.0)
            sign = -sign
        raise ConvergenceError("constant-boundary reflection series did not converge")
    # spectral form, fast for a small (crossing probability near one)
    lam = math.pi**2 / (8.0 * x * x)
    surv = 0.0
    for j in range(SERIES_MAX_TERMS):
        q = 2 * j + 1
        term = ((-1) ** j) * 4.0 / (math.pi * q) * math.exp(-q * q * lam * t)
        surv += term
        if abs(term) < _CONSTANT_CDF_TOL:
            return min(max(1.0 - surv, 0.0), 1.0)
    raise ConvergenceError("constant-boundary spectral series did not converge")


def constant_boundary_cdf(x: float, t, side: BoundarySide):
    """CDF of the hitting time of a constant boundary at level ``x > 0``.

    UPPER_ONLY gives the reflection-principle value ``2 Phi(-x/sqrt(t))``;
    SYMMETRIC gives the first-exit CDF of the strip (-x, x) via an
    alternating reflection series (a spectral series takes over where the
    reflection series converges slowly).  Strictly decreasing in ``x`` for
    fixed ``t > 0``.
    """
    if not x > 0.0:
        raise ValueError("boundary level must be strictly positive")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be nonnegative")
    if side is BoundarySide.UPPER_ONLY:
        with np.errstate(divide="ignore"):
            out = np.where(t_arr == 0.0, 0.0, 2.0 * ndtr(-x / np.sqrt(t_arr)))
    else:
        f = np.vectorize(_symmetric_constant_cdf_scalar, otypes=[float])
        out = f(x, t_arr)
    return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class AndersonParams:
    """Two linear absorbing boundaries: upper ``a1 + b1 t`` with ``a1 > 0``
    and lower ``a2 + b2 t`` with ``a2 < 0`` and ``b1 >= b2``.

    ``series_tol`` controls truncation of the image expansion.
    """

    upper_intercept: float
    upper_slope: float
    lower_intercept: float
    lower_slope: float
    series_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.upper_intercept > 0.0:
            raise ValueError("upper intercept must be positive")
        if not self.lower_intercept < 0.0:
            raise ValueError("lower intercept must be negative")
        if self.upper_slope < self.lower_slope:
            raise ValueError("upper slope must dominate the lower slope")
        if not 0.0 < self.series_tol <= 1e-6:
            raise ValueError("series_tol must lie in (0, 1e-6]")


def _clamp_negative(value: float, tol: float, context: str) -> float:
    if value >= 0.0:
        return value
    if value < -10.0 * tol:
        raise NumericalConsistencyError(
            f"{context}: negative value {value:g} exceeds roundoff slack"
        )
    log.debug("%s: clamping tiny negative %g to 0", context, value)
    return 0.0


def anderson_two_sided_density(p: AndersonParams, t: float) -> float:
    """First-exit density of the corridor between two linear boundaries.

    Evaluates the exit-time density at ``t`` as two boundary-exit series.
    Factoring the leading Gaussian out of each sum leaves exponentially
    decaying correction terms; summation stops once a term group falls below
    ``p.series_tol`` and fails after ``SERIES_MAX_TERMS`` groups.

    The value at ``t = 0`` is exactly 0.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return 0.0
    a1, b1 = p.upper_intercept, p.upper_slope
    a2, b2 = p.lower_intercept, p.lower_slope
    gap = (b1 - b2) * t + (a1 - a2)  # upper minus lower boundary value at t
    rt = math.sqrt(t)
    lead_up = _phi((b1 * t + a1) / rt)
    lead_lo = _phi((b2 * t + a2) / rt)
    s_up = 0.0
    s_lo = 0.0
    for r in range(SERIES_MAX_TERMS):
        e_a = math.exp(-(2.0 * r / t) * ((r + 1) * a1 - r * a2) * gap)
        e_b = math.exp(-(2.0 * (r + 1) / t) * (r * a1 - (r + 1) * a2) * gap)
        e_c = math.exp(-(2.0 * r / t) * (r * a1 - (r + 1) * a2) * gap)
        e_d = math.exp(-(2.0 * (r + 1) / t) * ((r + 1) * a1 - r * a2) * gap)
        t1 = ((2 * r + 1) * a1 - 2 * r * a2) * e_a
        t2 = ((2 * r + 1) * a1 - (2 * r + 2) * a2) * e_b
        t3 = (2 * r * a1 - (2 * r + 1) * a2) * e_c
        t4 = ((2 * r + 2) * a1 - (2 * r + 1) * a2) * e_d
        s_up += t1 - t2
        s_lo += t3 - t4
        largest = max(abs(t1) * lead_up, abs(t2) * lead_up, abs(t3) * lead_lo, abs(t4) * lead_lo)
        if largest < p.series_tol:
            break
    else:
        raise ConvergenceError(
            f"two-sided exit series not converged after {SERIES_MAX_TERMS} terms"
        )
    value = (lead_up * s_up + lead_lo * s_lo) / t**1.5
    return _clamp_negative(value, p.series_tol, "two-sided exit density")


def symmetric_linear_density(
    C: float,
    D: float,
    t: float,
    x0: float = 0.0,
    t0: float = 0.0,
    series_tol: float = 1e-12,
) -> float:
    """First-exit density for the symmetric corridor ``(-(C t + D), C t + D)``.

    The process sits at ``x0`` at time ``t0`` with ``|x0|`` strictly inside
    the corridor; the density of the exit time is evaluated at ``t``.  The
    result depends on time only through the elapsed ``t - t0``, and the
    series is a direct sum of image Gaussians at shifted means, which makes
    it an independent evaluation route from the factored two-sided series.
    """
    if C < 0.0:
        raise ValueError("corridor slope must be nonnegative")
    if not D > 0.0:
        raise ValueError("corridor level must be positive")
    if t < t0:
        raise ValueError("evaluation time precedes the start time")
    g_start = C * t0 + D
    if not abs(x0) < g_start:
        raise ValueError("start state must lie strictly inside the corridor")
    tau = t - t0
    if tau == 0.0:
        return 0.0
    a1 = g_start - x0
    a2 = -g_start - x0
    width = a1 - a2  # 2 * g_start
    rt = math.sqrt(tau)
    quad = 2.0 * width * 2.0 * C  # image weight decay rate, k**2 coefficient
    lin = 2.0 * (a2 * C - a1 * (-C))  # = -4 C x0

    def term(k: int) -> float:
        la = -quad * k * k + lin * k
        up = (a1 - 2.0 * k * width) * _phi((a1 - 2.0 * k * width + C * tau) / rt)
        lo = (2.0 * k * width - a2) * _phi((a2 - 2.0 * k * width - C * tau) / rt)
        return math.exp(la) * (up + lo)

    total = term(0)
    for k in range(1, SERIES_MAX_TERMS):
        inc = term(k) + term(-k)
        total += inc
        if abs(inc) < series_tol * rt**3:
            break
    else:
        raise ConvergenceError(
            f"symmetric image series not converged after {SERIES_MAX_TERMS} terms"
        )
    return _clamp_negative(total / tau**1.5, series_tol, "symmetric exit density")
