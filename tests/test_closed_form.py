import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from ifpt import (
    AndersonParams,
    BoundarySide,
    LinearSegment,
    anderson_two_sided_density,
    constant_boundary_cdf,
    linear_boundary_cdf,
    linear_fpt_density,
    linear_transition_kernel,
    symmetric_linear_density,
)
from ifpt.forward import block_crossing_symmetric

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestLinearFptDensity:
    def test_unit_level_at_unit_time(self):
        seg = LinearSegment(slope=0.0, intercept=1.0)
        assert linear_fpt_density(seg, 1.0) == pytest.approx(
            math.exp(-0.5) / SQRT_2PI, rel=1e-14
        )

    def test_vanishes_near_zero(self):
        seg = LinearSegment(slope=0.0, intercept=1.0)
        assert linear_fpt_density(seg, 1e-8) == 0.0

    def test_constant_boundary_is_hit_almost_surely(self):
        seg = LinearSegment(slope=0.0, intercept=1.0)
        total, err = quad(lambda s: linear_fpt_density(seg, s), 1e-4, np.inf, limit=400)
        total += linear_boundary_cdf(seg, 1e-4)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_and_precondition_errors(self):
        with pytest.raises(ValueError):
            linear_fpt_density(LinearSegment(0.0, 1.0, start_time=0.5), 0.5)
        with pytest.raises(ValueError):
            LinearSegment(slope=0.0, intercept=0.2, start_state=0.5)

    def test_cdf_matches_density_quadrature(self):
        seg = LinearSegment(slope=-0.4, intercept=0.8)
        q = quad(lambda s: linear_fpt_density(seg, s), 1e-12, 0.7, limit=200)[0]
        assert linear_boundary_cdf(seg, 0.7) == pytest.approx(q, abs=1e-10)


class TestLinearTransitionKernel:
    def test_bridge_example_value(self):
        got = linear_transition_kernel(1.0, 1.0, 0.0, 0.0, 1.0, 0.0)
        assert got == pytest.approx((1.0 - math.exp(-2.0)) / SQRT_2PI, rel=1e-14)

    def test_vanishes_on_the_boundary(self):
        assert linear_transition_kernel(1.0, 1.0, 0.0, 0.0, 1.0, 1.0) == 0.0

    def test_far_boundary_recovers_free_kernel(self):
        free = math.exp(-0.5 * 0.3**2) / SQRT_2PI
        got = linear_transition_kernel(1e8, 1e8, 0.0, 0.0, 1.0, 0.3)
        assert got == pytest.approx(free, rel=1e-14)

    def test_absorbed_start_rejected(self):
        with pytest.raises(ValueError):
            linear_transition_kernel(1.0, 1.0, 0.0, 1.0, 1.0, 0.0)

    @given(
        g0=st.floats(0.1, 5.0),
        g1=st.floats(-2.0, 5.0),
        x0=st.floats(-5.0, 0.0),
        x1=st.floats(-5.0, 5.0),
        dt=st.floats(0.01, 4.0),
    )
    def test_bounded_by_free_kernel(self, g0, g1, x0, x1, dt):
        free = math.exp(-((x1 - x0) ** 2) / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)
        got = linear_transition_kernel(g0, g1, 0.0, x0, dt, x1)
        assert 0.0 <= got <= free + 1e-15


# independent oracle: survival series over both-signed reflections
def _sym_crossing_oracle(x, t, terms=40):
    s = 0.0
    for k in range(-terms, terms + 1):
        s += (-1) ** k * (ndtr((2 * k + 1) * x / math.sqrt(t)) - ndtr((2 * k - 1) * x / math.sqrt(t)))
    return 1.0 - s


class TestConstantBoundaryCdf:
    def test_reflection_principle_value(self):
        assert constant_boundary_cdf(1.0, 1.0, BoundarySide.UPPER_ONLY) == pytest.approx(
            2.0 * ndtr(-1.0), rel=1e-15
        )

    def test_symmetric_value_against_survival_series(self):
        got = constant_boundary_cdf(1.0, 1.0, BoundarySide.SYMMETRIC)
        assert got == pytest.approx(_sym_crossing_oracle(1.0, 1.0), abs=1e-13)
        assert got == pytest.approx(0.6292225702, abs=1e-9)

    @pytest.mark.parametrize("side", list(BoundarySide))
    def test_zero_time(self, side):
        assert constant_boundary_cdf(2.0, 0.0, side) == 0.0

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            constant_boundary_cdf(0.0, 1.0, BoundarySide.UPPER_ONLY)

    @pytest.mark.parametrize("side", list(BoundarySide))
    def test_monotone_in_time_and_level(self, side):
        ts = np.linspace(0.05, 4.0, 40)
        vals = constant_boundary_cdf(0.8, ts, side)
        assert np.all(np.diff(vals) > 0)
        levels = np.linspace(0.2, 4.0, 40)
        by_level = np.array([constant_boundary_cdf(x, 1.0, side) for x in levels])
        assert np.all(np.diff(by_level) < 0)

    @pytest.mark.parametrize("side", list(BoundarySide))
    def test_limits_in_level(self, side):
        assert constant_boundary_cdf(1e-8, 1.0, side) == pytest.approx(1.0, abs=1e-7)
        assert constant_boundary_cdf(50.0, 1.0, side) == pytest.approx(0.0, abs=1e-300)

    def test_spectral_and_reflection_branches_agree(self):
        # the implementation switches forms around x/sqrt(t) = 0.8
        for x in (0.55, 0.79, 0.81, 1.1):
            got = constant_boundary_cdf(x, 1.0, BoundarySide.SYMMETRIC)
            assert got == pytest.approx(_sym_crossing_oracle(x, 1.0), abs=1e-12)


class TestAndersonTwoSided:
    def test_zero_at_time_zero(self):
        p = AndersonParams(1.0, 0.3, -1.0, -0.3)
        assert anderson_two_sided_density(p, 0.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AndersonParams(-1.0, 0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            AndersonParams(1.0, 0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            AndersonParams(1.0, -0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            AndersonParams(1.0, 0.0, -1.0, 0.0, series_tol=1e-3)

    def test_matches_derivative_of_constant_symmetric_cdf(self):
        p = AndersonParams(1.0, 0.0, -1.0, 0.0)
        h = 1e-5
        fd = (
            constant_boundary_cdf(1.0, 1.0 + h, BoundarySide.SYMMETRIC)
            - constant_boundary_cdf(1.0, 1.0 - h, BoundarySide.SYMMETRIC)
        ) / (2.0 * h)
        assert anderson_two_sided_density(p, 1.0) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("C", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
    def test_symmetric_specialization_agrees(self, C, D):
        p = AndersonParams(D, C, -D, -C)
        for t in np.linspace(0.04, 2.0, 50):
            a = anderson_two_sided_density(p, float(t))
            s = symmetric_linear_density(C, D, float(t))
            assert a == pytest.approx(s, abs=1e-10)

    def test_asymmetric_corridor_against_bridge_corrected_mc(self):
        # exits of the corridor (-0.7 - 0.2 t, 1.0 + 0.5 t): integrate the
        # series and compare with coarse-step simulation made exact on the
        # linear pieces by per-step bridge crossing sampling
        p = AndersonParams(1.0, 0.5, -0.7, -0.2)
        horizon = 1.0
        cdf = quad(lambda s: anderson_two_sided_density(p, s), 1e-9, horizon, limit=200)[0]

        rng = np.random.default_rng(42)
        n_paths, steps = 300_000, 8
        dt = horizon / steps
        upper = lambda s: 1.0 + 0.5 * s
        lower = lambda s: -0.7 - 0.2 * s
        x = np.zeros(n_paths)
        alive = np.ones(n_paths, dtype=bool)
        for k in range(steps):
            t0, t1 = k * dt, (k + 1) * dt
            z = rng.standard_normal(n_paths)
            u = rng.random(n_paths)
            idx = np.flatnonzero(alive)
            x1 = x[idx] + math.sqrt(dt) * z[idx]
            inside = (x1 < upper(t1)) & (x1 > lower(t1))
            # one-sided bridge factors for each wall; their overlap is far
            # below the statistical resolution of this test
            p_up = np.exp(-2.0 * (upper(t0) - x[idx]) * (upper(t1) - x1) / dt)
            p_lo = np.exp(-2.0 * (x[idx] - lower(t0)) * (x1 - lower(t1)) / dt)
            crossed = ~inside | (u[idx] < np.clip(p_up + p_lo, 0.0, 1.0))
            alive[idx[crossed]] = False
            keep = idx[~crossed]
            x[keep] = x1[~crossed]
        p_hat = 1.0 - alive.mean()
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
        assert abs(p_hat - cdf) <= 4.0 * se

    def test_truncation_tolerance_control(self):
        loose = AndersonParams(1.0, 0.2, -1.0, -0.2, series_tol=1e-8)
        tight = AndersonParams(1.0, 0.2, -1.0, -0.2, series_tol=1e-12)
        for t in (0.3, 1.0, 2.5):
            a = anderson_two_sided_density(loose, t)
            b = anderson_two_sided_density(tight, t)
            assert abs(a - b) <= 1e-8


class TestSymmetricLinearDensity:
    def test_zero_at_start_time(self):
        assert symmetric_linear_density(0.5, 1.0, 0.3, x0=0.2, t0=0.3) == 0.0

    def test_total_mass_with_survival_remainder(self):
        total = quad(lambda s: symmetric_linear_density(0.0, 1.0, s), 1e-9, 10.0, limit=400)[0]
        survival = 1.0 - constant_boundary_cdf(1.0, 10.0, BoundarySide.SYMMETRIC)
        assert total + survival == pytest.approx(1.0, abs=1e-6)

    def test_displaced_start_against_block_survival(self):
        # for one linear corridor segment, -d/dt of the one-block survival
        # from a displaced start is the conditional exit density
        C, D, x0, t0 = 0.4, 1.0, 0.35, 0.2
        u0 = C * t0 + D
        h = 1e-5

        def survival(t):
            return 1.0 - float(block_crossing_symmetric(np.array([x0]), u0, C * t + D, t - t0)[0])

        for t in (0.6, 1.1, 1.9):
            fd = -(survival(t + h) - survival(t - h)) / (2.0 * h)
            got = symmetric_linear_density(C, D, t, x0=x0, t0=t0)
            assert got == pytest.approx(fd, abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            symmetric_linear_density(-0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            symmetric_linear_density(0.0, 1.0, 0.5, x0=1.0)
        with pytest.raises(ValueError):
            symmetric_linear_density(0.0, 1.0, 0.2, t0=0.5)


class TestNegativeClampPolicy:
    def test_roundoff_negatives_are_clamped_and_counted(self, caplog):
        from ifpt.closed_form import _clamp_negative
        from ifpt import NumericalConsistencyError

        with caplog.at_level(logging.DEBUG, logger="ifpt.closed_form"):
            assert _clamp_negative(-5e-12, 1e-12, "test") == 0.0
        clamps = [r for r in caplog.records if r.name == "ifpt.closed_form"]
        assert len(clamps) == 1
        assert clamps[0].levelno == logging.DEBUG
        assert clamps[0].getMessage() == "test: clamping tiny negative -5e-12 to 0"
        with pytest.raises(NumericalConsistencyError):
            _clamp_negative(-1e-3, 1e-12, "test")
