import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from ifpt import (
    BoundarySide,
    DyadicGrid,
    LinearSegment,
    PiecewiseLinearBoundary,
    QuadratureConfig,
    SubDensity,
    block_crossing_probability,
    constant_boundary_cdf,
    exponential_target,
    fpt_distribution_table,
    init_subdensity,
    linear_fpt_density,
    propagate_subdensity,
    residual_fgkey,
    survival_probability,
)
from ifpt.core import NumericalConsistencyError
from ifpt.forward import (
    _band_strip,
    _propagate_upper,
    block_crossing_symmetric,
    block_crossing_upper,
    block_survival_symmetric,
    block_survival_upper,
    propagated_subdensity,
)

CFG = QuadratureConfig()


def const_boundary(side, level, value=1.0, horizon=1.0):
    grid = DyadicGrid(horizon, level)
    return PiecewiseLinearBoundary(side, grid, np.full(grid.blocks + 1, value))


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes_per_block=4)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_width=2.0)
        with pytest.raises(TypeError):
            QuadratureConfig(panel_rule="simpson")


class TestInitSubdensity:
    def test_constant_upper_survival(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        state = init_subdensity(b, CFG)
        expect = 2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0
        assert state.survival == pytest.approx(expect, abs=1e-12)

    def test_constant_symmetric_survival(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 1)
        state = init_subdensity(b, CFG)
        expect = 1.0 - constant_boundary_cdf(1.0, 0.5, BoundarySide.SYMMETRIC)
        assert state.survival == pytest.approx(expect, abs=1e-12)

    def test_kernel_vanishes_at_boundary(self):
        val = _propagate_upper(np.zeros(1), np.ones(1), np.array([1.0]), 1.0, 1.0, 0.5)
        assert val[0] == 0.0

    def test_sloped_first_segment(self):
        grid = DyadicGrid(1.0, 1)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.5 * grid.knots)
        state = init_subdensity(b, CFG)
        seg = LinearSegment(0.5, 1.0)
        expect = 1.0 - quad(lambda s: linear_fpt_density(seg, s), 1e-12, 0.5)[0]
        assert state.survival == pytest.approx(expect, abs=1e-10)


class TestPropagation:
    def test_far_boundary_preserves_survival(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        state = init_subdensity(b, CFG)
        out = propagate_subdensity(state, b, CFG)
        assert out.survival == pytest.approx(state.survival, abs=1e-12)
        assert state.survival == pytest.approx(1.0, abs=1e-12)

    def test_composed_blocks_match_single_closed_form(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = init_subdensity(b, CFG)
        for _ in range(3):
            state = propagate_subdensity(state, b, CFG)
        assert state.survival == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-8)

    def test_zero_input_gives_zero_output(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = init_subdensity(b, CFG)
        dead = SubDensity(
            time=state.time,
            nodes=state.nodes,
            weights=state.weights,
            values=np.zeros_like(state.values),
        )
        out = propagate_subdensity(dead, b, CFG)
        assert out.survival == 0.0
        assert np.all(out.values == 0.0)

    def test_half_steps_compose_to_full_block(self):
        grid = DyadicGrid(1.0, 3)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.3 * grid.knots)
        state = init_subdensity(b, CFG)
        state = propagate_subdensity(state, b, CFG)
        dt = grid.block_width
        g0, g1 = float(b.knot_values[2]), float(b.knot_values[3])
        gm = float(b.upper(state.time + dt / 2.0))
        full = propagated_subdensity(state, g0, g1, dt, b.side, CFG)
        half = propagated_subdensity(state, g0, gm, dt / 2.0, b.side, CFG)
        half = propagated_subdensity(half, gm, g1, dt / 2.0, b.side, CFG)
        assert half.survival == pytest.approx(full.survival, abs=1e-9)

    def test_state_off_grid_rejected(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = init_subdensity(b, CFG)
        shifted = SubDensity(
            time=state.time + 0.01,
            nodes=state.nodes,
            weights=state.weights,
            values=state.values,
        )
        with pytest.raises(ValueError):
            propagate_subdensity(shifted, b, CFG)


class TestSurvivalProbability:
    def test_constant_boundary_levels(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        assert survival_probability(b, 8, CFG) == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-10)

    def test_first_knot_equals_init_mass(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 3)
        assert survival_probability(b, 1, CFG) == init_subdensity(b, CFG).survival

    def test_linear_boundary_against_quadrature(self):
        grid = DyadicGrid(1.0, 4)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.5 * grid.knots)
        seg = LinearSegment(0.5, 1.0)
        expect = 1.0 - quad(lambda s: linear_fpt_density(seg, s), 1e-12, 1.0)[0]
        assert survival_probability(b, 16, CFG) == pytest.approx(expect, abs=1e-10)

    def test_index_bounds(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        with pytest.raises(ValueError):
            survival_probability(b, 0, CFG)
        with pytest.raises(ValueError):
            survival_probability(b, 5, CFG)


class TestBlockCrossing:
    def test_escaping_boundary_kills_crossing(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        assert block_crossing_probability(b, 1e6, 1, CFG) == pytest.approx(0.0, abs=1e-15)

    def test_plunging_boundary_absorbs_everything(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = init_subdensity(b, CFG)
        got = block_crossing_probability(b, -1e6, 1, CFG, state=state)
        assert got == pytest.approx(state.survival, rel=1e-12)

    def test_constant_boundary_block_value(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        got = block_crossing_probability(b, 0.0, 1, CFG)
        expect = (2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0) - (2.0 * ndtr(1.0) - 1.0)
        assert got == pytest.approx(expect, abs=1e-10)

    def test_mismatched_state_rejected(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = init_subdensity(b, CFG)
        with pytest.raises(ValueError):
            block_crossing_probability(b, 0.0, 2, CFG, state=state)

    def test_complement_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dt = rng.uniform(0.01, 0.5)
            g0 = rng.uniform(0.1, 2.0)
            g1 = g0 + rng.uniform(-3.0, 3.0) * dt
            x = np.linspace(min(g0, g1) - 4.0, g0 - 1e-9, 31)
            s = block_survival_upper(x, g0, g1, dt) + block_crossing_upper(x, g0, g1, dt)
            assert np.allclose(s, 1.0, atol=1e-13)
            u0 = rng.uniform(0.3, 2.0)
            u1 = u0 + rng.uniform(-1.0, 1.0) * dt
            if u1 > 0.05:
                xs = np.linspace(-u0 + 1e-6, u0 - 1e-6, 21)
                tot = block_survival_symmetric(xs, u0, u1, dt) + block_crossing_symmetric(
                    xs, u0, u1, dt
                )
                assert np.allclose(tot, 1.0, atol=1e-12)


class TestFptTable:
    def test_constant_boundary_cdf_at_horizon(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        table = fpt_distribution_table(b, CFG)
        assert table.cdf[-1] == pytest.approx(2.0 * ndtr(-1.0), abs=1e-10)
        assert table.cdf[0] == 0.0

    def test_far_boundary_all_zero(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        table = fpt_distribution_table(b, CFG)
        assert np.all(table.block_masses < 1e-12)

    def test_masses_telescope(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 3)
        table = fpt_distribution_table(b, CFG)
        assert float(table.block_masses.sum()) == pytest.approx(float(table.cdf[-1]), abs=1e-15)
        assert table.final_survival + float(table.cdf[-1]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert np.allclose(table.avg_density[1:], table.block_masses[1:] / b.grid.block_width)

    def test_csv_output(self, tmp_path):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        table = fpt_distribution_table(b, CFG)
        out = tmp_path / "fpt_table.csv"
        table.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,cdf,block_mass,avg_density"
        assert len(lines) == 4

    def test_symmetric_linear_boundary_against_series_quadrature(self):
        from ifpt import symmetric_linear_density

        grid = DyadicGrid(1.0, 4)
        b = PiecewiseLinearBoundary(BoundarySide.SYMMETRIC, grid, 1.0 + 0.5 * grid.knots)
        table = fpt_distribution_table(b, CFG)
        for m in range(grid.blocks):
            ref = quad(
                lambda s: symmetric_linear_density(0.5, 1.0, s),
                max(grid.knots[m], 1e-9),
                grid.knots[m + 1],
                epsabs=1e-13,
                epsrel=1e-13,
            )[0]
            assert float(table.block_masses[m + 1]) == pytest.approx(ref, abs=1e-6)


class TestResidualDiagnostic:
    def test_solved_boundary_residual_small(self):
        from ifpt import SolverConfig, construct_boundary

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 3, BoundarySide.UPPER_ONLY, SolverConfig())
        dt = sol.boundary.grid.block_width
        for m in (0, 3, 7):
            r = residual_fgkey(sol.boundary, d, m, CFG)
            assert abs(r) <= 1e-10 / dt + 1e-9

    def test_perturbed_slope_changes_sign_opposite(self):
        from ifpt import SolverConfig, construct_boundary

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 3, BoundarySide.UPPER_ONLY, SolverConfig())
        knots = sol.boundary.knot_values.copy()
        m = 4
        dt = sol.boundary.grid.block_width
        knots[m + 1 :] += 0.1 * dt  # steepen block m by +0.1
        perturbed = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, sol.boundary.grid, knots)
        assert residual_fgkey(perturbed, d, m, CFG) < 0.0

    def test_far_boundary_residual_is_minus_target_average(self):
        d = exponential_target(1.0)
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        dt = b.grid.block_width
        target_avg = float(d.cdf_at(2 * dt) - d.cdf_at(dt)) / dt
        assert residual_fgkey(b, d, 1, CFG) == pytest.approx(-target_avg, abs=1e-12)


def _dense_upper(x_in, mass_in, x_out, g0, g1, dt):
    # the one-sided kernel written out in full from the literal formula
    bridge = 1.0 - np.exp(-2.0 * np.outer(g1 - x_out, g0 - x_in) / dt)
    gauss = np.exp(-np.square(x_out[:, None] - x_in[None, :]) / (2.0 * dt))
    return (bridge * gauss / math.sqrt(2.0 * math.pi * dt)) @ mass_in


def _recorded_table(b, kernel, monkeypatch):
    """Distribution table of ``b`` with ``kernel`` propagating the upper side,
    and every density the kernel returned on the way."""
    import ifpt.forward as fw

    values = []

    def record(*args):
        values.append(kernel(*args))
        return values[-1]

    with monkeypatch.context() as mp:
        mp.setattr(fw, "_propagate_upper", record)
        table = fpt_distribution_table(b, CFG)
    return values, table


class TestBandedPropagation:
    """The banded upper-side propagation against the dense kernel."""

    def assert_matches_dense(self, b, monkeypatch):
        values, table = _recorded_table(b, _propagate_upper, monkeypatch)
        dense_values, dense_table = _recorded_table(b, _dense_upper, monkeypatch)
        assert len(values) == b.grid.blocks
        for got, ref in zip(values, dense_values, strict=True):
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13
        assert np.max(np.abs(table.block_masses - dense_table.block_masses)) <= 1e-13

    @pytest.mark.parametrize("level", range(2, 9))
    def test_solved_exponential_boundary(self, level, monkeypatch):
        from ifpt import SolverConfig, construct_boundary

        sol = construct_boundary(
            exponential_target(1.0), 1.0, level, BoundarySide.UPPER_ONLY, SolverConfig()
        )
        self.assert_matches_dense(sol.boundary, monkeypatch)

    def test_boundary_dipping_below_zero(self, monkeypatch):
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 0.8 - 2.0 * grid.knots)
        assert b.knot_values[-1] < 0.0
        self.assert_matches_dense(b, monkeypatch)

    def test_steep_slopes(self, monkeypatch):
        # alternating slopes of +-48 on blocks of width 1/32
        grid = DyadicGrid(1.0, 5)
        knots = np.where(np.arange(grid.blocks + 1) % 2 == 0, 0.5, 2.0)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, knots)
        self.assert_matches_dense(b, monkeypatch)

    def test_band_is_narrow_at_level_10(self):
        # the widest blocks are the last ones; their node sets depend only on
        # the window, so two steps from a point mass reach them
        dt = 2.0**-10
        side = BoundarySide.UPPER_ONLY
        point = SubDensity(
            time=1.0 - 2.0 * dt, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1)
        )
        before = propagated_subdensity(point, 1.0, 1.0, dt, side, CFG)
        after = propagated_subdensity(before, 1.0, 1.0, dt, side, CFG)
        idx, inside = _band_strip(before.nodes, after.nodes, dt)
        assert inside.any(axis=1).all()
        assert idx.shape[1] < before.nodes.size / 4


class TestConsistencyGuards:
    def test_survival_increase_detected(self, monkeypatch):
        # propagation is a contraction for any valid kernel, so force a bad
        # kernel to confirm the monotonicity guard fires
        import ifpt.forward as fw

        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=0.5)
        state = init_subdensity(b, CFG)
        real = fw._propagate_upper
        monkeypatch.setattr(fw, "_propagate_upper", lambda *a: 1.5 * real(*a))
        with pytest.raises(NumericalConsistencyError):
            propagate_subdensity(state, b, CFG)
