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
    linear_fpt_density,
    residual_fgkey,
    subdensities,
    survival_probability,
)
from ifpt.core import ConvergenceError, NumericalConsistencyError
from ifpt.forward import (
    _WIDE,
    _band_strip,
    _propagate,
    block_crossing_symmetric,
    bridge_crossing_symmetric,
    propagated_subdensity,
)

CFG = QuadratureConfig()
UPPER = (1.0,)
CORRIDOR = (1.0, -1.0)


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
        state = next(subdensities(b, CFG))
        expect = 2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0
        assert state.survival == pytest.approx(expect, abs=1e-12)

    def test_constant_symmetric_survival(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 1)
        state = next(subdensities(b, CFG))
        expect = 1.0 - constant_boundary_cdf(1.0, 0.5, BoundarySide.SYMMETRIC)
        assert state.survival == pytest.approx(expect, abs=1e-12)

    def test_kernel_vanishes_at_boundary(self):
        val = _propagate(np.zeros(1), np.ones(1), np.array([1.0]), 1.0, 1.0, 0.5, UPPER)
        assert val[0] == 0.0

    def test_corridor_kernel_vanishes_at_both_walls(self):
        walls = np.array([-0.8, 0.8])
        val = _propagate(np.array([0.3]), np.ones(1), walls, 1.0, 0.8, 0.5, CORRIDOR)
        peak = 1.0 / math.sqrt(2.0 * math.pi * 0.5)
        assert np.all(np.abs(val) <= 1e-15 * peak)

    def test_sloped_first_segment(self):
        grid = DyadicGrid(1.0, 1)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.5 * grid.knots)
        state = next(subdensities(b, CFG))
        seg = LinearSegment(0.5, 1.0)
        expect = 1.0 - quad(lambda s: linear_fpt_density(seg, s), 1e-12, 0.5)[0]
        assert state.survival == pytest.approx(expect, abs=1e-10)


class TestPropagation:
    def test_far_boundary_preserves_survival(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        states = subdensities(b, CFG)
        state = next(states)
        out = next(states)
        assert out.survival == pytest.approx(state.survival, abs=1e-12)
        assert state.survival == pytest.approx(1.0, abs=1e-12)

    def test_composed_blocks_match_single_closed_form(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        *_, state = subdensities(b, CFG)
        assert state.survival == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-8)

    def test_zero_input_gives_zero_output(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = next(subdensities(b, CFG))
        dead = SubDensity(
            time=state.time,
            nodes=state.nodes,
            weights=state.weights,
            values=np.zeros_like(state.values),
        )
        out = propagated_subdensity(dead, 1.0, 1.0, b.grid.block_width, b.side, CFG)
        assert out.survival == 0.0
        assert np.all(out.values == 0.0)

    def test_half_steps_compose_to_full_block(self):
        grid = DyadicGrid(1.0, 3)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.3 * grid.knots)
        states = subdensities(b, CFG)
        next(states)
        state = next(states)
        dt = grid.block_width
        g0, g1 = float(b.knot_values[2]), float(b.knot_values[3])
        gm = float(b.upper(state.time + dt / 2.0))
        full = propagated_subdensity(state, g0, g1, dt, b.side, CFG)
        half = propagated_subdensity(state, g0, gm, dt / 2.0, b.side, CFG)
        half = propagated_subdensity(half, gm, g1, dt / 2.0, b.side, CFG)
        assert half.survival == pytest.approx(full.survival, abs=1e-9)


class TestSurvivalProbability:
    def test_constant_boundary_levels(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        assert survival_probability(b, 8, CFG) == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-10)

    def test_first_knot_equals_init_mass(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 3)
        assert survival_probability(b, 1, CFG) == next(subdensities(b, CFG)).survival

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
        state = next(subdensities(b, CFG))
        got = block_crossing_probability(b, -1e6, 1, CFG, state=state)
        assert got == pytest.approx(state.survival, rel=1e-12)

    def test_constant_boundary_block_value(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        got = block_crossing_probability(b, 0.0, 1, CFG)
        expect = (2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0) - (2.0 * ndtr(1.0) - 1.0)
        assert got == pytest.approx(expect, abs=1e-10)

    def test_mismatched_state_rejected(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = next(subdensities(b, CFG))
        with pytest.raises(ValueError):
            block_crossing_probability(b, 0.0, 2, CFG, state=state)


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


def _dense_reference(x_in, mass_in, x_out, g0, g1, dt, mirrors):
    # the side's literal dense kernel, in the place of ``_propagate``
    if mirrors == UPPER:
        return _dense_upper(x_in, mass_in, x_out, g0, g1, dt)
    return _literal_kernel(x_in, x_out, g0, g1, dt) @ mass_in


def _recorded_table(b, kernel, monkeypatch):
    """Distribution table of ``b`` with ``kernel`` in place of the forward
    module's ``_propagate``, and every array the kernel returned on the way."""
    import ifpt.forward as fw

    values = []

    def record(*args):
        values.append(kernel(*args))
        return values[-1]

    with monkeypatch.context() as mp:
        mp.setattr(fw, "_propagate", record)
        table = fpt_distribution_table(b, CFG)
    return values, table


class TestBandedPropagation:
    """The banded propagation against the literal dense kernel, on the upper
    side here and on the corridor in the subclass."""

    side = BoundarySide.UPPER_ONLY
    #: largest share of the input nodes one output node's band may span at n = 10
    band_share = 1 / 4

    def assert_matches_dense(self, b, monkeypatch):
        values, table = _recorded_table(b, _propagate, monkeypatch)
        dense_values, dense_table = _recorded_table(b, _dense_reference, monkeypatch)
        assert len(values) == b.grid.blocks
        for got, ref in zip(values, dense_values, strict=True):
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13
        assert np.max(np.abs(table.block_masses - dense_table.block_masses)) <= 1e-13

    @pytest.mark.parametrize("level", range(2, 9))
    def test_solved_exponential_boundary(self, level, monkeypatch):
        from ifpt import SolverConfig, construct_boundary

        sol = construct_boundary(exponential_target(1.0), 1.0, level, self.side, SolverConfig())
        self.assert_matches_dense(sol.boundary, monkeypatch)

    def test_boundary_dipping_below_zero(self, monkeypatch):
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(self.side, grid, 0.8 - 2.0 * grid.knots)
        assert b.knot_values[-1] < 0.0
        self.assert_matches_dense(b, monkeypatch)

    def test_steep_slopes(self, monkeypatch):
        # alternating slopes of +-48 on blocks of width 1/32
        grid = DyadicGrid(1.0, 5)
        knots = np.where(np.arange(grid.blocks + 1) % 2 == 0, 0.5, 2.0)
        b = PiecewiseLinearBoundary(self.side, grid, knots)
        self.assert_matches_dense(b, monkeypatch)

    def test_band_is_narrow_at_level_10(self):
        # the widest blocks are the last ones; their node sets depend only on
        # the window, so two steps from a point mass reach them
        dt = 2.0**-10
        point = SubDensity(
            time=1.0 - 2.0 * dt, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1)
        )
        before = propagated_subdensity(point, 1.0, 1.0, dt, self.side, CFG)
        after = propagated_subdensity(before, 1.0, 1.0, dt, self.side, CFG)
        idx, inside = _band_strip(before.nodes, after.nodes, dt)
        assert inside.any(axis=1).all()
        assert idx.shape[1] < before.nodes.size * self.band_share


class TestBandedCorridor(TestBandedPropagation):
    """The same checks on the corridor, where the dense reference is the
    literal image sum, plus corridors that need the both-walls remainder.
    The corridor's window is only 2g wide, so its band spans a larger share."""

    side = BoundarySide.SYMMETRIC
    band_share = 1 / 3

    # a corridor must stay open: test_closing_corridor takes this one's place
    test_boundary_dipping_below_zero = None

    def test_closing_corridor(self, monkeypatch):
        # from 0.8 in to 0.05, where 2 u**2 / dt = 0.32
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(self.side, grid, 0.8 - 0.75 * grid.knots)
        self.assert_matches_dense(b, monkeypatch)

    def test_narrow_corridor(self, monkeypatch):
        # 2 u**2 / dt = 5.12 at u = 0.2, dt = 1/64: every block runs the remainder
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(self.side, grid, np.full(grid.blocks + 1, 0.2))
        self.assert_matches_dense(b, monkeypatch)

    def test_contracting_corridor(self, monkeypatch):
        # from 1.5 down to 0.2: the remainder switches on in the last blocks
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(self.side, grid, 1.5 - 1.3 * grid.knots)
        self.assert_matches_dense(b, monkeypatch)


class TestConsistencyGuards:
    def test_survival_increase_detected(self, monkeypatch):
        # propagation is a contraction for any valid kernel, so force a bad
        # kernel to confirm the monotonicity guard fires
        import ifpt.forward as fw

        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=0.5)
        states = subdensities(b, CFG)
        next(states)
        real = fw._propagate
        monkeypatch.setattr(fw, "_propagate", lambda *a: 1.5 * real(*a))
        with pytest.raises(NumericalConsistencyError):
            next(states)


# ---------------------------------------------------------------------------
# the symmetric corridor against its image series written out in full

_LITERAL_K = np.arange(-30, 31)


def _literal_images(x0, u0, u1, dt):
    """Log-weights and centres of the direct and reflected images of a start
    at ``x0`` in the corridor (-u, u), u linear u0 -> u1 over ``dt``
    (Anderson 1960), for k = -30..30 along a new last axis."""
    mu = (u1 - u0) / dt
    x0 = np.asarray(x0, dtype=float)[..., None]
    k = _LITERAL_K
    direct = (-4.0 * k * mu * (x0 + 2.0 * k * u0), x0 + 4.0 * k * u0)
    reflected = (direct[0] - 2.0 * mu * (u0 - x0 - 4.0 * k * u0), 2.0 * u0 - x0 - 4.0 * k * u0)
    return direct, reflected


def _literal_inside(logw, centre, u1, dt):
    # exp(logw) * P(-u1 < N(centre, dt) < u1), from the near tail
    s = math.sqrt(dt)
    lo, hi = (-u1 - centre) / s, (u1 - centre) / s
    p = np.where(centre < 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    with np.errstate(divide="ignore"):
        return np.exp(logw + np.log(p))


def _literal_survival(x, u0, u1, dt):
    direct, reflected = _literal_images(x, u0, u1, dt)
    return np.sum(
        _literal_inside(*direct, u1, dt) - _literal_inside(*reflected, u1, dt), axis=-1
    )


def _literal_crossing(x, u0, u1, dt):
    # the two tails of the direct k = 0 image, plus the reflected images and
    # less the other direct ones inside the corridor: every part is taken
    # from its near tail, so tiny crossings keep their relative accuracy
    s = math.sqrt(dt)
    direct, reflected = _literal_images(x, u0, u1, dt)
    tails = ndtr((-u1 - x) / s) + ndtr((x - u1) / s)
    shifted = np.where(_LITERAL_K != 0, _literal_inside(*direct, u1, dt), 0.0)
    return tails + np.sum(_literal_inside(*reflected, u1, dt) - shifted, axis=-1)


def _literal_kernel(x_in, x_out, u0, u1, dt):
    y = x_out[:, None]
    total = np.zeros((x_out.size, x_in.size))
    for sign, (logw, centre) in zip((1.0, -1.0), _literal_images(x_in, u0, u1, dt)):
        # an image whose largest exponent over the outputs is below -746
        # underflows to exactly 0 everywhere, so skipping it changes no bit
        gap = np.clip(centre, x_out.min(), x_out.max()) - centre
        for k in np.flatnonzero(np.max(logw - gap**2 / (2.0 * dt), axis=0) > -746.0):
            total += sign * np.exp(logw[:, k] - (y - centre[:, k]) ** 2 / (2.0 * dt))
    return total / math.sqrt(2.0 * math.pi * dt)


def _literal_bridge_crossing(x0, x1, u0, u1, dt):
    # one minus the killed over the free transition density
    (la, ma), (lb, mb) = _literal_images(x0, u0, u1, dt)
    v2 = ((x1 - x0) ** 2)[..., None]
    y = np.asarray(x1)[..., None]
    terms = np.exp(la + (v2 - (y - ma) ** 2) / (2.0 * dt)) - np.exp(
        lb + (v2 - (y - mb) ** 2) / (2.0 * dt)
    )
    return 1.0 - terms.sum(axis=-1)


def _random_corridors(count, seed):
    rng = np.random.default_rng(seed)
    while count:
        dt = float(np.exp(rng.uniform(math.log(3e-5), math.log(0.5))))
        u0 = rng.uniform(0.2, 2.0)
        u1 = u0 + rng.uniform(-2.0, 2.0) * dt
        if u1 > 0.05:
            count -= 1
            yield u0, u1, dt


def _threshold_corridors(count, seed, side):
    """Random corridors with 2 min(u0, u1)**2 / dt within 2% below
    (``side`` = -1) or above (+1) the remainder threshold ``_WIDE``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dt = float(np.exp(rng.uniform(math.log(1e-4), math.log(0.3))))
        m = math.sqrt(_WIDE * dt / 2.0 * (1.0 + side * rng.uniform(1e-3, 0.02)))
        other = m + rng.uniform(0.0, 2.0) * dt
        yield (m, other, dt) if rng.random() < 0.5 else (other, m, dt)


class TestImageSeriesReference:
    """Every corridor function against the image sum over k = -30..30 with no
    early stop."""

    def test_block_survival_and_crossing(self):
        # the crossing against one minus the literal survival
        for u0, u1, dt in _random_corridors(40, seed=11):
            x = np.linspace(-u0, u0, 23)[1:-1]
            ref = _literal_survival(x, u0, u1, dt)
            assert np.max(np.abs(block_crossing_symmetric(x, u0, u1, dt) - (1.0 - ref))) <= 1e-13

    def test_block_crossing_relative(self):
        for u0, u1, dt in _random_corridors(40, seed=15):
            x = np.linspace(-u0, u0, 23)[1:-1]
            ref = _literal_crossing(x, u0, u1, dt)
            got = block_crossing_symmetric(x, u0, u1, dt)
            big = ref > 1e-250
            assert np.all(np.abs(got[big] - ref[big]) <= 1e-12 * ref[big])

    def test_bridge_crossing(self):
        rng = np.random.default_rng(12)
        for u0, u1, dt in _random_corridors(40, seed=13):
            x0 = rng.uniform(-u0, u0, 64)
            x1 = x0 + 2.0 * math.sqrt(dt) * rng.standard_normal(64)
            keep = np.abs(x1) < u1
            x0, x1 = x0[keep], x1[keep]
            got = bridge_crossing_symmetric(x0, x1, u0, u1, dt)
            ref = _literal_bridge_crossing(x0, x1, u0, u1, dt)
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13

    def test_kernel_matrix(self):
        for u0, u1, dt in _random_corridors(40, seed=14):
            x_in = np.linspace(-u0, u0, 41)[1:-1]
            x_out = np.linspace(-u1, u1, 37)[1:-1]
            got = _kernel_columns(x_in, x_out, u0, u1, dt)
            ref = _literal_kernel(x_in, x_out, u0, u1, dt)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_remainder_threshold(self, side):
        # the remainder runs below _WIDE and is skipped above it; either way
        # the kernel and the crossing keep the literal series' values
        for u0, u1, dt in _threshold_corridors(20, seed=16 + side, side=side):
            x_in = np.linspace(-u0, u0, 41)[1:-1]
            x_out = np.linspace(-u1, u1, 37)[1:-1]
            got = _kernel_columns(x_in, x_out, u0, u1, dt)
            ref = _literal_kernel(x_in, x_out, u0, u1, dt)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            crossing = block_crossing_symmetric(x_in, u0, u1, dt)
            assert np.max(np.abs(crossing - (1.0 - _literal_survival(x_in, u0, u1, dt)))) <= 1e-13
            ref = _literal_crossing(x_in, u0, u1, dt)
            assert np.all(np.abs(crossing - ref) <= 1e-12 * ref)

    def test_table_with_literal_kernel(self, monkeypatch):
        from ifpt import SolverConfig, construct_boundary

        sol = construct_boundary(
            exponential_target(1.0), 1.0, 6, BoundarySide.SYMMETRIC, SolverConfig()
        )
        b = sol.boundary
        values, table = _recorded_table(b, _propagate, monkeypatch)
        ref_values, ref_table = _recorded_table(b, _dense_reference, monkeypatch)
        assert len(values) == b.grid.blocks
        for got, ref in zip(values, ref_values, strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(table.block_masses - ref_table.block_masses)) <= 1e-13


def _kernel_columns(x_in, x_out, u0, u1, dt):
    # the banded corridor kernel as a matrix, one unit input mass at a time
    return np.column_stack(
        [_propagate(x_in, e, x_out, u0, u1, dt, CORRIDOR) for e in np.eye(x_in.size)]
    )


class TestImageSeriesBudget:
    """A corridor pinched from u0 = 1 to u1 = 1e-7 over dt = 0.5 needs more
    image pairs than the budget allows."""

    MESSAGE = "corridor nearly pinched: u0=1, u1=1e-07"

    def test_every_corridor_function_raises(self):
        x = np.linspace(-0.9, 0.9, 7)
        calls = (
            lambda: block_crossing_symmetric(x, 1.0, 1e-7, 0.5),
            lambda: bridge_crossing_symmetric(x, np.zeros_like(x), 1.0, 1e-7, 0.5),
            lambda: _propagate(x, np.ones_like(x), np.array([0.0]), 1.0, 1e-7, 0.5, CORRIDOR),
        )
        for call in calls:
            with pytest.raises(ConvergenceError, match=self.MESSAGE):
                call()
