import functools
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
    SubDensity,
    block_mass,
    constant_boundary_cdf,
    exponential_target,
    fpt_distribution_table,
    linear_fpt_density,
    subdensities,
)
from ifpt.core import ConvergenceError, NumericalConsistencyError
from ifpt.forward import (
    ORIGIN,
    _SLAB_NODES,
    _TOEPLITZ,
    _TRUNCATION_SIGMAS,
    _WIDE,
    _WG,
    _XG,
    _crossing,
    _lattice,
    _narrow,
    _nodes_weights,
    _propagate,
    block_crossing_symmetric,
    bridge_crossing_symmetric,
    crossing_mass,
    initial_subdensity,
    propagated_subdensity,
)

UPPER = (1.0,)
CORRIDOR = (1.0, -1.0)
SIDES = [BoundarySide.UPPER_ONLY, BoundarySide.SYMMETRIC]


def const_boundary(side, level, value=1.0, horizon=1.0):
    grid = DyadicGrid(horizon, level)
    return PiecewiseLinearBoundary(side, grid, np.full(grid.blocks + 1, value))


class TestInitSubdensity:
    def test_constant_upper_survival(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        state = next(subdensities(b))
        expect = 2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0
        assert state.survival == pytest.approx(expect, abs=1e-12)

    def test_constant_symmetric_survival(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 1)
        state = next(subdensities(b))
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
        state = next(subdensities(b))
        seg = LinearSegment(0.5, 1.0)
        expect = 1.0 - quad(lambda s: linear_fpt_density(seg, s), 1e-12, 0.5)[0]
        assert state.survival == pytest.approx(expect, abs=1e-10)


class TestPropagation:
    def test_far_boundary_preserves_survival(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        states = subdensities(b)
        state = next(states)
        out = next(states)
        assert out.survival == pytest.approx(state.survival, abs=1e-12)
        assert state.survival == pytest.approx(1.0, abs=1e-12)

    def test_composed_blocks_match_single_closed_form(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        *_, state = subdensities(b)
        assert state.survival == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-8)

    def test_zero_input_gives_zero_output(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        state = next(subdensities(b))
        dead = SubDensity(
            time=state.time,
            nodes=state.nodes,
            weights=state.weights,
            values=np.zeros_like(state.values),
        )
        out = propagated_subdensity(dead, 1.0, 1.0, b.grid.block_width, b.side)
        assert out.survival == 0.0
        assert np.all(out.values == 0.0)

    def test_half_steps_compose_to_full_block(self):
        grid = DyadicGrid(1.0, 3)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.3 * grid.knots)
        states = subdensities(b)
        next(states)
        state = next(states)
        dt = grid.block_width
        g0, g1 = float(b.knot_values[2]), float(b.knot_values[3])
        gm = float(b.upper(state.time + dt / 2.0))
        full = propagated_subdensity(state, g0, g1, dt, b.side)
        half = propagated_subdensity(state, g0, gm, dt / 2.0, b.side)
        half = propagated_subdensity(half, gm, g1, dt / 2.0, b.side)
        assert half.survival == pytest.approx(full.survival, abs=1e-9)


class TestSurvivalProbability:
    def test_constant_boundary_levels(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        *_, last = subdensities(b)
        assert last.survival == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=1e-10)

    def test_first_knot_equals_init_mass(self):
        # the first knot is ORIGIN pushed across block 0, however it is asked for
        for side in SIDES:
            grid = DyadicGrid(1.0, 3)
            b = PiecewiseLinearBoundary(side, grid, 1.0 + 0.3 * grid.knots)
            g0, g1, dt = float(b.knot_values[0]), float(b.knot_values[1]), grid.block_width
            states = [
                next(subdensities(b)),
                initial_subdensity(g0, g1, grid.knot(1), side),
                propagated_subdensity(ORIGIN, g0, g1, dt, side),
            ]
            first = states[0]
            assert first.time == grid.knot(1)
            assert first.cells is not None
            for other in states[1:]:
                assert other.time == first.time
                assert np.array_equal(other.nodes, first.nodes)
                assert np.array_equal(other.weights, first.weights)
                assert np.array_equal(other.values, first.values)
                assert other.cells == first.cells
                assert other.survival == first.survival

    def test_origin_is_a_read_only_unit_point_mass(self):
        assert ORIGIN.time == 0.0 and ORIGIN.survival == 1.0
        assert ORIGIN.nodes.tolist() == [0.0] and ORIGIN.cells is None
        for a in (ORIGIN.nodes, ORIGIN.weights, ORIGIN.values):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 2.0

    def test_linear_boundary_against_quadrature(self):
        grid = DyadicGrid(1.0, 4)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.5 * grid.knots)
        seg = LinearSegment(0.5, 1.0)
        expect = 1.0 - quad(lambda s: linear_fpt_density(seg, s), 1e-12, 1.0)[0]
        *_, last = subdensities(b)
        assert last.survival == pytest.approx(expect, abs=1e-10)


class TestBlockCrossing:
    # block 1 of a constant boundary at 1 continued with slope ``a``
    @staticmethod
    def _block_one(level, a):
        b = const_boundary(BoundarySide.UPPER_ONLY, level)
        state, dt = next(subdensities(b)), b.grid.block_width
        return state, crossing_mass(state, 1.0, 1.0 + a * dt, dt, b.side)[0]

    def test_escaping_boundary_kills_crossing(self):
        _, got = self._block_one(2, 1e6)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_plunging_boundary_absorbs_everything(self):
        state, got = self._block_one(2, -1e6)
        assert got == pytest.approx(state.survival, rel=1e-12)

    def test_constant_boundary_block_value(self):
        _, got = self._block_one(1, 0.0)
        expect = (2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0) - (2.0 * ndtr(1.0) - 1.0)
        assert got == pytest.approx(expect, abs=1e-10)


class TestCrossingSlope:
    """The crossing's derivative in g1, -2u*e/dt per wall (``crossing_mass``),
    against central differences of the crossing itself."""

    @staticmethod
    def _check(x, g0, g1, dt, mirrors):
        c, dc = _crossing(x, g0, g1, dt, mirrors)
        assert np.all((0.0 <= c) & (c <= 1.0))
        h = 1e-4 * math.sqrt(dt)
        up = _crossing(x, g0, g1 + h, dt, mirrors)[0]
        down = _crossing(x, g0, g1 - h, dt, mirrors)[0]
        central = (up - down) / (2.0 * h)
        assert np.all(dc <= 0.0)
        assert np.all(np.abs(central - dc) <= 1e-6 * np.abs(dc) + 1e-9 * np.max(np.abs(dc)))

    @pytest.mark.parametrize("mirrors", [UPPER, CORRIDOR], ids=["upper", "corridor"])
    def test_against_central_differences(self, mirrors):
        # slopes up to about 15/sqrt(dt), 4.7e3 at the smallest block
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(300):
            dt = float(10.0 ** rng.uniform(-5.0, 0.0))
            s = math.sqrt(dt)
            g0 = rng.uniform(1.0, 20.0) * s
            g1 = g0 + rng.uniform(-3.0, 5.0) * rng.choice([0.1, 1.0, 3.0]) * s
            if g1 <= 0.0 or _narrow(mirrors, g0, g1, dt):
                continue
            low = -min(g0, g1) if mirrors == CORRIDOR else min(g0, g1) - 8.0 * s
            x = np.linspace(low, min(g0, g1), 41)[1:-1]
            self._check(x, g0, g1, dt, mirrors)
            checked += 1
        assert checked > 150

    def test_corridor_just_wider_than_the_remainder_threshold(self):
        for u0, u1, dt in _threshold_corridors(20, seed=23, side=1):
            self._check(np.linspace(-u0, u0, 41)[1:-1], u0, u1, dt, CORRIDOR)

    def test_unavailable_on_a_narrow_or_closing_corridor(self):
        for u0, u1, dt in _threshold_corridors(20, seed=24, side=-1):
            x = np.linspace(-u0, u0, 41)[1:-1]
            c, dc = _crossing(x, u0, u1, dt, CORRIDOR)
            assert dc is None and np.all((0.0 <= c) & (c <= 1.0))
        c, dc = _crossing(np.zeros(3), 0.5, -0.1, 0.01, CORRIDOR)
        assert dc is None and np.array_equal(c, np.ones(3))

    @pytest.mark.parametrize("side", SIDES)
    def test_crossing_mass_slope_on_solved_states(self, side):
        b, states = _states(side, level=6)
        g, dt = b.knot_values, b.grid.block_width
        # from block 8 on: the corridor's first blocks are narrow
        for m in range(8, b.grid.blocks, 5):
            s, g0, g1 = states[m - 1], float(g[m]), float(g[m + 1])
            value, slope = crossing_mass(s, g0, g1, dt, side)
            assert 0.0 < value < s.survival
            h = 1e-4 * math.sqrt(dt)
            central = (crossing_mass(s, g0, g1 + h, dt, side)[0]
                       - crossing_mass(s, g0, g1 - h, dt, side)[0]) / (2.0 * h)
            assert slope < 0.0 and abs(central - slope) <= 1e-6 * abs(slope)

    def test_crossing_mass_slope_is_nan_on_a_narrow_corridor(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 6, value=0.2)
        state, dt = next(subdensities(b)), b.grid.block_width
        assert _narrow(CORRIDOR, 0.2, 0.21, dt)
        value, slope = crossing_mass(state, 0.2, 0.21, dt, b.side)
        assert 0.0 < value < state.survival
        assert math.isnan(slope)

    def test_crossing_mass_slope_is_nan_when_clipped(self, monkeypatch):
        # a node above the wall crosses with probability about 2, clipped to 1
        above = SubDensity(time=0.5, nodes=np.array([0.2, 0.7]), weights=np.full(2, 0.5),
                           values=np.ones(2))
        value, slope = crossing_mass(above, 0.5, 0.5, 0.01, BoundarySide.UPPER_ONLY)
        assert 0.5 < value < 0.51 and math.isnan(slope)
        # a mass above the survival is clipped to it
        import ifpt.forward as fw

        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=0.5)
        state = next(subdensities(b))
        monkeypatch.setattr(fw, "_crossing", lambda x, *a: (np.full(x.size, 2.0), np.ones(x.size)))
        value, slope = crossing_mass(state, 0.5, 0.5, b.grid.block_width, b.side)
        assert value == state.survival and math.isnan(slope)


def _full_crossing_sum(state, g0, g1, dt, side):
    """``crossing_mass`` with every node summed: the mass and its slope
    derivative, clipped as ``crossing_mass`` clips them."""
    mirrors = CORRIDOR if side is BoundarySide.SYMMETRIC else UPPER
    x, mass = state.folded if side is BoundarySide.SYMMETRIC else (state.nodes, state.mass)
    c, dc = _crossing(x, g0, g1, dt, mirrors)
    value = float(mass @ c)
    clipped = min(max(value, 0.0), state.survival)
    return clipped, (math.nan if dc is None or clipped != value else float(mass @ dc))


def _crossing_sizes(monkeypatch):
    """Spy on the forward module's ``_crossing``: the list it fills with
    the node count of each call."""
    import ifpt.forward as fw

    sizes = []

    def crossing(x, *args, real=fw._crossing):
        sizes.append(x.size)
        return real(x, *args)

    monkeypatch.setattr(fw, "_crossing", crossing)
    return sizes


class TestCrossingCut:
    """``crossing_mass`` sums the nodes within 12 standard deviations below
    the wall's start while the bound on the rest is at most 1e-16 of the
    kept sum and of its derivative, and every node otherwise."""

    @pytest.fixture(
        scope="class",
        params=[(side, n) for side in SIDES for n in (8, 10)],
        ids=["upper-8", "upper-10", "symmetric-8", "symmetric-10"],
    )
    def solved(self, request):
        from ifpt import construct_boundary

        side, n = request.param
        b = construct_boundary(exponential_target(1.0), 1.0, n, side).boundary
        return b, list(subdensities(b))

    def test_cut_matches_the_full_sum(self, solved, monkeypatch):
        # every block, at the solved slope and at trial slopes 10% either side
        b, states = solved
        g, dt = b.knot_values, b.grid.block_width
        sizes = _crossing_sizes(monkeypatch)
        calls = cut = 0
        for m, s in enumerate(states[:-1], start=1):
            g0 = float(g[m])
            for f in (1.0, 0.9, 1.1):
                g1 = g0 + f * float(b.slopes[m]) * dt
                del sizes[:]
                value, slope = crossing_mass(s, g0, g1, dt, b.side)
                ref_value, ref_slope = _full_crossing_sum(s, g0, g1, dt, b.side)
                assert abs(value - ref_value) <= 1e-15 * ref_value
                assert math.isnan(slope) == math.isnan(ref_slope)
                assert math.isnan(slope) or abs(slope - ref_slope) <= 1e-15 * abs(ref_slope)
                calls += 1
                cut += len(sizes) == 1 and sizes[0] < s.nodes.size
        # no fallback on exp(1): only the first blocks, whose windows hold no
        # node that far below the wall, sum every node
        assert cut >= calls - 3 * 3

    def test_line_target_falls_back_to_the_full_sum(self, line_target, monkeypatch):
        # the line target 1 + t/2: blocks 1 and 2 cross from about 10.7 standard
        # deviations below the wall, so their bound fails and every node is
        # summed, bit for bit as the full sum; the later blocks take the cut
        from ifpt import construct_boundary

        side = BoundarySide.UPPER_ONLY
        b = construct_boundary(line_target(0.5, 1.0), 1.0, 8, side).boundary
        g, dt = b.knot_values, b.grid.block_width
        sizes = _crossing_sizes(monkeypatch)
        for m, s in enumerate(subdensities(b), start=1):
            if m == b.grid.blocks:
                break
            g0, g1 = float(g[m]), float(g[m + 1])
            del sizes[:]
            got = crossing_mass(s, g0, g1, dt, side)
            if m <= 2:
                assert len(sizes) == 2 and sizes[0] < sizes[1] == s.nodes.size
                assert got == _full_crossing_sum(s, g0, g1, dt, side)
            else:
                assert len(sizes) == 1 and sizes[0] < s.nodes.size

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_mass_only_below_the_cut_is_summed(self, side):
        # a state with the mass of its middle cells only, all of it more than
        # 12 standard deviations below the wall: the kept sum is 0, so the
        # bound on the dropped part fails and every node is summed
        dt = 2.0**-8
        point = SubDensity(time=0.5 - dt, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1))
        state = propagated_subdensity(point, 1.0, 1.0, dt, side)
        values = np.where(np.abs(state.nodes) < 0.25, state.values, 0.0)
        middle = SubDensity(state.time, state.nodes, state.weights, values, state.cells)
        got = crossing_mass(middle, 1.0, 1.0, dt, side)
        assert got == _full_crossing_sum(middle, 1.0, 1.0, dt, side)
        assert 0.0 < got[0] < 1e-30

    def test_unfolded_corridor_state_keeps_its_mirror_wall(self):
        # a corridor state made outside the forward engine is summed over
        # all its nodes; those by the mirror wall lie below the cut of the
        # upper one but cross, so the bound must not drop them
        nodes = np.linspace(-0.99, 0.99, 199)
        state = SubDensity(time=0.5, nodes=nodes, weights=np.full(199, 0.01),
                           values=np.full(199, 0.5))
        got = crossing_mass(state, 1.0, 1.0, 1e-3, BoundarySide.SYMMETRIC)
        assert got == _full_crossing_sum(state, 1.0, 1.0, 1e-3, BoundarySide.SYMMETRIC)
        assert got[0] > 0.01

    def test_slope_bound_alone_can_take_the_full_sum(self, monkeypatch):
        # one node dropped and one kept, the kept one's mass set so that the
        # bound on the crossing, 2*c(x_0) times the survival (about the
        # dropped mass), holds and the one on its slope derivative,
        # 2*u_max/dt times larger, does not
        g0 = g1 = 1.0
        dt = 1e-3
        x = np.array([1.0 - 13.0 * math.sqrt(dt), 1.0 - 0.5 * math.sqrt(dt)])
        c, dc = _crossing(x, g0, g1, dt, UPPER)
        bound = 2.0 * c[0] * 0.5
        kept = 2.0 * bound / (1e-16 * c[1])
        assert bound <= 1e-16 * kept * c[1]
        assert bound * 2.0 * (g0 - x[0]) / dt > 1e-16 * kept * abs(dc[1])
        state = SubDensity(time=0.5, nodes=x, weights=np.ones(2), values=np.array([0.5, kept]))
        sizes = _crossing_sizes(monkeypatch)
        got = crossing_mass(state, g0, g1, dt, BoundarySide.UPPER_ONLY)
        assert sizes == [3, 2]
        assert got == _full_crossing_sum(state, g0, g1, dt, BoundarySide.UPPER_ONLY)


class TestFptTable:
    def test_constant_boundary_cdf_at_horizon(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        table = fpt_distribution_table(b)
        assert table.cdf[-1] == pytest.approx(2.0 * ndtr(-1.0), abs=1e-10)
        assert table.cdf[0] == 0.0

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    @pytest.mark.parametrize("level", [2, 4, 8])
    @pytest.mark.parametrize("g", [0.05, 0.2, 1.0, 2.0])
    def test_constant_boundary_cdf_at_every_knot(self, g, level, side):
        # g = 0.05 and 0.2 leave the corridor no full cell at these levels
        b = const_boundary(side, level, value=g)
        got = fpt_distribution_table(b).cdf
        expect = constant_boundary_cdf(g, b.grid.knots, side)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_far_boundary_all_zero(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        table = fpt_distribution_table(b)
        assert np.all(table.block_masses < 1e-12)

    def test_masses_telescope(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 3)
        table = fpt_distribution_table(b)
        assert float(table.block_masses.sum()) == pytest.approx(float(table.cdf[-1]), abs=1e-15)
        assert table.final_survival + float(table.cdf[-1]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(table.cdf) >= 0.0)
        assert np.allclose(table.avg_density[1:], table.block_masses[1:] / b.grid.block_width)

    def test_csv_output(self, tmp_path):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        table = fpt_distribution_table(b)
        out = tmp_path / "fpt_table.csv"
        table.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,cdf,block_mass,avg_density"
        assert len(lines) == 4

    def test_symmetric_linear_boundary_against_series_quadrature(self):
        from ifpt import symmetric_linear_density

        grid = DyadicGrid(1.0, 4)
        b = PiecewiseLinearBoundary(BoundarySide.SYMMETRIC, grid, 1.0 + 0.5 * grid.knots)
        table = fpt_distribution_table(b)
        for m in range(grid.blocks):
            ref = quad(
                lambda s: symmetric_linear_density(0.5, 1.0, s),
                max(grid.knots[m], 1e-9),
                grid.knots[m + 1],
                epsabs=1e-13,
                epsrel=1e-13,
            )[0]
            assert float(table.block_masses[m + 1]) == pytest.approx(ref, abs=1e-6)


def _residual(block_crossing, b, d, m):
    """Block-averaged defect between the realized crossing mass of block m
    and its target mass (near zero for a solved boundary)."""
    dt = b.grid.block_width
    if m == 0:
        realized = 1.0 - next(subdensities(b)).survival
    else:
        realized = block_crossing(b, m)
    return (realized - block_mass(d, m * dt, (m + 1) * dt)) / dt


class TestResidualDiagnostic:
    def test_solved_boundary_residual_small(self, block_crossing):
        from ifpt import construct_boundary

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 3, BoundarySide.UPPER_ONLY)
        dt = sol.boundary.grid.block_width
        for m in (0, 3, 7):
            r = _residual(block_crossing, sol.boundary, d, m)
            assert abs(r) <= 1e-10 / dt + 1e-9

    def test_perturbed_slope_changes_sign_opposite(self, block_crossing):
        from ifpt import construct_boundary

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 3, BoundarySide.UPPER_ONLY)
        knots = sol.boundary.knot_values.copy()
        m = 4
        dt = sol.boundary.grid.block_width
        knots[m + 1 :] += 0.1 * dt  # steepen block m by +0.1
        perturbed = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, sol.boundary.grid, knots)
        assert _residual(block_crossing, perturbed, d, m) < 0.0

    def test_far_boundary_residual_is_minus_target_average(self, block_crossing):
        d = exponential_target(1.0)
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        dt = b.grid.block_width
        target_avg = float(d.cdf_at(2 * dt) - d.cdf_at(dt)) / dt
        assert _residual(block_crossing, b, d, 1) == pytest.approx(-target_avg, abs=1e-12)


def _dense_upper(x_in, mass_in, x_out, g0, g1, dt):
    # the one-sided kernel written out in full from the literal formula
    bridge = 1.0 - np.exp(-2.0 * np.outer(g1 - x_out, g0 - x_in) / dt)
    gauss = np.exp(-np.square(x_out[:, None] - x_in[None, :]) / (2.0 * dt))
    return (bridge * gauss / math.sqrt(2.0 * math.pi * dt)) @ mass_in


def _dense_reference(x_in, mass_in, x_out, g0, g1, dt, mirrors, *cells):
    # the side's literal dense kernel, in the place of ``_propagate``; the
    # lattice cells of the node sets play no part in it
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
        table = fpt_distribution_table(b)
    return values, table


class TestBandedPropagation:
    """The propagation against the literal dense kernel, on the upper side
    here and on the corridor in the subclass."""

    side = BoundarySide.UPPER_ONLY
    #: largest share of inputs x outputs the near block may hold at n = 10
    near_share = 1 / 50

    def assert_matches_dense(self, b, monkeypatch):
        values, table = _recorded_table(b, _propagate, monkeypatch)
        dense_values, dense_table = _recorded_table(b, _dense_reference, monkeypatch)
        assert len(values) == b.grid.blocks
        for got, ref in zip(values, dense_values, strict=True):
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13
        assert np.max(np.abs(table.block_masses - dense_table.block_masses)) <= 1e-13

    @pytest.mark.parametrize("level", range(2, 9))
    def test_solved_exponential_boundary(self, level, monkeypatch):
        from ifpt import construct_boundary

        sol = construct_boundary(exponential_target(1.0), 1.0, level, self.side)
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

    def test_steep_slopes_on_a_wide_window(self, monkeypatch):
        # the same slopes between 4 and 5.5, so that on both sides the
        # Toeplitz product serves the rows far from the walls and the dense
        # block reaches 9 sigma + |d| below them
        grid = DyadicGrid(1.0, 5)
        knots = np.where(np.arange(grid.blocks + 1) % 2 == 0, 4.0, 5.5)
        b = PiecewiseLinearBoundary(self.side, grid, knots)
        self.assert_matches_dense(b, monkeypatch)

    def last_blocks(self, level, g=1.0):
        # the widest blocks are the last ones; their node sets depend only on
        # the window, so two steps from a point mass reach them
        dt = 2.0**-level
        point = SubDensity(
            time=1.0 - 2.0 * dt, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1)
        )
        before = propagated_subdensity(point, g, g, dt, self.side)
        return before, dt

    def near_blocks(self, state, g0, g1, dt, monkeypatch):
        """The propagated state, and the (inputs, outputs) of each slab of
        the near block: the arguments the wall factor was evaluated on."""
        import ifpt.forward as fw

        slabs = []

        def wall_factor(y, x, *args, real=fw._wall_factor):
            slabs.append((y, x))
            return real(y, x, *args)

        with monkeypatch.context() as mp:
            mp.setattr(fw, "_wall_factor", wall_factor)
            after = propagated_subdensity(state, g0, g1, dt, self.side)
        return after, slabs

    def test_near_block_is_small_at_level_10(self, monkeypatch):
        before, dt = self.last_blocks(10)
        after, slabs = self.near_blocks(before, 1.0, 1.0, dt, monkeypatch)
        reach = 9.0 * math.sqrt(dt)
        for y, x in slabs:
            # every output of the block has an input within its band
            assert np.all(np.min(np.abs(x - y), axis=1) <= reach)
        entries = sum(np.broadcast(y, x).size for y, x in slabs)
        assert entries < self.near_share * before.nodes.size * after.nodes.size

    def test_near_block_entries_do_not_grow_with_level(self, monkeypatch):
        # from n = 10 to 12 the last block's nodes double, while the entries
        # evaluated one by one stay near the walls
        nodes, entries = [], []
        for level in (10, 12):
            before, dt = self.last_blocks(level)
            after, slabs = self.near_blocks(before, 1.0, 1.0, dt, monkeypatch)
            nodes.append(after.nodes.size)
            entries.append(sum(np.broadcast(y, x).size for y, x in slabs))
        assert 1.8 < nodes[1] / nodes[0] < 2.2
        assert entries[1] < 1.25 * entries[0]

    def test_wall_factor_evaluates_only_the_near_block(self, monkeypatch):
        # each dense block evaluates the wall factor once per slab of its
        # outputs, on the inputs the rule names and on no other entry: those
        # within 9 standard deviations of the slab's ends, and when the
        # Toeplitz product took the full rows, none below the walls' zone
        # and the band of the output's wall piece
        import ifpt.forward as fw
        from ifpt import construct_boundary

        b = construct_boundary(exponential_target(1.0), 1.0, 8, self.side).boundary
        calls = []

        def near_block(x_in, mass_in, x_out, g0, g1, dt, mirrors, direct=None,
                       real=fw._near_block):
            calls.append({"args": (x_in, x_out, g0, g1, dt, direct), "entries": []})
            return real(x_in, mass_in, x_out, g0, g1, dt, mirrors, direct)

        def wall_factor(y, x, *args, real=fw._wall_factor):
            calls[-1]["entries"].append(np.broadcast(y, x).size)
            return real(y, x, *args)

        with monkeypatch.context() as mp:
            mp.setattr(fw, "_near_block", near_block)
            mp.setattr(fw, "_wall_factor", wall_factor)
            fpt_distribution_table(b)
        assert len(calls) > b.grid.blocks * 0.9
        routed = 0
        for c in calls:
            y, x_out, g0, g1, dt, direct = c["args"]
            reach = 9.0 * math.sqrt(dt)
            floor = -math.inf
            if direct is not None:
                routed += 1
                rows, zone = direct[0], reach + abs(g1 - g0)
                floor = g0 - zone
                if rows < x_out.size:
                    floor = min(floor, x_out[rows] - reach)
                if self.side is BoundarySide.SYMMETRIC and x_out[0] - reach < zone - g0:
                    floor = -math.inf
            expect = []
            for start in range(0, x_out.size, _SLAB_NODES):
                x = x_out[start : start + _SLAB_NODES]
                # written as two comparisons: lattice nodes three cells
                # apart sit exactly 9 standard deviations apart
                inputs = np.count_nonzero((y >= max(x[0] - reach, floor)) & (y <= x[-1] + reach))
                expect.append(x.size * inputs)
            assert c["entries"] == expect
        assert routed > b.grid.blocks // 2

    def test_step_off_the_lattice(self, monkeypatch):
        # a state on the level-n lattice pushed across a block of width
        # 2 dt, whose lattice is sqrt(2) times as wide: no Toeplitz product,
        # the near block takes the whole window (on the corridor, with the
        # both-walls remainder at n = 6..7)
        import ifpt.forward as fw

        for level in range(6, 11):
            before, dt = self.last_blocks(level, g=0.5)
            args = (before, 0.5, 0.45, 2.0 * dt, self.side)
            got = propagated_subdensity(*args)
            with monkeypatch.context() as mp:
                mp.setattr(fw, "_propagate", _dense_reference)
                ref = propagated_subdensity(*args)
            assert np.array_equal(got.nodes, ref.nodes)
            assert np.max(np.abs(got.values - ref.values)) <= 1e-13

    def test_step_off_the_lattice_memory_at_level_14(self):
        import tracemalloc

        before, dt = self.last_blocks(14)
        tracemalloc.start()
        try:
            after = propagated_subdensity(before, 1.0, 1.0, 2.0 * dt, self.side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert after.cells.width != before.cells.width
        assert peak <= 16 * 2**20


class TestBandedCorridor(TestBandedPropagation):
    """The same checks on the corridor, where the dense reference is the
    literal image sum, plus corridors that need the both-walls remainder.
    The corridor's window is only 2g wide, so its near block is a larger
    share."""

    side = BoundarySide.SYMMETRIC
    near_share = 1 / 5

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


def _states(side, level=8):
    from ifpt import construct_boundary

    sol = construct_boundary(exponential_target(1.0), 1.0, level, side)
    return sol.boundary, list(subdensities(sol.boundary))


class TestLattice:
    """Node layout of the lattice-anchored panels on solved n = 8 boundaries."""

    @pytest.fixture(scope="class", params=SIDES, ids=["upper", "symmetric"])
    def solved(self, request):
        return _states(request.param)

    def test_shared_cells_are_bit_identical(self, solved):
        _, states = solved
        shared = 0
        for a, b in zip(states, states[1:]):
            if min(a.cells.count, b.cells.count) == 0:
                continue
            lo = max(a.cells.first_cell, b.cells.first_cell)
            hi = min(a.cells.first_cell + a.cells.count, b.cells.first_cell + b.cells.count)
            pick = [
                s.nodes[s.cells.first_node + 12 * (lo - s.cells.first_cell) :][: 12 * (hi - lo)]
                for s in (a, b)
            ]
            assert hi > lo and np.array_equal(pick[0], pick[1])
            shared += 1
        assert shared > 200

    def test_weights_sum_to_window_width(self, solved):
        b, states = solved
        h = 3.0 * math.sqrt(b.grid.block_width)
        for m, s in enumerate(states, start=1):
            reach = math.ceil(_TRUNCATION_SIGMAS * math.sqrt(s.time) / h) * h
            hi = min(float(b.knot_values[m]), reach)
            lo = -hi if b.side is BoundarySide.SYMMETRIC else -reach
            assert abs(float(s.weights.sum()) - (hi - lo)) <= 1e-12
            assert lo < s.nodes[0] and s.nodes[-1] < hi
            if hi < reach:
                # the piece the wall cuts is between h/4 and 5h/4 wide; on a
                # corridor with no full cell it is all of [0, g]
                piece = hi - (s.cells.first_cell + s.cells.count) * h
                assert 0.0 < piece < 1.25 * h
                no_cell = b.side is BoundarySide.SYMMETRIC and s.cells.count == 0
                assert no_cell or piece >= h / 4.0

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_narrow_window_is_on_the_lattice(self, side):
        # the first knot at n = 8 has a window of 6 full cells, 9 standard
        # deviations either side, below a wall 5.3 cells out
        dt = 2.0**-8
        h = 3.0 * math.sqrt(dt)
        point = SubDensity(time=0.0, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1))
        first = propagated_subdensity(point, 1.0, 1.0, dt, side)
        assert (first.cells.first_cell, first.cells.count) == (-3, 6)
        assert first.nodes.size == 72
        assert abs(float(first.weights.sum()) - 6.0 * h) <= 1e-12
        # at t = 1 the window holds 48 full cells above, 10 on the corridor
        point = SubDensity(time=1.0 - dt, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1))
        wide = propagated_subdensity(point, 1.0, 1.0, dt, side)
        assert wide.cells.count == (48 if side is BoundarySide.UPPER_ONLY else 10)

    @pytest.mark.parametrize("g", [0.04, 0.2])
    def test_corridor_without_full_cells(self, g):
        # h = 0.1875 at n = 8: below h/4 no cell fits, and below 5h/4 the
        # piece next to the wall would be narrower than h/4, so the window
        # is the two graded pieces [-g, 0] and [0, g]
        dt = 2.0**-8
        point = SubDensity(time=0.0, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1))
        s = propagated_subdensity(point, g, g, dt, BoundarySide.SYMMETRIC)
        assert s.cells.count == 0 and s.cells.first_node == 36
        assert s.nodes.size == 72
        assert np.array_equal(s.nodes, -s.nodes[::-1])
        assert np.array_equal(s.weights, s.weights[::-1])
        assert -g < s.nodes[0] and s.nodes[35] < 0.0 < s.nodes[36] and s.nodes[-1] < g
        assert abs(float(s.weights.sum()) - 2.0 * g) <= 1e-15

    @pytest.mark.parametrize("level", [7, 8, 12])
    def test_toeplitz_blocks_are_the_gaussian_on_lattice_nodes(self, level):
        # the cells next to the origin of a level-``level`` lattice, cells
        # o = -3..3 apart; the float64 nodes sit up to half an ulp of x from
        # their lattice positions, which bounds the agreement
        dt = 2.0**-level
        h = 3.0 * math.sqrt(dt)

        def cell(k):
            return (k + 0.5) * h + 0.5 * h * _XG

        for k in (-1, 0):
            for o in range(-3, 4):
                x, y = cell(k), cell(k - o)
                literal = np.exp(-np.square(x[:, None] - y[None, :]) / (2.0 * dt))
                block = _TOEPLITZ[12 * (3 - o) : 12 * (4 - o)].T
                assert np.max(np.abs(block - literal)) <= 4.0 * np.finfo(float).eps


def _window_formula(corridor, g, t, dt):
    """The window's nodes and weights written out cell by cell, as
    ``_nodes_weights`` lays them out."""
    from ifpt.forward import _PIECE_W, _PIECE_X

    h = 3.0 * math.sqrt(dt)
    reach = math.ceil(_TRUNCATION_SIGMAS * math.sqrt(t) / h)
    walled = g <= reach * h
    k1 = math.floor(g / h) if walled else reach
    if walled and g - k1 * h < 0.25 * h and k1 > (0 if corridor else -reach):
        k1 -= 1
    k = np.arange(0 if corridor else -reach, k1, dtype=float)[:, None]
    x = [((k + 0.5) * h + (0.5 * h) * _XG).ravel()]
    w = [np.broadcast_to((0.5 * h) * _WG, (k.size, 12)).ravel()]
    if walled:
        a = k1 * h
        x.append(a + (g - a) * _PIECE_X)
        w.append((g - a) * _PIECE_W)
    return np.concatenate(x), np.concatenate(w)


class TestLatticeCache:
    """The full cells' nodes and weights are sliced from one cached lattice."""

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_nodes_weights_are_the_cell_formula(self, side):
        corridor = side is BoundarySide.SYMMETRIC
        windows = 0
        for level in range(1, 15):
            dt = 2.0**-level
            for t in (dt, 2.0 * dt, 0.3, 1.0, 12.0):
                for g in (0.02, 0.3, 1.0, 2.5, 40.0) + (() if corridor else (-0.4,)):
                    quad = _nodes_weights(corridor, g, t, dt)
                    if quad is None:
                        continue
                    x, w = _window_formula(corridor, g, t, dt)
                    assert np.array_equal(quad[0], x) and np.array_equal(quad[1], w)
                    windows += 1
        assert windows > 300

    def test_cache_stays_bounded_across_a_ladder(self):
        # a 3..14 ladder's windows, each level from its first knot to the
        # horizon: one lattice is kept, at most twice as wide as the widest
        # window of its level
        for level in range(3, 15):
            dt = 2.0**-level
            h = 3.0 * math.sqrt(dt)
            reach = 0
            for t in np.linspace(dt, 1.0, 9):
                for corridor in (False, True):
                    _nodes_weights(corridor, 1.0, float(t), dt)
                reach = max(reach, math.ceil(_TRUNCATION_SIGMAS * math.sqrt(t) / h))
                assert _lattice.cache_info().currsize == 1
            r = 1 << (reach - 1).bit_length()
            hits = _lattice.cache_info().hits
            x, _ = _lattice(h, r)
            assert _lattice.cache_info().hits == hits + 1
            assert reach * 24 <= x.size < 2 * reach * 24


@functools.cache
def _routes(side, level, boundary="exp1"):
    """The solved exp(1) boundary at ``level`` (or with ``boundary="steep"``,
    knots alternating 4 and 5.5, a corridor wide enough that the Toeplitz
    product serves the rows near its middle) and, for each propagation of its forward
    pass, the arguments of ``_propagate`` with those of the ``_toeplitz``
    and ``_near_block`` calls it made."""
    import ifpt.forward as fw
    from ifpt import construct_boundary

    if boundary == "steep":
        grid = DyadicGrid(1.0, level)
        knots = np.where(np.arange(grid.blocks + 1) % 2 == 0, 4.0, 5.5)
        b = PiecewiseLinearBoundary(side, grid, knots)
    else:
        b = construct_boundary(exponential_target(1.0), 1.0, level, side).boundary
    props = []

    def spy(name):
        real = getattr(fw, name)

        def call(*args):
            props[-1][name].append(args)
            return real(*args)

        return call

    def propagate(*args, real=fw._propagate):
        props.append({"args": args, "_toeplitz": [], "_near_block": []})
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fw, "_toeplitz", spy("_toeplitz"))
        mp.setattr(fw, "_near_block", spy("_near_block"))
        mp.setattr(fw, "_propagate", propagate)
        fpt_distribution_table(b)
    return b, props


class TestRoutes:
    """Each full output cell of a propagation takes the Toeplitz product from
    every full input cell, and the rows by the walls one dense block that
    less the free Gaussian the product summed; a window without full cells,
    a narrow corridor and a state off the lattice take the dense block
    alone."""

    @pytest.mark.parametrize("level", [8, 10])
    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_one_route_per_output_node(self, side, level):
        b, props = _routes(side, level)
        assert self.routed(props)[0] > len(props) // 2

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_steep_slopes_widen_the_dense_rows(self, side):
        # slopes of +-48 at n = 5: |d| is 8.5 standard deviations, and on the
        # falling blocks the zone of x = g1 reaches below the rows by the
        # input's wall piece
        _, props = _routes(side, 5, "steep")
        routed, widened = self.routed(props)
        assert routed > 0 and widened > 0

    @staticmethod
    def routed(props):
        """Check each propagation's routes against the rule; the number of
        them that took the Toeplitz product, and of those on the lattice
        whose dense rows reach below the band of the input's wall piece."""
        assert props
        routed = widened = 0
        for p in props:
            x_in, mass_in, x_out, g0, g1, dt, mirrors, cells_in, cells_out = p["args"]
            on_lattice = (
                cells_in is not None
                and cells_in.width == cells_out.width
                and cells_out.count > 0
                and not _narrow(mirrors, g0, g1, dt)
            )
            start = 0
            if on_lattice:
                # the dense rows: the output's wall piece, the full rows less
                # than 9 sigma + |d| below a wall, and the rows within 9
                # sigma of an input wall piece; they are a suffix
                lo = cells_in.first_node
                hi = lo + 12 * cells_in.count
                reach, n = 9.0 * math.sqrt(dt), 12 * cells_out.count
                zone = reach + abs(g1 - g0)
                dense = np.arange(x_out.size) >= n
                for s in mirrors:
                    dense |= g1 - s * x_out < zone
                by_piece = np.zeros(x_out.size, dtype=bool)
                if hi < x_in.size:
                    by_piece |= x_out > x_in[hi] - reach
                if lo > 0:
                    by_piece |= x_out < x_in[lo - 1] + reach
                widened += bool(np.any(dense & ~by_piece & (np.arange(x_out.size) < n)))
                dense |= by_piece
                start = x_out.size - np.count_nonzero(dense)
                assert np.all(dense[start:])
            if start == 0:
                # the dense block alone, over every output
                assert p["_toeplitz"] == []
                (near,) = p["_near_block"]
                assert near[2] is x_out and len(near) == 7
                continue
            routed += 1
            # every full output cell, from every full input cell
            (toeplitz,) = p["_toeplitz"]
            assert np.array_equal(toeplitz[0], mass_in[lo:hi])
            assert toeplitz[1:] == (cells_in.first_cell, cells_out.first_cell, cells_out.count)
            if start == x_out.size:
                assert p["_near_block"] == []
                continue
            (near,) = p["_near_block"]
            assert near[0] is x_in and near[1] is mass_in
            assert np.array_equal(near[2], x_out[start:])
            assert near[7] == (n - start, lo, hi)
        return routed, widened

    @pytest.mark.parametrize("side", SIDES, ids=["upper", "symmetric"])
    def test_toeplitz_only_rows_are_clear_of_the_walls(self, side):
        # the full rows the dense block leaves out are lattice nodes, no
        # off-lattice input lies within their band, and the walls' images
        # there are below exp(-40.5) of the Gaussian's peak from every input
        b, props = _routes(side, 10)
        h = 3.0 * math.sqrt(b.grid.block_width)
        checked = 0
        for p in props:
            x_in, _, x_out, g0, g1, dt, mirrors, cells_in, cells_out = p["args"]
            if not p["_toeplitz"]:
                continue
            start = x_out.size - sum(near[2].size for near in p["_near_block"])
            if start == 0:
                continue
            x = x_out[:start]
            first = cells_out.first_cell
            cells = np.arange(first, first + start // 12)[:, None]
            assert start % 12 == 0
            assert np.allclose(x, ((cells + 0.5) * h + 0.5 * h * _XG).ravel(), rtol=0.0, atol=1e-15)
            lo, hi = cells_in.first_node, cells_in.first_node + 12 * cells_in.count
            off_lattice = np.r_[x_in[:lo], x_in[hi:]]
            assert np.all(np.abs(x[:, None] - off_lattice) >= 9.0 * math.sqrt(dt))
            # each image grows toward its wall: the upper one's largest on
            # the top cell, the corridor's mirror one's on the bottom cell
            for s in mirrors:
                rows = x[-12:, None] if s > 0 else x[:12, None]
                a, b_ = g1 - s * rows, g0 - s * x_in
                image = np.exp(-(np.square(rows - x_in) + 4.0 * a * b_) / (2.0 * dt))
                assert image.max() <= math.exp(-40.5)
            checked += 1
        assert checked > len(props) // 2


class TestCorridorFold:
    """The corridor's density is even: each state is computed at x > 0 and
    mirrored, and the crossing is summed against the mass folded onto x > 0.
    States come from solved exp(1) corridors (no full cell at n = 3 or at
    any level's first knot, the lattice with its walls at the other knots, a
    narrow first block at every level),
    a wide constant corridor whose lattice windows no wall cuts, and a narrow
    one where every block runs the both-walls remainder."""

    @pytest.fixture(scope="class")
    def corridors(self):
        from ifpt import construct_boundary

        side = BoundarySide.SYMMETRIC
        solved = [construct_boundary(exponential_target(1.0), 1.0, n, side) for n in (3, 6, 8, 9)]
        out = [(sol.boundary, sol.records) for sol in solved]
        out += [(const_boundary(side, 6, value=v), None) for v in (10.0, 0.2)]
        return [(b, records, list(subdensities(b))) for b, records in out]

    def test_every_state_is_mirrored_bit_for_bit(self, corridors):
        seen = dict.fromkeys(["first", "no full cell", "walled", "free", "narrow"], 0)
        for b, _, states in corridors:
            g, dt = b.knot_values, b.grid.block_width
            h = 3.0 * math.sqrt(dt)
            for m, s in enumerate(states, start=1):
                assert np.array_equal(s.nodes, -s.nodes[::-1])
                assert np.array_equal(s.weights, s.weights[::-1])
                assert np.array_equal(s.values, s.values[::-1])
                reach = math.ceil(_TRUNCATION_SIGMAS * math.sqrt(s.time) / h) * h
                seen["first"] += m == 1
                seen["no full cell"] += s.cells.count == 0
                seen["walled"] += s.cells.count > 0 and g[m] <= reach
                seen["free"] += s.cells.count > 0 and g[m] > reach
                seen["narrow"] += _narrow(CORRIDOR, g[m - 1], g[m], dt)
        assert min(seen.values()) > 0, seen

    def test_folded_crossing_matches_the_full_sum(self, corridors):
        def full_sum(s, g0, g1, dt):
            value = float((s.weights * s.values) @ _crossing(s.nodes, g0, g1, dt, CORRIDOR)[0])
            return min(max(value, 0.0), s.survival)

        checked = 0
        for b, records, states in corridors:
            g, dt = b.knot_values, b.grid.block_width
            for m, s in enumerate(states[:-1], start=1):
                g0 = float(g[m])
                # the solved end, a closing corridor and the bracket's slopes
                ends = [float(g[m + 1]), -0.1]
                if records is not None:
                    r = records[m]
                    ends += [g0 + r.bracket_lo * dt, g0 + r.bracket_hi * dt]
                for g1 in ends:
                    got = crossing_mass(s, g0, g1, dt, b.side)[0]
                    assert abs(got - full_sum(s, g0, g1, dt)) <= 1e-15 * got
                    checked += 1
        assert checked > 3000
        # a state made outside the forward engine need not be mirrored; it
        # is summed over all its nodes
        lopsided = SubDensity(
            time=0.5, nodes=np.array([-0.1, 0.2, 0.3, 0.5]), weights=np.full(4, 0.1),
            values=np.ones(4),
        )
        got = crossing_mass(lopsided, 0.6, 0.55, 0.01, BoundarySide.SYMMETRIC)[0]
        assert got == full_sum(lopsided, 0.6, 0.55, 0.01) > 0.0


class TestConsistencyGuards:
    def test_survival_increase_detected(self, monkeypatch):
        # propagation is a contraction for any valid kernel, so force a bad
        # kernel to confirm the monotonicity guard fires
        import ifpt.forward as fw

        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=0.5)
        states = subdensities(b)
        next(states)
        real = fw._propagate
        monkeypatch.setattr(fw, "_propagate", lambda *a: 1.5 * real(*a))
        with pytest.raises(NumericalConsistencyError):
            next(states)

    def test_negative_crossing_detected(self, monkeypatch):
        import ifpt.forward as fw

        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=0.5)
        state = next(subdensities(b))
        monkeypatch.setattr(fw, "_crossing", lambda x, *a: (np.full(x.size, -1.0), None))
        with pytest.raises(NumericalConsistencyError, match="negative block crossing probability"):
            crossing_mass(state, 0.5, 0.5, b.grid.block_width, b.side)

    def test_window_below_the_wall_empties_the_state(self):
        # 1 - 60t falls below the window's lower end -2.25 at knot 4 of n = 6
        # (t = 1/16, 8 standard deviations of 1/4), and the states stay empty
        grid = DyadicGrid(1.0, 6)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 - 60.0 * grid.knots)
        states = list(subdensities(b))
        assert all(s.nodes.size > 0 for s in states[:3])
        for s in states[3:]:
            assert s.nodes.size == 0 and s.survival == 0.0
            assert crossing_mass(s, -3.0, -4.0, grid.block_width, b.side) == (0.0, 0.0)
        assert fpt_distribution_table(b).cdf[-1] == 1.0


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
        from ifpt import construct_boundary

        sol = construct_boundary(
            exponential_target(1.0), 1.0, 6, BoundarySide.SYMMETRIC
        )
        b = sol.boundary
        values, table = _recorded_table(b, _propagate, monkeypatch)
        ref_values, ref_table = _recorded_table(b, _dense_reference, monkeypatch)
        assert len(values) == b.grid.blocks
        for got, ref in zip(values, ref_values, strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(table.block_masses - ref_table.block_masses)) <= 1e-13


def _kernel_columns(x_in, x_out, u0, u1, dt):
    # the corridor kernel as a matrix, one unit input mass at a time
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
