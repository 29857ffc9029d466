import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from ifpt import (
    BoundarySide,
    DyadicGrid,
    InfeasibleTargetError,
    TargetDistribution,
    ValidationError,
    block_mass,
    construct_boundary,
    exponential_target,
    refine,
    solve_block,
    solve_first_block,
    uniform_target,
)
import ifpt.forward as fwd
import ifpt.inverse as inv
from ifpt.core import (
    MAX_LEVEL,
    ConvergenceError,
    NumericalConsistencyError,
    SURVIVAL_MASS_EPSILON,
)
from ifpt.forward import crossing_mass, fpt_distribution_table, initial_subdensity
from ifpt.inverse import PROBABILITY_TOL

UP = BoundarySide.UPPER_ONLY
SYM = BoundarySide.SYMMETRIC


class TestSolveFirstBlock:
    def test_exponential_level_two_grid(self):
        d = exponential_target(1.0)
        alpha, rec = solve_first_block(d, DyadicGrid(1.0, 2), UP)
        mu0 = 1.0 - math.exp(-0.25)
        # invert 2 Phi(-alpha / sqrt(0.25)) = mu0 analytically
        expect = -0.5 * ndtri(mu0 / 2.0)
        assert alpha == pytest.approx(expect, abs=1e-7)
        assert abs(rec.residual) <= PROBABILITY_TOL
        assert rec.bracket_lo <= alpha <= rec.bracket_hi

    def test_symmetric_level_exceeds_one_sided(self):
        d = exponential_target(1.0)
        a_up, _ = solve_first_block(d, DyadicGrid(1.0, 2), UP)
        a_sym, _ = solve_first_block(d, DyadicGrid(1.0, 2), SYM)
        assert a_sym > a_up

    def test_tiny_first_mass_still_resolves_the_root(self, line_target):
        # mass of order 1e-58 at level 8: the level must still be accurate
        d = line_target(0.5, 1.0)
        alpha, rec = solve_first_block(d, DyadicGrid(1.0, 8), UP)
        mu0 = block_mass(d, 0.0, 1.0 / 256.0)
        assert 0.0 < mu0 < 1e-50
        expect = -math.sqrt(1.0 / 256.0) * ndtri(mu0 / 2.0)
        assert alpha == pytest.approx(expect, rel=1e-3)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_level_starts_at_its_root(self, side):
        # the start inverts the leading reflection term, exact on the upper
        # side; the corridor's next term moves the root by a Newton step
        for n in range(3, 13):
            _, rec = solve_first_block(exponential_target(1.0), DyadicGrid(1.0, n), side)
            assert rec.iterations <= 2
            assert abs(rec.residual) <= inv._residual_tol(rec.target_mass)

    @pytest.mark.parametrize("rate, horizon", [(1.0, 12.0), (13.8, 1.0)])
    def test_spectral_level_starts_at_its_root(self, rate, horizon):
        # first-block masses of 0.998 and 0.999 put the corridor's level in
        # the spectral regime; the start inverts the leading spectral term
        # and Newton takes the series' derivative
        _, rec = solve_first_block(exponential_target(rate), DyadicGrid(horizon, 1), SYM)
        assert rec.target_mass > 0.99
        assert rec.alpha / math.sqrt(horizon / 2.0) < inv._REFLECTION_MIN
        assert rec.iterations <= 2
        assert abs(rec.residual) <= inv._residual_tol(rec.target_mass)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_level_search_across_rates_horizons_and_levels(self, side):
        # first-block masses from 6e-12 to 0.999, on both sides of
        # the corridor's switch from its reflection to its spectral series
        worst = 0
        for rate in (0.1, 0.5, 1.0, 5.0, 13.8):
            for horizon in (1e-6, 0.01, 1.0, 4.0, 12.0):
                if rate * horizon > 13.8:
                    continue
                for n in (1, 2, 3, 6, 10, 14):
                    grid = DyadicGrid(horizon, n)
                    _, rec = solve_first_block(exponential_target(rate), grid, side)
                    assert abs(rec.residual) <= inv._residual_tol(rec.target_mass)
                    worst = max(worst, rec.iterations)
        # Newton takes the whole series' derivative on the corridor: at most
        # 4 evaluations there, 1 on the upper side
        assert worst <= 6

    def test_infeasible_first_mass(self):
        d = TargetDistribution(
            density=lambda t: np.zeros_like(np.asarray(t, float)),
            cdf=lambda t: np.zeros_like(np.asarray(t, float)),
            kind="custom",
        )
        with pytest.raises(InfeasibleTargetError):
            solve_first_block(d, DyadicGrid(1.0, 2), UP)


class TestSolveBlock:
    @staticmethod
    def _constant_state(side=UP, level=1.0, dt=0.5):
        return initial_subdensity(level, level, dt, side), dt

    def test_constant_boundary_masses_give_zero_slope(self, line_target):
        d = line_target(0.0, 1.0)  # hitting law of g == 1
        state, dt = self._constant_state()
        slope, rec = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)
        assert abs(slope) <= 1e-6
        assert abs(rec.residual) <= PROBABILITY_TOL

    def test_greedy_mass_needs_plunging_boundary(self):
        state, dt = self._constant_state()
        survival = state.survival
        mu = 0.95 * survival
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        slope, _ = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)
        assert slope < -1.0

    def test_tiny_mass_needs_escaping_boundary(self):
        state, dt = self._constant_state()
        mu = 1e-8
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        slope, _ = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)
        assert slope > 1.0

    def test_mass_reaching_survival_is_infeasible(self):
        state, dt = self._constant_state()
        mu = state.survival
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        with pytest.raises(InfeasibleTargetError):
            solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)

    def test_monotone_response_to_target_mass(self):
        state, dt = self._constant_state()
        slopes = []
        for mu in (0.01, 0.02, 0.04):
            d = TargetDistribution(
                density=lambda t, mu=mu: np.full_like(np.asarray(t, float), mu / dt),
                cdf=lambda t, mu=mu: np.asarray(t, float) / dt * mu,
                kind="custom",
            )
            slope, _ = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)
            slopes.append(slope)
        assert slopes[0] > slopes[1] > slopes[2]

    @pytest.mark.parametrize("side", [UP, SYM])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(guess=st.floats(-50.0, 50.0), frac=st.floats(0.0, 1.0))
    def test_warm_start_from_any_guess(self, side, guess, frac):
        state, dt = self._constant_state(side)
        lo, hi = math.log(1e-8), math.log(0.9 * state.survival)
        mu = math.exp(lo + frac * (hi - lo))
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        slope, rec = solve_block(state, d, 1, side, boundary_value=1.0, dt=dt, guess=guess)
        assert abs(rec.residual) <= inv._residual_tol(rec.target_mass)
        assert rec.bracket_lo <= slope <= rec.bracket_hi
        assert rec.iterations <= inv._MAX_ITERATIONS

    def test_carry_takes_back_at_most_half_the_mass(self):
        d = exponential_target(1.0)
        state, dt = self._constant_state()
        mass = block_mass(d, 0.5, 1.0)
        for carry, aim in ((1e-11, mass - 1e-11), (-1e-11, mass + 1e-11), (mass, 0.5 * mass)):
            _, rec = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt, guess=0.0,
                                 carry=carry)
            assert rec.target_mass == aim and rec.target_mass + rec.carry == mass
            assert abs(rec.residual) <= inv._residual_tol(aim)

    def test_warm_start_needs_positive_step(self):
        state, dt = self._constant_state()
        with pytest.raises(ValueError):
            solve_block(state, exponential_target(1.0), 1, UP, boundary_value=1.0,
                        dt=dt, guess=0.0, step=0.0)

    def test_objective_strictly_monotone_across_final_bracket(self):
        d = exponential_target(1.0)
        state, dt = self._constant_state()
        slope, rec = solve_block(state, d, 1, UP, boundary_value=1.0, dt=dt)
        lo, mid, hi = rec.bracket_lo, 0.5 * (rec.bracket_lo + rec.bracket_hi), rec.bracket_hi
        f = [crossing_mass(state, 1.0, 1.0 + a * dt, dt, UP)[0] for a in (lo, mid, hi)]
        assert f[0] > f[1] > f[2]


class TestConvergenceFailures:
    """Each typed failure of the root search, forced by an objective that
    is constant or a step."""

    @staticmethod
    def block_one():
        # exp(1) on a level-1 grid: block 1's target mass is 0.24, below the
        # survival 0.84 of a constant first segment at 1
        state = initial_subdensity(1.0, 1.0, 0.5, UP)
        return state, exponential_target(1.0), block_mass(exponential_target(1.0), 0.5, 1.0)

    @pytest.mark.parametrize(
        "cdf, message",
        # a level at or below the origin is crossed at once (mass 1), so a
        # cdf stuck at 0 brackets the root at the origin, where the bracket
        # collapses on the step from 1 to 0
        [(1.0, r"root bracket for block 0 diverged upward$"),
         (0.0, r"bracket collapsed but residual 0.779 exceeds the probability "
               r"tolerance 1e-10$")],
        ids=["upward", "toward-zero"],
    )
    def test_level_bracket_diverges(self, monkeypatch, cdf, message):
        monkeypatch.setattr(inv, "constant_boundary_cdf", lambda z, t, side: cdf)
        with pytest.raises(ConvergenceError, match=message):
            solve_first_block(exponential_target(1.0), DyadicGrid(1.0, 2), UP)

    @pytest.mark.parametrize("mass, way", [(0.5, "upward"), (0.0, "downward")])
    def test_slope_bracket_diverges(self, monkeypatch, mass, way):
        state, d, _ = self.block_one()
        monkeypatch.setattr(inv, "crossing_mass", lambda *args: (mass, math.nan))
        with pytest.raises(ConvergenceError, match=f"root bracket for block 1 diverged {way}$"):
            solve_block(state, d, 1, UP, boundary_value=1.0, dt=0.5)

    def test_collapsed_bracket_above_tolerance(self, monkeypatch):
        # the objective steps over the target mass at slope 0, so the
        # bracket closes on the step with a residual of 1e-6
        state, d, target = self.block_one()

        def step(p, g0, g1, dt, side):
            return target + (1e-6 if g1 < g0 else -1e-6), math.nan

        monkeypatch.setattr(inv, "crossing_mass", step)
        with pytest.raises(ConvergenceError, match=r"bracket collapsed but residual -?1e-06 "
                                                   r"exceeds the probability tolerance 1e-10"):
            solve_block(state, d, 1, UP, boundary_value=1.0, dt=0.5)

    def test_iteration_budget_runs_out(self, monkeypatch):
        # without a derivative the search evaluates -a**3 at -1, grows the
        # bracket to 1, and the secant of -a**3 - 0.5 over [-1, 1] lands on
        # -0.5, a residual of -0.375, with no evaluation left
        monkeypatch.setattr(inv, "_MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match=r"root not located within 3 iterations "
                                                   r"\(last residual -0.375\)"):
            inv._root_search(lambda a: (-a**3, math.nan), 0.5, -1.0, 2.0, 1)


class TestConstructBoundary:
    @pytest.mark.parametrize("side", [UP, SYM])
    def test_exponential_residuals(self, side):
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 4, side)
        assert len(sol.records) == 16
        assert all(abs(r.residual) <= PROBABILITY_TOL for r in sol.records)
        assert sol.boundary.knot_values[0] > 0.0
        derived = max(abs(float(s)) for s in sol.boundary.slopes)
        assert sol.max_abs_slope == pytest.approx(max(derived, sol.records[0].alpha), rel=1e-12)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_warm_started_blocks_need_few_evaluations(self, side):
        sol = construct_boundary(exponential_target(1.0), 1.0, 7, side)
        evals = [r.iterations for r in sol.records[1:]]
        assert np.mean(evals) <= 6.0
        assert max(evals) <= 25

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_newton_blocks_need_few_evaluations(self, side):
        sol = construct_boundary(exponential_target(1.0), 1.0, 8, side)
        evals = [r.iterations for r in sol.records[1:]]
        assert np.mean(evals) <= 3.0

    @pytest.mark.parametrize("level", [8, 10])
    def test_first_slope_blocks_start_near_their_roots(self, level):
        # blocks 1 and 2 start from slope 0: block 1's slope lies far out on
        # the flat tail of block 2's crossing mass, where a Newton step
        # overshoots
        d = exponential_target(1.0)
        up = construct_boundary(d, 1.0, level, UP).records
        sym = construct_boundary(d, 1.0, level, SYM).records
        assert up[1].iterations <= 8 and up[2].iterations <= 6
        assert sym[2].iterations <= 10

    @pytest.mark.parametrize("side", [UP, SYM])
    @pytest.mark.parametrize("level", [8, 10])
    def test_table_cdf_tracks_the_target_at_every_knot(self, side, level):
        # each block takes back the cdf error left at its left knot, so the
        # errors do not add up along the solve; 4e-14 allows for the mass
        # the forward pass drops
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, level, side)
        knots = sol.boundary.grid.knots
        err = np.abs(sol.table.cdf - np.asarray(d.cdf(knots)))
        assert np.max(err) <= PROBABILITY_TOL + 4e-14

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_records_aim_at_the_carried_target(self, side):
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 6, side)
        knots = sol.boundary.grid.knots
        for m, r in enumerate(sol.records):
            assert r.residual == r.achieved - r.target_mass
            assert r.carry == (0.0 if m == 0 else sol.records[m - 1].residual)
            assert r.target_mass + r.carry == pytest.approx(
                block_mass(d, knots[m], knots[m + 1]), rel=1e-15)
        # block 0 (a level) records no slope derivative, later blocks do
        # unless the corridor is narrow at the solved slope
        g, dt = sol.boundary.knot_values, sol.boundary.grid.block_width
        assert math.isnan(sol.records[0].dmass_dslope)
        for m, r in enumerate(sol.records[1:], start=1):
            narrow = fwd._narrow(fwd._mirrors(side), g[m], g[m + 1], dt)
            assert math.isnan(r.dmass_dslope) if narrow else r.dmass_dslope < 0.0

    def test_narrow_corridor_blocks_solve_without_the_derivative(self):
        # exp(13.8) drives the corridor narrow, where the crossing has no
        # slope derivative and every block falls back to regula falsi
        sol = construct_boundary(exponential_target(13.8), 1.0, 5, SYM)
        unavailable = [r for r in sol.records[2:] if math.isnan(r.dmass_dslope)]
        assert len(unavailable) > 20
        assert all(abs(r.residual) <= inv._residual_tol(r.target_mass) for r in sol.records)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_steep_slopes_warn_and_still_match(self, side, caplog):
        # exp(1) on [0, 1] under Brownian scaling to [0, 1e-6]: slopes near 3e3
        d = exponential_target(1e6)
        with caplog.at_level(logging.WARNING, logger="ifpt.inverse"):
            sol = construct_boundary(d, 1e-6, 4, side)
        assert sol.max_abs_slope > inv._SLOPE_WARN
        assert any("solved slopes reach" in r.getMessage() for r in caplog.records)
        assert all(abs(r.residual) <= PROBABILITY_TOL for r in sol.records)

    def test_two_block_exponential_example(self):
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 1, UP)
        mu1 = math.exp(-0.5) - math.exp(-1.0)
        assert sol.records[1].achieved == pytest.approx(mu1, abs=1e-10)

    def test_line_round_trip(self, line_target):
        d = line_target(0.5, 1.0)
        sol = construct_boundary(d, 1.0, 6, UP)
        truth = 1.0 + 0.5 * sol.boundary.grid.knots
        assert float(np.max(np.abs(sol.boundary.knot_values - truth))) <= 0.02

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_cdf_just_below_one_minus_epsilon_solves(self, side):
        # exp(13.8) on [0, 1] leaves survival exp(-13.8) = 1.01e-6
        d = exponential_target(13.8)
        assert SURVIVAL_MASS_EPSILON < 1.0 - float(d.cdf(1.0)) < 1.02e-6
        sol = construct_boundary(d, 1.0, 5, side)
        assert all(abs(r.residual) <= 1e-10 for r in sol.records)

    def test_cdf_past_one_minus_epsilon_fails_validation(self):
        # exp(14) on [0, 1] leaves survival 8.3e-7 < SURVIVAL_MASS_EPSILON
        with pytest.raises(ValidationError, match="positive survival mass must remain"):
            construct_boundary(exponential_target(14.0), 1.0, 5, UP)

    def test_dead_density_fails_validation(self):
        # density dies after t = 0.5, violating strict positivity
        ts = np.array([0.0, 0.5, 0.500001, 1.0])
        fs = np.array([1.0, 1.0, 0.0, 0.0])
        from ifpt import tabulated_target

        d = tabulated_target(ts, fs)
        with pytest.raises(ValidationError):
            construct_boundary(d, 1.0, 2, UP)

    def test_infeasible_block_carries_partial_records(self, monkeypatch):
        # a validated target cannot demand more than the survival mass, so
        # force an oversized block-2 mass to exercise the abort contract
        d = exponential_target(1.0)
        real = inv.block_mass

        def greedy(target, t0, t1):
            if math.isclose(t0, 0.5):
                return 0.999
            return real(target, t0, t1)

        monkeypatch.setattr(inv, "block_mass", greedy)
        with pytest.raises(InfeasibleTargetError) as exc_info:
            construct_boundary(d, 1.0, 2, UP)
        assert exc_info.value.block == 2
        assert len(exc_info.value.records) == 2  # blocks 0 and 1 were solved

    def test_validation_gate(self):
        with pytest.raises(ValidationError):
            construct_boundary(uniform_target(0.0, 0.5), 1.0, 2, UP)

    def test_underflowing_first_mass_is_numerical(self, line_target):
        # a feasible target whose first-block mass underflows float64 at
        # n = 11 while block 1's is 6.6e-225 and n = 10 has a positive one
        d = line_target(0.5, 1.0)
        assert block_mass(d, 0.0, 2.0**-11) == 0.0 < block_mass(d, 2.0**-11, 2.0**-10)
        assert block_mass(d, 0.0, 2.0**-10) > 0.0
        with pytest.raises(NumericalConsistencyError, match="block 0 .*underflows.* level 11"):
            construct_boundary(d, 1.0, 11, UP)

    def test_underflowing_block_mass_is_numerical(self, monkeypatch):
        real = inv.block_mass

        def underflow(target, t0, t1):
            return 0.0 if math.isclose(t0, 0.5) else real(target, t0, t1)

        monkeypatch.setattr(inv, "block_mass", underflow)
        with pytest.raises(NumericalConsistencyError, match="block 2 .*underflows.* level 2"):
            construct_boundary(exponential_target(1.0), 1.0, 2, UP)


class TestRefine:
    def test_constant_target_stable_across_levels(self, line_target):
        d = line_target(0.0, 1.0)
        report = refine(d, 1.0, 2, 4, UP)
        for lv in report.levels:
            assert float(np.max(np.abs(lv.solution.boundary.knot_values - 1.0))) <= 1e-6

    def test_exponential_ladder_diagnostics(self):
        d = exponential_target(1.0)
        report = refine(d, 1.0, 2, 5, UP)
        assert report.levels[0].sup_distance_prev is None
        assert all(lv.sup_distance_prev is not None for lv in report.levels[1:])
        for lv in report.levels:
            allowed = 2 ** (lv.level - 2) * PROBABILITY_TOL + 1e-8
            assert lv.nested_defect <= allowed
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert len(payload["levels"]) == 4

    def test_level_order_validation(self):
        with pytest.raises(ValueError):
            refine(exponential_target(1.0), 1.0, 3, 2, UP)

    @pytest.mark.parametrize(
        "n_min, n_max, name", [(3, 3.5, "n_max"), (2.5, 3, "n_min"), (2, 3.0, "n_max")]
    )
    def test_non_integer_level_is_rejected_before_any_solve(self, monkeypatch, n_min, n_max, name):
        def no_solve(*args, **kwargs):
            raise AssertionError("construct_boundary called before the level check")

        monkeypatch.setattr(inv, "construct_boundary", no_solve)
        with pytest.raises(ValueError, match=f"{name}: level must be an integer"):
            refine(exponential_target(1.0), 1.0, n_min, n_max, UP)

    def test_level_cap_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("construct_boundary called before the level check")

        monkeypatch.setattr(inv, "construct_boundary", no_solve)
        with pytest.raises(ValueError, match=str(MAX_LEVEL)):
            refine(exponential_target(1.0), 1.0, 2, MAX_LEVEL + 1, UP)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_solver_table_is_the_forward_table(self, side):
        # the ladder reads its block masses from the solve's own survivals;
        # a separate forward pass over the solved boundary gives the same bits
        d = exponential_target(1.0)
        report = refine(d, 1.0, 3, 5, side)
        coarse = DyadicGrid(1.0, 3)
        coarse_masses = np.array(
            [block_mass(d, coarse.knot(m), coarse.knot(m + 1)) for m in range(coarse.blocks)]
        )
        for lv in report.levels:
            table = fpt_distribution_table(lv.solution.boundary)
            grouped = table.block_masses[1:].reshape(coarse.blocks, -1).sum(axis=1)
            assert lv.nested_defect == float(np.max(np.abs(grouped - coarse_masses)))
            assert np.array_equal(lv.solution.table.cdf, table.cdf)
            assert np.array_equal(lv.solution.table.block_masses, table.block_masses)

    def test_exponential_ladder_distances_shrink_from_level_four(self):
        report = refine(exponential_target(1.0), 1.0, 2, 8, UP)
        dists = {lv.level: lv.sup_distance_prev for lv in report.levels}
        for n in (5, 6, 7, 8):
            assert dists[n] < dists[n - 1]


class TestPropagationCount:
    """Every block is propagated once: ``_propagate`` is the single step
    behind both the first knot, from ``ORIGIN``, and every later one."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        step = fwd._propagate

        def counted(*args, **kwargs):
            calls.append(None)
            return step(*args, **kwargs)

        monkeypatch.setattr(fwd, "_propagate", counted)
        return calls

    @pytest.mark.parametrize("side", [UP, SYM])
    @pytest.mark.parametrize("level", [3, 6])
    def test_construct_boundary_steps_once_per_block(self, steps, side, level):
        construct_boundary(exponential_target(1.0), 1.0, level, side)
        assert len(steps) == 2**level

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_refine_adds_no_forward_pass(self, steps, side):
        refine(exponential_target(1.0), 1.0, 3, 5, side)
        assert len(steps) == 8 + 16 + 32


class TestNonUnitHorizon:
    @pytest.mark.parametrize("side", [UP, SYM])
    def test_residuals_and_forward_recheck(self, side):
        d = exponential_target(0.4)
        sol = construct_boundary(d, 2.0, 4, side)
        assert max(abs(r.residual) for r in sol.records) <= PROBABILITY_TOL
        table = fpt_distribution_table(sol.boundary)
        knots = sol.boundary.grid.knots
        targets = np.array(
            [float(d.cdf_at(knots[m + 1]) - d.cdf_at(knots[m])) for m in range(16)]
        )
        assert np.max(np.abs(table.block_masses[1:] - targets)) <= 1e-9


class TestSymmetricEndToEnd:
    def test_solved_boundary_matches_target_by_simulation(self):
        from ifpt import SimConfig, ks_block_distance, simulate_hitting_times

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 5, SYM)
        emp = simulate_hitting_times(sol.boundary, SimConfig(paths=200_000, seed=17))
        assert ks_block_distance(emp, d) <= 3.0 * math.sqrt(0.25 / 200_000)


class TestTabulatedKinksOffGrid:
    @pytest.mark.parametrize("side", [UP, SYM])
    def test_solve_forward_and_simulation_match_the_table(self, tmp_path, side):
        # kinks at t = 0.3 and 0.71 fall inside level-6 blocks, and the table
        # runs past the horizon
        from ifpt import SimConfig, ks_block_distance, ks_threshold, read_target_csv
        from ifpt import simulate_hitting_times

        path = tmp_path / "density.csv"
        path.write_text("t,f\n0,0.9\n0.3,0.5\n0.71,0.7\n1,0.2\n1.5,0.2\n")
        d = read_target_csv(path)
        sol = construct_boundary(d, 1.0, 6, side)
        assert max(abs(r.residual) for r in sol.records) <= PROBABILITY_TOL
        table = fpt_distribution_table(sol.boundary)
        knots = sol.boundary.grid.knots
        targets = np.array([block_mass(d, knots[m], knots[m + 1]) for m in range(64)])
        # criterion 7's allowance
        assert np.max(np.abs(table.block_masses[1:] - targets)) <= 2**4 * PROBABILITY_TOL + 1e-8
        emp = simulate_hitting_times(sol.boundary, SimConfig(paths=2**17))
        assert ks_block_distance(emp, d) <= ks_threshold(2**17)
