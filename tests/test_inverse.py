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
    SolverConfig,
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
from ifpt.core import MAX_LEVEL, SURVIVAL_MASS_EPSILON
from ifpt.forward import crossing_mass, fpt_distribution_table, initial_subdensity

CFG = SolverConfig()
UP = BoundarySide.UPPER_ONLY
SYM = BoundarySide.SYMMETRIC


class TestSolveFirstBlock:
    def test_exponential_level_two_grid(self):
        d = exponential_target(1.0)
        alpha, rec = solve_first_block(d, DyadicGrid(1.0, 2), UP, CFG)
        mu0 = 1.0 - math.exp(-0.25)
        # invert 2 Phi(-alpha / sqrt(0.25)) = mu0 analytically
        expect = -0.5 * ndtri(mu0 / 2.0)
        assert alpha == pytest.approx(expect, abs=1e-7)
        assert abs(rec.residual) <= CFG.probability_tol
        assert rec.bracket_lo <= alpha <= rec.bracket_hi

    def test_symmetric_level_exceeds_one_sided(self):
        d = exponential_target(1.0)
        a_up, _ = solve_first_block(d, DyadicGrid(1.0, 2), UP, CFG)
        a_sym, _ = solve_first_block(d, DyadicGrid(1.0, 2), SYM, CFG)
        assert a_sym > a_up

    def test_tiny_first_mass_still_resolves_the_root(self, line_target):
        # mass of order 1e-58 at level 8: the level must still be accurate
        d = line_target(0.5, 1.0)
        alpha, rec = solve_first_block(d, DyadicGrid(1.0, 8), UP, CFG)
        mu0 = block_mass(d, 0.0, 1.0 / 256.0)
        assert 0.0 < mu0 < 1e-50
        expect = -math.sqrt(1.0 / 256.0) * ndtri(mu0 / 2.0)
        assert alpha == pytest.approx(expect, rel=1e-3)

    def test_infeasible_first_mass(self):
        d = TargetDistribution(
            density=lambda t: np.zeros_like(np.asarray(t, float)),
            cdf=lambda t: np.zeros_like(np.asarray(t, float)),
            kind="custom",
        )
        with pytest.raises(InfeasibleTargetError):
            solve_first_block(d, DyadicGrid(1.0, 2), UP, CFG)


class TestSolveBlock:
    @staticmethod
    def _constant_state(side=UP, level=1.0, dt=0.5):
        return initial_subdensity(level, level, dt, side, CFG.quadrature), dt

    def test_constant_boundary_masses_give_zero_slope(self, line_target):
        d = line_target(0.0, 1.0)  # hitting law of g == 1
        state, dt = self._constant_state()
        slope, rec = solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)
        assert abs(slope) <= 1e-6
        assert abs(rec.residual) <= CFG.probability_tol

    def test_greedy_mass_needs_plunging_boundary(self):
        state, dt = self._constant_state()
        survival = state.survival
        mu = 0.95 * survival
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        slope, _ = solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)
        assert slope < -1.0

    def test_tiny_mass_needs_escaping_boundary(self):
        state, dt = self._constant_state()
        mu = 1e-8
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), mu / dt),
            cdf=lambda t: np.asarray(t, float) / dt * mu,
            kind="custom",
        )
        slope, _ = solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)
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
            solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)

    def test_monotone_response_to_target_mass(self):
        state, dt = self._constant_state()
        slopes = []
        for mu in (0.01, 0.02, 0.04):
            d = TargetDistribution(
                density=lambda t, mu=mu: np.full_like(np.asarray(t, float), mu / dt),
                cdf=lambda t, mu=mu: np.asarray(t, float) / dt * mu,
                kind="custom",
            )
            slope, _ = solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)
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
        slope, rec = solve_block(state, d, 1, side, CFG, boundary_value=1.0, dt=dt, guess=guess)
        assert abs(rec.residual) <= inv._residual_tol(CFG, rec.target_mass)
        assert rec.bracket_lo <= slope <= rec.bracket_hi
        assert rec.iterations <= CFG.max_iterations

    def test_warm_start_needs_positive_step(self):
        state, dt = self._constant_state()
        with pytest.raises(ValueError):
            solve_block(state, exponential_target(1.0), 1, UP, CFG, boundary_value=1.0,
                        dt=dt, guess=0.0, step=0.0)

    def test_objective_strictly_monotone_across_final_bracket(self):
        d = exponential_target(1.0)
        state, dt = self._constant_state()
        slope, rec = solve_block(state, d, 1, UP, CFG, boundary_value=1.0, dt=dt)
        lo, mid, hi = rec.bracket_lo, 0.5 * (rec.bracket_lo + rec.bracket_hi), rec.bracket_hi
        f = [crossing_mass(state, 1.0, 1.0 + a * dt, dt, UP) for a in (lo, mid, hi)]
        assert f[0] > f[1] > f[2]


class TestConstructBoundary:
    @pytest.mark.parametrize("side", [UP, SYM])
    def test_exponential_residuals(self, side):
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 4, side, CFG)
        assert len(sol.records) == 16
        assert all(abs(r.residual) <= CFG.probability_tol for r in sol.records)
        assert sol.boundary.knot_values[0] > 0.0
        derived = max(abs(float(s)) for s in sol.boundary.slopes)
        assert sol.max_abs_slope == pytest.approx(max(derived, sol.records[0].alpha), rel=1e-12)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_warm_started_blocks_need_few_evaluations(self, side):
        sol = construct_boundary(exponential_target(1.0), 1.0, 7, side, CFG)
        evals = [r.iterations for r in sol.records[1:]]
        assert np.mean(evals) <= 6.0
        assert max(evals) <= 25

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_steep_slopes_warn_and_still_match(self, side, caplog):
        # exp(1) on [0, 1] under Brownian scaling to [0, 1e-6]: slopes near 3e3
        d = exponential_target(1e6)
        with caplog.at_level(logging.WARNING, logger="ifpt.inverse"):
            sol = construct_boundary(d, 1e-6, 4, side, CFG)
        assert sol.max_abs_slope > CFG.slope_warn_threshold
        assert any("solved slopes reach" in r.getMessage() for r in caplog.records)
        assert all(abs(r.residual) <= CFG.probability_tol for r in sol.records)

    def test_two_block_exponential_example(self):
        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 1, UP, CFG)
        mu1 = math.exp(-0.5) - math.exp(-1.0)
        assert sol.records[1].achieved == pytest.approx(mu1, abs=1e-10)

    def test_line_round_trip(self, line_target):
        d = line_target(0.5, 1.0)
        sol = construct_boundary(d, 1.0, 6, UP, CFG)
        truth = 1.0 + 0.5 * sol.boundary.grid.knots
        assert float(np.max(np.abs(sol.boundary.knot_values - truth))) <= 0.02

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_cdf_just_below_one_minus_epsilon_solves(self, side):
        # exp(13.8) on [0, 1] leaves survival exp(-13.8) = 1.01e-6
        d = exponential_target(13.8)
        assert SURVIVAL_MASS_EPSILON < 1.0 - float(d.cdf(1.0)) < 1.02e-6
        sol = construct_boundary(d, 1.0, 5, side, CFG)
        assert all(abs(r.residual) <= 1e-10 for r in sol.records)

    def test_cdf_past_one_minus_epsilon_fails_validation(self):
        # exp(14) on [0, 1] leaves survival 8.3e-7 < SURVIVAL_MASS_EPSILON
        with pytest.raises(ValidationError, match="positive survival mass must remain"):
            construct_boundary(exponential_target(14.0), 1.0, 5, UP, CFG)

    def test_dead_density_fails_validation(self):
        # density dies after t = 0.5, violating strict positivity
        ts = np.array([0.0, 0.5, 0.500001, 1.0])
        fs = np.array([1.0, 1.0, 0.0, 0.0])
        from ifpt import tabulated_target

        d = tabulated_target(ts, fs)
        with pytest.raises(ValidationError):
            construct_boundary(d, 1.0, 2, UP, CFG)

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
            construct_boundary(d, 1.0, 2, UP, CFG)
        assert exc_info.value.block == 2
        assert len(exc_info.value.records) == 2  # blocks 0 and 1 were solved

    def test_validation_gate(self):
        with pytest.raises(ValidationError):
            construct_boundary(uniform_target(0.0, 0.5), 1.0, 2, UP, CFG)


class TestRefine:
    def test_constant_target_stable_across_levels(self, line_target):
        d = line_target(0.0, 1.0)
        report = refine(d, 1.0, 2, 4, UP, CFG)
        for lv in report.levels:
            assert float(np.max(np.abs(lv.solution.boundary.knot_values - 1.0))) <= 1e-6

    def test_exponential_ladder_diagnostics(self):
        d = exponential_target(1.0)
        report = refine(d, 1.0, 2, 5, UP, CFG)
        assert report.levels[0].sup_distance_prev is None
        assert all(lv.sup_distance_prev is not None for lv in report.levels[1:])
        for lv in report.levels:
            allowed = 2 ** (lv.level - 2) * CFG.probability_tol + 1e-8
            assert lv.nested_defect <= allowed
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert len(payload["levels"]) == 4

    def test_level_order_validation(self):
        with pytest.raises(ValueError):
            refine(exponential_target(1.0), 1.0, 3, 2, UP, CFG)

    def test_level_cap_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("construct_boundary called before the level check")

        monkeypatch.setattr(inv, "construct_boundary", no_solve)
        with pytest.raises(ValueError, match=str(MAX_LEVEL)):
            refine(exponential_target(1.0), 1.0, 2, MAX_LEVEL + 1, UP, CFG)

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_solver_table_is_the_forward_table(self, side):
        # the ladder reads its block masses from the solve's own survivals;
        # a separate forward pass over the solved boundary gives the same bits
        d = exponential_target(1.0)
        report = refine(d, 1.0, 3, 5, side, CFG)
        coarse = DyadicGrid(1.0, 3)
        coarse_masses = np.array(
            [block_mass(d, coarse.knot(m), coarse.knot(m + 1)) for m in range(coarse.blocks)]
        )
        for lv in report.levels:
            table = fpt_distribution_table(lv.solution.boundary, CFG.quadrature)
            grouped = table.block_masses[1:].reshape(coarse.blocks, -1).sum(axis=1)
            assert lv.nested_defect == float(np.max(np.abs(grouped - coarse_masses)))
            assert np.array_equal(lv.solution.table.cdf, table.cdf)
            assert np.array_equal(lv.solution.table.block_masses, table.block_masses)

    def test_exponential_ladder_distances_shrink_from_level_four(self):
        report = refine(exponential_target(1.0), 1.0, 2, 8, UP, CFG)
        dists = {lv.level: lv.sup_distance_prev for lv in report.levels}
        for n in (5, 6, 7, 8):
            assert dists[n] < dists[n - 1]


class TestPropagationCount:
    """Every block is propagated once: ``_step`` is the single step behind
    both the first knot and every later one."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        step = fwd._step

        def counted(*args, **kwargs):
            calls.append(None)
            return step(*args, **kwargs)

        monkeypatch.setattr(fwd, "_step", counted)
        return calls

    @pytest.mark.parametrize("side", [UP, SYM])
    @pytest.mark.parametrize("level", [3, 6])
    def test_construct_boundary_steps_once_per_block(self, steps, side, level):
        construct_boundary(exponential_target(1.0), 1.0, level, side, CFG)
        assert len(steps) == 2**level

    @pytest.mark.parametrize("side", [UP, SYM])
    def test_refine_adds_no_forward_pass(self, steps, side):
        refine(exponential_target(1.0), 1.0, 3, 5, side, CFG)
        assert len(steps) == 8 + 16 + 32


class TestNonUnitHorizon:
    @pytest.mark.parametrize("side", [UP, SYM])
    def test_residuals_and_forward_recheck(self, side):
        from ifpt import QuadratureConfig, fpt_distribution_table

        d = exponential_target(0.4)
        sol = construct_boundary(d, 2.0, 4, side, CFG)
        assert max(abs(r.residual) for r in sol.records) <= CFG.probability_tol
        table = fpt_distribution_table(sol.boundary, QuadratureConfig())
        knots = sol.boundary.grid.knots
        targets = np.array(
            [float(d.cdf_at(knots[m + 1]) - d.cdf_at(knots[m])) for m in range(16)]
        )
        assert np.max(np.abs(table.block_masses[1:] - targets)) <= 1e-9


class TestSymmetricEndToEnd:
    def test_solved_boundary_matches_target_by_simulation(self):
        from ifpt import SimConfig, ks_block_distance, simulate_hitting_times

        d = exponential_target(1.0)
        sol = construct_boundary(d, 1.0, 5, SYM, CFG)
        emp = simulate_hitting_times(sol.boundary, SimConfig(paths=200_000, seed=17))
        assert ks_block_distance(emp, d) <= 3.0 * math.sqrt(0.25 / 200_000)
