"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured figure and runtime (run with ``pytest -s`` to see them).
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from ifpt import (
    AndersonParams,
    BoundarySide,
    DyadicGrid,
    LinearSegment,
    PiecewiseLinearBoundary,
    SimConfig,
    anderson_two_sided_density,
    brute_force_block_check,
    constant_boundary_cdf,
    construct_boundary,
    exponential_target,
    fpt_distribution_table,
    ks_block_distance,
    linear_boundary_cdf,
    linear_fpt_density,
    simulate_hitting_times,
    symmetric_linear_density,
)
from ifpt.forward import crossing_mass, initial_subdensity, propagated_subdensity
from ifpt.inverse import PROBABILITY_TOL

UP = BoundarySide.UPPER_ONLY
SYM = BoundarySide.SYMMETRIC


def _report(name: str, ok: bool, detail: str, elapsed: float, limit: float | None):
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    budget = "" if limit is None else f" / limit {limit:g}s"
    print(f"[{status}] {name}: {detail} (runtime {elapsed:.2f}s{budget})")
    assert ok, f"{name}: {detail}"
    if limit is not None:
        assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s over budget {limit:g}s"


def test_01_constant_boundary_closed_form():
    start = time.perf_counter()
    grid = DyadicGrid(1.0, 6)
    b = PiecewiseLinearBoundary(UP, grid, np.ones(grid.blocks + 1))
    table = fpt_distribution_table(b)
    exact = 2.0 * ndtr(-1.0 / np.sqrt(grid.knots[1:]))
    err = float(np.max(np.abs(table.cdf[1:] - exact)))
    _report(
        "criterion 1 constant-boundary cdf",
        err <= 1e-8,
        f"max |cdf - 2Phi(-1/sqrt t)| = {err:.3e} (tol 1e-8)",
        time.perf_counter() - start,
        1.0,
    )


def test_02_linear_boundary_oracle():
    start = time.perf_counter()
    grid = DyadicGrid(1.0, 6)
    b = PiecewiseLinearBoundary(UP, grid, 1.0 + 0.5 * grid.knots)
    table = fpt_distribution_table(b)
    seg = LinearSegment(0.5, 1.0)
    worst = 0.0
    for m in range(grid.blocks):
        ref = quad(
            lambda s: linear_fpt_density(seg, s),
            max(grid.knots[m], 1e-12),
            grid.knots[m + 1],
            epsabs=1e-12,
            epsrel=1e-12,
        )[0]
        worst = max(worst, abs(float(table.block_masses[m + 1]) - ref))
    _report(
        "criterion 2 linear-boundary block masses",
        worst <= 1e-6,
        f"max block-mass error vs adaptive quadrature = {worst:.3e} (tol 1e-6)",
        time.perf_counter() - start,
        5.0,
    )


def test_03_symmetric_series_cross_check():
    start = time.perf_counter()
    worst = 0.0
    for C in (0.0, 0.5, 1.0):
        for D in (0.5, 1.0, 2.0):
            params = AndersonParams(D, C, -D, -C)
            for t in np.linspace(0.04, 2.0, 50):
                a = anderson_two_sided_density(params, float(t))
                s = symmetric_linear_density(C, D, float(t))
                worst = max(worst, abs(a - s))
    _report(
        "criterion 3 two-sided series agreement",
        worst <= 1e-10,
        f"max |factored series - image series| = {worst:.3e} (tol 1e-10)",
        time.perf_counter() - start,
        1.0,
    )


def test_04_brute_force_equivalence(block_crossing):
    start = time.perf_counter()
    grid = DyadicGrid(1.0, 2)
    b = PiecewiseLinearBoundary(UP, grid, 1.0 + 0.25 * grid.knots)
    worst = 0.0
    for m in (1, 2, 3):
        brute = brute_force_block_check(b, m)
        fwd = block_crossing(b, m)
        worst = max(worst, abs(brute - fwd))
    _report(
        "criterion 4 tensor-quadrature equivalence",
        worst <= 1e-6,
        f"max |tensor - sequential| over m=1..3 = {worst:.3e} (tol 1e-6)",
        time.perf_counter() - start,
        120.0,
    )


def test_05_monotonicity_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    cdf_violations = 0
    for _ in range(1000):
        side = UP if rng.random() < 0.5 else SYM
        t = rng.uniform(0.05, 4.0)
        # keep x/sqrt(t) >= 0.25: below that the crossing probability
        # saturates to 1.0 in double precision and strict ordering is vacuous
        x = rng.uniform(0.25, 6.0) * math.sqrt(t)
        dx = rng.uniform(1e-3, 1.0)
        if not constant_boundary_cdf(x + dx, t, side) < constant_boundary_cdf(x, t, side):
            cdf_violations += 1

    # frozen states at random blocks of random boundaries, both sides
    states = []
    for _ in range(12):
        side = UP if rng.random() < 0.5 else SYM
        level = int(rng.integers(2, 4))
        grid = DyadicGrid(1.0, level)
        values = rng.uniform(0.6, 1.6) + rng.uniform(-0.2, 0.3) * grid.knots
        b = PiecewiseLinearBoundary(side, grid, values)
        dt = grid.block_width
        state = initial_subdensity(float(values[0]), float(values[1]), dt, side)
        for m in range(1, grid.blocks - 1):
            states.append((state, float(values[m]), dt, side))
            state = propagated_subdensity(state, float(values[m]), float(values[m + 1]), dt, side)
    slope_violations = 0
    for _ in range(1000):
        state, g0, dt, side = states[int(rng.integers(0, len(states)))]
        a = rng.uniform(-3.0, 2.5)
        b_slope = a + rng.uniform(0.05, 2.0)
        hi = crossing_mass(state, g0, g0 + a * dt, dt, side)[0]
        lo = crossing_mass(state, g0, g0 + b_slope * dt, dt, side)[0]
        if not hi > lo:
            slope_violations += 1
    _report(
        "criterion 5 monotonicity suites",
        cdf_violations == 0 and slope_violations == 0,
        f"violations: cdf-in-level {cdf_violations}/1000, crossing-in-slope "
        f"{slope_violations}/1000 (required 0)",
        time.perf_counter() - start,
        None,
    )


def test_06_inverse_per_block_matching():
    d = exponential_target(1.0)
    worst = 0.0
    elapsed6 = 0.0
    for side in (UP, SYM):
        for level in (2, 4, 6):
            start = time.perf_counter()
            sol = construct_boundary(d, 1.0, level, side)
            took = time.perf_counter() - start
            if level == 6:
                elapsed6 = max(elapsed6, took)
            worst = max(worst, max(abs(r.residual) for r in sol.records))
    _report(
        "criterion 6 inverse per-block matching",
        worst <= 1e-10,
        f"max |residual| over n in {{2,4,6}} x both sides = {worst:.3e} (tol 1e-10)",
        elapsed6,
        60.0,
    )


def test_07_nested_grid_consistency():
    start = time.perf_counter()
    d = exponential_target(1.0)
    sol8 = construct_boundary(d, 1.0, 8, UP)
    table = fpt_distribution_table(sol8.boundary)
    coarse = DyadicGrid(1.0, 4)
    fine = table.block_masses[1:].reshape(coarse.blocks, -1).sum(axis=1)
    targets = np.array(
        [float(d.cdf_at(coarse.knot(m + 1)) - d.cdf_at(coarse.knot(m))) for m in range(16)]
    )
    defect = float(np.max(np.abs(fine - targets)))
    allowed = 2**4 * PROBABILITY_TOL + 1e-8
    _report(
        "criterion 7 nested-grid consistency",
        defect <= allowed,
        f"level-8 masses aggregated onto level-4 blocks: defect {defect:.3e} "
        f"(tol {allowed:.3e})",
        time.perf_counter() - start,
        120.0,
    )


def test_08_forward_inverse_round_trip(line_target):
    start = time.perf_counter()
    d = line_target(0.5, 1.0)
    sups = {}
    for level in (4, 8):
        sol = construct_boundary(d, 1.0, level, UP)
        truth = 1.0 + 0.5 * sol.boundary.grid.knots
        sups[level] = float(np.max(np.abs(sol.boundary.knot_values - truth)))
    _report(
        "criterion 8 forward-inverse round trip",
        sups[8] <= 0.02 and sups[8] < sups[4],
        f"sup-norm error n=8: {sups[8]:.4f} (tol 0.02), n=4: {sups[4]:.4f} "
        f"(must exceed n=8)",
        time.perf_counter() - start,
        180.0,
    )


def test_09_end_to_end_target_match():
    start = time.perf_counter()
    d = exponential_target(1.0)
    sol = construct_boundary(d, 1.0, 6, UP)
    cfg = SimConfig(paths=1_000_000, seed=20240817)
    emp = simulate_hitting_times(sol.boundary, cfg)
    stat = ks_block_distance(emp, d)
    emp2 = simulate_hitting_times(sol.boundary, cfg)
    reproducible = np.array_equal(emp.hits, emp2.hits) and emp.survivors == emp2.survivors
    _report(
        "criterion 9 end-to-end distribution match",
        stat <= 0.005 and reproducible,
        f"K-S block statistic {stat:.5f} (tol 0.005), bit-for-bit reproducible: "
        f"{reproducible}",
        time.perf_counter() - start,
        300.0,
    )


def test_10_bridge_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(7_2024)
    worst_sigma = 0.0
    paths = 1_000_000
    for k in range(20):
        g0 = rng.uniform(0.3, 2.5)
        slope = rng.uniform(-1.5, 2.0)
        horizon = rng.uniform(0.1, 2.0)
        grid = DyadicGrid(horizon, 1)
        b = PiecewiseLinearBoundary(UP, grid, g0 + slope * grid.knots)
        emp = simulate_hitting_times(b, SimConfig(paths=paths, seed=k))
        p = float(linear_boundary_cdf(LinearSegment(slope, g0), horizon))
        se = math.sqrt(p * (1.0 - p) / paths)
        worst_sigma = max(worst_sigma, abs((1.0 - emp.survivors / paths) - p) / se)
    _report(
        "criterion 10 bridge-corrected simulation exactness",
        worst_sigma <= 3.0,
        f"worst deviation over 20 random segments: {worst_sigma:.2f} standard "
        f"errors (tol 3)",
        time.perf_counter() - start,
        180.0,
    )
