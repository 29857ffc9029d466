"""Boundary construction for a prescribed hitting-time law: block by block,
the segment slope is solved so that the realized crossing probability of the
block matches the target mass, then the absorbed density is pushed forward
and the next block is solved.

Each block's objective is continuous and strictly decreasing in the slope,
so it has a unique root, found by safeguarded regula falsi (Illinois
variant) inside a bracket.  Block m >= 2 starts its bracket at block m-1's
slope, so a smooth boundary needs about five crossing-mass evaluations per
block; block 1 starts cold from ±``bracket_halfwidth``.

The solve propagates the absorbed state across every block once, and the
survivals of those states are the solved boundary's hitting-time table
(``InverseSolution.table``).  The refinement ladder reads each level's block
masses, and so its nested defect, from these survival drops instead of a
second forward pass over the solved boundary.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closed_form import constant_boundary_cdf
from .core import (
    BlockSolveRecord,
    BoundarySide,
    ConvergenceError,
    DyadicGrid,
    InfeasibleTargetError,
    MAX_LEVEL,
    PiecewiseLinearBoundary,
    SubDensity,
    TargetDistribution,
    ValidationError,
    block_mass,
    validate_target,
)
from .forward import (
    FptTable,
    QuadratureConfig,
    crossing_mass,
    initial_subdensity,
    propagated_subdensity,
)
# Unused here; kept importable because the benchmark's tracer wraps this name.
from .forward import fpt_distribution_table  # noqa: F401

__all__ = [
    "SolverConfig",
    "InverseSolution",
    "solve_first_block",
    "solve_block",
    "construct_boundary",
    "refine",
    "LevelReport",
    "RefinementReport",
]

log = logging.getLogger(__name__)

#: Bracket endpoints are never expanded beyond this magnitude.
_BRACKET_LIMIT = 2.0**50

#: Smallest first step of a warm-started slope bracket.
_STEP_FLOOR = 0.01

#: Relative bracket width at which the root is considered pinned.
_WIDTH_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and bracketing policy for the block solves.

    ``probability_tol`` is a tolerance on matched probability mass, not on
    the slope; slope accuracy follows from the local derivative and is
    reported through the solve records.

    ``bracket_halfwidth`` only seeds the cold starts: the first block's
    level search starts there, and block 1's slope bracket is
    ±``bracket_halfwidth``.  Later blocks start from the previous slope.
    Every bracket grows by ``bracket_growth`` until it holds the root.
    """

    probability_tol: float = 1e-10
    bracket_halfwidth: float = 4.0
    bracket_growth: float = 2.0
    max_iterations: int = 200
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    slope_warn_threshold: float = 1e3

    def __post_init__(self) -> None:
        if not self.probability_tol > 0.0:
            raise ValueError("probability_tol must be positive")
        if not self.bracket_growth > 1.0:
            raise ValueError("bracket_growth must exceed 1")
        if self.bracket_halfwidth <= 0.0 or self.max_iterations < 8:
            raise ValueError("bad bracketing parameters")


def _residual_tol(cfg: SolverConfig, target: float) -> float:
    # tighter than probability_tol for tiny masses so the root itself, not
    # just the matched probability, is accurate
    return min(cfg.probability_tol, max(1e-3 * target, 1e-300))


def _refine_root(
    fun: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    cfg: SolverConfig,
    iters: int,
) -> tuple[float, float, int, float, float]:
    """Locate the root of the decreasing ``fun`` inside a valid bracket.

    Regula falsi with the Illinois modification: every step is the secant
    through the two bracket ends, and an end kept twice in a row has its
    residual halved, so both ends close in.  A secant candidate outside the
    open bracket is replaced by the midpoint.
    """
    tol = _residual_tol(cfg, target)
    bracket = (lo, hi)
    r_lo, r_hi = f_lo - target, f_hi - target
    kept = 0  # +1 when lo survived the last step, -1 when hi did
    f_c = math.nan
    while iters < cfg.max_iterations:
        width = hi - lo
        cand = 0.5 * (lo + hi)
        if r_lo > r_hi:
            sec = lo + r_lo * width / (r_lo - r_hi)
            if lo < sec < hi:
                cand = sec
        f_c = fun(cand)
        iters += 1
        if abs(f_c - target) <= tol or width <= _WIDTH_TOL * max(1.0, abs(lo), abs(hi)):
            if abs(f_c - target) > cfg.probability_tol:
                raise ConvergenceError(
                    f"bracket collapsed but residual {f_c - target:.3g} exceeds "
                    f"the probability tolerance {cfg.probability_tol:g}"
                )
            return cand, f_c, iters, bracket[0], bracket[1]
        if f_c > target:
            lo, r_lo = cand, f_c - target
            if kept < 0:
                r_hi *= 0.5
            kept = -1
        else:
            hi, r_hi = cand, f_c - target
            if kept > 0:
                r_lo *= 0.5
            kept = 1
    raise ConvergenceError(
        f"root not located within {cfg.max_iterations} iterations "
        f"(last residual {f_c - target:.3g})"
    )


def solve_first_block(
    d: TargetDistribution, grid: DyadicGrid, side: BoundarySide, cfg: SolverConfig
) -> tuple[float, BlockSolveRecord]:
    """Solve the constant level of the first segment.

    The hitting probability of a constant boundary over the first block is
    continuous and strictly decreasing in the level, from 1 down to 0, so
    the matching level exists, is unique and strictly positive.
    """
    t1 = grid.knot(1)
    target = block_mass(d, 0.0, t1)
    if not 0.0 < target < 1.0:
        raise InfeasibleTargetError(
            f"first-block mass {target:g} outside (0, 1)", block=0
        )

    def fun(z: float) -> float:
        return float(constant_boundary_cdf(z, t1, side))

    lo = hi = cfg.bracket_halfwidth
    f_lo = f_hi = fun(hi)
    iters = 1
    while f_hi > target:
        lo, f_lo = hi, f_hi
        hi *= cfg.bracket_growth
        if hi > _BRACKET_LIMIT:
            raise ConvergenceError("level bracket expansion diverged")
        f_hi = fun(hi)
        iters += 1
    while f_lo < target:
        hi, f_hi = lo, f_lo
        lo /= cfg.bracket_growth
        if lo < 1e-300:
            raise ConvergenceError("level bracket expansion diverged toward zero")
        f_lo = fun(lo)
        iters += 1
    root, achieved, iters, b_lo, b_hi = _refine_root(fun, target, lo, hi, f_lo, f_hi, cfg, iters)
    rec = BlockSolveRecord(
        block=0,
        alpha=root,
        target_mass=target,
        achieved=achieved,
        residual=achieved - target,
        bracket_lo=b_lo,
        bracket_hi=b_hi,
        iterations=iters,
    )
    return root, rec


def solve_block(
    p: SubDensity,
    d: TargetDistribution,
    m: int,
    side: BoundarySide,
    cfg: SolverConfig,
    boundary_value: float,
    dt: float | None = None,
    guess: float | None = None,
    step: float = _STEP_FLOOR,
) -> tuple[float, BlockSolveRecord]:
    """Solve the slope of block m given the absorbed state at its left knot.

    ``boundary_value`` is the inherited boundary value at the knot; the
    candidate segment runs from it with the trial slope.  The block's target
    mass must be strictly positive and strictly below the current survival.

    Without a ``guess`` the slope bracket starts at ±``bracket_halfwidth``.
    With one (the previous block's slope, say) it starts at ``guess`` and
    ``guess ± step`` on the side where the root lies; either way it grows
    outward by ``bracket_growth`` until it holds the root.
    """
    if m < 1:
        raise ValueError("solve_block handles blocks m >= 1")
    if guess is not None and not (math.isfinite(guess) and 0.0 < step < math.inf):
        raise ValueError("a warm start needs a finite guess and a finite positive step")
    if dt is None:
        dt = p.time / m
    target = block_mass(d, p.time, p.time + dt)
    survival = p.survival
    if target <= 0.0:
        raise InfeasibleTargetError(f"block {m} target mass {target:g} is not positive", block=m)
    if target >= survival - cfg.probability_tol:
        raise InfeasibleTargetError(
            f"block {m} target mass {target:.12g} reaches the survival "
            f"probability {survival:.12g}",
            block=m,
        )

    def fun(a: float) -> float:
        return crossing_mass(p, boundary_value, boundary_value + a * dt, dt, side)

    if guess is None:
        center, lo, hi = 0.0, -cfg.bracket_halfwidth, cfg.bracket_halfwidth
        f_lo, f_hi = fun(lo), fun(hi)
    else:
        center, f_c = guess, fun(guess)
        if f_c > target:
            lo, f_lo, hi = guess, f_c, guess + step
            f_hi = fun(hi)
        else:
            lo, hi, f_hi = guess - step, guess, f_c
            f_lo = fun(lo)
    iters = 2
    while f_hi > target:
        lo, f_lo = hi, f_hi
        hi = center + (hi - center) * cfg.bracket_growth
        if hi > _BRACKET_LIMIT:
            raise ConvergenceError(f"slope bracket for block {m} diverged upward")
        f_hi = fun(hi)
        iters += 1
    while f_lo < target:
        hi, f_hi = lo, f_lo
        lo = center + (lo - center) * cfg.bracket_growth
        if lo < -_BRACKET_LIMIT:
            raise ConvergenceError(f"slope bracket for block {m} diverged downward")
        f_lo = fun(lo)
        iters += 1
    root, achieved, iters, b_lo, b_hi = _refine_root(fun, target, lo, hi, f_lo, f_hi, cfg, iters)
    rec = BlockSolveRecord(
        block=m,
        alpha=root,
        target_mass=target,
        achieved=achieved,
        residual=achieved - target,
        bracket_lo=b_lo,
        bracket_hi=b_hi,
        iterations=iters,
    )
    return root, rec


@dataclass(frozen=True)
class InverseSolution:
    """Solved boundary with per-block diagnostics.

    ``max_abs_slope`` is the largest magnitude among the solved quantities
    (the first block's constant level included), the empirical counterpart
    of the uniform slope bound behind the refinement argument.

    ``table`` is the hitting-time table of the solve's own forward pass:
    the survivals of the states it propagated to knots 1..blocks.  It equals
    ``fpt_distribution_table(boundary, cfg.quadrature)`` bit for bit.
    """

    boundary: PiecewiseLinearBoundary
    records: tuple[BlockSolveRecord, ...]
    max_abs_slope: float
    table: FptTable

    def diagnostics(self, nested_defect: float | None = None) -> dict:
        return {
            "schema_version": 1,
            "level": self.boundary.grid.level,
            "horizon": self.boundary.grid.horizon,
            "side": self.boundary.side.value,
            "blocks": [
                {
                    "block": r.block,
                    "target_mass": r.target_mass,
                    "achieved": r.achieved,
                    "residual": r.residual,
                    "slope": r.alpha,
                    "iterations": r.iterations,
                }
                for r in self.records
            ],
            "max_abs_slope": self.max_abs_slope,
            "nested_defect": nested_defect,
        }


def construct_boundary(
    d: TargetDistribution,
    horizon: float,
    level: int,
    side: BoundarySide,
    cfg: SolverConfig | None = None,
) -> InverseSolution:
    """Build the piecewise-linear boundary whose block crossing probabilities
    match the target block masses on the dyadic grid.

    The target is validated first.  Any failing block aborts the run with
    the records solved so far attached to the raised error.
    """
    cfg = cfg or SolverConfig()
    report = validate_target(d, horizon)
    if not report.ok:
        raise ValidationError(str(report))
    grid = DyadicGrid(horizon, level)
    dt = grid.block_width
    knots = np.empty(grid.blocks + 1)
    records: list[BlockSolveRecord] = []

    alpha0, rec = solve_first_block(d, grid, side, cfg)
    records.append(rec)
    knots[0] = knots[1] = alpha0
    state = initial_subdensity(alpha0, alpha0, dt, side, cfg.quadrature)
    survivals = [state.survival]

    # Block m starts from block m-1's slope and first steps twice the last
    # slope change (block 1's change is taken from slope 0).
    guess, step = None, _STEP_FLOOR
    for m in range(1, grid.blocks):
        try:
            slope, rec = solve_block(
                state, d, m, side, cfg, boundary_value=float(knots[m]), dt=dt,
                guess=guess, step=step,
            )
        except (InfeasibleTargetError, ConvergenceError) as exc:
            if isinstance(exc, InfeasibleTargetError):
                exc.records = list(records)
            raise
        records.append(rec)
        step = max(2.0 * abs(slope - (guess or 0.0)), _STEP_FLOOR)
        guess = slope
        knots[m + 1] = knots[m] + slope * dt
        state = propagated_subdensity(
            state, float(knots[m]), float(knots[m + 1]), dt, side, cfg.quadrature
        )
        survivals.append(state.survival)

    boundary = PiecewiseLinearBoundary(side, grid, knots)
    max_abs = max(abs(r.alpha) for r in records)
    if max_abs > cfg.slope_warn_threshold:
        log.warning(
            "solved slopes reach %.3g (threshold %.3g); target may sit near "
            "the feasibility boundary",
            max_abs,
            cfg.slope_warn_threshold,
        )
    return InverseSolution(
        boundary=boundary,
        records=tuple(records),
        max_abs_slope=max_abs,
        table=FptTable.from_survivals(grid, survivals),
    )


@dataclass(frozen=True)
class LevelReport:
    """One rung of the refinement ladder."""

    level: int
    solution: InverseSolution
    sup_distance_prev: float | None
    max_abs_slope: float
    nested_defect: float

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "sup_distance_prev": self.sup_distance_prev,
            "max_abs_slope": self.max_abs_slope,
            "nested_defect": self.nested_defect,
        }


@dataclass(frozen=True)
class RefinementReport:
    """Solutions across grid levels with stabilization diagnostics.

    ``nested_defect`` at each level compares the solved boundary's block
    masses, the survival drops of the solve's own forward pass
    (``InverseSolution.table``) aggregated onto the coarsest grid, against
    the coarse target masses.  ``horizon`` is recorded so ladders
    for different horizons can be compared externally.
    """

    horizon: float
    side: BoundarySide
    levels: tuple[LevelReport, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "horizon": self.horizon,
            "side": self.side.value,
            "levels": [lv.to_dict() for lv in self.levels],
        }


def refine(
    d: TargetDistribution,
    horizon: float,
    n_min: int,
    n_max: int,
    side: BoundarySide,
    cfg: SolverConfig | None = None,
) -> RefinementReport:
    """Solve the inverse problem on levels n_min..n_max and report how the
    boundaries stabilize across the nested grids."""
    cfg = cfg or SolverConfig()
    if not 1 <= n_min <= n_max <= MAX_LEVEL:
        raise ValueError(f"need 1 <= n_min <= n_max <= {MAX_LEVEL}")
    coarse = DyadicGrid(horizon, n_min)
    coarse_masses = np.array(
        [block_mass(d, coarse.knot(m), coarse.knot(m + 1)) for m in range(coarse.blocks)]
    )
    reports: list[LevelReport] = []
    prev_boundary: PiecewiseLinearBoundary | None = None
    for n in range(n_min, n_max + 1):
        sol = construct_boundary(d, horizon, n, side, cfg)
        sup_prev = None
        if prev_boundary is not None:
            ts = prev_boundary.grid.knots
            sup_prev = float(np.max(np.abs(sol.boundary.upper(ts) - prev_boundary.upper(ts))))
        fine_masses = sol.table.block_masses[1:]
        grouped = fine_masses.reshape(coarse.blocks, -1).sum(axis=1)
        defect = float(np.max(np.abs(grouped - coarse_masses)))
        reports.append(
            LevelReport(
                level=n,
                solution=sol,
                sup_distance_prev=sup_prev,
                max_abs_slope=sol.max_abs_slope,
                nested_defect=defect,
            )
        )
        prev_boundary = sol.boundary
    return RefinementReport(horizon=horizon, side=side, levels=tuple(reports))
