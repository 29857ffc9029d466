"""Boundary construction for a prescribed hitting-time law: block by block,
from the absorbed density at the block's left knot (block 0's is
:data:`~ifpt.forward.ORIGIN`, the unit point mass at the origin), the
block's unknown (block 0's constant level, every later block's slope) is
solved so that the block's crossing probability matches the target mass,
then the density is pushed across the block and the next block is solved.

Each block's crossing mass is continuous and strictly decreasing in its
unknown, so it has a unique root, and one search finds it for every block
(:func:`_root_search`): Newton steps while the objective returns a negative
derivative, then bracket growth and safeguarded regula falsi (Illinois
variant; Dowell & Jarratt, BIT 11, 1971) from the points already evaluated.
Block 0 starts from the level at which the constant-boundary cdf's leading
reflection term carries the target mass.  A slope's crossing-mass
evaluation returns its derivative from the same per-node pass
(:func:`crossing_mass`), except on a narrow corridor or where a crossing
rounds above 1.  Blocks 1 and 2 start from slope 0; block m >= 3 from the
slope extrapolated linearly from blocks m-1 and m-2.  For exp(1) the
blocks take 3.28, 2.36, 2.18 and 1.86 evaluations on average at n = 5, 7, 8
and 10 on the upper side (3.88, 2.48, 2.22 and 1.88 on the corridor).

The matched masses are cumulative: each block aims at its target mass less
the cdf error left at its left knot (the ``carry``), so its residual is the
cdf error at its right knot.  Newton approaches a convex objective from one
side, so without the carry the residuals, each within ``PROBABILITY_TOL``,
would share a sign and add up along the solve.

The solve propagates the absorbed state across every block once, and the
survivals of those states are the solved boundary's hitting-time table
(``InverseSolution.table``).  The refinement ladder reads each level's block
masses, and so its nested defect, from these survival drops instead of a
second forward pass over the solved boundary.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .closed_form import _REFLECTION_MIN, constant_boundary_cdf
from .core import (
    BlockSolveRecord,
    BoundarySide,
    ConvergenceError,
    DyadicGrid,
    InfeasibleTargetError,
    MAX_LEVEL,
    NumericalConsistencyError,
    PiecewiseLinearBoundary,
    SubDensity,
    TargetDistribution,
    ValidationError,
    block_mass,
    validate_target,
)
from .forward import ORIGIN, FptTable, crossing_mass, propagated_subdensity
# Unused here; kept importable because the benchmark's tracer wraps these names.
from .forward import fpt_distribution_table, initial_subdensity  # noqa: F401

__all__ = [
    "PROBABILITY_TOL",
    "InverseSolution",
    "solve_first_block",
    "solve_block",
    "construct_boundary",
    "refine",
    "LevelReport",
    "RefinementReport",
]

log = logging.getLogger(__name__)

#: Tolerance on each block's matched probability mass, not on its slope; the
#: slope's error is about the mass residual over the derivative of the
#: block's crossing mass in the slope, which each record keeps as
#: ``BlockSolveRecord.dmass_dslope``.
PROBABILITY_TOL = 1e-10

#: Bracket endpoints are never expanded beyond this magnitude.
_BRACKET_LIMIT = 2.0**50

#: Smallest first step of an extrapolated start's slope bracket.
_STEP_FLOOR = 0.01

#: Relative bracket width at which the root is considered pinned.
_WIDTH_TOL = 1e-13

#: A slope search without a slope history seeks its missing bracket end this
#: far from its start.
_BRACKET_HALFWIDTH = 4.0

#: Factor by which every bracket grows until it holds the root.
_BRACKET_GROWTH = 2.0

#: Objective evaluations per block, bracketing included, after which the
#: root search gives up.
_MAX_ITERATIONS = 200

#: A solve whose largest slope magnitude exceeds this logs a warning.
_SLOPE_WARN = 1e3


def _residual_tol(target: float) -> float:
    # tighter than PROBABILITY_TOL for tiny masses so the root itself, not
    # just the matched probability, is accurate
    return min(PROBABILITY_TOL, max(1e-3 * target, 1e-300))


def _root_search(
    objective: Callable[[float], tuple[float, float]],
    target: float,
    start: float,
    step: float,
    block: int,
    carry: float = 0.0,
) -> tuple[float, BlockSolveRecord]:
    """Find the root of ``objective(a)[0] = target`` for block ``block``,
    where the objective is strictly decreasing in ``a`` and also returns its
    derivative in ``a``, NaN where it has none.

    Newton steps run from ``start`` while the derivative is negative and
    each step lands inside the bracket known so far.  Then a missing
    bracket end is sought ``step``, 2·``step``, 4·``step``, ... away from the
    known one, and safeguarded regula falsi (Illinois variant) closes the
    bracket: every step is the secant through the two ends, an end kept
    twice in a row has its residual halved, and a secant outside the open
    bracket is replaced by the midpoint.
    """
    tol = _residual_tol(target)
    lo, hi, r_lo, r_hi = -math.inf, math.inf, math.nan, math.nan
    least = most = a = start  # the smallest and largest points evaluated
    newton, pinned, center, reach = True, False, math.nan, step
    kept = None  # from the first secant step: +1 when lo survived the last, -1 when hi did
    for evals in range(1, _MAX_ITERATIONS + 1):
        f, derivative = objective(a)
        r = f - target
        least, most = min(least, a), max(most, a)
        if abs(r) <= tol or pinned:
            if abs(r) > PROBABILITY_TOL:
                raise ConvergenceError(
                    f"bracket collapsed but residual {r:.3g} exceeds "
                    f"the probability tolerance {PROBABILITY_TOL:g}"
                )
            return a, BlockSolveRecord(
                block=block,
                alpha=a,
                target_mass=target,
                achieved=f,
                residual=r,
                bracket_lo=least,
                bracket_hi=most,
                iterations=evals,
                carry=carry,
                # block 0's unknown is a level, not a slope
                dmass_dslope=derivative if block else math.nan,
            )
        if r > 0.0:
            lo, r_lo = a, r
            if kept is not None:
                if kept < 0:
                    r_hi *= 0.5
                kept = -1
        else:
            hi, r_hi = a, r
            if kept is not None:
                if kept > 0:
                    r_lo *= 0.5
                kept = 1
        width = hi - lo
        pinned = math.isfinite(width) and width <= _WIDTH_TOL * max(1.0, abs(lo), abs(hi))
        if newton and derivative < 0.0 and not pinned:
            a -= r / derivative
            if lo < a < hi and abs(a) <= _BRACKET_LIMIT:
                continue
        newton = False
        if math.isinf(width):  # grow away from the one known end
            up = math.isinf(hi)
            if math.isnan(center):
                center = lo if up else hi
            a = center + reach if up else center - reach
            reach *= _BRACKET_GROWTH
            if abs(a) > _BRACKET_LIMIT:
                way = "upward" if up else "downward"
                raise ConvergenceError(f"root bracket for block {block} diverged {way}")
        else:
            kept = kept or 0
            a = 0.5 * (lo + hi)
            if r_lo > r_hi:
                secant = lo + r_lo * width / (r_lo - r_hi)
                if lo < secant < hi:
                    a = secant
    raise ConvergenceError(
        f"root not located within {_MAX_ITERATIONS} iterations "
        f"(last residual {r:.3g})"
    )


def solve_first_block(
    d: TargetDistribution, grid: DyadicGrid, side: BoundarySide
) -> tuple[float, BlockSolveRecord]:
    """Solve the constant level of the first segment.

    The hitting probability of a constant boundary over the first block is
    continuous and strictly decreasing in the level, from 1 at the origin
    (and below, where the boundary is crossed at once) down to 0, so the
    matching level exists, is unique and strictly positive.  The search
    starts from the level at which the leading reflection term of the k
    walls (k = 1 upper, 2 on the corridor) carries the target mass,
    z = -sqrt(t1)·Phi^-1(mass / 2k), exact on the upper side, and takes that
    term's derivative for its Newton steps; the corridor's spectral regime
    (z / sqrt(t1) below ``_REFLECTION_MIN``) gets none.
    """
    t1 = grid.knot(1)
    target = block_mass(d, 0.0, t1)
    if not 0.0 < target < 1.0:
        raise InfeasibleTargetError(
            f"first-block mass {target:g} outside (0, 1)", block=0
        )
    walls = 1 if side is BoundarySide.UPPER_ONLY else 2
    root_t1 = math.sqrt(t1)
    peak = -2.0 * walls / math.sqrt(2.0 * math.pi * t1)  # the leading term's derivative at z = 0

    def objective(z: float) -> tuple[float, float]:
        if z <= 0.0:
            return 1.0, math.nan
        x = z / root_t1
        if walls == 2 and x < _REFLECTION_MIN:
            derivative = math.nan
        else:
            derivative = peak * math.exp(-0.5 * x * x)
        return float(constant_boundary_cdf(z, t1, side)), derivative

    start = -root_t1 * float(ndtri(target / (2 * walls)))
    return _root_search(objective, target, start, 0.5 * start, 0)


def solve_block(
    p: SubDensity,
    d: TargetDistribution,
    m: int,
    side: BoundarySide,
    boundary_value: float,
    *,
    dt: float,
    guess: float = 0.0,
    step: float = _BRACKET_HALFWIDTH,
    carry: float = 0.0,
) -> tuple[float, BlockSolveRecord]:
    """Solve the slope of block m given the absorbed state at its left knot.

    ``boundary_value`` is the inherited boundary value at the knot; the
    candidate segment runs from it with the trial slope over the block
    width ``dt``.  The block's target mass must be strictly positive and
    strictly below the current survival.  The block aims at the target mass
    less ``carry``, the cdf error at its left knot, so that its residual is
    the error at its right knot; at most half the target mass is taken
    back, so the aim stays positive.

    The search starts at ``guess``, each evaluation returning the crossing
    mass and its slope derivative, and seeks a missing bracket end from
    ``step`` away (:func:`_root_search`).
    """
    if m < 1:
        raise ValueError("solve_block handles blocks m >= 1")
    if not (math.isfinite(guess) and 0.0 < step < math.inf):
        raise ValueError("the slope search needs a finite guess and a finite positive step")
    mass = block_mass(d, p.time, p.time + dt)
    survival = p.survival
    if mass <= 0.0:
        raise InfeasibleTargetError(f"block {m} target mass {mass:g} is not positive", block=m)
    if mass >= survival - PROBABILITY_TOL:
        raise InfeasibleTargetError(
            f"block {m} target mass {mass:.12g} reaches the survival "
            f"probability {survival:.12g}",
            block=m,
        )
    carry = min(carry, 0.5 * mass)
    g0 = boundary_value

    def objective(a: float) -> tuple[float, float]:
        f, df_dg1 = crossing_mass(p, g0, g0 + a * dt, dt, side)
        return f, df_dg1 * dt

    return _root_search(objective, mass - carry, guess, step, m, carry)


@dataclass(frozen=True)
class InverseSolution:
    """Solved boundary with per-block diagnostics.

    ``max_abs_slope`` is the largest magnitude among the solved quantities
    (the first block's constant level included), the empirical counterpart
    of the uniform slope bound behind the refinement argument.

    ``table`` is the hitting-time table of the solve's own forward pass:
    the survivals of the states it propagated to knots 1..blocks.  It equals
    ``fpt_distribution_table(boundary)`` bit for bit.
    """

    boundary: PiecewiseLinearBoundary
    records: tuple[BlockSolveRecord, ...]
    max_abs_slope: float
    table: FptTable

    def diagnostics(self) -> dict:
        """The solve as schema-1 ``diagnostics.json``; its ``nested_defect``
        is null, since :func:`refine` reports that defect per level, and so
        is a block's ``dmass_dslope`` where it is not available."""
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
                    "carry": r.carry,
                    "dmass_dslope": None if math.isnan(r.dmass_dslope) else r.dmass_dslope,
                }
                for r in self.records
            ],
            "max_abs_slope": self.max_abs_slope,
            "nested_defect": None,
        }


def construct_boundary(
    d: TargetDistribution,
    horizon: float,
    level: int,
    side: BoundarySide,
) -> InverseSolution:
    """Build the piecewise-linear boundary whose block crossing probabilities
    match the target block masses on the dyadic grid.

    The grid is checked first, then the target, so a bad level fails before
    any target sampling.  Any failing block aborts the run with the records
    solved so far attached to the raised error.  A block whose target mass
    underflows to 0 raises :class:`NumericalConsistencyError`.
    """
    grid = DyadicGrid(horizon, level)
    report = validate_target(d, horizon)
    if not report.ok:
        raise ValidationError(str(report))
    # a zero block mass is underflow only if the sampled density is a normal
    # float64; a target whose own density is subnormal stays infeasible
    certified = report.density_floor >= np.finfo(float).tiny
    dt = grid.block_width
    knots = np.empty(grid.blocks + 1)
    records: list[BlockSolveRecord] = []
    state, survivals = ORIGIN, []

    # Every block runs the same root search from the state at its left knot,
    # block 0 from ORIGIN.  Block 0 solves its level, knots[0], and has
    # slope 0.  Blocks 1 and 2 start from solve_block's defaults: block 0 is
    # a level, so neither has two slopes to extrapolate from.  Block m >= 3
    # starts from the slope extrapolated linearly from blocks m-1 and m-2,
    # and a missing bracket end is sought twice their slope change away.
    # Each block aims at its target mass less the cdf error left at its
    # left knot.
    carry, guess, step = 0.0, 0.0, _BRACKET_HALFWIDTH
    for m in range(grid.blocks):
        try:
            if m == 0:
                knots[0], rec = solve_first_block(d, grid, side)
                slope = 0.0
            else:
                slope, rec = solve_block(
                    state, d, m, side, boundary_value=float(knots[m]), dt=dt,
                    guess=guess, step=step, carry=carry,
                )
        except InfeasibleTargetError as exc:
            if certified and block_mass(d, state.time, state.time + dt) == 0.0:
                raise NumericalConsistencyError(
                    f"block {m} target mass underflows to 0 at level {level}: "
                    "the target density is strictly positive, its mass is below "
                    "float64 range"
                ) from exc
            exc.records = list(records)
            raise
        records.append(rec)
        carry += rec.residual - rec.carry
        if m >= 2:
            guess, step = 2.0 * slope - prev, max(2.0 * abs(slope - prev), _STEP_FLOOR)
        prev = slope
        knots[m + 1] = knots[m] + slope * dt
        state = propagated_subdensity(state, float(knots[m]), float(knots[m + 1]), dt, side)
        survivals.append(state.survival)

    boundary = PiecewiseLinearBoundary(side, grid, knots)
    max_abs = max(abs(r.alpha) for r in records)
    if max_abs > _SLOPE_WARN:
        log.warning(
            "solved slopes reach %.3g (threshold %.3g); target may sit near "
            "the feasibility boundary",
            max_abs,
            _SLOPE_WARN,
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
) -> RefinementReport:
    """Solve the inverse problem on levels n_min..n_max and report how the
    boundaries stabilize across the nested grids."""
    for name, n in (("n_min", n_min), ("n_max", n_max)):
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"{name}: level must be an integer, got {n!r}")
        if not 1 <= n <= MAX_LEVEL:
            raise ValueError(f"{name}: level must be in [1, {MAX_LEVEL}], got {n}")
    if n_min > n_max:
        raise ValueError(f"need n_min <= n_max, got {n_min} > {n_max}")
    coarse = DyadicGrid(horizon, n_min)
    coarse_masses = np.array(
        [block_mass(d, coarse.knot(m), coarse.knot(m + 1)) for m in range(coarse.blocks)]
    )
    reports: list[LevelReport] = []
    prev_boundary: PiecewiseLinearBoundary | None = None
    for n in range(n_min, n_max + 1):
        sol = construct_boundary(d, horizon, n, side)
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
