"""Shared domain types: dyadic grids, piecewise-linear boundaries, target
distributions, and the absorbed-density state carried between blocks.

All types are immutable after construction and safe to share across
concurrent readers.
"""
from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MAX_LEVEL",
    "SURVIVAL_MASS_EPSILON",
    "ValidationError",
    "InfeasibleTargetError",
    "NumericalConsistencyError",
    "ConvergenceError",
    "BoundarySide",
    "DyadicGrid",
    "PiecewiseLinearBoundary",
    "TargetDistribution",
    "exponential_target",
    "uniform_target",
    "tabulated_target",
    "block_mass",
    "TargetValidationReport",
    "validate_target",
    "LatticeCells",
    "SubDensity",
    "BlockSolveRecord",
    "read_boundary_csv",
    "write_boundary_csv",
    "read_target_csv",
]

#: Hard cap on grid levels (2**14 = 16384 blocks keeps runs desk-scale).
MAX_LEVEL = 14

#: Minimum survival mass that must remain past the horizon: F(T) <= 1 - eps.
SURVIVAL_MASS_EPSILON = 1e-6

#: Serialization format preserving full double round-trip precision.
FLOAT_FMT = "%.17g"

#: Equal intervals of [0, T] on which :func:`validate_target` samples a target.
_SAMPLE_INTERVALS = 512


class ValidationError(ValueError):
    """A target distribution failed its admissibility checks."""


class InfeasibleTargetError(RuntimeError):
    """A block's target mass cannot be matched by any boundary segment."""

    def __init__(self, message: str, block: int | None = None, records: Sequence | None = None):
        super().__init__(message)
        self.block = block
        self.records = list(records) if records is not None else []


class NumericalConsistencyError(RuntimeError):
    """An internal numerical identity was violated beyond tolerance."""


class ConvergenceError(NumericalConsistencyError):
    """A series or iteration failed to converge within its budget."""


class BoundarySide(enum.Enum):
    """One-sided (lower component -inf) or symmetric pair (-g, g)."""

    UPPER_ONLY = "upper"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class DyadicGrid:
    """Time grid with knots m*T/2**n, m = 0..2**n.

    Knots are computed as (m*T)/2**n, which makes refinement exact: every
    level-n knot is bit-identical to the corresponding level-l knot for
    l >= n, since scaling by powers of two never rounds.
    """

    horizon: float
    level: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not isinstance(self.level, numbers.Integral):
            raise ValueError(f"level must be an integer, got {self.level!r}")
        if not 1 <= self.level <= MAX_LEVEL:
            raise ValueError(f"level must be in [1, {MAX_LEVEL}], got {self.level}")

    @property
    def blocks(self) -> int:
        return 2 ** self.level

    @property
    def block_width(self) -> float:
        return self.horizon / self.blocks

    @cached_property
    def knots(self) -> np.ndarray:
        k = np.arange(self.blocks + 1, dtype=float) * self.horizon / self.blocks
        k.setflags(write=False)
        return k

    def knot(self, m: int) -> float:
        if not 0 <= m <= self.blocks:
            raise ValueError(f"knot index {m} outside 0..{self.blocks}")
        return m * self.horizon / self.blocks


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PiecewiseLinearBoundary:
    """Piecewise-linear upper boundary on a dyadic grid.

    ``knot_values`` are the source of truth; slopes are derived, avoiding
    cumulative rounding drift across blocks.  For SYMMETRIC side the lower
    boundary is the pointwise negation of the upper one.
    """

    side: BoundarySide
    grid: DyadicGrid
    knot_values: np.ndarray

    def __post_init__(self) -> None:
        vals = _readonly(self.knot_values)
        object.__setattr__(self, "knot_values", vals)
        if vals.shape != (self.grid.blocks + 1,):
            raise ValueError(
                f"expected {self.grid.blocks + 1} knot values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("knot values must be finite")
        if vals[0] <= 0.0:
            raise ValueError("boundary must start strictly above the origin")
        if self.side is BoundarySide.SYMMETRIC and np.any(vals <= 0.0):
            raise ValueError("symmetric boundary requires strictly positive knot values")

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.knot_values) / self.grid.block_width

    def upper(self, t):
        """Linear interpolation of the upper component at time(s) t."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.grid.horizon):
            raise ValueError("evaluation time outside [0, T]")
        out = np.interp(t_arr, self.grid.knots, self.knot_values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def lower(self, t):
        if self.side is BoundarySide.UPPER_ONLY:
            t_arr = np.asarray(t, dtype=float)
            if np.any(t_arr < 0.0) or np.any(t_arr > self.grid.horizon):
                raise ValueError("evaluation time outside [0, T]")
            return float("-inf") if t_arr.ndim == 0 else np.full(t_arr.shape, -np.inf)
        neg = self.upper(t)
        return -neg


DensityFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TargetDistribution:
    """Target hitting-time law given by a density f and its CDF F on [0, T].

    ``lower_bound``/``upper_bound`` are the claimed bounds of f on the
    working horizon; they are optional and only checked when declared.
    ``mass`` may provide block masses more accurately than a CDF difference.
    ``breakpoints`` are kinks of the density; validation refines its sample
    grid there so quadrature checks stay exact for piecewise-linear tables.
    """

    density: DensityFn
    cdf: DensityFn
    kind: str
    lower_bound: float | None = None
    upper_bound: float | None = None
    mass: Callable[[float, float], float] | None = None
    breakpoints: np.ndarray | None = None

    def density_at(self, t) -> np.ndarray:
        return np.asarray(self.density(np.asarray(t, dtype=float)), dtype=float)

    def cdf_at(self, t) -> np.ndarray:
        return np.asarray(self.cdf(np.asarray(t, dtype=float)), dtype=float)


def block_mass(d: TargetDistribution, t0: float, t1: float) -> float:
    """Target probability assigned to the block [t0, t1]."""
    if d.mass is not None:
        return float(d.mass(t0, t1))
    return float(d.cdf_at(t1) - d.cdf_at(t0))


def exponential_target(rate: float) -> TargetDistribution:
    """Exponential hitting-time target with the given rate."""
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate:g}")

    def density(t):
        return rate * np.exp(-rate * np.asarray(t, dtype=float))

    def cdf(t):
        return -np.expm1(-rate * np.asarray(t, dtype=float))

    def mass(t0, t1):
        # exp(-r*t0) - exp(-r*t1), stable for nearby endpoints
        return -math.exp(-rate * t0) * math.expm1(-rate * (t1 - t0))

    return TargetDistribution(
        density=density,
        cdf=cdf,
        kind=f"exponential({rate:g})",
        lower_bound=None,
        upper_bound=rate,
        mass=mass,
    )


def uniform_target(a: float, b: float) -> TargetDistribution:
    """Uniform density on [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need finite a and b, got a={a:g}, b={b:g}")
    if not b > a:
        raise ValueError("need b > a")
    h = 1.0 / (b - a)

    def density(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= a) & (t <= b), h, 0.0)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - a) * h, 0.0, 1.0)

    return TargetDistribution(density=density, cdf=cdf, kind=f"uniform({a:g},{b:g})")


def tabulated_target(ts, fs) -> TargetDistribution:
    """Piecewise-linear density through (ts, fs) with its exact CDF.

    The CDF of a piecewise-linear density is piecewise quadratic, so block
    masses are closed-form and no nested quadrature is needed.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if not np.all(np.isfinite(ts)):
        raise ValueError("abscissae must be finite")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    if ts[0] != 0.0:
        raise ValueError("tabulated density must start at t = 0")
    if np.any(fs < 0) or not np.all(np.isfinite(fs)):
        raise ValueError("density samples must be finite and nonnegative")
    # cumulative trapezoid is exact for a piecewise-linear density
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fs[1:] + fs[:-1]) * np.diff(ts))])

    def density(t):
        return np.interp(np.asarray(t, dtype=float), ts, fs)

    def cdf(t):
        t_arr = np.asarray(t, dtype=float)
        # past the last sample the density holds fs[-1], as np.interp does
        s = np.minimum(t_arr, ts[-1])
        i = np.clip(np.searchsorted(ts, s, side="right") - 1, 0, ts.size - 2)
        dt = s - ts[i]
        slope = (fs[i + 1] - fs[i]) / (ts[i + 1] - ts[i])
        out = cum[i] + fs[i] * dt + 0.5 * slope * dt * dt + fs[-1] * (t_arr - s)
        return np.clip(out, 0.0, None)

    return TargetDistribution(
        density=density, cdf=cdf, kind="tabulated", breakpoints=ts.copy()
    )


@dataclass(frozen=True)
class TargetValidationReport:
    """Outcome of the admissibility checks on a target distribution, and the
    smallest density value sampled on (0, horizon]."""

    violations: tuple[str, ...]
    density_floor: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "target distribution: all checks passed"
        return "target distribution violations:\n  " + "\n  ".join(self.violations)


def validate_target(d: TargetDistribution, horizon: float) -> TargetValidationReport:
    """Check positivity, bounds, CDF consistency and the survival-mass guard.

    The sample grid is fixed: the ends of ``_SAMPLE_INTERVALS`` (512) equal
    intervals of [0, horizon] plus the target's breakpoints inside it.
    Returns a report listing every violated invariant with the offending
    sample point; an empty report means all checks passed on the sample
    grid.  Non-finite density values raise immediately.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    ts = np.linspace(0.0, horizon, _SAMPLE_INTERVALS + 1)
    if d.breakpoints is not None:
        inner = d.breakpoints[(d.breakpoints > 0.0) & (d.breakpoints < horizon)]
        ts = np.unique(np.concatenate([ts, inner]))
    fvals = d.density_at(ts)
    if not np.all(np.isfinite(fvals)):
        bad = float(ts[np.flatnonzero(~np.isfinite(fvals))[0]])
        raise ValidationError(f"non-finite density value at t={bad:g}")
    Fvals = d.cdf_at(ts)

    violations: list[str] = []
    # strict positivity on (0, T]; the endpoint t=0 may sit at the density's edge
    pos = fvals[1:] > 0.0
    if not np.all(pos):
        bad = float(ts[1:][np.flatnonzero(~pos)[0]])
        violations.append(f"density not strictly positive at t={bad:g}")
    if d.lower_bound is not None and np.any(fvals[1:] < d.lower_bound - 1e-12):
        bad = float(ts[1:][np.flatnonzero(fvals[1:] < d.lower_bound - 1e-12)[0]])
        violations.append(f"density below declared lower bound at t={bad:g}")
    if d.upper_bound is not None and np.any(fvals > d.upper_bound + 1e-12):
        bad = float(ts[np.flatnonzero(fvals > d.upper_bound + 1e-12)[0]])
        violations.append(f"density above declared upper bound at t={bad:g}")
    if abs(float(Fvals[0])) > 1e-12:
        violations.append(f"cdf at 0 is {float(Fvals[0]):g}, expected 0")
    dF = np.diff(Fvals)
    if np.any(dF < -1e-12):
        bad = float(ts[1:][np.flatnonzero(dF < -1e-12)[0]])
        violations.append(f"cdf decreasing near t={bad:g}")
    # CDF consistency: compare per-interval increments with 12-point
    # Gauss-Legendre quadrature of the density
    xg, wg = np.polynomial.legendre.leggauss(12)
    mid = 0.5 * (ts[1:] + ts[:-1])
    half = 0.5 * np.diff(ts)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    quad = (d.density_at(nodes) * wg[None, :]).sum(axis=1) * half
    defect = np.abs(dF - quad)
    tol = 1e-7 + 1e-6 * np.abs(quad)
    if np.any(defect > tol):
        i = int(np.argmax(defect - tol))
        violations.append(
            f"cdf inconsistent with density integral on [{ts[i]:g}, {ts[i+1]:g}] "
            f"(defect {defect[i]:.3g})"
        )
    FT = float(Fvals[-1])
    if FT > 1.0 - SURVIVAL_MASS_EPSILON:
        violations.append(
            f"cdf at horizon is {FT:.9g}; positive survival mass must remain "
            f"(need <= {1.0 - SURVIVAL_MASS_EPSILON})"
        )
    return TargetValidationReport(tuple(violations), float(fvals[1:].min()))


@dataclass(frozen=True)
class LatticeCells:
    """A run of ``count`` full cells [k*width, (k+1)*width), k = first_cell,
    first_cell + 1, ..., of a lattice anchored at 0.  Their nodes are
    consecutive from index ``first_node``, with the same panel rule in every
    cell."""

    width: float
    first_cell: int
    count: int
    first_node: int


@dataclass(frozen=True)
class SubDensity:
    """Absorbed transition density of the hitting process at one knot time.

    Nodes are spatial quadrature abscissae strictly inside the alive region,
    in increasing order; the weighted sum of values is the survival
    probability.  ``cells`` names the nodes that fill whole lattice cells;
    the forward engine sets it for every non-empty window (``count`` may be
    0), and it is None on an empty state or one made outside the engine.

    On the symmetric corridor every state the forward engine makes is even,
    bit for bit: ``nodes == -nodes[::-1]``, ``weights == weights[::-1]`` and
    ``values == values[::-1]``.
    """

    time: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    cells: LatticeCells | None = None

    def __post_init__(self) -> None:
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        values = np.asarray(self.values, dtype=float)
        if not (nodes.shape == weights.shape == values.shape):
            raise ValueError("nodes, weights and values must share one shape")
        if (nodes[1:] < nodes[:-1]).any():
            raise ValueError("nodes must be in increasing order")
        if values.size and float(values.min()) < -1e-12:
            raise ValueError(f"negative density value {values.min():g}")
        values = _readonly(np.maximum(values, 0.0))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)
        s = self.survival
        if s > 1.0 + 1e-9:
            raise ValueError(f"survival probability {s} exceeds 1")

    @cached_property
    def survival(self) -> float:
        return float(self.values @ self.weights) if self.values.size else 0.0

    @cached_property
    def mass(self) -> np.ndarray:
        """Point masses ``weights * values`` at the nodes."""
        return _readonly(self.weights * self.values)

    @cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """An even state folded onto its nodes x > 0: those nodes, and the
        masses at x and -x summed onto them.  A state whose lattice cells
        are not mirrored, -c..c-1 as in every corridor state the forward
        engine makes, is returned whole: its nodes and :attr:`mass`."""
        cells = self.cells
        if cells is None or 2 * cells.first_cell != -cells.count:
            return self.nodes, self.mass
        half = self.nodes.size // 2
        return self.nodes[half:], self.mass[half:] + self.mass[:half][::-1]


@dataclass(frozen=True)
class BlockSolveRecord:
    """Diagnostics for one solved block of the inverse construction.

    ``alpha`` is the constant level for block 0 and the segment slope for
    every later block.  ``target_mass`` is the mass the block aimed at: the
    target's block mass less ``carry``, the part of the cdf error at the
    block's left knot that the block takes back (all of it unless that is
    more than half the block mass), so ``residual`` is then the cdf error
    at its right knot.  ``dmass_dslope`` is the derivative of the
    block's crossing mass in the slope at ``alpha``, NaN for block 0 and
    where it is not available; |residual| / |dmass_dslope| bounds the
    slope's error.  For every block, ``bracket_lo`` and ``bracket_hi`` are
    the smallest and largest points the root search evaluated and
    ``iterations`` is the number of its evaluations.
    """

    block: int
    alpha: float
    target_mass: float
    achieved: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    carry: float = 0.0
    dmass_dslope: float = math.nan


# ---------------------------------------------------------------------------
# File formats


def write_boundary_csv(b: PiecewiseLinearBoundary, path) -> None:
    """Write knots as ``t,upper,lower`` rows at full round-trip precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "upper", "lower"])
        for t, u in zip(b.grid.knots, b.knot_values):
            lo = "-inf" if b.side is BoundarySide.UPPER_ONLY else FLOAT_FMT % -u
            w.writerow([FLOAT_FMT % t, FLOAT_FMT % u, lo])


def _read_columns(path: Path, header: list[str]) -> list[list[float]]:
    """The columns of floats of the CSV file ``path`` below ``header``.
    Empty rows are skipped; a bad row is named by its ``path:line``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != header:
        raise ValueError(f"{path}: expected header '{','.join(header)}'")
    columns: list[list[float]] = [[] for _ in header]
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{i}: expected {len(header)} columns")
        try:
            values = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
        for column, v in zip(columns, values):
            column.append(v)
    return columns


def read_boundary_csv(path) -> PiecewiseLinearBoundary:
    """Read a ``t,upper,lower`` file back into a boundary.

    The knot times must form a dyadic grid; the lower column must be
    ``-inf`` throughout (upper-only) or the negated upper values
    (symmetric).  Every rejection names the file.
    """
    path = Path(path)
    ts, uppers, lowers = (np.asarray(c) for c in _read_columns(path, ["t", "upper", "lower"]))
    try:
        if ts.size < 2 or ts[0] != 0.0:
            raise ValueError("knots must start at t=0")
        n = (ts.size - 1).bit_length() - 1
        if 2**n + 1 != ts.size:
            raise ValueError(f"{ts.size - 1} blocks is not a power of two")
        grid = DyadicGrid(float(ts[-1]), n)
        if not np.allclose(ts, grid.knots, rtol=1e-12, atol=0.0):
            raise ValueError("knot times are not the dyadic grid of the horizon")
        if np.all(lowers == -np.inf):
            side = BoundarySide.UPPER_ONLY
        elif np.allclose(lowers, -uppers, rtol=1e-12, atol=1e-300):
            side = BoundarySide.SYMMETRIC
        else:
            raise ValueError("lower column must be '-inf' or the negated upper values")
        return PiecewiseLinearBoundary(side, grid, uppers)
    except ValueError as exc:
        # also names the file on DyadicGrid's and PiecewiseLinearBoundary's checks
        raise ValueError(f"{path}: {exc}") from None


def read_target_csv(path) -> TargetDistribution:
    """Read a ``t,f`` density table into a tabulated target."""
    path = Path(path)
    ts, fs = _read_columns(path, ["t", "f"])
    try:
        return tabulated_target(np.asarray(ts), np.asarray(fs))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
