"""First-passage distributions for piecewise-linear boundaries by sequential
quadrature: the absorbed density is pushed knot-to-knot through exact
one-block kernels.

Both sides use one kernel, written as a sum over walls.  Each wall is the
upper boundary's one-wall form: the bridge-corrected Gaussian for the
propagation and :func:`block_crossing_upper` for the block crossing.  The
upper side has the wall x = g; the symmetric corridor (-g, g) adds its mirror
x = -g, the same form evaluated at -x (:func:`_mirrors`).  By
inclusion-exclusion over the two walls,

    killed = free - (touch upper) - (touch lower) + (touch both),

and the corridor's one correction, touching both walls within the block, is
the rest of the image series of Anderson (1960): the direct images shifted
by 4k*u0 (k != 0), the reflections across j*u for odd |j| >= 3 and, for the
crossing, the tails of the two one-wall reflections beyond the opposite
wall.  :func:`_image_series` takes that series.  It runs only on narrow
corridors, 2*m**2/dt < ``_WIDE`` with m = min(u0, u1), because the remainder
is of order exp(-2*m**2/dt) at inside points (|y| < u0, |x| < u1):

- Crossing.  A path touching both walls touches one and then moves by at
  least 2m within dt; by the reflection principle that has probability
  2*Phi(-2m/sqrt(dt)) <= exp(-2*m**2/dt).  So the remainder is at most
  exp(-2*m**2/dt) * (P(upper) + P(lower)) <= 2*exp(-2*m**2/dt) times the
  crossing itself.
- Propagation.  Against the free Gaussian G(x - y), the reflection across
  j*u weighs exp(-2(j*u0 - y)(j*u1 - x)/dt) and the k-th direct image
  exp(-4k(2k*u0*u1 + u1*y - u0*x)/dt).  At inside points every weight is at
  most 1, and below exp(-8*m**2/dt) for |j| >= 3 or |k| >= 2.  For k = 1 put
  a = u0 + y, b = u1 - x, so x - y = u0 + u1 - a - b; the log of
  G * weight, times dt, is at most -(u0 + u1 - s)**2/2 - 4*m*s with
  s = a + b >= 0, whose maximum over s is -(u0 + u1)**2/2 <= -2*m**2 or,
  when u0 + u1 > 4m, 8*m**2 - 4*m*(u0 + u1) < -8*m**2.  k = -1 is the
  mirror image.

Past ``_WIDE`` = 45 the skipped remainder is below 2*exp(-45), about
6e-20, of the kernel's peak and of the crossing.

The propagation is banded, O(nodes * band): each output node sums only the
input nodes within ``_BAND_SIGMAS`` standard deviations of the block's
Gaussian.  The killed kernel, and each image term of it, never exceeds the
free Gaussian, so every dropped entry is below exp(-c**2/2) of the kernel's
peak (about 2.6e-18 for c = 9) and the mass dropped per block is at most
2*Phi(-c) (about 2.3e-19) of the survival.

Per-block crossing probabilities from a fixed state have closed forms, so
slope candidates during root finding cost O(nodes) while the full
propagation runs once per block.  The first knot's density is one
propagation step from a unit point mass at the origin.
"""
from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, roots_legendre

from .core import (
    BoundarySide,
    ConvergenceError,
    DyadicGrid,
    NumericalConsistencyError,
    PiecewiseLinearBoundary,
    SubDensity,
    TargetDistribution,
    block_mass,
)

__all__ = [
    "QuadratureConfig",
    "initial_subdensity",
    "propagated_subdensity",
    "subdensities",
    "survival_probability",
    "block_crossing_probability",
    "crossing_mass",
    "fpt_distribution_table",
    "FptTable",
    "residual_fgkey",
    "block_crossing_upper",
    "block_crossing_symmetric",
    "bridge_crossing_upper",
    "bridge_crossing_symmetric",
]

#: Gauss-Legendre points per panel.
_PANEL_ORDER = 12

#: Panel width in units of sqrt(block width); 12-point panels spanning three
#: standard deviations of the stepping kernel resolve it to machine precision.
_PANEL_SIGMAS = 3.0

#: Half-width of the propagation band in units of sqrt(block width); kernel
#: entries beyond it are below exp(-81/2) of the peak.
_BAND_SIGMAS = 9.0

#: The corridor's both-walls remainder runs only while 2*min(u0, u1)**2/dt
#: is below this; past it the remainder is below 2*exp(-45) (module docstring).
_WIDE = 45.0

#: Largest |k| the corridor image series (:func:`_image_series`) may reach.
_IMAGE_MAX = 256

#: Slack allowed on the survival-monotonicity consistency check.
_SURVIVAL_SLACK = 1e-9


@dataclass(frozen=True)
class QuadratureConfig:
    """Spatial quadrature controls.

    ``nodes_per_block`` is a floor; the node count grows automatically with
    the width of the alive region so that panels keep resolving the stepping
    kernel.  ``truncation_width`` is the number of standard deviations kept
    around the diffusion bulk.
    """

    nodes_per_block: int = 96
    truncation_width: float = 8.0

    def __post_init__(self) -> None:
        if self.nodes_per_block < 8:
            raise ValueError("nodes_per_block must be at least 8")
        if self.truncation_width < 4.0:
            raise ValueError("truncation_width must be at least 4")


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        x, w = roots_legendre(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def _grade_edges(edges: np.ndarray, at_start: bool, at_end: bool) -> np.ndarray:
    # split the panel touching an absorbing boundary into shrinking subpanels
    if at_start:
        a, b = edges[0], edges[1]
        edges = np.concatenate([[a, a + (b - a) / 6.0, a + (b - a) / 2.0], edges[1:]])
    if at_end:
        a, b = edges[-2], edges[-1]
        edges = np.concatenate([edges[:-1], [b - (b - a) / 2.0, b - (b - a) / 6.0, b]])
    return edges


def _nodes_weights(
    lo: float, hi: float, dt: float, cfg: QuadratureConfig, grade_lo: bool, grade_hi: bool
) -> tuple[np.ndarray, np.ndarray]:
    width = hi - lo
    target = _PANEL_SIGMAS * math.sqrt(dt)
    panels = max(
        2,
        int(math.ceil(cfg.nodes_per_block / _PANEL_ORDER)),
        int(math.ceil(width / target)),
    )
    edges = _grade_edges(np.linspace(lo, hi, panels + 1), grade_lo, grade_hi)
    xg, wg = _gl(_PANEL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


#: Wall signs of the corridor: the upper wall x = g and its mirror x = -g.
_CORRIDOR = (1.0, -1.0)


def _mirrors(side: BoundarySide) -> tuple[float, ...]:
    """Signs s of the walls s*x = g of ``side``."""
    return (1.0,) if side is BoundarySide.UPPER_ONLY else _CORRIDOR


def _narrow(mirrors: tuple[float, ...], g0: float, g1: float, dt: float) -> bool:
    """Whether the block needs the corridor's both-walls remainder."""
    return -1.0 in mirrors and 2.0 * min(g0, g1) ** 2 < _WIDE * dt


def _alive_interval(
    mirrors: tuple[float, ...], g_t: float, t: float, cfg: QuadratureConfig
) -> tuple[float, float] | None:
    """Spatial window carrying all but ~Phi(-width) of the absorbed mass,
    cut by the upper wall and, on the corridor, by its mirror."""
    reach = cfg.truncation_width * math.sqrt(t)
    hi = min(g_t, reach)
    lo = -hi if -1.0 in mirrors else -reach
    if not hi > lo:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# one wall in closed form


def block_crossing_upper(x, g0: float, g1: float, dt: float):
    """P(cross the linear segment g0 -> g1 during one block | start x), as two
    nonnegative parts, so tiny crossing probabilities stay accurate."""
    x = np.asarray(x, dtype=float)
    s = math.sqrt(dt)
    expo = -2.0 * (g0 - x) * (g1 - g0) / dt + log_ndtr((g1 - 2.0 * g0 + x) / s)
    return np.clip(ndtr((x - g1) / s) + np.exp(expo), 0.0, 1.0)


def bridge_crossing_upper(x0, x1, g0: float, g1: float, dt: float):
    """Crossing probability of the pinned bridge below one linear segment."""
    return np.exp(-2.0 * (g0 - np.asarray(x0)) * (g1 - np.asarray(x1)) / dt)


# ---------------------------------------------------------------------------
# the corridor's image expansion


def _sym_coeffs(x0, u0: float, u1: float, dt: float, k: int):
    """Log-weights and Gaussian means of the k-th image pair for the
    corridor (-u, u) with u linear u0 -> u1 over one block."""
    mu = (u1 - u0) / dt
    la = -8.0 * u0 * mu * k * k - 4.0 * k * mu * x0
    lb = la - 2.0 * mu * (u0 - x0 - 4.0 * k * u0)
    return la, x0 + 4.0 * k * u0, lb, 2.0 * u0 - x0 - 4.0 * k * u0


def _log_phi_diff(lo, hi):
    """log(Phi(hi) - Phi(lo)) for hi >= lo, stable in both tails."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    flip = lo + hi > 0.0
    lo_r = np.where(flip, -hi, lo)
    hi_r = np.where(flip, -lo, hi)
    top = log_ndtr(hi_r)
    bot = log_ndtr(lo_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = top + np.log1p(-np.exp(np.minimum(bot - top, 0.0)))
    return np.where(bot == top, -np.inf, out)


def _image_series(x0, u0: float, u1: float, dt: float, image, peak: float = 0.0):
    """Sum ``p - q`` over the image pairs k = 0, +-1, +-2, ... of the corridor,
    where the arrays ``p, q = image(k, *_sym_coeffs(x0, u0, u1, dt, k))``.

    Stops once the pairs of one |k| add at most 1e-16 of the largest term
    seen so far (``peak`` seeds that maximum).  Each pair is used up before
    the next is requested, so ``image`` may reuse its output buffers.
    """
    total = 0.0
    for k in range(0, _IMAGE_MAX + 1):
        inc = 0.0
        for kk in ((k,) if k == 0 else (k, -k)):
            p, q = image(kk, *_sym_coeffs(x0, u0, u1, dt, kk))
            total += p - q
            inc = max(inc, float(p.max(initial=0.0)), float(q.max(initial=0.0)))
        peak = max(peak, inc)
        if k >= 1 and inc <= 1e-16 * peak:
            return total
    raise ConvergenceError(
        "image expansion for the symmetric corridor did not converge "
        f"within {_IMAGE_MAX} terms (corridor nearly pinched: u0={u0:g}, u1={u1:g})"
    )


def _phi_diff(logw, mean, u1: float, s: float):
    """Mass exp(logw) * P(-u1 < N(mean, s**2) < u1) of one Gaussian image."""
    return np.exp(logw + _log_phi_diff((-u1 - mean) / s, (u1 - mean) / s))


def _crossing_remainder(x, u0: float, u1: float, dt: float, peak: float):
    """P(touch both corridor walls during one block | start x): the far tails
    of the two one-wall reflections plus the direct images k != 0, less the
    reflections across j*u, |j| >= 3."""
    s = math.sqrt(dt)
    none = np.zeros(())

    def image(k, la, mean_a, lb, mean_b):
        if k == 0:  # the upper wall's reflection below -u1
            return np.exp(lb + log_ndtr((-u1 - mean_b) / s)), none
        direct = _phi_diff(la, mean_a, u1, s)
        if k == 1:  # the lower wall's reflection above u1
            return direct + np.exp(lb + log_ndtr((mean_b - u1) / s)), none
        return direct, _phi_diff(lb, mean_b, u1, s)

    return _image_series(x, u0, u1, dt, image, peak)


def _crossing(x: np.ndarray, g0: float, g1: float, dt: float, mirrors: tuple[float, ...]):
    """P(touch a wall during one block | start x): the one-wall crossing
    summed over the walls, less the both-walls remainder on a narrow
    corridor (module docstring)."""
    if -1.0 in mirrors and g1 <= 0.0:
        return np.ones_like(x)  # the corridor closes within the block
    c = sum(block_crossing_upper(s * x, g0, g1, dt) for s in mirrors)
    if _narrow(mirrors, g0, g1, dt):
        c = c - _crossing_remainder(x, g0, g1, dt, float(c.max(initial=0.0)))
    return np.clip(c, 0.0, 1.0)


def block_crossing_symmetric(x, u0: float, u1: float, dt: float):
    """P(leave the corridor (-u, u), u linear u0 -> u1, during one block |
    start x)."""
    return _crossing(np.asarray(x, dtype=float), u0, u1, dt, _CORRIDOR)


def bridge_crossing_symmetric(x0, x1, u0: float, u1: float, dt: float):
    """Crossing probability of the pinned bridge against either corridor wall."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if u1 <= 0.0 or u0 <= 0.0:
        return np.ones(np.broadcast(x0, x1).shape)
    v2 = (x1 - x0) ** 2

    def image(k, la, mean_a, lb, mean_b):
        return (
            np.exp(la + (v2 - (x1 - mean_a) ** 2) / (2.0 * dt)),
            np.exp(lb + (v2 - (x1 - mean_b) ** 2) / (2.0 * dt)),
        )

    return np.clip(1.0 - _image_series(x0, u0, u1, dt, image), 0.0, 1.0)


# ---------------------------------------------------------------------------
# one-block propagation, banded, for both sides


def _band_strip(x_in: np.ndarray, x_out: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (n_out x W) into the sorted ``x_in`` of the contiguous run of
    input nodes within ``_BAND_SIGMAS * sqrt(dt)`` of each sorted output
    node, and the mask of the slots that belong to the run (the rest pad
    the strip to its widest run and repeat a valid index)."""
    reach = _BAND_SIGMAS * math.sqrt(dt)
    first = np.searchsorted(x_in, x_out - reach, side="left")
    stop = np.searchsorted(x_in, x_out + reach, side="right")
    width = int(np.max(stop - first, initial=0))
    idx = first[:, None] + np.arange(width)
    return np.minimum(idx, x_in.size - 1), idx < stop[:, None]


def _wall_factor(xs: np.ndarray, x_out: np.ndarray, g0: float, g1: float, dt: float, mirrors):
    """1 - sum of the pinned bridge's one-wall crossing probabilities
    e_s = exp(-2(g1 - s*x)(g0 - s*y)/dt) from ``xs[i, j]`` to ``x_out[i]``."""
    near, *far = (-2.0 * (g1 - s * x_out)[:, None] * (g0 - s * xs) / dt for s in mirrors)
    if not far:
        return -np.expm1(near)
    # expm1 takes whichever wall's exponent is nearer 0, so the factor keeps
    # its relative accuracy by both walls of the corridor
    return -np.expm1(np.maximum(near, far[0])) - np.exp(np.minimum(near, far[0]))


def _kernel_remainder(x_in, idx, x_out, u0: float, u1: float, dt: float, peak: float):
    """Both-walls remainder of the corridor kernel from ``x_in[idx[i, j]]``
    to ``x_out[i]``, in units of the free Gaussian's peak: the direct images
    k != 0 less the reflections across j*u, |j| >= 3."""
    y = x_out[:, None]
    direct, reflected, gathered = (np.empty(idx.shape) for _ in range(3))
    none = np.zeros(())

    def gauss(out, logw, mean):
        # exp(logw - (y - mean)**2 / (2 dt)) on the strip, in place
        np.subtract(y, np.take(mean, idx, out=gathered, mode="clip"), out=out)
        np.square(out, out=out)
        out /= -2.0 * dt
        out += np.take(logw, idx, out=gathered, mode="clip")
        return np.exp(out, out=out)

    # The series uses up each pair before it asks for the next, so all pairs
    # share the buffers; fresh strips per term cost page faults and peak memory.
    def image(k, la, mean_a, lb, mean_b):
        return (
            none if k == 0 else gauss(direct, la, mean_a),
            none if k in (0, 1) else gauss(reflected, lb, mean_b),
        )

    return _image_series(x_in, u0, u1, dt, image, peak)


def _propagate(
    x_in: np.ndarray,
    mass_in: np.ndarray,
    x_out: np.ndarray,
    g0: float,
    g1: float,
    dt: float,
    mirrors: tuple[float, ...],
) -> np.ndarray:
    """Absorbed density at ``x_out`` after one block inside the walls
    s*x = g (s in ``mirrors``, g linear g0 -> g1), from point masses
    ``mass_in`` (weight times value) at ``x_in``.

    Banded mat-vec: only the input nodes within the band of each output node
    are evaluated, and padded strip slots carry mass 0.  Each entry is the
    free Gaussian times :func:`_wall_factor`, plus the both-walls remainder
    on a narrow corridor.
    """
    idx, inside = _band_strip(x_in, x_out, dt)
    xs = x_in[idx]
    gauss = np.exp(-np.square(x_out[:, None] - xs) / (2.0 * dt))
    kernel = _wall_factor(xs, x_out, g0, g1, dt, mirrors) * gauss
    if _narrow(mirrors, g0, g1, dt):
        kernel += _kernel_remainder(x_in, idx, x_out, g0, g1, dt, float(gauss.max(initial=0.0)))
    mass = np.where(inside, mass_in[idx], 0.0)
    return np.einsum("ij,ij->i", kernel, mass) / math.sqrt(2.0 * math.pi * dt)


# ---------------------------------------------------------------------------
# state construction and propagation


def _empty_state(t: float) -> SubDensity:
    z = np.empty(0)
    return SubDensity(time=t, nodes=z, weights=z, values=z)


def _step(
    x_in: np.ndarray,
    mass_in: np.ndarray,
    t1: float,
    g0: float,
    g1: float,
    dt: float,
    side: BoundarySide,
    cfg: QuadratureConfig,
) -> SubDensity:
    """Absorbed density at time ``t1`` after one block of width ``dt`` with
    boundary values g0 -> g1, from point masses ``mass_in`` at ``x_in``."""
    mirrors = _mirrors(side)
    window = _alive_interval(mirrors, g1, t1, cfg)
    if window is None:
        return _empty_state(t1)
    lo, hi = window
    x, w = _nodes_weights(lo, hi, dt, cfg, grade_lo=lo == -g1 and -1.0 in mirrors, grade_hi=hi == g1)
    vals = _propagate(x_in, mass_in, x, g0, g1, dt, mirrors)
    return SubDensity(time=t1, nodes=x, weights=w, values=vals)


def initial_subdensity(
    g0: float, g1: float, t1: float, side: BoundarySide, cfg: QuadratureConfig
) -> SubDensity:
    """Absorbed density at the first knot for a linear first segment g0 -> g1:
    one block from a unit point mass at the origin."""
    if g0 <= 0.0:
        raise ValueError("boundary must start strictly above the origin")
    return _step(np.zeros(1), np.ones(1), t1, g0, g1, t1, side, cfg)


def propagated_subdensity(
    state: SubDensity,
    g0: float,
    g1: float,
    dt: float,
    side: BoundarySide,
    cfg: QuadratureConfig,
) -> SubDensity:
    """Push the absorbed density across one block with boundary values
    g0 at the state's knot and g1 at the next one."""
    t1 = state.time + dt
    if state.nodes.size == 0:
        return _empty_state(t1)
    out = _step(state.nodes, state.weights * state.values, t1, g0, g1, dt, side, cfg)
    if out.survival > state.survival + _SURVIVAL_SLACK:
        raise NumericalConsistencyError(
            f"survival increased across block ending at t={t1:g}: "
            f"{state.survival:.17g} -> {out.survival:.17g}"
        )
    return out


def subdensities(b: PiecewiseLinearBoundary, cfg: QuadratureConfig) -> Iterator[SubDensity]:
    """Absorbed densities at knots 1, 2, ..., blocks of ``b``, one block apart."""
    g = [float(v) for v in b.knot_values]
    dt = b.grid.block_width
    state = initial_subdensity(g[0], g[1], b.grid.knot(1), b.side, cfg)
    yield state
    for m in range(1, b.grid.blocks):
        state = propagated_subdensity(state, g[m], g[m + 1], dt, b.side, cfg)
        yield state


def _state_at(b: PiecewiseLinearBoundary, m: int, cfg: QuadratureConfig) -> SubDensity:
    return next(itertools.islice(subdensities(b, cfg), m - 1, None))


def survival_probability(b: PiecewiseLinearBoundary, m: int, cfg: QuadratureConfig) -> float:
    """P(no crossing through knot m), by m-1 propagations from the first knot."""
    if not 1 <= m <= b.grid.blocks:
        raise ValueError(f"knot index {m} outside 1..{b.grid.blocks}")
    return _state_at(b, m, cfg).survival


def crossing_mass(
    state: SubDensity, g0: float, g1: float, dt: float, side: BoundarySide
) -> float:
    """Probability of crossing during one block with endpoint boundary values
    g0 -> g1, given the absorbed state at the block start.

    Evaluated as a weighted sum of per-node crossing probabilities, which
    keeps tiny masses accurate in relative terms.
    """
    if state.nodes.size == 0:
        return 0.0
    c = _crossing(state.nodes, g0, g1, dt, _mirrors(side))
    value = float((state.weights * state.values) @ c)
    if value < -_SURVIVAL_SLACK:
        raise NumericalConsistencyError(f"negative block crossing probability {value:g}")
    return min(max(value, 0.0), state.survival)


def block_crossing_probability(
    b: PiecewiseLinearBoundary,
    a: float,
    m: int,
    cfg: QuadratureConfig,
    state: SubDensity | None = None,
) -> float:
    """Probability that the first crossing happens in block m when the
    boundary continues from its value at knot m with slope ``a``.

    ``state`` may supply the absorbed density at knot m (it is recomputed
    from scratch otherwise); the candidate segment never mutates ``b``.
    """
    if not 1 <= m <= b.grid.blocks - 1:
        raise ValueError(f"block index {m} outside 1..{b.grid.blocks - 1}")
    dt = b.grid.block_width
    if state is None:
        state = _state_at(b, m, cfg)
    elif not math.isclose(state.time, m * dt, rel_tol=0.0, abs_tol=1e-12 * b.grid.horizon):
        raise ValueError("state does not sit at the requested knot")
    g0 = float(b.knot_values[m])
    return crossing_mass(state, g0, g0 + a * dt, dt, b.side)


@dataclass(frozen=True)
class FptTable:
    """Hitting-time distribution on the grid knots.

    ``cdf[m]`` is P(T <= t_m); ``block_masses[m]`` is the probability
    assigned to the block ending at t_m (0 for m = 0); the block-average
    density is the mass divided by the block width.
    """

    times: np.ndarray
    cdf: np.ndarray
    block_masses: np.ndarray
    avg_density: np.ndarray

    @classmethod
    def from_survivals(cls, grid: DyadicGrid, survivals: list[float]) -> "FptTable":
        """Table of a forward pass whose survivals at knots 1..blocks of
        ``grid`` are ``survivals``; each block's mass is its survival drop."""
        s = np.array([1.0, *survivals])
        masses = np.concatenate([[0.0], np.maximum(-np.diff(s), 0.0)])
        return cls(
            times=grid.knots.copy(),
            cdf=1.0 - s,
            block_masses=masses,
            avg_density=masses / grid.block_width,
        )

    @property
    def final_survival(self) -> float:
        return 1.0 - float(self.cdf[-1])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "cdf", "block_mass", "avg_density"])
            for row in zip(self.times, self.cdf, self.block_masses, self.avg_density):
                w.writerow(["%.17g" % v for v in row])


def fpt_distribution_table(b: PiecewiseLinearBoundary, cfg: QuadratureConfig) -> FptTable:
    """Tabulate cdf, block masses and block-average densities at all knots."""
    return FptTable.from_survivals(b.grid, [state.survival for state in subdensities(b, cfg)])


def residual_fgkey(
    b: PiecewiseLinearBoundary, d: TargetDistribution, m: int, cfg: QuadratureConfig
) -> float:
    """Block-averaged defect between the boundary's realized crossing density
    and the target density on block m (near zero for a solved boundary)."""
    if not 0 <= m <= b.grid.blocks - 1:
        raise ValueError(f"block index {m} outside 0..{b.grid.blocks - 1}")
    dt = b.grid.block_width
    if m == 0:
        realized = 1.0 - next(subdensities(b, cfg)).survival
    else:
        state = _state_at(b, m, cfg)
        realized = block_crossing_probability(b, float(b.slopes[m]), m, cfg, state=state)
    target = block_mass(d, m * dt, (m + 1) * dt)
    return (realized - target) / dt
