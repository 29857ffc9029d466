"""First-passage distributions for piecewise-linear boundaries by sequential
quadrature: the absorbed density is pushed knot-to-knot through exact
one-block kernels (crossing-corrected Gaussian for the one-sided case, an
image expansion for the symmetric corridor).

Per-block survival and crossing probabilities from a fixed state have closed
forms, so slope candidates during root finding cost O(nodes) while the full
propagation runs once per block.  On the upper side that propagation is
banded, O(nodes * band): each output node sums only the input nodes within
``_BAND_SIGMAS`` standard deviations of the block's Gaussian.  The killed
kernel never exceeds the free Gaussian, so every dropped entry is below
exp(-c**2/2) of the kernel's peak (about 2.6e-18 for c = 9) and the mass
dropped per block is at most 2*Phi(-c) (about 2.3e-19) of the survival.
The symmetric corridor still builds its dense O(nodes**2) matrix.

Every corridor quantity (block survival and crossing, the bridge crossing
factor and the propagation kernel) is a sum over the image pairs
k = 0, +-1, +-2, ... of Anderson (1960), taken by the one loop in
:func:`_image_series`.  The first knot's density is one propagation step
from a unit point mass at the origin.
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
    "block_survival_upper",
    "block_crossing_upper",
    "block_survival_symmetric",
    "block_crossing_symmetric",
    "bridge_crossing_upper",
    "bridge_crossing_symmetric",
]

#: Gauss-Legendre points per panel.
_PANEL_ORDER = 12

#: Panel width in units of sqrt(block width); 12-point panels spanning three
#: standard deviations of the stepping kernel resolve it to machine precision.
_PANEL_SIGMAS = 3.0

#: Half-width of the upper-side propagation band in units of sqrt(block
#: width); kernel entries beyond it are below exp(-81/2) of the peak.
_BAND_SIGMAS = 9.0

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


def _alive_interval(
    side: BoundarySide, g_t: float, t: float, cfg: QuadratureConfig
) -> tuple[float, float] | None:
    """Spatial window carrying all but ~Phi(-width) of the absorbed mass."""
    reach = cfg.truncation_width * math.sqrt(t)
    if side is BoundarySide.UPPER_ONLY:
        lo, hi = -reach, min(g_t, reach)
    else:
        if g_t <= 0.0:
            return None
        lo, hi = max(-g_t, -reach), min(g_t, reach)
    if not hi > lo:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# closed-form one-block functionals, one-sided case


def block_survival_upper(x, g0: float, g1: float, dt: float):
    """P(no crossing of the linear segment g0 -> g1 over one block | start x)."""
    x = np.asarray(x, dtype=float)
    s = math.sqrt(dt)
    expo = -2.0 * (g0 - x) * (g1 - g0) / dt + log_ndtr((g1 - 2.0 * g0 + x) / s)
    return np.clip(ndtr((g1 - x) / s) - np.exp(expo), 0.0, 1.0)


def block_crossing_upper(x, g0: float, g1: float, dt: float):
    """Exact complement of :func:`block_survival_upper`, accurate for tiny
    crossing probabilities (both contributions are nonnegative)."""
    x = np.asarray(x, dtype=float)
    s = math.sqrt(dt)
    expo = -2.0 * (g0 - x) * (g1 - g0) / dt + log_ndtr((g1 - 2.0 * g0 + x) / s)
    return np.clip(ndtr((x - g1) / s) + np.exp(expo), 0.0, 1.0)


def bridge_crossing_upper(x0, x1, g0: float, g1: float, dt: float):
    """Crossing probability of the pinned bridge below one linear segment."""
    return np.exp(-2.0 * (g0 - np.asarray(x0)) * (g1 - np.asarray(x1)) / dt)


# ---------------------------------------------------------------------------
# symmetric corridor: image expansion


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


def block_survival_symmetric(x, u0: float, u1: float, dt: float):
    """P(stay inside the corridor (-u, u) over one block | start x)."""
    x = np.asarray(x, dtype=float)
    if u1 <= 0.0:
        return np.zeros_like(x)
    s = math.sqrt(dt)

    def image(k, la, mean_a, lb, mean_b):
        return _phi_diff(la, mean_a, u1, s), _phi_diff(lb, mean_b, u1, s)

    return np.clip(_image_series(x, u0, u1, dt, image), 0.0, 1.0)


def block_crossing_symmetric(x, u0: float, u1: float, dt: float):
    """Exact complement of :func:`block_survival_symmetric`; the direct k = 0
    image enters only through its two endpoint tails, keeping tiny results
    accurate."""
    x = np.asarray(x, dtype=float)
    if u1 <= 0.0:
        return np.ones_like(x)
    s = math.sqrt(dt)
    base = ndtr((-u1 - x) / s) + ndtr((x - u1) / s)

    # reflected minus direct images, the direct k = 0 one being ``base``
    def image(k, la, mean_a, lb, mean_b):
        direct = np.zeros_like(x) if k == 0 else _phi_diff(la, mean_a, u1, s)
        return _phi_diff(lb, mean_b, u1, s), direct

    images = _image_series(x, u0, u1, dt, image, peak=float(np.max(base, initial=0.0)))
    return np.clip(base + images, 0.0, 1.0)


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
# one-block kernels: banded on the upper side, dense image series on the corridor


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


def _propagate_upper(
    x_in: np.ndarray, mass_in: np.ndarray, x_out: np.ndarray, g0: float, g1: float, dt: float
) -> np.ndarray:
    """Absorbed density at ``x_out`` after one block below the segment
    g0 -> g1, from point masses ``mass_in`` (weight times value) at ``x_in``.

    Banded mat-vec of the bridge-corrected Gaussian kernel: only the input
    nodes within the band of each output node are evaluated, and padded
    strip slots carry mass 0.
    """
    idx, inside = _band_strip(x_in, x_out, dt)
    xs = x_in[idx]
    gauss = np.exp(-np.square(x_out[:, None] - xs) / (2.0 * dt))
    factor = -np.expm1(-2.0 * (g1 - x_out)[:, None] * (g0 - xs) / dt)
    mass = np.where(inside, mass_in[idx], 0.0)
    return np.einsum("ij,ij->i", factor * gauss, mass) / math.sqrt(2.0 * math.pi * dt)


def _kernel_matrix_symmetric(x_in, x_out, u0: float, u1: float, dt: float) -> np.ndarray:
    """Dense (n_out x n_in) corridor kernel from the image series."""
    diff = x_out[:, None] - x_in[None, :]
    ssum = x_out[:, None] + x_in[None, :]
    direct, reflected = np.empty_like(diff), np.empty_like(diff)

    def gauss(out, logw):
        # exp(logw - out**2 / (2 dt)), in place
        np.square(out, out=out)
        out /= 2.0 * dt
        np.subtract(logw[None, :], out, out=out)
        return np.exp(out, out=out)

    # The series consumes each pair before it asks for the next, so all pairs
    # share two buffers; a fresh pair of matrices per term made glibc trim and
    # re-fault the heap on every call (3x the page faults on a symmetric ladder).
    def image(k, la, mean_a, lb, mean_b):
        np.subtract(diff, 4.0 * k * u0, out=direct)
        np.subtract(ssum, 2.0 * u0, out=reflected)
        np.add(reflected, 4.0 * k * u0, out=reflected)
        return gauss(direct, la), gauss(reflected, lb)

    return _image_series(x_in, u0, u1, dt, image) / math.sqrt(2.0 * math.pi * dt)


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
    window = _alive_interval(side, g1, t1, cfg)
    if window is None:
        return _empty_state(t1)
    lo, hi = window
    x, w = _nodes_weights(
        lo, hi, dt, cfg, grade_lo=side is BoundarySide.SYMMETRIC and lo == -g1, grade_hi=hi == g1
    )
    if side is BoundarySide.UPPER_ONLY:
        vals = _propagate_upper(x_in, mass_in, x, g0, g1, dt)
    else:
        vals = _kernel_matrix_symmetric(x_in, x, g0, g1, dt) @ mass_in
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
    if side is BoundarySide.UPPER_ONLY:
        c = block_crossing_upper(state.nodes, g0, g1, dt)
    else:
        c = block_crossing_symmetric(state.nodes, g0, g1, dt)
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
    dt = b.grid.block_width
    survivals = np.array([1.0] + [state.survival for state in subdensities(b, cfg)])
    masses = np.concatenate([[0.0], np.maximum(-np.diff(survivals), 0.0)])
    return FptTable(
        times=b.grid.knots.copy(),
        cdf=1.0 - survivals,
        block_masses=masses,
        avg_density=masses / dt,
    )


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
