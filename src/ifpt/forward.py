"""First-passage distributions for piecewise-linear boundaries by sequential
quadrature: the absorbed density is pushed knot-to-knot through exact
one-block kernels.

Both sides use one kernel, written as a sum over walls.  Each wall is the
upper boundary's one-wall form: the bridge-corrected Gaussian for the
propagation and :func:`_one_wall` for the block crossing.  The
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

The propagation is banded: each output node needs only the input nodes
within ``_BAND_SIGMAS`` standard deviations of the block's Gaussian, its
band.  The killed kernel, and each image term of it, never exceeds the free
Gaussian, so every entry beyond the band is below exp(-c**2/2) of the
kernel's peak (about 2.6e-18 for c = 9) and the mass beyond it per block is
at most 2*Phi(-c) (about 2.3e-19) of the survival.

Most of the band is one constant matrix.  The quadrature panels sit on a
lattice fixed for the whole solve: cells [k*h, (k+1)*h) of width
h = 3*sqrt(dt), anchored at 0, each holding the 12 Gauss-Legendre nodes
(k + 1/2)*h + h*xi_p/2, sliced from one lattice cached for the latest
width (:func:`_lattice`).  The window's far ends are rounded out to lattice
lines, so only a cell cut by a wall is not full; it is graded toward the
wall, and a piece narrower than h/4 joins its neighbour cell while there is
one (a corridor with g < 5h/4 has none: its window is the two wall pieces).
Between full cells the free Gaussian depends only on how many cells apart
they are: for offsets o = -3..3, which cover the 9-sigma band, it is the
12 x 12 block K_o[p, q] = exp(-(3*o + 1.5*(xi_p - xi_q))**2 / 2), the same
for every dt (Greengard & Strain's fast Gauss transform uses this
translation invariance).  So every full output cell takes this Toeplitz
product (:func:`_toeplitz`) from every full input cell, and the walls enter
only near them, by their images.

With a = g1 - x, b = g0 - y and d = g1 - g0, (x - y)**2 + 4ab =
(a + b - d)**2 + 4bd, so the upper wall's kernel is

    G(x - y) * (1 - exp(-2ab/dt)) = G(x - y) - exp(-2bd/dt) * G(x - (2g0 - y)),

the free Gaussian less the wall's image, the Gaussian from y's mirror image
across g0 (Anderson's series above is the two-wall form).  Inside the walls
(a, b >= 0) the bound (a + b - d)**2 + 4bd >= (a + b - |d|)**2 holds for
slopes of either sign, so the image is below exp(-40.5) of the Gaussian's
peak once a + b >= 9*sqrt(dt) + |d|, the wall's zone.  On the corridor's
laid-out half x > 0 the mirror wall's a, g1 + x, is at least the upper
wall's, so a row out of the upper wall's zone is out of both.  So the
dense block (:func:`_near_block`) takes only the rows by the walls: the
full rows inside the zone of x = g1, the rows within the band of the
input's wall pieces, whose nodes are off the lattice, and the output's wall
piece.  Its entries are the kernel (:func:`_wall_factor`, both walls on
the corridor) less the free Gaussian on the full-row by full-input part,
which the Toeplitz product already summed: there they are the walls'
images.  Its inputs are one contiguous slice of the sorted inputs found by
two ``searchsorted`` calls: those within the band of its rows, from no
lower than the inputs in the zone of x = g0 or in the band of the output's
wall piece (on a corridor whose mirror wall's zone is in reach of a row,
the whole band).  The slice also holds inputs beyond an output's own band,
and full cells more than three cells apart, which the Toeplitz product
skips, give their full rows the image alone; all of those entries are below
exp(-40.5) of the peak and are kept, not masked.  At n = 8 the block holds
about 72 x 72 entries, and no more at finer levels, so its cost does not
grow with the window.  A window without full cells (the first blocks), a
narrow corridor, a window whose rows are all by the walls, the point mass
:data:`ORIGIN` and a state not on the block's lattice take the dense
kernel alone, over every output.  Every dense block goes in slabs of
``_SLAB_NODES`` outputs with a slice each, so none of them forms a matrix
over the whole window.

The corridor's density is even.  It starts from a point mass at 0 and the
walls -g, g are symmetric under x -> -x, so the absorbed density is even at
every knot.  So a corridor step lays out only the window's half x > 0, its
cells from 0 on and the upper wall piece, propagates onto it, and mirrors
nodes, weights and values once.  The lattice is anchored at 0 and the panel
rule is made exactly symmetric, so the mirrored cells are the lattice cells
below 0 bit for bit, and the lower wall piece is the upper one negated.  The
block crossing, an even function of the start, is evaluated at x > 0
against the mass folded onto them when the state's lattice cells are
mirrored, 2*first_cell == -count, as in every corridor state the engine
makes; a state made outside the engine, without cells, is summed over every
node.  This halves the propagation and the crossing; the states keep the
full node set.

Per-block crossing probabilities from a fixed state have closed forms, and
so does their derivative in the block's end value, so slope candidates
during root finding cost O(nodes near the wall) while the full propagation
runs once per block.  :func:`crossing_mass` sums only the nodes less than
``_CUT_SIGMAS`` = 12 standard deviations below the wall's start.  A
one-wall crossing grows toward its wall, so the crossing at a dropped node
is at most c(x_cut) + c(x_0), at the last dropped node and at the first
node (where the corridor's mirror wall's is largest), and the dropped part
is at most that times their mass, and so times the state's survival; its
slope derivative, -2u*e/dt per wall with e <= c, is at most
2*u_max/dt times that, with u_max the largest |x| of a dropped node plus
g0.  When either bound exceeds ``_CUT_TOL`` = 1e-16 of the kept sum, the
full sum is taken.

Every state starts from :data:`ORIGIN`, the unit point mass at the origin
that is the law of W_0: the first knot's density is one propagation step
from it, like every later knot's from the knot before.
"""
from __future__ import annotations

import csv
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .core import (
    BoundarySide,
    ConvergenceError,
    DyadicGrid,
    LatticeCells,
    NumericalConsistencyError,
    PiecewiseLinearBoundary,
    SubDensity,
)

__all__ = [
    "ORIGIN",
    "initial_subdensity",
    "propagated_subdensity",
    "subdensities",
    "crossing_mass",
    "fpt_distribution_table",
    "FptTable",
    "block_crossing_symmetric",
    "bridge_crossing_upper",
    "bridge_crossing_symmetric",
]

#: Gauss-Legendre points per panel.
_PANEL_ORDER = 12

#: The panel rule's nodes and weights on [-1, 1], made exactly symmetric
#: about 0 so that mirrored panels get mirrored nodes bit for bit.
_XG, _WG = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_XG, _WG = 0.5 * (_XG - _XG[::-1]), 0.5 * (_WG + _WG[::-1])

#: Panel width in units of sqrt(block width); 12-point panels spanning three
#: standard deviations of the stepping kernel resolve it to machine precision.
_PANEL_SIGMAS = 3.0

#: Half-width of the propagation band in units of sqrt(block width); kernel
#: entries beyond it are below exp(-81/2) of the peak.
_BAND_SIGMAS = 9.0

#: Output nodes per slab of the dense block (:func:`_near_block`), eight
#: cells' worth.  A slab's kernel is this many rows by the inputs within
#: reach of them, so a window that takes no Toeplitz product, such as a
#: state's off the block's lattice, never forms one matrix over the whole
#: window.  A slab of a window's nodes spans at most 8 cells, 24 standard
#: deviations, so with the 9-sigma reach its Gaussian's exponents stay above
#: -(33**2)/2, clear of the results near and below exp(-708) that exp
#: computes many times slower.
_SLAB_NODES = 96

#: Floor on the exponent of the corridor's far-wall term in
#: :func:`_wall_factor` and of :func:`bridge_crossing_upper`.  exp computes
#: results near and below the smallest normal double, about exp(-708), many
#: times slower; a term below exp(-700), about 1e-304, is lost beside the
#: factor's other part unless the factor itself is below about 1e-288, and
#: no uniform draw but 0 lies below it.
_EXP_FLOOR = -700.0

#: Lattice cells the Toeplitz product reaches on either side: nodes of cells
#: further apart are more than ``_BAND_SIGMAS`` standard deviations apart.
_REACH_CELLS = int(_BAND_SIGMAS // _PANEL_SIGMAS)

#: The corridor's both-walls remainder runs only while 2*min(u0, u1)**2/dt
#: is below this; past it the remainder is below 2*exp(-45) (module docstring).
_WIDE = 45.0

#: Largest |k| the corridor image series (:func:`_image_series`) may reach.
_IMAGE_MAX = 256

#: Half-width of the spatial window in standard deviations of the diffusion
#: bulk: the window holds all but about Phi(-8) of the absorbed mass.
_TRUNCATION_SIGMAS = 8.0

#: Slack allowed on the survival-monotonicity consistency check.
_SURVIVAL_SLACK = 1e-9

#: :func:`crossing_mass` leaves out the nodes more than this many standard
#: deviations of the block below the wall's start ...
_CUT_SIGMAS = 12.0

#: ... when the bound on their part is at most this share of the kept sum.
_CUT_TOL = 1e-16


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the panels between ``edges``."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * _XG).ravel(), (half[:, None] * _WG).ravel()


#: The wall piece's rule on [0, 1], the wall at 1: the panels [0, 1/2],
#: [1/2, 5/6] and [5/6, 1], graded toward the wall.
_PIECE_X, _PIECE_W = _panel_nodes(np.array([0.0, 0.5, 5.0 / 6.0, 1.0]))


def _nodes_weights(
    corridor: bool, g: float, t: float, dt: float
) -> tuple[np.ndarray, np.ndarray, LatticeCells] | None:
    """Quadrature of the spatial window at time ``t`` with wall value ``g``,
    and the run of full lattice cells among its panels (module docstring);
    None if the window is empty.  On the corridor only its half x > 0 is
    laid out, the cells from 0 on and the wall piece; the other half is its
    mirror image.

    The window carries all but ~Phi(-8) of the absorbed mass: it reaches
    ``_TRUNCATION_SIGMAS`` standard deviations of the diffusion bulk, rounded
    out to lattice lines, and is cut by the upper wall and, on the corridor,
    by its mirror.
    """
    h = _PANEL_SIGMAS * math.sqrt(dt)
    reach = math.ceil(_TRUNCATION_SIGMAS * math.sqrt(t) / h)
    if not g > (0.0 if corridor else -reach * h):
        return None
    walled = g <= reach * h
    # full cells k0..k1-1; a wall piece narrower than h/4 joins its
    # neighbour cell while there is one
    k1 = math.floor(g / h) if walled else reach
    if walled and g - k1 * h < 0.25 * h and k1 > (0 if corridor else -reach):
        k1 -= 1
    k0 = 0 if corridor else -reach
    n = _PANEL_ORDER * (k1 - k0)
    x = np.empty(n + (_PIECE_X.size if walled else 0))
    w = np.empty_like(x)
    # the full cells, cut from the lattice of cells -r..r-1, r the power of
    # 2 from reach on, so a solve's windows rebuild it only as they widen
    r = 1 << (reach - 1).bit_length()
    cells_x, cells_w = _lattice(h, r)
    x[:n] = cells_x[_PANEL_ORDER * (k0 + r) :][:n]
    w[:n] = cells_w[_PANEL_ORDER * (k0 + r) :][:n]
    if walled:
        # the wall piece [k1*h, g], graded toward the wall
        a = k1 * h
        x[n:] = a + (g - a) * _PIECE_X
        w[n:] = (g - a) * _PIECE_W
    return x, w, LatticeCells(h, k0, k1 - k0, 0)


@functools.lru_cache(maxsize=1)
def _lattice(h: float, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the lattice cells -r..r-1 of width ``h``, cell
    by cell: each the unit cell's rule shifted onto it.  Only the latest
    (width, r) is kept."""
    k = np.arange(-r, r, dtype=float)[:, None]
    x = ((k + 0.5) * h + (0.5 * h) * _XG).ravel()
    w = np.tile((0.5 * h) * _WG, 2 * r)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


#: Wall signs of the corridor: the upper wall x = g and its mirror x = -g.
_CORRIDOR = (1.0, -1.0)


def _mirrors(side: BoundarySide) -> tuple[float, ...]:
    """Signs s of the walls s*x = g of ``side``."""
    return (1.0,) if side is BoundarySide.UPPER_ONLY else _CORRIDOR


def _narrow(mirrors: tuple[float, ...], g0: float, g1: float, dt: float) -> bool:
    """Whether the block needs the corridor's both-walls remainder."""
    return -1.0 in mirrors and 2.0 * min(g0, g1) ** 2 < _WIDE * dt


# ---------------------------------------------------------------------------
# one wall in closed form


def _one_wall(x: np.ndarray, g0: float, g1: float, dt: float):
    """The crossing of the segment g0 -> g1 from ``x`` below it as two
    nonnegative parts, Phi((x - g1)/sqrt(dt)) and
    e = exp(-2u(g1 - g0)/dt) * Phi((g1 - g0 - u)/sqrt(dt)) with u = g0 - x,
    and u itself."""
    s = math.sqrt(dt)
    u = g0 - x
    e = np.exp(-2.0 * u * (g1 - g0) / dt + log_ndtr((g1 - 2.0 * g0 + x) / s))
    return ndtr((x - g1) / s), e, u


def bridge_crossing_upper(x0, x1, g0: float, g1: float, dt: float, out=None):
    """Crossing probability of the pinned bridge below one linear segment,
    exp(-2.0 * (g0 - x0) * (g1 - x1) / dt) with the exponent floored at
    ``_EXP_FLOOR``, written into ``out`` if given."""
    e = np.multiply(-2.0, np.subtract(g0, x0, out=out), out=out)
    e = np.multiply(e, np.subtract(g1, x1), out=out)
    e = np.maximum(np.divide(e, dt, out=out), _EXP_FLOOR, out=out)
    return np.exp(e, out=out)


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
    corridor (module docstring), and its derivative in g1, node by node.

    The derivative is None where it is not available: on a narrow corridor
    (the remainder has none here), on a corridor closing within the block,
    and when a node's crossing rounds above 1 and is clipped.  Each wall's
    derivative is -2u*e/dt (:func:`crossing_mass`).
    """
    if -1.0 in mirrors and g1 <= 0.0:
        return np.ones_like(x), None  # the corridor closes within the block
    c = dc = 0.0
    for s in mirrors:
        p, e, u = _one_wall(x if s > 0.0 else -x, g0, g1, dt)
        c = c + (p + e)
        dc = dc + u * e
    narrow = _narrow(mirrors, g0, g1, dt)
    if narrow:
        c = c - _crossing_remainder(x, g0, g1, dt, float(c.max(initial=0.0)))
    # off a narrow corridor every part is nonnegative, so only 1 can clip
    if narrow or c.max(initial=0.0) > 1.0:
        return np.clip(c, 0.0, 1.0), None
    return c, dc * (-2.0 / dt)


def block_crossing_symmetric(x, u0: float, u1: float, dt: float):
    """P(leave the corridor (-u, u), u linear u0 -> u1, during one block |
    start x)."""
    return _crossing(np.asarray(x, dtype=float), u0, u1, dt, _CORRIDOR)[0]


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


def _wall_factor(y: np.ndarray, x: np.ndarray, g0: float, g1: float, dt: float, mirrors):
    """1 - sum of the pinned bridge's one-wall crossing probabilities
    e_s = exp(-2(g1 - s*x)(g0 - s*y)/dt) from ``y`` to ``x``, broadcast
    against each other."""
    near = ((-2.0 / dt) * (g1 - x)) * (g0 - y)
    if len(mirrors) == 1:
        return np.negative(np.expm1(near, out=near), out=near)
    far = ((-2.0 / dt) * (g1 + x)) * (g0 + y)
    # expm1 takes whichever wall's exponent is nearer 0, so the factor keeps
    # its relative accuracy by both walls of the corridor
    lo = np.maximum(np.minimum(near, far), _EXP_FLOOR)
    np.expm1(np.maximum(near, far, out=near), out=near)
    near += np.exp(lo, out=lo)
    return np.negative(near, out=near)


def _kernel_remainder(y, x, u0: float, u1: float, dt: float, peak: float):
    """Both-walls remainder of the corridor kernel from the inputs ``y`` (a
    row) to the outputs ``x`` (a column), in units of the free Gaussian's
    peak: the direct images k != 0 less the reflections across j*u,
    |j| >= 3."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    direct, reflected = np.empty(shape), np.empty(shape)
    none = np.zeros(())

    def gauss(out, logw, mean):
        # exp(logw - (x - mean)**2 / (2 dt)) on the block, in place
        np.subtract(x, mean, out=out)
        np.square(out, out=out)
        out /= -2.0 * dt
        out += logw
        return np.exp(out, out=out)

    # The series uses up each image pair before it asks for the next, so all
    # of them share the buffers; fresh arrays per term cost page faults and
    # peak memory.
    def image(k, la, mean_a, lb, mean_b):
        return (
            none if k == 0 else gauss(direct, la, mean_a),
            none if k in (0, 1) else gauss(reflected, lb, mean_b),
        )

    return _image_series(y, u0, u1, dt, image, peak)


def _near_block(
    x_in: np.ndarray,
    mass_in: np.ndarray,
    x_out: np.ndarray,
    g0: float,
    g1: float,
    dt: float,
    mirrors: tuple[float, ...],
    direct: tuple[int, int, int] | None = None,
) -> np.ndarray:
    """The kernel as a dense block from the inputs within
    ``_BAND_SIGMAS * sqrt(dt)`` of the outputs ``x_out``, one contiguous
    slice of the sorted ``x_in``, applied to their masses by one matrix
    product.  Each entry is the free Gaussian times :func:`_wall_factor`,
    plus the both-walls remainder on a narrow corridor.  The outputs go
    ``_SLAB_NODES`` at a time, each slab against its own slice of inputs; a
    slab with no input in reach gets 0.

    ``direct`` = (rows, lo, hi) says that the first ``rows`` outputs already
    hold the free Gaussian from the full input cells ``x_in[lo:hi]``: their
    entries from those inputs are the kernel less it, the walls' images, and
    the slices start no lower than the inputs that an image or the outputs
    from ``rows`` on reach (module docstring).
    """
    reach = _BAND_SIGMAS * math.sqrt(dt)
    narrow = _narrow(mirrors, g0, g1, dt)
    rows, lo_full, hi_full = direct or (0, 0, 0)
    floor = -math.inf
    if direct is not None:
        zone = reach + abs(g1 - g0)
        floor = g0 - zone
        if rows < x_out.size:
            floor = min(floor, x_out[rows] - reach)
        if -1.0 in mirrors and x_out[0] - reach < zone - g0:
            floor = -math.inf
    out = np.empty(x_out.size)
    for start in range(0, x_out.size, _SLAB_NODES):
        x = x_out[start : start + _SLAB_NODES, None]
        lo = x_in.searchsorted(max(x[0, 0] - reach, floor), side="left")
        hi = x_in.searchsorted(x[-1, 0] + reach, side="right")
        y = x_in[lo:hi]
        gauss = np.subtract(x, y)
        np.square(gauss, out=gauss)
        gauss /= -2.0 * dt
        np.exp(gauss, out=gauss)
        kernel = _wall_factor(y, x, g0, g1, dt, mirrors)
        if rows > start:
            kernel[: rows - start, max(lo_full - lo, 0) : max(hi_full - lo, 0)] -= 1.0
        kernel *= gauss
        if narrow:
            kernel += _kernel_remainder(y, x, g0, g1, dt, float(gauss.max(initial=0.0)))
        out[start : start + x.shape[0]] = kernel @ mass_in[lo:hi]
    return out / math.sqrt(2.0 * math.pi * dt)


def _toeplitz_blocks() -> np.ndarray:
    """The direct Gaussian exp(-(x - y)**2 / (2 dt)) from the nodes y of
    lattice cell c - o to the nodes x of cell c, for o = _REACH_CELLS, ...,
    -_REACH_CELLS, stacked as rows (o, q) by columns p.  In units of the
    cell width x - y = o + (xi_p - xi_q) / 2, so the blocks do not depend on
    dt."""
    o = np.arange(_REACH_CELLS, -_REACH_CELLS - 1, -1, dtype=float)
    z = _PANEL_SIGMAS * (o[:, None, None] + 0.5 * (_XG[None, None, :] - _XG[None, :, None]))
    return np.exp(-0.5 * z**2).reshape(-1, _PANEL_ORDER)


_TOEPLITZ = _toeplitz_blocks()


def _toeplitz(mass: np.ndarray, c_in: int, c_out: int, n_out: int) -> np.ndarray:
    """Direct Gaussian sums into the ``n_out`` cells from lattice cell
    ``c_out`` on, from the masses of the consecutive cells from ``c_in`` on:
    seven 12 x 12 blocks applied as one matrix product."""
    r = _REACH_CELLS
    mass = mass.reshape(-1, _PANEL_ORDER)
    pad = np.zeros((n_out + 2 * r, _PANEL_ORDER))
    lo = max(c_in, c_out - r)
    hi = min(c_in + mass.shape[0], c_out + n_out + r)
    if hi > lo:
        pad[lo - c_out + r : hi - c_out + r] = mass[lo - c_in : hi - c_in]
    # row i reads the 2r + 1 cells from cell i of the padding, in place
    windows = np.ndarray((n_out, _TOEPLITZ.shape[0]), buffer=pad, strides=pad.strides)
    return (windows @ _TOEPLITZ).ravel()


def _propagate(
    x_in: np.ndarray,
    mass_in: np.ndarray,
    x_out: np.ndarray,
    g0: float,
    g1: float,
    dt: float,
    mirrors: tuple[float, ...],
    cells_in: LatticeCells | None = None,
    cells_out: LatticeCells | None = None,
) -> np.ndarray:
    """Absorbed density at ``x_out`` after one block inside the walls
    s*x = g (s in ``mirrors``, g linear g0 -> g1), from point masses
    ``mass_in`` (weight times value) at ``x_in``.

    When the input is on the output's lattice and the output holds full
    cells (``cells_in``, ``cells_out``), every full output cell takes the
    free Gaussian from every full input cell by :func:`_toeplitz`, and the
    rows by the walls take the dense block less that Gaussian, by
    :func:`_near_block`: the rows less than 9*sqrt(dt) + |g1 - g0| below
    x = g1 and those within the band of the input's wall piece (module
    docstring).  Otherwise, on a narrow corridor, and when those rows are
    the whole window, every output takes the dense block alone.
    """
    h = _PANEL_SIGMAS * math.sqrt(dt)
    start = 0
    if (
        cells_in is not None
        and cells_out is not None
        and cells_in.width == h
        and cells_out.count > 0
        and not _narrow(mirrors, g0, g1, dt)
    ):
        lo = cells_in.first_node
        hi = lo + _PANEL_ORDER * cells_in.count
        reach = _BAND_SIGMAS * math.sqrt(dt)
        edge = g1 - reach - abs(g1 - g0)
        if hi < x_in.size:
            edge = min(edge, x_in[hi] - reach)
        start = int(x_out.searchsorted(edge, side="right"))
    if start == 0:
        return _near_block(x_in, mass_in, x_out, g0, g1, dt, mirrors)
    n = _PANEL_ORDER * cells_out.count
    out = np.zeros(x_out.size)
    toeplitz = _toeplitz(mass_in[lo:hi], cells_in.first_cell, cells_out.first_cell, cells_out.count)
    np.divide(toeplitz, math.sqrt(2.0 * math.pi * dt), out=out[:n])
    if start < x_out.size:
        out[start:] += _near_block(
            x_in, mass_in, x_out[start:], g0, g1, dt, mirrors, (n - start, lo, hi)
        )
    return out


# ---------------------------------------------------------------------------
# state construction and propagation


#: The law of W_0, a unit point mass at the origin: every state is this one
#: pushed across the blocks before it.
ORIGIN = SubDensity(time=0.0, nodes=np.zeros(1), weights=np.ones(1), values=np.ones(1))


def initial_subdensity(g0: float, g1: float, t1: float, side: BoundarySide) -> SubDensity:
    """Absorbed density at the first knot for a linear first segment g0 -> g1:
    :data:`ORIGIN` pushed across one block of width ``t1``."""
    if g0 <= 0.0:
        raise ValueError("boundary must start strictly above the origin")
    return propagated_subdensity(ORIGIN, g0, g1, t1, side)


def propagated_subdensity(
    state: SubDensity, g0: float, g1: float, dt: float, side: BoundarySide
) -> SubDensity:
    """Push the absorbed density across one block with boundary values
    g0 at the state's knot and g1 at the next one; an empty state, or a
    window that closes, gives an empty state."""
    t1 = state.time + dt
    corridor = side is BoundarySide.SYMMETRIC
    quad = _nodes_weights(corridor, g1, t1, dt) if state.nodes.size else None
    if quad is None:
        z = np.empty(0)
        return SubDensity(time=t1, nodes=z, weights=z, values=z)
    x, w, cells = quad
    vals = _propagate(state.nodes, state.mass, x, g0, g1, dt, _mirrors(side), state.cells, cells)
    if corridor:
        # mirror the half x > 0: its cells 0..c-1 become -c..c-1, after the
        # mirrored wall piece
        c, piece = cells.count, x.size - cells.count * _PANEL_ORDER
        x = np.concatenate([-x[::-1], x])
        w = np.concatenate([w[::-1], w])
        vals = np.concatenate([vals[::-1], vals])
        cells = LatticeCells(cells.width, -c, 2 * c, piece)
    out = SubDensity(time=t1, nodes=x, weights=w, values=vals, cells=cells)
    if out.survival > state.survival + _SURVIVAL_SLACK:
        raise NumericalConsistencyError(
            f"survival increased across block ending at t={t1:g}: "
            f"{state.survival:.17g} -> {out.survival:.17g}"
        )
    return out


def subdensities(b: PiecewiseLinearBoundary) -> Iterator[SubDensity]:
    """Absorbed densities at knots 1, 2, ..., blocks of ``b``, one block apart."""
    g = [float(v) for v in b.knot_values]
    dt = b.grid.block_width
    state = ORIGIN
    for m in range(b.grid.blocks):
        state = propagated_subdensity(state, g[m], g[m + 1], dt, b.side)
        yield state


def crossing_mass(state: SubDensity, g0: float, g1: float, dt: float, side: BoundarySide):
    """Probability of crossing during one block with endpoint boundary values
    g0 -> g1, given the absorbed state at the block start, and its
    derivative in g1: the pair (mass, d mass / d g1), the derivative NaN
    where it is not available (a narrow corridor, a node or the mass
    clipped).

    Evaluated as a weighted sum of per-node crossing probabilities, which
    keeps tiny masses accurate in relative terms.  On the corridor the
    crossing probability is even, so it is evaluated at the nodes x > 0
    only, against the mass folded onto them, when the state's lattice cells
    are mirrored (:attr:`SubDensity.folded`); a state without cells is
    summed over every node.  The nodes more than ``_CUT_SIGMAS`` standard
    deviations below g0 are left out while the bound on their part (module
    docstring) is at most ``_CUT_TOL`` of the kept sum, and of its
    derivative; otherwise every node is summed.  The state's masses and their
    fold are computed once per state, however many slopes are tried on it.

    The derivative costs one multiply-add per node.  With u = g0 - x and
    d = g1 - g0, each wall's crossing is Phi(z1) + e, where
    z1 = -(u + d)/sqrt(dt), z2 = (d - u)/sqrt(dt) and
    e = exp(E) * Phi(z2) with E = -2ud/dt.  Differentiating in g1,

        dc/dg1 = -phi(z1)/sqrt(dt) + e * (-2u/dt) + exp(E) * phi(z2)/sqrt(dt),

    and z1**2 - z2**2 = 4ud/dt = -2E makes exp(E) * phi(z2) = phi(z1), so the
    two Gaussian terms cancel: dc/dg1 = -2u*e/dt.
    """
    if state.nodes.size == 0:
        return 0.0, 0.0
    x, mass = state.folded if side is BoundarySide.SYMMETRIC else (state.nodes, state.mass)
    mirrors = _mirrors(side)
    cut = int(x.searchsorted(g0 - _CUT_SIGMAS * math.sqrt(dt)))
    if cut:
        # the crossing at the first node and at the last dropped one bounds
        # the crossing at every dropped node
        c, dc = _crossing(np.concatenate((x[:1], x[cut - 1 :])), g0, g1, dt, mirrors)
        bound = float(c[0] + c[1]) * state.survival
        value = float(mass[cut:] @ c[2:])
        slope = None if dc is None else float(mass[cut:] @ dc[2:])
        u_max = g0 + max(abs(x[0]), abs(x[cut - 1]))
        if bound > _CUT_TOL * value or (
            slope is not None and bound * (2.0 * u_max / dt) > _CUT_TOL * abs(slope)
        ):
            cut = 0
    if not cut:
        c, dc = _crossing(x, g0, g1, dt, mirrors)
        value = float(mass @ c)
        slope = None if dc is None else float(mass @ dc)
    if value < -_SURVIVAL_SLACK:
        raise NumericalConsistencyError(f"negative block crossing probability {value:g}")
    clipped = min(max(value, 0.0), state.survival)
    return clipped, (math.nan if slope is None or clipped != value else slope)


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


def fpt_distribution_table(b: PiecewiseLinearBoundary) -> FptTable:
    """Tabulate cdf, block masses and block-average densities at all knots."""
    return FptTable.from_survivals(b.grid, [state.survival for state in subdensities(b)])
