"""Simulation oracle: bridge-corrected Monte Carlo hitting-time estimation
and brute-force tensor quadrature for low block indices.

Paths use counter-based pseudo-random streams (one Philox key per fixed-size
chunk), so path i consumes the same draws no matter how chunks are scheduled
and counts are reproducible bit for bit.

A path that stays inside the boundary over a step crosses it inside the step
when its uniform ``u`` falls below the pinned-bridge crossing probability p
of the linear segment.  On the upper side p is one exponential.  On the
symmetric corridor p is an image series, but it never exceeds the union
bound e_up + e_lo of the two one-wall factors, each one exponential.  The
series therefore runs only on paths with ``u < e_up + e_lo + _SCREEN_SLACK``
(about 1% of path-steps on a solved corridor); every other inside path has
u >= p and survives the step.  The slack (1e-6) covers the rounding gap
between the series and the bound, at most 1.6e-9 measured with x**2/dt up to
6e6 and slopes near 3e3.  The draws, their order and every crossing
decision are those of testing every inside path against the full series,
so the counts are too.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BoundarySide, PiecewiseLinearBoundary, TargetDistribution
from .forward import (
    QuadratureConfig,
    _alive_interval,
    _mirrors,
    _nodes_weights,
    bridge_crossing_symmetric,
    bridge_crossing_upper,
)

__all__ = [
    "SimConfig",
    "EmpiricalHittingDistribution",
    "simulate_hitting_times",
    "ks_block_distance",
    "brute_force_block_check",
]

_CHUNK = 1 << 16
# margin added to the union bound before it may skip the corridor series;
# far above the series' rounding error, so no crossing is ever skipped
_SCREEN_SLACK = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Path count, per-block substeps and the stream seed.

    One substep per block is exact on linear segments thanks to the bridge
    correction; more substeps only subdivide the same segments.
    """

    paths: int
    substeps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.substeps < 1:
            raise ValueError("need at least one substep per block")


@dataclass(frozen=True)
class EmpiricalHittingDistribution:
    """Per-block hit counts over the dyadic grid plus the survivor count."""

    times: np.ndarray  # knot times, length blocks + 1
    hits: np.ndarray  # int64 hit counts per block
    survivors: int
    paths: int

    def __post_init__(self) -> None:
        if int(self.hits.sum()) + self.survivors != self.paths:
            raise ValueError("hit counts plus survivors must equal the path count")

    @property
    def frequencies(self) -> np.ndarray:
        return self.hits / self.paths

    @property
    def stderr(self) -> np.ndarray:
        f = self.frequencies
        return np.sqrt(f * (1.0 - f) / self.paths)

    @property
    def cumulative(self) -> np.ndarray:
        """Empirical cdf at every knot (0 at t=0)."""
        return np.concatenate([[0.0], np.cumsum(self.hits)]) / self.paths

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_lo", "t_hi", "hits", "frequency", "stderr"])
            for i in range(self.hits.size):
                w.writerow(
                    [
                        "%.17g" % self.times[i],
                        "%.17g" % self.times[i + 1],
                        int(self.hits[i]),
                        "%.17g" % self.frequencies[i],
                        "%.17g" % self.stderr[i],
                    ]
                )
            f = self.survivors / self.paths
            se = math.sqrt(f * (1.0 - f) / self.paths)
            w.writerow(["survivors", "", self.survivors, "%.17g" % f, "%.17g" % se])


def _step_crossed(x0, x1, u, g0: float, g1: float, dt: float, symmetric: bool) -> np.ndarray:
    """Mask of the paths moving x0 -> x1 over one step that hit the segment
    g0 -> g1: endpoint breaches, then inside paths whose uniform ``u`` falls
    below their pinned-bridge crossing probability.

    On the corridor the two one-wall factors screen the image series (module
    docstring).  The factors are taken at endpoints clipped to the walls,
    which leaves inside paths as they are and keeps every exponent <= 0
    on breached ones, whose outcome is already fixed."""
    if not symmetric:
        crossed = x1 >= g1
        crossed |= u < bridge_crossing_upper(x0, np.minimum(x1, g1), g0, g1, dt)
        return crossed
    crossed = (x1 >= g1) | (x1 <= -g1)
    x1 = np.clip(x1, -g1, g1)
    bound = bridge_crossing_upper(x0, x1, g0, g1, dt)
    bound += bridge_crossing_upper(-x0, -x1, g0, g1, dt)
    near = np.flatnonzero(~crossed & (u < bound + _SCREEN_SLACK))
    if near.size:
        crossed[near] = u[near] < bridge_crossing_symmetric(x0[near], x1[near], g0, g1, dt)
    return crossed


def _simulate_chunk(
    b: PiecewiseLinearBoundary, cfg: SimConfig, chunk_index: int, count: int
) -> np.ndarray:
    """Hit counts per block for one chunk of paths (fixed draw pattern)."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, chunk_index], dtype=np.uint64))
    )
    blocks = b.grid.blocks
    steps = blocks * cfg.substeps
    dt = b.grid.block_width / cfg.substeps
    # clip: for substeps > 1 the division may overshoot the horizon by 1 ulp
    times = np.minimum(np.arange(steps + 1) * b.grid.horizon / steps, b.grid.horizon)
    uppers = b.upper(times)
    symmetric = b.side is BoundarySide.SYMMETRIC

    x = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    hit_block = np.full(count, -1, dtype=np.int64)
    sqdt = math.sqrt(dt)
    for s in range(steps):
        idx = np.flatnonzero(alive)
        x0 = x[idx]
        # draws are consumed for every path in the chunk, alive or not, so
        # the stream position never depends on simulated outcomes
        x1 = x0 + sqdt * rng.standard_normal(count)[idx]
        u = rng.random(count)[idx]
        if idx.size == 0:
            continue
        crossed = _step_crossed(x0, x1, u, float(uppers[s]), float(uppers[s + 1]), dt, symmetric)
        hit_block[idx[crossed]] = s // cfg.substeps
        alive[idx[crossed]] = False
        keep = idx[~crossed]
        x[keep] = x1[~crossed]
    return np.bincount(hit_block[hit_block >= 0], minlength=blocks)


def simulate_hitting_times(
    b: PiecewiseLinearBoundary, cfg: SimConfig
) -> EmpiricalHittingDistribution:
    """Estimate the hitting-time distribution of ``b`` by simulation.

    Endpoint breaches are always hits; otherwise a crossing inside the step
    is sampled with the exact pinned-bridge crossing probability of the
    linear segment, so the block-level law is exact up to sampling noise.
    On the symmetric side the corridor's image series runs only for paths
    whose uniform lies below the sum of the two one-wall factors plus a
    1e-6 slack; the rest cannot cross, so the counts are those the full
    series gives.
    The worker count is capped by the ``IFPT_THREADS`` environment variable;
    results do not depend on it.
    """
    chunks = [
        (c, min(_CHUNK, cfg.paths - c * _CHUNK))
        for c in range((cfg.paths + _CHUNK - 1) // _CHUNK)
    ]
    workers = max(1, int(os.environ.get("IFPT_THREADS", "1")))
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda ci: _simulate_chunk(b, cfg, *ci), chunks))
    else:
        counts = [_simulate_chunk(b, cfg, c, n) for c, n in chunks]
    hits = np.sum(counts, axis=0, dtype=np.int64)
    return EmpiricalHittingDistribution(
        times=b.grid.knots.copy(),
        hits=hits,
        survivors=cfg.paths - int(hits.sum()),
        paths=cfg.paths,
    )


def ks_block_distance(e: EmpiricalHittingDistribution, d: TargetDistribution) -> float:
    """Largest gap between the empirical cdf and the target cdf on the knots."""
    return float(np.max(np.abs(e.cumulative - d.cdf_at(e.times))))


def _dim_nodes(b: PiecewiseLinearBoundary, k: int, cfg: QuadratureConfig):
    window = _alive_interval(_mirrors(b.side), float(b.knot_values[k]), b.grid.knot(k), cfg)
    if window is None:
        return None
    lo, hi = window
    return _nodes_weights(lo, hi, b.grid.block_width, cfg, grade_lo=False, grade_hi=False)


def _kernel_upper_literal(x_in, x_out, g0: float, g1: float, dt: float) -> np.ndarray:
    # written out directly so the tensor route shares no quadrature machinery
    # with the sequential propagation it cross-checks
    bridge = 1.0 - np.exp(-2.0 * np.outer(g1 - x_out, g0 - x_in) / dt)
    gauss = np.exp(-np.square(x_out[:, None] - x_in[None, :]) / (2.0 * dt))
    return bridge * gauss / math.sqrt(2.0 * math.pi * dt)


def _kernel_symmetric_literal(x_in, x_out, u0: float, u1: float, dt: float) -> np.ndarray:
    # Anderson's image sum for the corridor (-u, u), u linear u0 -> u1, over
    # k = -30..30 with no early stop: the direct image shifted by 4k*u0 and the
    # reflection across (1 - 2k)*u, each as the free Gaussian times its weight
    # (every weight is at most 1 between the walls)
    y, x = x_in[None, :], x_out[:, None]
    weights = np.zeros((x_out.size, x_in.size))
    for k in range(-30, 31):
        j = 1 - 2 * k
        weights += np.exp(-4.0 * k * (2.0 * k * u0 * u1 + u1 * y - u0 * x) / dt)
        weights -= np.exp(-2.0 * (j * u0 - y) * (j * u1 - x) / dt)
    gauss = np.exp(-np.square(x - y) / (2.0 * dt))
    return weights * gauss / math.sqrt(2.0 * math.pi * dt)


def _survival_tensor(b: PiecewiseLinearBoundary, j: int, cfg: QuadratureConfig) -> float:
    """P(no crossing through knot j) as a literal j-dimensional integral."""
    dt = b.grid.block_width
    dims = []
    for k in range(1, j + 1):
        nw = _dim_nodes(b, k, cfg)
        if nw is None:
            return 0.0
        dims.append(nw)
    g = [float(v) for v in b.knot_values[: j + 1]]
    if b.side is BoundarySide.UPPER_ONLY:
        kernel = _kernel_upper_literal
    else:
        kernel = _kernel_symmetric_literal

    # materialize the full product integrand (sliced along the first axis to
    # bound memory) and sum against the tensor-product weights
    x1, w1 = dims[0]
    k0 = kernel(np.zeros(1), x1, g[0], g[1], dt)[:, 0]  # (n1,)
    if j == 1:
        return float(np.sum(w1 * k0))
    x2, w2 = dims[1]
    k1 = kernel(x1, x2, g[1], g[2], dt)  # (n2, n1)
    if j == 2:
        grid = k0[None, :] * k1
        return float(np.einsum("ba,b,a->", grid, w2, w1))
    x3, w3 = dims[2]
    k2 = kernel(x2, x3, g[2], g[3], dt)  # (n3, n2)
    if j == 3:
        total = 0.0
        for i in range(x1.size):
            grid = k2 * k1[:, i][None, :]  # (n3, n2) slice of the 3-d integrand
            total += w1[i] * k0[i] * float(np.einsum("ba,b,a->", grid, w3, w2))
        return total
    x4, w4 = dims[3]
    k3 = kernel(x3, x4, g[3], g[4], dt)  # (n4, n3)
    total = 0.0
    for i in range(x1.size):
        grid = k1[:, i][:, None, None] * k2.T[:, :, None] * k3.T[None, :, :]
        total += w1[i] * k0[i] * float(np.einsum("abc,a,b,c->", grid, w2, w3, w4))
    return total


def brute_force_block_check(
    b: PiecewiseLinearBoundary, m: int, cfg: QuadratureConfig
) -> float:
    """Block crossing probability by direct tensor-product quadrature.

    Cost grows exponentially with the block index, so only m <= 3 is
    supported; the result cross-checks the sequential propagation route.
    """
    if not 1 <= m <= 3:
        raise ValueError("brute-force check supports block indices 1..3 only")
    if m + 1 > b.grid.blocks:
        raise ValueError("boundary grid has too few blocks")
    return _survival_tensor(b, m, cfg) - _survival_tensor(b, m + 1, cfg)
