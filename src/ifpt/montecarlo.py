"""Simulation oracle: bridge-corrected Monte Carlo hitting-time estimation
and brute-force tensor quadrature for low block indices.

The paths run in chunks of 2**15, each on its own SFC64 stream, numpy's
documented child stream c of the seed (``SeedSequence(seed,
spawn_key=(c,))``); unlike an entropy list [seed, c], the spawn key keeps
the streams of different seeds apart (seed 2**32's chunk 0 is not seed 0's
chunk 1).  The chunks run on worker threads, one per CPU the process may
use and at most one per chunk, each taking the next chunk no worker has
taken.  numpy's draws and ufuncs release the GIL on arrays of a chunk's
size, so the workers run concurrently.  Each chunk's counts are fixed by
its stream and their sum is exact, so the counts depend only on the seed
and the path count, never on the worker count, and are reproducible bit
for bit (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011).  At 2**15 paths a chunk two workers hold the scratch arrays one
worker held at 2**16.

The chunk loop carries only the live paths, their positions compacted in
chunk order, and stops once none is left.  Each step draws one normal and
then one uniform per live path and gives the k-th of each to the k-th live
path; dead paths draw nothing.  The law of the counts is that of a fresh
N(0, 1) and U(0, 1) per live path and step: how many paths live at step s
depends only on the draws before it, and the draws of step s are
independent of those.  The draws, the breach test, the clip, the one-wall
factors and the masks fill slices of scratch arrays made once per chunk;
apart from the factor's difference g1 - x1 and the corridor's screened few,
the only array a step makes is the compacted positions of the paths that
survive it (``np.compress`` into the dead buffer allocates twice as much
and takes ten times as long).  At 2**19 paths on a solved level-6 exp(1)
boundary, on a noisy 2-core x86 box, a simulate call makes 21.4M draws of
each kind and takes about 0.25-0.3 s (upper) or 0.4 s (corridor) on two
workers, against 0.4-0.5 s and 0.55 s on one (``BENCH_workers.json``).

A path that stays inside the boundary over a step crosses it inside the step
when its uniform ``u`` falls below the pinned-bridge crossing probability p
of the linear segment.  On the upper side p is one exponential.  On the
symmetric corridor p is Anderson's image series (J. Appl. Probab., 1960).
Touching either wall is at least as likely as touching one of them and at
most as likely as touching the one plus touching the other, so
max(e_up, e_lo) <= p <= e_up + e_lo for the two one-wall factors, each one
exponential.  An inside path with ``u >= e_up + e_lo + _SCREEN_SLACK``
survives the step, one with ``u < max(e_up, e_lo) - _SCREEN_SLACK`` has
crossed, and the series runs only on the rest: 24 of 21.4M path-steps at
2**19 paths, seed 0, on the solved level-6 corridor.  The slack (1e-6)
covers the rounding gap between the series and either bound, at most
1.3e-9 measured with x**2/dt up to 6e6 and slopes near 3e3.  The draws,
their order and every crossing decision are those of testing every inside
path against the full series, so the counts are too.
"""
from __future__ import annotations

import csv
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .core import BoundarySide, PiecewiseLinearBoundary, TargetDistribution
from .forward import bridge_crossing_symmetric, bridge_crossing_upper

__all__ = [
    "SimConfig",
    "EmpiricalHittingDistribution",
    "simulate_hitting_times",
    "ks_block_distance",
    "ks_threshold",
    "brute_force_block_check",
]

_CHUNK = 1 << 15
# margin on either side of the one-wall bracket of the corridor series before
# the bracket may decide a path without it; far above the series' rounding
# error, so no decision ever differs from the series'
_SCREEN_SLACK = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Path count and the stream seed (one 64-bit word, the entropy of the
    chunks' ``SeedSequence``, so 0 <= seed < 2**64).

    Paths take one step per block, which is exact on the boundary's linear
    segments thanks to the bridge correction.  They run in chunks of 2**15
    on one worker thread per usable CPU; the counts depend on the seed and
    the path count alone, not on the number of CPUs.
    """

    paths: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("need at least one path")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


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


def _step_crossed(x0, x1, u, g0: float, g1: float, dt: float, symmetric: bool, crossed, work):
    """Mask, written into ``crossed``, of the live paths moving x0 -> x1 over
    one step that hit the segment g0 -> g1: endpoint breaches, then inside
    paths whose uniform ``u`` falls below their pinned-bridge crossing
    probability.  On the corridor ``work`` holds two float scratch arrays
    and one boolean one of the paths' length; the upper side needs none.

    The factors are taken at ``x1`` clipped to the walls in place, which
    leaves inside paths as they are and keeps every exponent <= 0 on
    breached ones.  On the upper side the factor is written over ``x0``; a
    breached path, clipped onto the wall, has the factor exp(-0) = 1 > u, so
    ``u < factor`` is the whole test.  On the corridor the breaches are
    tested first and the one-wall factors bracket the image series from
    both sides (module docstring); the lower wall's factor is the upper one
    of the mirrored segment -g0 -> -g1, bit for bit, since negation is
    exact."""
    if not symmetric:
        np.minimum(x1, g1, out=x1)
        return np.less(u, bridge_crossing_upper(x0, x1, g0, g1, dt, out=x0), out=crossed)
    bound, lower, flag = work
    # |x1| is exact, so |x1| >= g1 is the breach of either wall
    np.greater_equal(np.absolute(x1, out=bound), g1, out=crossed)
    np.clip(x1, -g1, g1, out=x1)
    bridge_crossing_upper(x0, x1, g0, g1, dt, out=bound)
    bound += bridge_crossing_upper(x0, x1, -g0, -g1, dt, out=lower)
    bound += _SCREEN_SLACK
    # inside paths with u below the factors' sum plus the slack; the rest survive
    near = np.flatnonzero(np.greater(np.less(u, bound, out=flag), crossed, out=flag))
    if near.size:
        x0, x1, u = x0[near], x1[near], u[near]
        # a path below the larger one-wall factor less the slack has crossed
        top = np.maximum(bridge_crossing_upper(x0, x1, g0, g1, dt), lower[near])
        hit = u < top - _SCREEN_SLACK
        rest = np.flatnonzero(~hit)
        if rest.size:
            hit[rest] = u[rest] < bridge_crossing_symmetric(x0[rest], x1[rest], g0, g1, dt)
        crossed[near] = hit
    return crossed


def _simulate_chunk(
    b: PiecewiseLinearBoundary, cfg: SimConfig, chunk_index: int, count: int
) -> np.ndarray:
    """Hit counts per block for one chunk of paths.

    The loop carries the live paths only, their positions ``x`` compacted in
    chunk order, and stops once none is left.  Each step draws one normal and
    then one uniform per live path from the chunk's SFC64 child stream,
    ``SeedSequence(seed, spawn_key=(chunk_index,))``, which is bit for bit
    ``SeedSequence(seed).spawn(chunk_index + 1)[chunk_index]``.
    The draws and the step test fill leading slices of scratch arrays made
    once per chunk; the live count never grows, so they always fit."""
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(chunk_index,)))
    )
    g = b.knot_values
    dt = b.grid.block_width
    symmetric = b.side is BoundarySide.SYMMETRIC

    hits = np.zeros(b.grid.blocks, dtype=np.int64)
    x = np.zeros(count)
    normals = np.empty(count)
    uniforms = np.empty(count)
    crossed = np.empty(count, dtype=bool)
    work = (np.empty(count), np.empty(count), np.empty(count, dtype=bool)) if symmetric else ()
    sqdt = math.sqrt(dt)
    for m in range(b.grid.blocks):
        n = x.size
        # the k-th draws of the step go to the k-th live path; how many are
        # drawn depends only on earlier draws, so each is fresh and independent
        x1 = rng.standard_normal(out=normals[:n])
        x1 *= sqdt
        x1 += x
        u = rng.random(out=uniforms[:n])
        mask = _step_crossed(
            x, x1, u, float(g[m]), float(g[m + 1]), dt, symmetric,
            crossed[:n], [w[:n] for w in work],
        )
        dead = np.count_nonzero(mask)
        if dead:
            hits[m] += dead
            if dead == n:
                break
            x = x1[np.logical_not(mask, out=mask)]
        else:
            # the old positions' array, at least n long, takes the next draws
            normals, x = x, x1
    return hits


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def simulate_hitting_times(
    b: PiecewiseLinearBoundary, cfg: SimConfig
) -> EmpiricalHittingDistribution:
    """Estimate the hitting-time distribution of ``b`` by simulation.

    Endpoint breaches are always hits; otherwise a crossing inside the step
    is sampled with the exact pinned-bridge crossing probability of the
    linear segment, so the block-level law is exact up to sampling noise.
    On the symmetric side the corridor's image series runs only for paths
    whose uniform lies between the larger one-wall factor less a 1e-6
    slack and the sum of both plus that slack; below, a path has crossed,
    above, it has not, so the counts are those the full series gives.
    The paths run in chunks of ``_CHUNK``, the c-th on the SFC64 child
    stream ``SeedSequence(seed, spawn_key=(c,))``.  One worker thread per
    usable CPU, at most one per chunk, takes the chunks in turn; the counts
    are exact integer sums, so they depend only on the seed and the path
    count.
    """
    sizes = [min(_CHUNK, cfg.paths - start) for start in range(0, cfg.paths, _CHUNK)]
    workers = min(_usable_cpus(), len(sizes))
    chunks = iter(range(len(sizes)))
    lock = threading.Lock()

    def work() -> np.ndarray:
        # the next chunk no worker has taken, until none is left
        hits = np.zeros(b.grid.blocks, dtype=np.int64)
        while True:
            with lock:
                c = next(chunks, None)
            if c is None:
                return hits
            hits += _simulate_chunk(b, cfg, c, sizes[c])

    # the calling thread is the first worker: its scratch arrays reuse memory
    # the process already holds, where a pool thread's come from fresh pages
    # (glibc gives each thread its own malloc arena)
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        hits = work()
        for helper in helpers:
            hits += helper.result()
    return EmpiricalHittingDistribution(
        times=b.grid.knots.copy(),
        hits=hits,
        survivors=cfg.paths - int(hits.sum()),
        paths=cfg.paths,
    )


def ks_threshold(paths: int) -> float:
    """Largest K-S block statistic ``ifpt verify`` accepts: six standard
    errors of a frequency near 1/2, 6 * sqrt(0.25 / paths), but never below
    criterion 9's 0.005, which it is from 360 000 paths on (so at 2**19)."""
    return max(0.005, 6.0 * math.sqrt(0.25 / paths))


def ks_block_distance(e: EmpiricalHittingDistribution, d: TargetDistribution) -> float:
    """Largest gap between the empirical cdf and the target cdf on the knots."""
    return float(np.max(np.abs(e.cumulative - d.cdf_at(e.times))))


def _dim_nodes(b: PiecewiseLinearBoundary, k: int):
    # at least 8 equal 12-point Gauss-Legendre panels, at most 3*sqrt(dt)
    # wide, over 8*sqrt(t) around 0 cut by the walls at knot k; built
    # here so the tensor route shares no quadrature machinery with the
    # sequential propagation it cross-checks
    dt = b.grid.block_width
    reach = 8.0 * math.sqrt(b.grid.knot(k))
    hi = min(float(b.knot_values[k]), reach)
    lo = -hi if b.side is BoundarySide.SYMMETRIC else -reach
    if not hi > lo:
        return None
    panels = max(8, math.ceil((hi - lo) / (3.0 * math.sqrt(dt))))
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    xg, wg = roots_legendre(12)
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


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


def _survival_tensor(b: PiecewiseLinearBoundary, j: int) -> float:
    """P(no crossing through knot j) as a literal j-dimensional integral."""
    dt = b.grid.block_width
    dims = []
    for k in range(1, j + 1):
        nw = _dim_nodes(b, k)
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


def brute_force_block_check(b: PiecewiseLinearBoundary, m: int) -> float:
    """Block crossing probability by direct tensor-product quadrature.

    Cost grows exponentially with the block index, so only m <= 3 is
    supported; the result cross-checks the sequential propagation route.
    """
    if not 1 <= m <= 3:
        raise ValueError("brute-force check supports block indices 1..3 only")
    if m + 1 > b.grid.blocks:
        raise ValueError("boundary grid has too few blocks")
    return _survival_tensor(b, m) - _survival_tensor(b, m + 1)
