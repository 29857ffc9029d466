import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from ifpt import (
    BoundarySide,
    DyadicGrid,
    PiecewiseLinearBoundary,
    SimConfig,
    TargetDistribution,
    brute_force_block_check,
    constant_boundary_cdf,
    construct_boundary,
    exponential_target,
    ks_block_distance,
    ks_threshold,
    simulate_hitting_times,
    symmetric_linear_density,
)
from ifpt import montecarlo
from ifpt.forward import bridge_crossing_symmetric, bridge_crossing_upper
from ifpt.montecarlo import _SCREEN_SLACK, EmpiricalHittingDistribution, _simulate_chunk


def const_boundary(side, level, value=1.0):
    grid = DyadicGrid(1.0, level)
    return PiecewiseLinearBoundary(side, grid, np.full(grid.blocks + 1, value))


class TestSimulate:
    def test_constant_boundary_frequency(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 4)
        emp = simulate_hitting_times(b, SimConfig(paths=200_000, seed=7))
        p_true = 2.0 * ndtr(-1.0)
        se = math.sqrt(p_true * (1.0 - p_true) / emp.paths)
        assert abs(1.0 - emp.survivors / emp.paths - p_true) <= 3.0 * se

    def test_symmetric_frequency(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 4)
        emp = simulate_hitting_times(b, SimConfig(paths=200_000, seed=9))
        p_true = constant_boundary_cdf(1.0, 1.0, BoundarySide.SYMMETRIC)
        se = math.sqrt(p_true * (1.0 - p_true) / emp.paths)
        assert abs(1.0 - emp.survivors / emp.paths - p_true) <= 3.0 * se

    def test_far_boundary_never_hit(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 2, value=1e6)
        emp = simulate_hitting_times(b, SimConfig(paths=50_000, seed=1))
        assert emp.survivors == emp.paths
        assert np.all(emp.hits == 0)

    def test_fixed_seed_reproduces_counts(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        a = simulate_hitting_times(b, SimConfig(paths=150_000, seed=3))
        c = simulate_hitting_times(b, SimConfig(paths=150_000, seed=3))
        assert np.array_equal(a.hits, c.hits)
        assert a.survivors == c.survivors

    @pytest.mark.parametrize(
        "side, hits",
        [
            (BoundarySide.UPPER_ONLY, [690, 6176, 8515, 8274, 7326, 6352, 5473, 4819]),
            (BoundarySide.SYMMETRIC, [1444, 12281, 17196, 16372, 14510, 12577, 10970, 9176]),
        ],
    )
    def test_counts_are_the_sum_of_the_chunk_streams(self, side, hits):
        # 150 000 paths are chunks 0..3 of 32 768 and chunk 4 of 18 928,
        # each on its own SFC64 child stream of the seed; the pinned counts
        # fix that layout
        b = const_boundary(side, 3)
        cfg = SimConfig(paths=150_000, seed=3)
        chunks = sum(
            _simulate_chunk(b, cfg, c, n) for c, n in enumerate([32_768] * 4 + [18_928])
        )
        emp = simulate_hitting_times(b, cfg)
        assert np.array_equal(emp.hits, chunks)
        assert emp.hits.tolist() == hits

    @pytest.mark.parametrize("side", [BoundarySide.UPPER_ONLY, BoundarySide.SYMMETRIC])
    def test_counts_do_not_depend_on_the_worker_count(self, side, monkeypatch):
        # five chunks on one, two or three worker threads
        b = const_boundary(side, 3)
        cfg = SimConfig(paths=150_000, seed=3)
        counts = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
            counts.append(simulate_hitting_times(b, cfg).hits)
        assert all(np.array_equal(c, counts[0]) for c in counts)

    def test_every_chunk_is_taken_once_by_more_workers_than_cpus(self, monkeypatch):
        # 157 chunks of 256 paths shared by eight workers that switch every
        # microsecond: a chunk taken twice or never changes the sum
        b = const_boundary(BoundarySide.SYMMETRIC, 3)
        cfg = SimConfig(paths=40_000, seed=8)
        monkeypatch.setattr(montecarlo, "_CHUNK", 256)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        sizes = [min(256, cfg.paths - start) for start in range(0, cfg.paths, 256)]
        want = sum(_simulate_chunk(b, cfg, c, n) for c, n in enumerate(sizes))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_hitting_times(b, cfg).hits
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_two_workers_hold_what_one_held(self, monkeypatch):
        # each worker holds its chunk's positions, draws, mask and, on the
        # corridor, the screen's scratch arrays: 1.3 MiB a worker at 2**15
        # paths a chunk, where one worker on 2**16-path chunks took 3.13 MiB
        b = _solved_corridor(6)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            simulate_hitting_times(b, SimConfig(paths=2**19, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 2**20, peak / 2**20

    @pytest.mark.parametrize("paths", [montecarlo._CHUNK, montecarlo._CHUNK + 1])
    def test_chunk_edge(self, paths):
        # a full chunk is one stream; one path more opens chunk 1 with one path
        b = const_boundary(BoundarySide.UPPER_ONLY, 2)
        cfg = SimConfig(paths=paths, seed=5)
        chunks = _simulate_chunk(b, cfg, 0, montecarlo._CHUNK)
        if paths > montecarlo._CHUNK:
            chunks = chunks + _simulate_chunk(b, cfg, 1, 1)
        emp = simulate_hitting_times(b, cfg)
        assert np.array_equal(emp.hits, chunks)
        assert int(emp.hits.sum()) + emp.survivors == paths

    def test_streams_of_different_seeds_do_not_collide(self):
        # SeedSequence([seed, c]) would read seed 2**32's chunk 0 and seed 0's
        # chunk 1 as the same entropy words; the spawn key keeps them apart
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        wide = _simulate_chunk(b, SimConfig(paths=1, seed=2**32), 0, 20_000)
        assert not np.array_equal(wide, _simulate_chunk(b, SimConfig(paths=1, seed=0), 1, 20_000))
        top = SimConfig(paths=1, seed=2**64 - 1)
        last = _simulate_chunk(b, top, 3, 20_000)
        assert last.sum() > 0
        assert np.array_equal(last, _simulate_chunk(b, top, 3, 20_000))

    def test_counts_add_up(self):
        b = const_boundary(BoundarySide.SYMMETRIC, 2)
        emp = simulate_hitting_times(b, SimConfig(paths=10_000, seed=2))
        assert int(emp.hits.sum()) + emp.survivors == emp.paths
        assert np.all(emp.stderr >= 0.0)

    def test_csv_format(self, tmp_path):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        emp = simulate_hitting_times(b, SimConfig(paths=1000, seed=0))
        out = tmp_path / "empirical.csv"
        emp.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t_lo,t_hi,hits,frequency,stderr"
        assert lines[-1].startswith("survivors,")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(paths=0)
        # the seed is one uint64 word, the entropy of the chunks' SeedSequence
        for seed in (-1, -3, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(paths=10, seed=seed)

    def test_seed_range_ends_are_accepted(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        for seed in (0, 2**64 - 1):
            emp = simulate_hitting_times(b, SimConfig(paths=100, seed=seed))
            assert int(emp.hits.sum()) + emp.survivors == 100

    @pytest.mark.parametrize(
        "side, seed", [(BoundarySide.UPPER_ONLY, 13), (BoundarySide.SYMMETRIC, 14)]
    )
    def test_cdf_at_every_knot_matches_constant_boundary(self, side, seed):
        # a draw handed to the wrong path after the first death would bias
        # the blocks after it, which the final survivor count alone may miss
        b = const_boundary(side, 4)
        emp = simulate_hitting_times(b, SimConfig(paths=2**18, seed=seed))
        t = emp.times[1:]
        exact = constant_boundary_cdf(1.0, t, side)
        se = np.sqrt(exact * (1.0 - exact) / emp.paths)
        gap = np.abs(emp.cumulative[1:] - exact)
        assert np.all(gap <= 5.0 * se), gap / se


class TestKsBlockDistance:
    @staticmethod
    def _target_matching(times, cumulative):
        def cdf(t):
            return np.interp(np.asarray(t, float), times, cumulative)

        return TargetDistribution(
            density=lambda t: np.ones_like(np.asarray(t, float)), cdf=cdf, kind="custom"
        )

    def test_exact_match_gives_zero(self):
        times = np.linspace(0.0, 1.0, 5)
        hits = np.array([10, 20, 30, 15], dtype=np.int64)
        emp = EmpiricalHittingDistribution(times=times, hits=hits, survivors=25, paths=100)
        d = self._target_matching(times, emp.cumulative)
        assert ks_block_distance(emp, d) == 0.0

    def test_single_block_shift_gives_delta(self):
        times = np.linspace(0.0, 1.0, 5)
        hits = np.array([10, 20, 30, 15], dtype=np.int64)
        emp = EmpiricalHittingDistribution(times=times, hits=hits, survivors=25, paths=100)
        d = self._target_matching(times, emp.cumulative)
        shifted = EmpiricalHittingDistribution(
            times=times, hits=np.array([15, 15, 30, 15], dtype=np.int64), survivors=25, paths=100
        )
        assert ks_block_distance(shifted, d) == pytest.approx(0.05)

    def test_count_bookkeeping_enforced(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            EmpiricalHittingDistribution(
                times=times, hits=np.array([1, 2, 3, 4], dtype=np.int64), survivors=5, paths=100
            )


class TestKsThreshold:
    def test_criterion_tolerance_from_two_to_the_nineteen_paths(self):
        assert ks_threshold(2**19) == 0.005
        assert ks_threshold(2**24) == 0.005

    def test_widens_below(self):
        # 6 * sqrt(0.25 / n) passes 0.005 at n = 360 000
        assert ks_threshold(350_000) > 0.005
        assert ks_threshold(2**16) == pytest.approx(6.0 * math.sqrt(0.25 / 2**16))
        assert ks_threshold(1000) > ks_threshold(2**16)


class TestBruteForce:
    def test_first_block_against_closed_form(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 1)
        got = brute_force_block_check(b, 1)
        expect = (2.0 * ndtr(1.0 / math.sqrt(0.5)) - 1.0) - (2.0 * ndtr(1.0) - 1.0)
        assert got == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_sequential_route(self, m, block_crossing):
        grid = DyadicGrid(1.0, 2)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.25 * grid.knots)
        brute = brute_force_block_check(b, m)
        fwd = block_crossing(b, m)
        assert brute == pytest.approx(fwd, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    def test_symmetric_variant(self, m, block_crossing):
        grid = DyadicGrid(1.0, 2)
        b = PiecewiseLinearBoundary(BoundarySide.SYMMETRIC, grid, 1.0 + 0.25 * grid.knots)
        brute = brute_force_block_check(b, m)
        fwd = block_crossing(b, m)
        assert brute == pytest.approx(fwd, abs=1e-6)

    def test_dimension_cap(self):
        b = const_boundary(BoundarySide.UPPER_ONLY, 3)
        with pytest.raises(ValueError):
            brute_force_block_check(b, 4)


class TestOracleTriangle:
    def test_quadrature_mc_and_tensor_agree(self, block_crossing):
        grid = DyadicGrid(1.0, 2)
        b = PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.25 * grid.knots)
        m = 2
        fwd = block_crossing(b, m)
        brute = brute_force_block_check(b, m)
        emp = simulate_hitting_times(b, SimConfig(paths=200_000, seed=21))
        freq = float(emp.frequencies[m])
        se = float(emp.stderr[m])
        assert brute == pytest.approx(fwd, abs=1e-6)
        assert abs(freq - fwd) <= 3.0 * se


def _unscreened_chunk(b, cfg, chunk_index, count):
    """The chunk loop written out with the bridge factor evaluated on every
    inside path: same SFC64 child stream and draw order as ``_simulate_chunk``,
    one normal and then one uniform per live path, in chunk order, each step's
    draws in fresh arrays."""
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(cfg.seed).spawn(chunk_index + 1)[chunk_index])
    )
    dt = b.grid.block_width
    g = b.upper(b.grid.knots)
    symmetric = b.side is BoundarySide.SYMMETRIC
    x = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    hits = np.zeros(b.grid.blocks, dtype=np.int64)
    for s in range(b.grid.blocks):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        z = rng.standard_normal(idx.size)
        u = rng.random(idx.size)
        g0, g1 = float(g[s]), float(g[s + 1])
        x0 = x[idx]
        x1 = x0 + math.sqrt(dt) * z
        breach = (x1 >= g1) | (x1 <= -g1) if symmetric else x1 >= g1
        inside = ~breach
        p = np.zeros(idx.size)
        if inside.any():
            bridge = bridge_crossing_symmetric if symmetric else bridge_crossing_upper
            p[inside] = bridge(x0[inside], x1[inside], g0, g1, dt)
        crossed = breach | (u < p)
        hits[s] += np.count_nonzero(crossed)
        alive[idx[crossed]] = False
        x[idx[~crossed]] = x1[~crossed]
    return hits


def _steep_corridor():
    # knots alternate 7 and 0.75 on eighths of [0, 1]: slopes of +-50
    grid = DyadicGrid(1.0, 3)
    return PiecewiseLinearBoundary(
        BoundarySide.SYMMETRIC, grid, np.where(np.arange(grid.blocks + 1) % 2, 0.75, 7.0)
    )


def _solved_corridor(level=5):
    return construct_boundary(
        exponential_target(1.0), 1.0, level, BoundarySide.SYMMETRIC
    ).boundary


def _upper_line():
    grid = DyadicGrid(1.0, 4)
    return PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, 1.0 + 0.5 * grid.knots)


def _upper_collapse():
    # the wall falls from 1 to -50 over block 1, so every path still alive
    # dies there and the chunk loop stops before the last step
    grid = DyadicGrid(1.0, 3)
    knots = np.full(grid.blocks + 1, -50.0)
    knots[:2] = 1.0
    return PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, knots)


def _pinched_corridor():
    # half-width 1 pinched to 5e-4 (a corridor 1e-3 wide) at knot 3: the
    # series runs against the pinch, no path passes it and the loop stops
    grid = DyadicGrid(1.0, 3)
    return PiecewiseLinearBoundary(
        BoundarySide.SYMMETRIC, grid, np.where(np.arange(grid.blocks + 1) == 3, 5e-4, 1.0)
    )


class TestScreenedBridge:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: const_boundary(BoundarySide.SYMMETRIC, 4),
            _solved_corridor,
            _steep_corridor,
            _upper_line,
            _upper_collapse,
            _pinched_corridor,
        ],
        ids=["constant", "solved-exp1-n5", "steep", "upper", "upper-collapse", "pinched"],
    )
    def test_counts_equal_unscreened_loop(self, make):
        b = make()
        for seed, chunk_index in [(0, 0), (1, 3), (7, 1)]:
            cfg = SimConfig(paths=1, seed=seed)
            got = _simulate_chunk(b, cfg, chunk_index, 20_000)
            want = _unscreened_chunk(b, cfg, chunk_index, 20_000)
            assert got.sum() > 0
            assert np.array_equal(got, want), (seed, got - want)

    def test_lower_wall_factor_is_the_mirrored_upper_one_bit_for_bit(self):
        # the screen takes e_lo as the upper factor of the segment -g0 -> -g1,
        # computed in place; both must equal the factor at -x0, -x1
        rng = np.random.default_rng(11)
        for g0, g1, dt in [(1.0, 1.0, 0.5), (0.3, 2.7, 1.0 / 64), (1e-3, 5.0, 1e-4)]:
            x0 = rng.uniform(-g0, g0, 10_000)
            x1 = rng.uniform(-g1, g1, 10_000)
            want = bridge_crossing_upper(-x0, -x1, g0, g1, dt)
            got = bridge_crossing_upper(x0, x1, -g0, -g1, dt, out=np.empty_like(x0))
            assert np.array_equal(got, want)
            assert np.array_equal(bridge_crossing_upper(x0, x1, g0, g1, dt, out=x0.copy()),
                                  bridge_crossing_upper(x0, x1, g0, g1, dt))

    def test_upper_factor_floors_its_exponent(self):
        # exponents below -700 give exp(-700), in place or not; above it the
        # factor is the plain exponential
        x0 = np.array([-30.0, -1.0, 0.0, 0.5])
        x1 = np.array([-30.0, -1.0, 0.0, 0.5])
        dt = 0.01
        plain = np.exp(-2.0 * (1.0 - x0) * (1.0 - x1) / dt)
        want = np.where(plain < math.exp(-700.0), math.exp(-700.0), plain)
        assert want[0] == math.exp(-700.0) and want[1] == math.exp(-700.0) and want[3] > 0.0
        for out in (None, x0.copy()):
            assert np.array_equal(bridge_crossing_upper(x0, x1, 1.0, 1.0, dt, out=out), want)

    def test_loop_carries_live_paths_and_stops_when_none_is_left(self, monkeypatch):
        sizes = []
        step = montecarlo._step_crossed

        def recording_step(x0, x1, u, *rest):
            sizes.append((x0.size, x1.size, u.size))
            return step(x0, x1, u, *rest)

        monkeypatch.setattr(montecarlo, "_step_crossed", recording_step)
        hits = _simulate_chunk(_upper_collapse(), SimConfig(paths=1), 0, 20_000)
        assert hits[0] > 0 and hits[:2].sum() == 20_000
        # one normal and one uniform per live path, none for the dead
        assert [n for n, _, _ in sizes] == [20_000, 20_000 - hits[0]]
        assert all(n == m == k for n, m, k in sizes)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        log2_dt=st.floats(-16.0, 0.0),
        lead=st.floats(0.0, 1.0),
        slope_at=st.floats(0.0, 1.0),
        sides=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
        depths=st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
    )
    def test_one_wall_factors_bracket_the_series(self, log2_dt, lead, slope_at, sides, depths):
        # walls between 0.05 sqrt(dt) and 8 (8 sigma at T = 1) with slopes up
        # to +-3e3; each endpoint lies 10**-depth of the half-width inside a
        # wall, so large depths press it against that wall.  Touching either
        # wall is at least as likely as touching one and at most as likely
        # as the two together: max(e_up, e_lo) <= p <= e_up + e_lo
        dt = 2.0**log2_dt
        floor = 0.05 * math.sqrt(dt)
        u0 = floor * (8.0 / floor) ** lead
        lo, hi = max(-3e3, (floor - u0) / dt), min(3e3, (8.0 - u0) / dt)
        u1 = u0 + (lo + slope_at * (hi - lo)) * dt
        x0 = np.array([sides[0] * u0 * (1.0 - 10.0 ** -depths[0])])
        x1 = np.array([sides[1] * u1 * (1.0 - 10.0 ** -depths[1])])
        p = bridge_crossing_symmetric(x0, x1, u0, u1, dt)[0]
        e_up = bridge_crossing_upper(x0, x1, u0, u1, dt)[0]
        e_lo = bridge_crossing_upper(-x0, -x1, u0, u1, dt)[0]
        assert max(e_up, e_lo) - _SCREEN_SLACK / 100.0 <= p
        assert p <= e_up + e_lo + _SCREEN_SLACK / 100.0

    @pytest.mark.parametrize(
        "x0, x1, u0, u1, dt",
        [
            (7.311102539306832, -7.272927294757092, 7.311102735210977, 7.273159053025078,
             1.892302366831087e-05),
            (-7.229747283543851, 7.188123763625017, 7.229747951570089, 7.19984806998361,
             1.7455477653562836e-05),
        ],
        ids=["one-wall-factor-above-series", "series-above-factor-sum"],
    )
    def test_step_follows_the_series_inside_the_rounding_gap(self, x0, x1, u0, u1, dt):
        # paths pressed against both walls, where rounding puts the larger
        # one-wall factor 1.3e-9 above the series or the series 6.4e-10 above
        # the factors' sum: a uniform between the two is decided by the series
        # only because each screen keeps its slack
        x0, x1 = np.array([x0]), np.array([x1])
        p = bridge_crossing_symmetric(x0, x1, u0, u1, dt)[0]
        e_up = bridge_crossing_upper(x0, x1, u0, u1, dt)[0]
        e_lo = bridge_crossing_upper(-x0, -x1, u0, u1, dt)[0]
        edge = max(e_up, e_lo) if max(e_up, e_lo) > p else e_up + e_lo
        assert abs(edge - p) > 1e-10
        u = np.array([0.5 * (p + edge)])
        work = (np.empty(1), np.empty(1), np.empty(1, dtype=bool))
        crossed = montecarlo._step_crossed(
            x0, x1, u, u0, u1, dt, True, np.empty(1, dtype=bool), work
        )
        assert crossed[0] == (u[0] < p)

    def test_breached_paths_raise_no_overflow(self):
        # the corridor drops from 200 to 0.5 within dt = 1/8: a factor taken
        # at a breached endpoint would have an exponent near +1600
        grid = DyadicGrid(1.0, 3)
        b = PiecewiseLinearBoundary(
            BoundarySide.SYMMETRIC, grid, np.where(np.arange(grid.blocks + 1) % 2, 0.5, 200.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emp = simulate_hitting_times(b, SimConfig(paths=20_000, seed=4))
        assert emp.hits[0] > 0

    def test_expanding_corridor_matches_closed_form(self):
        # symmetric counterpart of acceptance criterion 10: the corridor
        # +-(D + C t) is one linear segment, so the bridge route is exact
        rng = np.random.default_rng(5_2026)
        paths = 200_000
        for k in range(8):
            C = rng.uniform(0.0, 2.0)
            D = rng.uniform(0.5, 2.5)
            horizon = rng.uniform(0.1, 2.0)
            grid = DyadicGrid(horizon, 1)
            b = PiecewiseLinearBoundary(BoundarySide.SYMMETRIC, grid, D + C * grid.knots)
            emp = simulate_hitting_times(b, SimConfig(paths=paths, seed=100 + k))
            p = quad(lambda t: symmetric_linear_density(C, D, t), 0.0, horizon, limit=200)[0]
            se = math.sqrt(p * (1.0 - p) / paths)
            assert abs((1.0 - emp.survivors / paths) - p) <= 3.0 * se, (k, C, D, horizon)
