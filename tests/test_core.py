import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifpt import (
    BoundarySide,
    DyadicGrid,
    PiecewiseLinearBoundary,
    SubDensity,
    TargetDistribution,
    ValidationError,
    block_mass,
    construct_boundary,
    exponential_target,
    read_boundary_csv,
    read_target_csv,
    tabulated_target,
    uniform_target,
    validate_target,
    write_boundary_csv,
)


def make_boundary(side, level, values, horizon=1.0):
    return PiecewiseLinearBoundary(side, DyadicGrid(horizon, level), np.asarray(values, float))


class TestDyadicGrid:
    def test_knots_span_and_monotone(self):
        g = DyadicGrid(2.0, 3)
        assert g.knots[0] == 0.0
        assert g.knots[-1] == 2.0
        assert np.all(np.diff(g.knots) > 0)
        assert g.block_width == 0.25

    @pytest.mark.parametrize("horizon,level", [(0.0, 2), (-1.0, 2), (1.0, 0), (1.0, 15)])
    def test_rejects_bad_parameters(self, horizon, level):
        with pytest.raises(ValueError):
            DyadicGrid(horizon, level)

    @pytest.mark.parametrize("level", [2.5, 14.9, 3.0, "3"])
    def test_rejects_a_level_that_is_not_an_integer(self, level):
        # a fractional level would give a fractional block count and knots
        # past the horizon
        with pytest.raises(ValueError, match="level must be an integer"):
            DyadicGrid(1.0, level)

    def test_accepts_numpy_integer_levels(self):
        g = DyadicGrid(1.0, np.int64(3))
        assert g.blocks == 8 and g.knots[-1] == 1.0

    @given(
        level=st.integers(1, 8),
        extra=st.integers(0, 4),
        horizon=st.floats(0.01, 50.0, allow_nan=False),
    )
    def test_nesting_is_bit_exact(self, level, extra, horizon):
        coarse = DyadicGrid(horizon, level)
        fine = DyadicGrid(horizon, level + extra)
        stride = 2**extra
        assert np.array_equal(coarse.knots, fine.knots[::stride])


class TestBoundary:
    def test_constant_upper_eval(self):
        b = make_boundary(BoundarySide.UPPER_ONLY, 3, np.ones(9))
        lo, up = b.lower(0.37), b.upper(0.37)
        assert lo == float("-inf")
        assert up == 1.0

    def test_symmetric_midpoint(self):
        b = make_boundary(BoundarySide.SYMMETRIC, 1, [1.0, 1.25, 1.5])
        lo, up = b.lower(0.5), b.upper(0.5)
        assert up == pytest.approx(1.25)
        assert lo == pytest.approx(-1.25)

    def test_endpoint_of_sloped_segment(self):
        b = make_boundary(BoundarySide.UPPER_ONLY, 1, [1.0, 1.25, 1.5])
        assert b.upper(1.0) == pytest.approx(1.5)
        assert np.allclose(b.slopes, 0.5)

    def test_eval_outside_domain(self):
        b = make_boundary(BoundarySide.UPPER_ONLY, 1, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            b.upper(1.5)
        with pytest.raises(ValueError):
            b.lower(-0.1), b.upper(-0.1)

    @given(t=st.floats(0.0, 1.0, allow_nan=False))
    def test_symmetric_antisymmetry(self, t):
        b = make_boundary(BoundarySide.SYMMETRIC, 2, [1.0, 0.9, 1.1, 0.8, 1.2])
        lo, up = b.lower(t), b.upper(t)
        assert lo == -up

    def test_continuity_at_knots(self):
        b = make_boundary(BoundarySide.UPPER_ONLY, 3, np.linspace(1.0, 0.2, 9))
        for t in b.grid.knots[1:-1]:
            eps = 1e-12
            assert b.upper(t - eps) == pytest.approx(b.upper(t + eps), abs=1e-10)

    def test_rejects_bad_shapes_and_signs(self):
        grid = DyadicGrid(1.0, 2)
        with pytest.raises(ValueError):
            PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, np.ones(4))
        with pytest.raises(ValueError):
            PiecewiseLinearBoundary(BoundarySide.UPPER_ONLY, grid, np.array([0.0, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            PiecewiseLinearBoundary(BoundarySide.SYMMETRIC, grid, np.array([1.0, 1, -0.5, 1, 1]))

    def test_upper_only_may_dip_negative_after_start(self):
        b = make_boundary(BoundarySide.UPPER_ONLY, 1, [1.0, 0.5, -0.5])
        assert b.upper(1.0) == -0.5


class TestTargets:
    def test_exponential_passes_validation(self):
        d = exponential_target(1.0)
        report = validate_target(d, 1.0)
        assert report.ok, str(report)
        assert d.cdf_at(1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-15)
        # the smallest sampled density on (0, 1] is the one at the horizon
        assert report.density_floor == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_block_mass_matches_cdf_difference(self):
        d = exponential_target(0.7)
        assert block_mass(d, 0.2, 0.3) == pytest.approx(
            float(d.cdf_at(0.3) - d.cdf_at(0.2)), abs=1e-15
        )

    def test_uniform_with_gap_fails_positivity(self):
        report = validate_target(uniform_target(0.0, 0.5), 1.0)
        assert not report.ok
        assert any("positive" in v for v in report.violations)

    def test_exhausted_mass_fails_survival_guard(self):
        ts = np.linspace(0.0, 1.0, 11)
        d = tabulated_target(ts, np.full(11, 1.0))  # integrates to exactly 1 on [0,1]
        report = validate_target(d, 1.0)
        assert any("survival" in v for v in report.violations)

    def test_inconsistent_cdf_is_flagged(self):
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), 0.5),
            cdf=lambda t: 0.4 * np.asarray(t, float),
            kind="custom",
        )
        report = validate_target(d, 1.0)
        assert any("inconsistent" in v for v in report.violations)

    @pytest.mark.parametrize(
        "declared, cdf, message",
        [
            ({"upper_bound": 0.4}, None, "density above declared upper bound at t=0"),
            ({"lower_bound": 0.6}, None, "density below declared lower bound at t=0.00195312"),
            ({}, lambda t: 0.1 + 0.5 * t, "cdf at 0 is 0.1, expected 0"),
            ({}, lambda t: 0.5 * t - 0.1 * (t > 0.5), "cdf decreasing near t=0.501953"),
        ],
        ids=["upper bound", "lower bound", "cdf at 0", "decreasing cdf"],
    )
    def test_each_violation_is_reported(self, declared, cdf, message):
        # a constant density 0.5 whose one declared bound or cdf is wrong
        d = TargetDistribution(
            density=lambda t: np.full_like(np.asarray(t, float), 0.5),
            cdf=cdf or (lambda t: 0.5 * np.asarray(t, float)),
            kind="custom",
            **declared,
        )
        report = validate_target(d, 1.0)
        assert message in report.violations
        if "upper_bound" in declared:
            with pytest.raises(ValidationError, match="density above declared upper bound"):
                construct_boundary(d, 1.0, 3, BoundarySide.UPPER_ONLY)

    def test_nonfinite_density_raises(self):
        d = TargetDistribution(
            density=lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0),
            cdf=lambda t: np.asarray(t, float),
            kind="custom",
        )
        with pytest.raises(ValidationError):
            validate_target(d, 1.0)

    def test_tabulated_cdf_is_exact_quadratic(self):
        ts = np.array([0.0, 0.5, 1.5])
        fs = np.array([0.2, 0.6, 0.1])
        d = tabulated_target(ts, fs)
        # integral of the linear interpolant over [0, 0.8]
        expect = 0.5 * (0.2 + 0.6) * 0.5
        f_08 = 0.6 + (0.1 - 0.6) * 0.3 / 1.0
        expect += 0.5 * (0.6 + f_08) * 0.3
        assert d.cdf_at(0.8) == pytest.approx(expect, abs=1e-15)

    def test_tabulated_cdf_holds_the_last_sample_past_the_table(self):
        # the density holds fs[-1] = 1 on (0.5, 1], so the cdf gains 0.5 there
        d = tabulated_target([0.0, 0.5], [0.5, 1.0])
        assert d.density_at(0.75) == 1.0
        assert d.cdf_at(0.5) == pytest.approx(0.375, abs=1e-15)
        assert d.cdf_at(1.0) == pytest.approx(0.875, abs=1e-15)
        report = validate_target(d, 1.0)
        assert report.ok, str(report)

    @pytest.mark.parametrize(
        "ts, fs, message",
        [
            ([0.0, 0.5, 1.0], [1.0, 1.0], "matching 1-d arrays"),
            ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], "strictly increasing"),
            ([0.1, 0.5, 1.0], [1.0, 1.0, 1.0], "start at t = 0"),
            ([0.0, 0.5, 1.0], [1.0, -0.1, 1.0], "finite and nonnegative"),
        ],
        ids=["shapes", "unsorted", "start", "negative"],
    )
    def test_tabulated_target_rejects_bad_tables(self, ts, fs, message):
        with pytest.raises(ValueError, match=message):
            tabulated_target(ts, fs)

    def test_kinked_table_between_samples_still_validates(self):
        # kinks at 1/1024 and 2/1024 sit inside the default sample intervals;
        # the validator refines its grid at the table's breakpoints
        ts = np.array([0.0, 1.0 / 1024.0, 2.0 / 1024.0, 1.0])
        fs = np.array([0.1, 0.1, 0.6, 0.6])
        report = validate_target(tabulated_target(ts, fs), 1.0)
        assert report.ok, str(report)


class TestSubDensity:
    def test_rejects_negative_values(self):
        x = np.array([0.0, 0.5])
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            SubDensity(time=0.5, nodes=x, weights=w, values=np.array([1.0, -1.0]))

    def test_rejects_super_unit_survival(self):
        x = np.array([0.0, 0.5])
        w = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            SubDensity(time=0.5, nodes=x, weights=w, values=np.array([2.0, 2.0]))

    def test_rejects_unsorted_nodes(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            SubDensity(time=0.5, nodes=np.array([0.5, 0.0]), weights=w, values=w)

    def test_immutable_arrays(self):
        s = SubDensity(
            time=0.5,
            nodes=np.array([0.0]),
            weights=np.array([1.0]),
            values=np.array([0.5]),
        )
        with pytest.raises(ValueError):
            s.nodes[0] = 1.0


class TestBoundaryCsv:
    def test_upper_round_trip_is_exact(self, tmp_path):
        b = make_boundary(BoundarySide.UPPER_ONLY, 4, np.linspace(0.7, -0.3, 17), horizon=2.5)
        path = tmp_path / "b.csv"
        write_boundary_csv(b, path)
        text = path.read_text()
        assert text.splitlines()[0] == "t,upper,lower"
        assert ",-inf" in text
        back = read_boundary_csv(path)
        assert back.side is BoundarySide.UPPER_ONLY
        assert np.array_equal(back.knot_values, b.knot_values)
        assert np.array_equal(back.grid.knots, b.grid.knots)

    def test_symmetric_round_trip(self, tmp_path):
        b = make_boundary(BoundarySide.SYMMETRIC, 2, [1.0, 0.9, 1.1, 1.0, 0.8])
        path = tmp_path / "b.csv"
        write_boundary_csv(b, path)
        back = read_boundary_csv(path)
        assert back.side is BoundarySide.SYMMETRIC
        assert np.array_equal(back.knot_values, b.knot_values)

    def test_rejects_bad_files(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,up,low\n0,1,-inf\n")
        with pytest.raises(ValueError):
            read_boundary_csv(p)
        # knot times off the dyadic grid
        p.write_text("t,upper,lower\n0,1,-inf\n0.3,1,-inf\n1,1,-inf\n")
        with pytest.raises(ValueError):
            read_boundary_csv(p)
        # lower column neither -inf nor the negated upper values
        p.write_text("t,upper,lower\n0,1,-0.5\n0.5,1,-1\n1,1,-1\n")
        with pytest.raises(ValueError):
            read_boundary_csv(p)
        for text, message in [
            ("t,upper,lower\n0,1,-inf\n0.5,1\n1,1,-inf\n", r"bad.csv:3: expected 3 columns"),
            ("t,upper,lower\n0,1,-1\n0.5,1,abc\n1,1,-1\n", r"bad.csv:3: could not convert"),
            ("t,upper,lower\n0.5,1,-inf\n1,1,-inf\n", "knots must start at t=0"),
            ("t,upper,lower\n0,1,-inf\n0.5,1,-inf\n0.75,1,-inf\n1,1,-inf\n",
             "3 blocks is not a power of two"),
            # rejected by the grid or the boundary, still named by the file
            ("t,upper,lower\n0,1,-inf\n1,1,-inf\n", r"bad.csv: level must be in"),
            ("t,upper,lower\n0,1,-inf\n-1,1,-inf\n0,1,-inf\n",
             r"bad.csv: horizon must be positive"),
            ("t,upper,lower\n0,0,-inf\n0.5,1,-inf\n1,1,-inf\n",
             r"bad.csv: boundary must start strictly above the origin"),
        ]:
            p.write_text(text)
            with pytest.raises(ValueError, match=message):
                read_boundary_csv(p)

    def test_blank_rows_are_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("t,upper,lower\n0,1,-inf\n\n0.5,1,-inf\n1,1,-inf\n\n")
        b = read_boundary_csv(p)
        assert b.side is BoundarySide.UPPER_ONLY
        assert np.array_equal(b.grid.knots, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,density\n0,1\n1,1\n", "expected header 't,f'"),
            ("t,f\n0,1\n0.5,1,2\n1,1\n", r"t.csv:3: expected 2 columns"),
            ("t,f\n0,1\n0.5,one\n1,1\n", r"t.csv:3: could not convert"),
            ("t,f\n0,1\n0.5,1\n0.4,1\n", r"t.csv: abscissae must be strictly increasing"),
            ("t,f\n0,1\nnan,1\n1,1\n", r"t.csv: abscissae must be finite"),
            ("t,f\n0,1\n0.5,1\ninf,1\n", r"t.csv: abscissae must be finite"),
        ],
        ids=["header", "columns", "value", "unsorted", "nan", "inf"],
    )
    def test_target_csv_rejects_bad_files(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_target_csv(p)

    def test_target_csv_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,f\n0,0.5\n0.5,1.0\n1,0.25\n")
        d = read_target_csv(p)
        assert d.kind == "tabulated"
        assert d.density_at(0.25) == pytest.approx(0.75)
        assert d.cdf_at(0.0) == 0.0
