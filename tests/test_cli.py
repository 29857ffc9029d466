import json

import numpy as np
import pytest

import ifpt.inverse as inv
from ifpt import read_boundary_csv
from ifpt.cli import main, parse_target_spec


def run(*args):
    return main([str(a) for a in args])


class TestTargetSpec:
    def test_exponential(self):
        d = parse_target_spec("exp:1.5")
        assert d.kind == "exponential(1.5)"

    def test_uniform(self):
        d = parse_target_spec("uniform:0,2")
        assert d.kind == "uniform(0,2)"

    def test_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,f\n0,1\n2,1\n")
        assert parse_target_spec(str(p)).kind == "tabulated"

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_target_spec("weibull:1")


class TestInverseCommand:
    def test_writes_boundary_and_diagnostics(self, tmp_path, capsys):
        code = run("inverse", "--target", "exp:1", "--T", 1, "--n", 3, "--side", "upper",
                   "--out", tmp_path)
        assert code == 0
        b = read_boundary_csv(tmp_path / "boundary.csv")
        assert b.grid.level == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["schema_version"] == 1
        assert len(diag["blocks"]) == 8
        assert all(abs(blk["residual"]) <= 1e-10 for blk in diag["blocks"])

    def test_symmetric_starts_higher(self, tmp_path):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path / "up")
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--side", "symmetric",
            "--out", tmp_path / "sym")
        up = read_boundary_csv(tmp_path / "up" / "boundary.csv")
        sym = read_boundary_csv(tmp_path / "sym" / "boundary.csv")
        assert sym.knot_values[0] > up.knot_values[0]

    def test_steep_slope_target_warns_and_exits_0(self, tmp_path, caplog):
        code = run("inverse", "--target", "exp:1000000", "--T", 1e-6, "--n", 4,
                   "--out", tmp_path)
        assert code == 0
        assert any("solved slopes reach" in r.getMessage() for r in caplog.records)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["max_abs_slope"] > 1e3
        assert all(abs(blk["residual"]) <= 1e-10 for blk in diag["blocks"])

    def test_cdf_just_below_one_minus_epsilon_exits_0(self, tmp_path):
        # survival exp(-13.8) = 1.01e-6, just above the 1e-6 that must remain
        assert run("inverse", "--target", "exp:13.8", "--T", 1, "--n", 5,
                   "--out", tmp_path) == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert all(abs(blk["residual"]) <= 1e-10 for blk in diag["blocks"])

    def test_cdf_past_one_minus_epsilon_exits_5(self, tmp_path, capsys):
        # survival exp(-14) = 8.3e-7
        assert run("inverse", "--target", "exp:14", "--T", 1, "--n", 5,
                   "--out", tmp_path) == 5
        assert "positive survival mass must remain" in capsys.readouterr().err

    def test_exhausted_target_exits_5(self, tmp_path):
        assert run("inverse", "--target", "uniform:0,1", "--T", 1, "--n", 2,
                   "--out", tmp_path) == 5

    def test_unreachable_first_block_exits_4(self, tmp_path):
        # strictly positive but denormal density near zero: validation passes
        # while the first level-10 block mass underflows to exactly zero
        ts = [0.0, 2.0 / 1024.0, 1.0]
        fs = [5e-324, 5e-324, 0.5]
        target = tmp_path / "target.csv"
        target.write_text("t,f\n" + "\n".join(f"{t},{f}" for t, f in zip(ts, fs)) + "\n")
        assert run("inverse", "--target", target, "--T", 1, "--n", 10,
                   "--out", tmp_path) == 4

    def test_uniform_target_solves(self, tmp_path):
        assert run("inverse", "--target", "uniform:0,2", "--T", 1, "--n", 3,
                   "--side", "symmetric", "--out", tmp_path) == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert all(abs(blk["residual"]) <= 1e-10 for blk in diag["blocks"])


class TestForwardCommand:
    def test_round_trip_reproduces_block_masses(self, tmp_path):
        assert run("inverse", "--target", "exp:1", "--T", 1, "--n", 3, "--out", tmp_path) == 0
        assert run("forward", "--boundary", tmp_path / "boundary.csv", "--out", tmp_path) == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        rows = (tmp_path / "fpt_table.csv").read_text().splitlines()[2:]
        masses = np.array([float(r.split(",")[2]) for r in rows])
        achieved = np.array([blk["achieved"] for blk in diag["blocks"]])
        assert np.allclose(masses, achieved, atol=1e-10)

    def test_missing_file_exits_2(self, tmp_path):
        assert run("forward", "--boundary", tmp_path / "nope.csv", "--out", tmp_path) == 2

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,upper,lower\n0,not_a_number,-inf\n")
        assert run("forward", "--boundary", bad, "--out", tmp_path) == 2

    def test_pinched_corridor_exits_3(self, tmp_path, capsys):
        # the image series for a corridor closing from 1 to 1e-7 exceeds its budget
        pinched = tmp_path / "pinched.csv"
        pinched.write_text("t,upper,lower\n0,1,-1\n0.5,1e-7,-1e-7\n1,1e-7,-1e-7\n")
        assert run("forward", "--boundary", pinched, "--out", tmp_path) == 3
        assert "corridor nearly pinched" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_empirical_csv(self, tmp_path):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path)
        code = run("simulate", "--boundary", tmp_path / "boundary.csv", "--paths", 20000,
                   "--seed", 4, "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "empirical.csv").exists()

    def test_zero_paths_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run("simulate", "--boundary", tmp_path / "b.csv", "--paths", 0)
        assert exc_info.value.code == 2


class TestVerifyCommand:
    def test_solved_pair_passes(self, tmp_path):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 4, "--out", tmp_path)
        code = run("verify", "--boundary", tmp_path / "boundary.csv", "--target", "exp:1",
                   "--paths", 200000, "--seed", 12)
        assert code == 0

    def test_wrong_boundary_fails(self, tmp_path):
        lines = ["t,upper,lower"] + [f"{m/4},5.0,-inf" for m in range(5)]
        (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
        code = run("verify", "--boundary", tmp_path / "b.csv", "--target", "exp:1",
                   "--paths", 50000)
        assert code == 1


class TestEntryPoint:
    def test_module_execution(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "ifpt.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "inverse" in proc.stdout


class TestConvergenceCommand:
    def test_ladder_report(self, tmp_path):
        code = run("convergence", "--target", "exp:1", "--T", 1, "--n-min", 2, "--n-max", 4,
                   "--out", tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [lv["level"] for lv in report["levels"]] == [2, 3, 4]
        for n in (2, 3, 4):
            assert (tmp_path / f"boundary_n{n}.csv").exists()

    def test_level_above_cap_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the level check")

        monkeypatch.setattr(inv, "construct_boundary", no_solve)
        code = run("convergence", "--target", "exp:1", "--T", 1, "--n-min", 2, "--n-max", 15,
                   "--out", tmp_path / "ladder")
        assert code == 2
        assert "n_max" in capsys.readouterr().err
        assert not (tmp_path / "ladder").exists()
