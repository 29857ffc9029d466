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
        # block 0 solves a level: no slope derivative
        assert [blk["dmass_dslope"] is None for blk in diag["blocks"]] == [True] + [False] * 7
        assert all(blk["dmass_dslope"] < 0.0 for blk in diag["blocks"][1:])
        assert diag["blocks"][0]["carry"] == 0.0
        for prev, blk in zip(diag["blocks"], diag["blocks"][1:]):
            assert blk["carry"] == prev["residual"]

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

    def test_underflowing_target_mass_exits_3(self, tmp_path, capsys, monkeypatch, line_target):
        # the first-block mass of this feasible target underflows at n = 11
        import ifpt.cli as cli

        monkeypatch.setattr(cli, "parse_target_spec", lambda spec: line_target(0.5, 1.0))
        args = ("inverse", "--target", "line", "--T", 1, "--n", 11, "--side", "upper")
        assert run(*args, "--out", tmp_path / "out") == 3
        assert "block 0 target mass underflows to 0 at level 11" in capsys.readouterr().err

    def test_diverging_root_search_exits_3(self, tmp_path, capsys, monkeypatch):
        # a first-block crossing probability stuck at 1 sends the level's
        # root bracket past its limit
        monkeypatch.setattr(inv, "constant_boundary_cdf", lambda z, t, side: 1.0)
        args = ("inverse", "--target", "exp:1", "--T", 1, "--n", 2)
        assert run(*args, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "numerical inconsistency: root bracket for block 0 diverged upward" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("exp:nan", "rate must be positive and finite, got nan"),
            ("exp:inf", "rate must be positive and finite, got inf"),
            ("uniform:-inf,1", "need finite a and b, got a=-inf, b=1"),
        ],
    )
    def test_non_finite_target_parameter_exits_2(self, tmp_path, capsys, spec, message):
        assert run("inverse", "--target", spec, "--T", 1, "--n", 2,
                   "--out", tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uniform_target_solves(self, tmp_path):
        assert run("inverse", "--target", "uniform:0,2", "--T", 1, "--n", 3,
                   "--side", "symmetric", "--out", tmp_path) == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert all(abs(blk["residual"]) <= 1e-10 for blk in diag["blocks"])

    def test_unsorted_target_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        target = tmp_path / "unsorted.csv"
        target.write_text("t,f\n0,1\n0.5,1\n0.4,1\n")
        assert run("inverse", "--target", target, "--T", 1, "--n", 2,
                   "--out", tmp_path / "out") == 2
        assert f"{target}: abscissae must be strictly increasing" in capsys.readouterr().err

    def test_level_above_cap_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the target was sampled before the level check")

        monkeypatch.setattr(inv, "validate_target", no_sampling)
        assert run("inverse", "--target", "exp:1", "--T", 1, "--n", 15,
                   "--out", tmp_path / "out") == 2
        assert "level must be in [1, 14]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_level_above_cap_exits_2(self, tmp_path, capsys):
        blocks = 2**15
        fine = tmp_path / "fine.csv"
        fine.write_text("t,upper,lower\n" + "".join(
            f"{m / blocks!r},1,-inf\n" for m in range(blocks + 1)))
        assert run("forward", "--boundary", fine, "--out", tmp_path / "out") == 2
        assert "level must be in [1, 14]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_non_integer_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path)
        monkeypatch.setenv("IFPT_THREADS", "two")
        code = run("simulate", "--boundary", tmp_path / "boundary.csv", "--paths", 1000,
                   "--out", tmp_path)
        assert code == 2
        assert "IFPT_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path)
        capsys.readouterr()
        code = run("simulate", "--boundary", tmp_path / "boundary.csv", "--paths", 1000,
                   "--seed", seed, "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("seed", [-1, -3, 2**64])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path)
        capsys.readouterr()
        code = run("verify", "--boundary", tmp_path / "boundary.csv", "--target", "exp:1",
                   "--paths", 1000, "--seed", seed)
        assert code == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_wrong_boundary_fails(self, tmp_path):
        lines = ["t,upper,lower"] + [f"{m/4},5.0,-inf" for m in range(5)]
        (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
        code = run("verify", "--boundary", tmp_path / "b.csv", "--target", "exp:1",
                   "--paths", 50000)
        assert code == 1


    def test_invalid_target_exits_5_before_simulating(self, tmp_path, capsys, monkeypatch):
        import ifpt.cli as cli

        run("inverse", "--target", "exp:1", "--T", 1, "--n", 2, "--out", tmp_path)
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("ran past the failed validation")

        monkeypatch.setattr(cli, "fpt_distribution_table", never)
        monkeypatch.setattr(cli, "simulate_hitting_times", never)
        # uniform on [0, 0.5] has density 0 on (0.5, 1]
        code = run("verify", "--boundary", tmp_path / "boundary.csv", "--target", "uniform:0,0.5",
                   "--paths", 1000)
        assert code == 5
        assert "violations" in capsys.readouterr().err


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
        err = capsys.readouterr().err
        assert "n_max" in err
        # the phrase ``inverse --n 15`` and ``forward`` on a 2^15-block file print
        assert "level must be in [1, 14], got 15" in err
        assert not (tmp_path / "ladder").exists()

    def test_level_below_one_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the level check")

        monkeypatch.setattr(inv, "construct_boundary", no_solve)
        code = run("convergence", "--target", "exp:1", "--T", 1, "--n-min", 0, "--n-max", 3,
                   "--out", tmp_path / "ladder")
        assert code == 2
        assert "n_min: level must be in [1, 14], got 0" in capsys.readouterr().err
        assert not (tmp_path / "ladder").exists()


#: Each subcommand with its required arguments; the files need not exist,
#: since argument parsing fails first.
SUBCOMMANDS = {
    "forward": ["--boundary", "b.csv"],
    "inverse": ["--target", "exp:1", "--T", "1", "--n", "2"],
    "simulate": ["--boundary", "b.csv", "--paths", "10"],
    "verify": ["--boundary", "b.csv", "--target", "exp:1"],
    "convergence": ["--target", "exp:1", "--T", "1", "--n-min", "2", "--n-max", "3"],
}


@pytest.mark.parametrize(
    "flag", [["--tol", "1e-10"], ["--nodes", "96"], ["--substeps", "2"]],
    ids=["tol", "nodes", "substeps"],
)
@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_removed_flags_are_rejected(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(command, *SUBCOMMANDS[command], *flag, "--out", tmp_path)
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
