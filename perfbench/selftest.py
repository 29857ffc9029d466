"""Self-tests of the benchmark: reduced-size smoke runs of every workload,
and proof that each output check fails when the output is wrong.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The tests also run under pytest (``python -m pytest perfbench/selftest.py``).
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import Runner, import_checkout, spawn  # noqa: E402

WORK = HERE / "_work" / "selftest"


def _fresh(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _runner() -> Runner:
    return Runner(import_checkout(ROOT).cli)


def _smoke(name: str, trace: int) -> dict:
    _, data = spawn(ROOT, name, 3, 0, trace, "full", _fresh(f"smoke-{name}-{trace}"), small=True)
    return data


def test_smoke_runs_pass_their_checks():
    for name in wl.WORKLOADS:
        data = _smoke(name, trace=0)
        assert len(data["ops"]) >= wl.WORKLOADS[name].min_ops
        assert len(data["setup_probes"]) == len(data["ops"])
        for op in data["ops"]:
            assert op["failures"] == [], (name, op["failures"])


def test_traced_smoke_run_reports_every_layer():
    data = _smoke("ladder-symmetric", trace=1)
    assert data["absent"] == []
    layers = data["layers"][0]
    assert layers["forward.crossing_mass_calls"] > 0
    assert layers["forward.propagate_calls"] > 0
    assert layers["inverse.blocks"] == 8 + 16 + 32
    assert layers["inverse.evals_per_block"] > 1
    assert layers["forward.kernel_entries"] > 0
    assert abs(sum(layers[f"share.{m}"] for m in ("cli", "core", "closed_form", "forward",
                                                  "inverse", "montecarlo")) - 1.0) < 1e-9


def _solve(runner: Runner, out: Path, level: int = 5, side: str = "upper") -> None:
    assert runner.main(["inverse", "--target", "exp:1", "--T", "1", "--n", str(level),
                        "--side", side, "--out", str(out)]) == 0


def test_inverse_check_fails_on_a_large_residual():
    out = _fresh("inverse")
    _solve(_runner(), out)
    assert wl.check_inverse(out, 5, "upper") == []
    diag = json.loads((out / "diagnostics.json").read_text())
    diag["blocks"][7]["residual"] = 2e-10
    (out / "diagnostics.json").write_text(json.dumps(diag))
    assert wl.check_inverse(out, 5, "upper")
    assert wl.check_inverse(out, 6, "upper")


def test_forward_check_fails_on_a_perturbed_knot():
    runner = _runner()
    out = _fresh("forward")
    _solve(runner, out)
    assert runner.main(["forward", "--boundary", str(out / "boundary.csv"), "--out", str(out)]) == 0
    assert wl.check_forward(out / "fpt_table.csv", 1.0, 5) == []

    path = out / "boundary.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[10][1] = "%.17g" % (float(rows[10][1]) + 1e-3)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert runner.main(["forward", "--boundary", str(path), "--out", str(out)]) == 0
    assert wl.check_forward(out / "fpt_table.csv", 1.0, 5)


def test_exit_check_fails_on_a_failed_call():
    rc = _runner().main(["forward", "--boundary", str(WORK / "missing.csv"), "--out", str(WORK)])
    assert rc != 0
    assert wl.check_exit(rc, "forward")


def test_ladder_check_fails_on_a_large_defect_or_missing_level():
    out = _fresh("ladder")
    report = out / "report.json"
    levels = [{"level": n, "nested_defect": 1e-12} for n in (3, 4, 5)]
    report.write_text(json.dumps({"levels": levels}))
    assert wl.check_ladder(report, 3, 5)[0] == []
    levels[2]["nested_defect"] = 1e-7
    report.write_text(json.dumps({"levels": levels}))
    assert wl.check_ladder(report, 3, 5)[0]
    report.write_text(json.dumps({"levels": levels[:2]}))
    assert wl.check_ladder(report, 3, 5)[0]


def _rewrite_hits(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_simulate_checks_fail_on_altered_hits_and_wrong_law():
    runner = _runner()
    out = _fresh("simulate")
    _solve(runner, out, level=4)
    paths = 2**16
    emp = out / "empirical.csv"
    assert runner.main(["simulate", "--boundary", str(out / "boundary.csv"), "--paths",
                        str(paths), "--seed", "5", "--out", str(out)]) == 0
    fails, _, reference = wl.check_simulate(emp, 1.0, paths, None)
    assert fails == []
    assert wl.check_simulate(emp, 1.0, paths, reference)[0] == []

    def move_one_hit(rows):
        rows[1][2] = str(int(rows[1][2]) - 1)
        rows[2][2] = str(int(rows[2][2]) + 1)

    _rewrite_hits(emp, move_one_hit)
    fails, _, _ = wl.check_simulate(emp, 1.0, paths, reference)
    assert fails == ["hit counts differ from an earlier run with the same seed"]
    assert wl.check_simulate(emp, 1.5, paths, None)[0]


def test_missing_wrapper_is_reported_absent():
    ifpt = import_checkout(ROOT)
    original = ifpt.montecarlo.bridge_crossing_symmetric
    del ifpt.montecarlo.bridge_crossing_symmetric
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["ifpt.montecarlo.bridge_crossing_symmetric"]
    finally:
        tracer.uninstall()
        ifpt.montecarlo.bridge_crossing_symmetric = original
    assert ifpt.inverse.crossing_mass is ifpt.forward.crossing_mass


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, None, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_to_run_without_the_sources():
    bare = _fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    (bare / "perfbench").mkdir()
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_zero_is_the_roadmap_baseline():
    assert wl.target_rate(0) == 1.0
    rates = {wl.target_rate(s) for s in range(1, 50)}
    assert len(rates) == 49
    assert all(abs(r - 1.0) <= wl.RATE_HALF_WIDTH for r in rates)
    assert wl.target_rate(7) == wl.target_rate(7)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    sys.exit(1 if failed else 0)
