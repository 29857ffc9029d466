"""Workloads of the ifpt benchmark and the checks on their outputs.

A workload makes its inputs from the benchmark seed, names the CLI calls of
one operation, and checks every file those calls write.  The checks reuse
the acceptance suite's tolerances and compute the reference target law here,
independently of the package.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Probability tolerance of the CLI (``--tol`` default) and of criterion 6.
TOL = 1e-10

#: Criterion 7 aggregates fine block masses onto the level-4 grid.
FORWARD_COARSE_LEVEL = 4

#: Criterion 9 bound on the Monte Carlo K-S block statistic.
KS_TOL = 0.005

#: Half-width of the range the seed draws the exponential rate from.
RATE_HALF_WIDTH = 0.1


def target_rate(seed: int) -> float:
    """Exponential target rate for a seed; seed 0 is the ROADMAP's exp(1)."""
    if seed == 0:
        return 1.0
    return 1.0 + RATE_HALF_WIDTH * (2.0 * random.Random(seed).random() - 1.0)


def target_block_masses(rate: float, knots: np.ndarray) -> np.ndarray:
    """exp(rate) masses of the blocks between consecutive knots."""
    knots = np.asarray(knots, dtype=float)
    return np.exp(-rate * knots[:-1]) * -np.expm1(-rate * np.diff(knots))


def nested_allowance(level: int) -> float:
    """Criterion 7 allowance for masses aggregated onto a level-``level`` grid."""
    return 2**level * TOL + 1e-8


def ks_allowance(paths: int) -> float:
    """K-S bound of ``ifpt verify``; it equals criterion 9's 0.005 for
    2**19 paths and more, and widens with the sampling error below that."""
    return max(KS_TOL, 6.0 * math.sqrt(0.25 / paths))


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages, empty on success


def check_exit(rc: int, what: str) -> list[str]:
    return [] if rc == 0 else [f"{what} exited with code {rc}"]


def check_inverse(out: Path, level: int, side: str) -> list[str]:
    """Per-block residuals in diagnostics.json within the tolerance."""
    diag = json.loads((out / "diagnostics.json").read_text())
    blocks = diag["blocks"]
    fails = []
    if diag["level"] != level or diag["side"] != side or len(blocks) != 2**level:
        fails.append(
            f"diagnostics describe level {diag['level']}, side {diag['side']}, "
            f"{len(blocks)} blocks; expected level {level}, side {side}"
        )
    worst = max(abs(b["residual"]) for b in blocks)
    if not worst <= TOL:
        fails.append(f"inverse max |residual| {worst:.3e} exceeds {TOL:g}")
    return fails


def read_table_masses(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = np.array([float(r["t"]) for r in rows])
    masses = np.array([float(r["block_mass"]) for r in rows])
    return times, masses


def forward_defect(table: Path, rate: float) -> tuple[float, int]:
    """Largest gap between the table's block masses aggregated onto the
    criterion-7 grid and the target's masses there, and the table's level."""
    times, masses = read_table_masses(table)
    blocks = times.size - 1
    level = int(round(math.log2(blocks)))
    coarse = 2**FORWARD_COARSE_LEVEL
    grouped = masses[1:].reshape(coarse, -1).sum(axis=1)
    knots = np.linspace(0.0, times[-1], coarse + 1)
    return float(np.max(np.abs(grouped - target_block_masses(rate, knots)))), level


def check_forward(table: Path, rate: float, level: int) -> list[str]:
    defect, got = forward_defect(table, rate)
    fails = [] if got == level else [f"forward table has level {got}, expected {level}"]
    allowed = nested_allowance(FORWARD_COARSE_LEVEL)
    if not defect <= allowed:
        fails.append(f"forward block-mass defect {defect:.3e} exceeds {allowed:.3e}")
    return fails


def check_ladder(report: Path, n_min: int, n_max: int) -> tuple[list[str], float]:
    """Every level present and its nested defect within the allowance."""
    levels = json.loads(report.read_text())["levels"]
    fails = []
    if [lv["level"] for lv in levels] != list(range(n_min, n_max + 1)):
        fails.append(f"ladder levels {[lv['level'] for lv in levels]}, expected {n_min}..{n_max}")
    allowed = nested_allowance(n_min)
    worst = max(lv["nested_defect"] for lv in levels)
    if not worst <= allowed:
        fails.append(f"ladder nested defect {worst:.3e} exceeds {allowed:.3e}")
    return fails, worst


def read_empirical(path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    """Block edges, hit counts and survivor count of an empirical CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    body, last = rows[:-1], rows[-1]
    if last["t_lo"] != "survivors":
        raise ValueError(f"{path} lacks the survivors row")
    knots = np.array([float(r["t_lo"]) for r in body] + [float(body[-1]["t_hi"])])
    hits = np.array([int(r["hits"]) for r in body], dtype=np.int64)
    return knots, hits, int(last["hits"])


def check_simulate(
    path: Path, rate: float, paths: int, reference: tuple | None
) -> tuple[list[str], float, tuple]:
    """K-S distance to the target within the bound, and hit counts equal to
    ``reference`` (an earlier run of the same boundary and seed) if given."""
    knots, hits, survivors = read_empirical(path)
    fails = []
    if int(hits.sum()) + survivors != paths:
        fails.append(f"hits plus survivors {int(hits.sum()) + survivors} != {paths} paths")
    emp = np.concatenate([[0.0], np.cumsum(hits)]) / paths
    ks = float(np.max(np.abs(emp + np.expm1(-rate * knots))))
    if not ks <= ks_allowance(paths):
        fails.append(f"K-S distance {ks:.5f} exceeds {ks_allowance(paths):.5f}")
    counts = (tuple(int(h) for h in hits), survivors)
    if reference is not None and counts != reference:
        fails.append("hit counts differ from an earlier run with the same seed")
    return fails, ks, counts


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Call:
    """One CLI call of an operation: the metric it feeds and its argv."""

    metric: str
    argv: list[str]


class Workload:
    """Inputs from a seed, the calls of one operation and their checks.

    ``setup`` runs once per process before timing; ``calls`` lists the CLI
    calls of one operation writing into ``out``; ``check`` inspects what they
    wrote and returns failure messages plus values the trace reports.
    """

    name: str
    min_ops = 1

    def __init__(self, seed: int, work: Path, small: bool = False):
        self.seed = seed
        self.rate = target_rate(seed)
        self.spec = f"exp:{self.rate!r}"
        self.work = work
        self.small = small

    def setup(self, cli_main) -> None:
        pass

    def calls(self, out: Path) -> list[Call]:
        raise NotImplementedError

    def check(self, out: Path, codes: dict[str, int]) -> tuple[list[str], dict]:
        raise NotImplementedError


class InverseUpper(Workload):
    name = "inverse-upper"

    @property
    def level(self) -> int:
        return 5 if self.small else 8

    def calls(self, out):
        return [
            Call("inverse_s", ["inverse", "--target", self.spec, "--T", "1",
                               "--n", str(self.level), "--side", "upper", "--out", str(out)]),
            Call("forward_s", ["forward", "--boundary", str(out / "boundary.csv"),
                               "--out", str(out)]),
        ]

    def check(self, out, codes):
        fails = check_exit(codes["inverse_s"], "inverse")
        if not fails:
            fails += check_inverse(out, self.level, "upper")
        fails += check_exit(codes["forward_s"], "forward")
        if codes["forward_s"] == 0:
            fails += check_forward(out / "fpt_table.csv", self.rate, self.level)
        return fails, {}


class LadderSymmetric(Workload):
    name = "ladder-symmetric"

    @property
    def levels(self) -> tuple[int, int]:
        return (3, 5) if self.small else (5, 7)

    def calls(self, out):
        n_min, n_max = self.levels
        return [
            Call("convergence_s", ["convergence", "--target", self.spec, "--T", "1",
                                   "--n-min", str(n_min), "--n-max", str(n_max),
                                   "--side", "symmetric", "--out", str(out)]),
        ]

    def check(self, out, codes):
        fails = check_exit(codes["convergence_s"], "convergence")
        if fails:
            return fails, {}
        more, defect = check_ladder(out / "report.json", *self.levels)
        return fails + more, {"nested_defect": defect}


class Simulate(Workload):
    name = "simulate"
    #: two operations at least, so every run checks reproducibility
    min_ops = 2
    sides = ("upper", "symmetric")

    def __init__(self, seed, work, small=False):
        super().__init__(seed, work, small)
        self.paths = 2**16 if small else 2**19
        self.level = 4 if small else 6
        self.reference: dict[str, tuple] = {}

    def boundary(self, side: str) -> Path:
        return self.work / f"boundary-{side}" / "boundary.csv"

    def setup(self, cli_main):
        """Solve and write both input boundaries, checked like any inverse."""
        for side in self.sides:
            out = self.boundary(side).parent
            rc = cli_main(["inverse", "--target", self.spec, "--T", "1",
                           "--n", str(self.level), "--side", side, "--out", str(out)])
            fails = check_exit(rc, f"set-up inverse ({side})") or check_inverse(
                out, self.level, side)
            if fails:
                raise RuntimeError("; ".join(fails))

    def calls(self, out):
        return [
            Call(f"simulate_{side}_s",
                 ["simulate", "--boundary", str(self.boundary(side)), "--paths",
                  str(self.paths), "--seed", str(self.seed), "--out", str(out / side)])
            for side in self.sides
        ]

    def check(self, out, codes):
        fails, info = [], {}
        for side in self.sides:
            metric = f"simulate_{side}_s"
            if codes[metric] != 0:
                fails += check_exit(codes[metric], f"simulate ({side})")
                continue
            more, ks, counts = check_simulate(
                out / side / "empirical.csv", self.rate, self.paths, self.reference.get(side))
            self.reference.setdefault(side, counts)
            fails += more
            info[f"{side}.ks_distance"] = ks
        return fails, info


WORKLOADS = {w.name: w for w in (InverseUpper, LadderSymmetric, Simulate)}

#: The end-to-end call metrics, in report order.
CALL_METRICS = (
    "inverse_s", "forward_s", "convergence_s", "simulate_upper_s", "simulate_symmetric_s",
)
