"""Command-line front end.

Subcommands: ``forward`` (hitting distribution of a boundary file),
``inverse`` (solve a boundary for a target), ``simulate`` (Monte Carlo),
``verify`` (cross-check a boundary/target pair) and ``convergence``
(refinement ladder across levels).

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 numerical inconsistency, 4 infeasible target, 5 validation failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .core import (
    BoundarySide,
    InfeasibleTargetError,
    NumericalConsistencyError,
    TargetDistribution,
    ValidationError,
    block_mass,
    exponential_target,
    read_boundary_csv,
    read_target_csv,
    uniform_target,
    validate_target,
    write_boundary_csv,
)
from .forward import fpt_distribution_table
from .inverse import PROBABILITY_TOL, construct_boundary, refine
from .montecarlo import SimConfig, ks_block_distance, ks_threshold, simulate_hitting_times

__all__ = ["main", "parse_target_spec"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4
EXIT_VALIDATION = 5


def parse_target_spec(spec: str) -> TargetDistribution:
    """Parse ``exp:<rate>``, ``uniform:<a>,<b>`` or a path to a t,f CSV."""
    head, _, tail = spec.partition(":")
    if head in ("exp", "exponential") and tail:
        return exponential_target(float(tail))
    if head == "uniform" and tail:
        a, _, b = tail.partition(",")
        return uniform_target(float(a), float(b))
    if Path(spec).exists():
        return read_target_csv(spec)
    raise ValueError(
        f"unrecognized target spec {spec!r} (want exp:<rate>, uniform:<a>,<b> "
        f"or an existing CSV path)"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _side(text: str) -> BoundarySide:
    return BoundarySide(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ifpt", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")

    sp = sub.add_parser("forward", help="hitting distribution of a boundary file")
    sp.add_argument("--boundary", type=Path, required=True)
    add_common(sp)

    sp = sub.add_parser("inverse", help="solve a boundary reproducing a target law")
    sp.add_argument("--target", required=True, help="exp:<rate>, uniform:<a>,<b> or CSV path")
    sp.add_argument("--T", type=float, required=True, dest="horizon")
    sp.add_argument("--n", type=int, required=True, dest="level")
    sp.add_argument("--side", type=_side, default=BoundarySide.UPPER_ONLY,
                    choices=list(BoundarySide), metavar="{upper,symmetric}")
    add_common(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo hitting-time estimation")
    sp.add_argument("--boundary", type=Path, required=True)
    sp.add_argument("--paths", type=_positive_int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)

    sp = sub.add_parser("verify", help="cross-check a boundary/target pair")
    sp.add_argument("--boundary", type=Path, required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--paths", type=_positive_int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)

    sp = sub.add_parser("convergence", help="refinement ladder across grid levels")
    sp.add_argument("--target", required=True)
    sp.add_argument("--T", type=float, required=True, dest="horizon")
    sp.add_argument("--n-min", type=int, required=True, dest="n_min")
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--side", type=_side, default=BoundarySide.UPPER_ONLY,
                    choices=list(BoundarySide), metavar="{upper,symmetric}")
    add_common(sp)
    return p


def run_forward(args) -> int:
    b = read_boundary_csv(args.boundary)
    table = fpt_distribution_table(b)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / "fpt_table.csv"
    table.write_csv(out)
    print(f"wrote {out}")
    print(f"cdf at horizon: {table.cdf[-1]:.12g}  survival: {table.final_survival:.12g}")
    return EXIT_OK


def run_inverse(args) -> int:
    d = parse_target_spec(args.target)
    sol = construct_boundary(d, args.horizon, args.level, args.side)
    args.out.mkdir(parents=True, exist_ok=True)
    bpath = args.out / "boundary.csv"
    dpath = args.out / "diagnostics.json"
    write_boundary_csv(sol.boundary, bpath)
    with open(dpath, "w") as fh:
        json.dump(sol.diagnostics(), fh, indent=2)
    worst = max(abs(r.residual) for r in sol.records)
    print(f"wrote {bpath} and {dpath}")
    print(
        f"g(0)={sol.boundary.knot_values[0]:.9g}  max |slope|={sol.max_abs_slope:.6g}  "
        f"max |residual|={worst:.3e}"
    )
    return EXIT_OK if worst <= PROBABILITY_TOL else EXIT_NUMERICAL


def run_simulate(args) -> int:
    cfg = SimConfig(paths=args.paths, seed=args.seed)
    b = read_boundary_csv(args.boundary)
    emp = simulate_hitting_times(b, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / "empirical.csv"
    emp.write_csv(out)
    print(f"wrote {out}")
    print(f"hit frequency: {1 - emp.survivors / emp.paths:.6f}  survivors: {emp.survivors}")
    return EXIT_OK


def run_verify(args) -> int:
    cfg = SimConfig(paths=args.paths, seed=args.seed)
    b = read_boundary_csv(args.boundary)
    d = parse_target_spec(args.target)
    report = validate_target(d, b.grid.horizon)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VALIDATION
    table = fpt_distribution_table(b)
    knots = b.grid.knots
    targets = np.array(
        [block_mass(d, knots[m], knots[m + 1]) for m in range(b.grid.blocks)]
    )
    residuals = table.block_masses[1:] - targets
    emp = simulate_hitting_times(b, cfg)
    stat = ks_block_distance(emp, d)
    threshold = ks_threshold(args.paths)
    print(f"quadrature block residuals: max |r| = {np.max(np.abs(residuals)):.3e}")
    print(f"monte carlo paths: {args.paths}  max block stderr: {np.max(emp.stderr):.3e}")
    print(f"K-S block statistic: {stat:.6f}  (threshold {threshold:.6f})")
    if stat <= threshold:
        print("verification PASSED")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_VERIFY_FAILED


def run_convergence(args) -> int:
    d = parse_target_spec(args.target)
    report = refine(d, args.horizon, args.n_min, args.n_max, args.side)
    args.out.mkdir(parents=True, exist_ok=True)
    for lv in report.levels:
        write_boundary_csv(lv.solution.boundary, args.out / f"boundary_n{lv.level}.csv")
    with open(args.out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(f"wrote {args.out}/boundary_n*.csv and {args.out}/report.json")
    print(f"{'level':>5} {'sup distance':>14} {'max |slope|':>12} {'nested defect':>14}")
    for lv in report.levels:
        sup = "-" if lv.sup_distance_prev is None else f"{lv.sup_distance_prev:.6f}"
        print(f"{lv.level:>5} {sup:>14} {lv.max_abs_slope:>12.4f} {lv.nested_defect:>14.3e}")
    return EXIT_OK


_RUNNERS = {
    "forward": run_forward,
    "inverse": run_inverse,
    "simulate": run_simulate,
    "verify": run_verify,
    "convergence": run_convergence,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleTargetError as exc:
        where = f" (block {exc.block})" if exc.block is not None else ""
        print(f"infeasible target{where}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalConsistencyError as exc:
        print(f"numerical inconsistency: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
