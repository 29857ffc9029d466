"""One fresh benchmark process: import ifpt from the checkout's ``src/``,
set up one workload, then run and check operations until the time is up.

Started by ``run.py``; writes its results as JSON to ``--result``.  With
``--mode setup`` it stops once set-up is done; the measuring process starts
such set-up-only copies of itself between operations to sample ``setup_s``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: Set-up-only processes started, one after each of the first operations.
SETUP_PROBES = 4

#: Seconds a single worker process may take before it is stopped.
WORKER_TIMEOUT = 150.0

#: Thread variables pinned to 1 in every worker process.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    env.pop("IFPT_THREADS", None)  # the library default
    env.pop("PYTHONPATH", None)  # ifpt comes from the checkout only
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(root: Path, workload: str, seed: int, seconds: float, trace: int, mode: str,
          work: Path, small: bool = False) -> tuple[float, dict]:
    """Run one worker process to its end; return the time from its start
    until it was ready (the monotonic clock is shared by all processes) and
    its results."""
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--root", str(root),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--work", str(work), "--result", str(result),
    ] + (["--small"] if small else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    return data["ready"] - start, data


def import_checkout(root: Path):
    """Import ifpt from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ifpt
    import ifpt.cli

    where = Path(ifpt.__file__).resolve()
    if where.parent != src / "ifpt":
        raise SystemExit(f"ifpt resolves to {where}, not to the checkout's {src / 'ifpt'}")
    return ifpt


def environment(ifpt) -> dict:
    import numpy
    import scipy

    threads = PINNED + ("IFPT_THREADS",)
    return {
        "ifpt_module": str(Path(ifpt.__file__).resolve()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k, "library default") for k in threads},
    }


class Runner:
    """Runs the calls of one operation through ``ifpt.cli.main`` in-process."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def main(self, argv: list[str]) -> int:
        """The CLI entry point with its console output swallowed; an uncaught
        exception counts as a failed call."""
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                return -1

    def operation(self, workload, out: Path, traced: bool) -> dict:
        times, codes = {}, {}
        for call in workload.calls(out):
            rec = self.tracer.begin(f"cli.{call.argv[0]}") if traced else None
            start = time.perf_counter()
            codes[call.metric] = self.main(call.argv)
            times[call.metric] = time.perf_counter() - start
            if rec is not None:
                self.tracer.end(rec)
        try:
            failures, info = workload.check(out, codes)
        except (OSError, ValueError, KeyError) as exc:
            failures, info = [f"output check could not read the outputs: {exc!r}"], {}
        return {
            "traced": traced,
            "times": times,
            "op_s": sum(times.values()),
            "failures": failures,
            "info": info,
        }


def run(args) -> dict:
    ifpt = import_checkout(args.root)
    from tracing import Tracer, op_metrics, split_by_op
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work, small=args.small)
    runner = Runner(ifpt.cli, Tracer() if args.trace else None)
    workload.setup(runner.main)
    ready = time.monotonic()
    result = {"ready": ready, "env": environment(ifpt)}
    if args.mode == "setup":
        return result

    # the traced run alternates untraced and traced operations, so the
    # difference of their medians is the tracing overhead
    min_ops = max(workload.min_ops, 4 if args.trace else 1)
    deadline = time.monotonic() + args.seconds
    ops: list[dict] = []
    probes: list[float] = []
    while len(ops) < min_ops or (
        time.monotonic() + statistics.median(o["op_s"] for o in ops) <= deadline
    ):
        traced = bool(args.trace) and len(ops) % 2 == 1
        out = args.work / f"op{len(ops)}"
        if traced:
            runner.tracer.op = len(ops)
            runner.tracer.install()
        try:
            ops.append(runner.operation(workload, out, traced))
        finally:
            if traced:
                runner.tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        # set-up times sampled across the run, not only at its start, so
        # that one slow stretch of the machine does not decide setup_s
        if not args.trace and len(probes) < SETUP_PROBES:
            start = time.monotonic()
            probes.append(spawn(args.root, args.workload, args.seed, args.seconds, 0,
                                "setup", args.work / f"probe{len(probes)}", args.small)[0])
            deadline += time.monotonic() - start
    result["ops"] = ops
    result["setup_probes"] = probes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = runner.tracer
        per_op = split_by_op(tracer)
        result["layers"] = [
            op_metrics(*per_op.get(i, ([], {})), ops[i]["info"])
            for i, o in enumerate(ops) if o["traced"]
        ]
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
        result["span_fields"] = ["name", "start", "end", "parent", "op", "info"]
    return result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--root", type=Path, required=True, help="checkout holding src/ifpt")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "full"), default="full")
    p.add_argument("--work", type=Path, required=True, help="scratch directory for outputs")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--small", action="store_true", help="reduced sizes for self-tests")
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(run(args)))
