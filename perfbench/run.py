"""ifpt benchmark: time to solution of the ``ifpt`` CLI on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inverse-upper --seed 0 --seconds 35 --trace 0

Every measured process is fresh and single-threaded (BLAS and OpenMP pinned
to one thread).  One worker process sets up, then runs and checks operations
for ``--seconds``; between operations it times the set-up of a few more
fresh processes, and ``setup_s`` is the median of all set-up times.  With ``--trace 1`` the operations alternate untraced and
traced, and the per-layer metrics and the tracing overhead are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import BenchError, spawn  # noqa: E402
from workloads import CALL_METRICS, WORKLOADS  # noqa: E402

#: Percentiles considered for the tail of a timing, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def timing(values: list[float]) -> dict:
    """Median and the highest listed percentile with at least ten samples
    beyond it (absent below eleven samples), with the sample count."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(ordered, n=1000, method="inclusive")
            out["tail"] = (p, cuts[int(round(p * 10)) - 1])
            break
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ifpt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_header(args, workload, env: dict) -> None:
    print(f"ifpt benchmark  workload={args.workload}  seed={args.seed}  "
          f"target={workload.spec}  seconds={args.seconds:g}  trace={args.trace}")
    print(f"checkout: git {git_sha() or 'unavailable'}  src sha256 {source_digest()}  "
          f"module {env['ifpt_module']}")
    print(f"machine: {platform.machine()} {cpu_model()!r}  nproc {os.cpu_count()}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print("threads: " + "  ".join(f"{k}={v}" for k, v in env["threads"].items()))


def end_to_end(setups: list[float], data: dict) -> dict:
    ops = data["ops"]
    failed = sum(1 for o in ops if o["failures"])
    print(f"{'metric':<22}{'median':>12}{'tail':>22}{'unit':>6}{'samples':>9}")

    def row(name, t, unit):
        tail = "absent (<11 samples)" if t["tail"] is None else f"p{t['tail'][0]:g} {t['tail'][1]:.4f}"
        print(f"{name:<22}{t['median']:>12.4f}{tail:>22}{unit:>6}{t['n']:>9}")

    row("setup_s", timing(setups), "s")
    row("op_s", timing([o["op_s"] for o in ops]), "s")
    for metric in CALL_METRICS:
        values = [o["times"][metric] for o in ops if metric in o["times"]]
        if values:
            row(metric, timing(values), "s")
        else:
            print(f"{metric:<22}{'absent (not run by this workload)':>40}")
    print("op_s of each operation: " + " ".join(f"{o['op_s']:.3f}" for o in ops))
    print(f"{'failed_ops':<22}{failed / len(ops):>12.4f}{'':>22}{'share':>6}{len(ops):>9}")
    print(f"{'peak_rss_mb':<22}{data['peak_rss_mb']:>12.2f}{'':>22}{'MB':>6}{1:>9}")
    return {
        "op_s": {"value": statistics.median(o["op_s"] for o in ops), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(args, data: dict) -> dict:
    layers = data["layers"]
    names = list(layers[0])
    metrics = {name: statistics.median(m[name] for m in layers) for name in names}
    # operations alternate untraced, traced: pair each traced one with the
    # untraced one just before it, which ran under nearly the same load
    ops = data["ops"]
    pairs = [(ops[i - 1]["op_s"], o["op_s"]) for i, o in enumerate(ops) if o["traced"]]
    overhead = statistics.median(t - p for p, t in pairs)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(p for p, _ in pairs)
    metrics["trace.spans_per_op"] = len(data["spans"]) / len(pairs)
    metrics["trace.absent_wrappers"] = len(data["absent"])
    print(f"traced ops {len(pairs)}, untraced ops {len(ops) - len(pairs)}; "
          f"absent wrappers: {', '.join(data['absent']) or 'none'}")
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>16.6g}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"fields": data["span_fields"], "spans": data["spans"]}))
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if {m["name"] for m in spec} != set(metrics):
        raise BenchError(f"traced metrics {sorted(metrics)} differ from BENCHMARK.json")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ifpt" / "__init__.py").is_file():
        print(f"no ifpt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ready, data = spawn(ROOT, args.workload, args.seed, args.seconds, args.trace, "full",
                            work)
        setups = [ready] + data["setup_probes"]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workload = WORKLOADS[args.workload](args.seed, work)
    report_header(args, workload, data["env"])
    ops = data["ops"]
    for i, o in enumerate(ops):
        for msg in o["failures"]:
            print(f"op {i} FAILED: {msg}")
    metrics = per_layer(args, data) if args.trace else end_to_end(setups, data)
    failed = sum(1 for o in ops if o["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
