"""Spans around the calls into each ifpt module, recorded from outside the
package by wrapping public functions where their callers look them up.

Layers are the package modules: cli, core, closed_form, forward, inverse and
montecarlo.  A wrapped name that no longer exists is reported as absent, so
a refactor that renames or merges functions leaves the trace running.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
from time import perf_counter

LAYERS = ("cli", "core", "closed_form", "forward", "inverse", "montecarlo")


def _state_nodes(args):
    return int(args[0].nodes.size)


def _propagate_info(args, kwargs, out):
    return (_state_nodes(args), int(out.nodes.size))


def _initial_info(args, kwargs, out):
    return (1, int(out.nodes.size))


def _crossing_info(args, kwargs, out):
    return _state_nodes(args)


def _record_info(args, kwargs, out):
    rec = out[1]
    return (rec.iterations, abs(rec.residual))


def _simulate_info(args, kwargs, out):
    return (args[0].side.value, int(out.paths))


#: (module, attribute, span name, info extractor); the same function is
#: wrapped in every module that imports it by name.
SPANS = (
    ("ifpt.cli", "construct_boundary", "inverse.construct_boundary", None),
    ("ifpt.cli", "refine", "inverse.refine", None),
    ("ifpt.cli", "fpt_distribution_table", "forward.table", None),
    ("ifpt.cli", "simulate_hitting_times", "montecarlo.simulate", _simulate_info),
    ("ifpt.cli", "read_boundary_csv", "core.boundary_csv", None),
    ("ifpt.cli", "write_boundary_csv", "core.boundary_csv", None),
    ("ifpt.inverse", "construct_boundary", "inverse.construct_boundary", None),
    ("ifpt.inverse", "validate_target", "core.validate_target", None),
    ("ifpt.inverse", "solve_first_block", "inverse.solve_first_block", _record_info),
    ("ifpt.inverse", "solve_block", "inverse.solve_block", _record_info),
    ("ifpt.inverse", "constant_boundary_cdf", "closed_form.constant_cdf", None),
    ("ifpt.inverse", "crossing_mass", "forward.crossing_mass", _crossing_info),
    ("ifpt.inverse", "initial_subdensity", "forward.propagate", _initial_info),
    ("ifpt.inverse", "propagated_subdensity", "forward.propagate", _propagate_info),
    ("ifpt.inverse", "fpt_distribution_table", "forward.table", None),
    ("ifpt.forward", "initial_subdensity", "forward.propagate", _initial_info),
    ("ifpt.forward", "propagated_subdensity", "forward.propagate", _propagate_info),
    ("ifpt.montecarlo", "_simulate_chunk", "montecarlo.chunk", None),
    ("ifpt.montecarlo", "bridge_crossing_upper", "montecarlo.bridge", None),
    ("ifpt.montecarlo", "bridge_crossing_symmetric", "montecarlo.bridge", None),
)

#: Calls counted without a span: (module, attribute, counter name).
COUNTS = (
    ("ifpt.cli", "block_mass", "core.block_mass"),
    ("ifpt.inverse", "block_mass", "core.block_mass"),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, op, info]`` and call
    counts per operation.  The wrappers exist only between :meth:`install`
    and :meth:`uninstall`, so untraced operations run the plain package."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.op, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        return rec

    def end(self, rec: list, info=None) -> None:
        rec[2] = perf_counter()
        rec[5] = info
        self._stack().pop()

    def _lookup(self, module: str, attr: str):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
        return mod, fn

    def install(self) -> None:
        """Wrap every listed function that exists; note the rest as absent."""
        self.absent = []
        for module, attr, name, info_fn in SPANS:
            mod, fn = self._lookup(module, attr)
            if fn is not None:
                self._patch(mod, attr, self._span_wrapper(fn, name, info_fn))
        for module, attr, name in COUNTS:
            mod, fn = self._lookup(module, attr)
            if fn is not None:
                self._patch(mod, attr, self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _patch(self, mod, attr, wrapper) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _span_wrapper(self, fn, name, info_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer.end(rec, info_fn(args, kwargs, out) if info_fn and out is not None else None)

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.op, name)
            with tracer._lock:
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def op_metrics(spans: list[list], counts: dict[str, int], info: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation (spans of that op only)."""
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]

    def pick(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in pick(name))

    m: dict[str, float] = {}
    wall = sum(dur[i] for i, s in enumerate(spans) if s[0].startswith("cli."))

    prop = pick("forward.propagate")
    entries = sum(spans[i][5][0] * spans[i][5][1] for i in prop)
    out_nodes = [spans[i][5][1] for i in prop]
    m["forward.propagate_calls"] = len(prop)
    m["forward.propagate_s"] = total("forward.propagate")
    m["forward.nodes_mean"] = statistics.fmean(out_nodes) if out_nodes else 0.0
    m["forward.nodes_max"] = max(out_nodes, default=0)
    m["forward.kernel_entries"] = entries
    m["forward.kernel_ns_per_entry"] = 1e9 * m["forward.propagate_s"] / entries if entries else 0.0

    cross = pick("forward.crossing_mass")
    cross_nodes = sum(spans[i][5] for i in cross)
    m["forward.crossing_mass_calls"] = len(cross)
    m["forward.crossing_mass_s"] = total("forward.crossing_mass")
    m["forward.crossing_mass_ns_per_node"] = (
        1e9 * m["forward.crossing_mass_s"] / cross_nodes if cross_nodes else 0.0)
    m["forward.table_s"] = total("forward.table")
    m["forward.propagate_share"] = m["forward.propagate_s"] / wall if wall else 0.0
    m["forward.crossing_mass_share"] = m["forward.crossing_mass_s"] / wall if wall else 0.0

    recs = [spans[i][5] for i in pick("inverse.solve_first_block") + pick("inverse.solve_block")]
    m["inverse.blocks"] = len(recs)
    m["inverse.evals_per_block"] = statistics.fmean(r[0] for r in recs) if recs else 0.0
    m["inverse.evals_max"] = max((r[0] for r in recs), default=0)
    m["inverse.root_self_s"] = sum(selfs[i] for i in pick("inverse.solve_block"))
    m["inverse.max_abs_residual"] = max((r[1] for r in recs), default=0.0)
    m["inverse.nested_defect"] = info.get("nested_defect", 0.0)
    solves = set(pick("inverse.construct_boundary"))
    m["inverse.construct_s"] = sum(dur[i] for i in solves)
    solve_cross = sum(dur[i] for i in cross if _ancestor(spans, i, solves))
    m["inverse.solve_crossing_share"] = (
        solve_cross / m["inverse.construct_s"] if m["inverse.construct_s"] else 0.0)

    m["closed_form.constant_cdf_calls"] = len(pick("closed_form.constant_cdf"))
    m["closed_form.constant_cdf_s"] = total("closed_form.constant_cdf")

    sims = pick("montecarlo.simulate")
    for side in ("upper", "symmetric"):
        mine = [i for i in sims if spans[i][5] and spans[i][5][0] == side]
        sim_s = sum(dur[i] for i in mine)
        paths = sum(spans[i][5][1] for i in mine)
        bridge = sum(
            dur[j] for j, s in enumerate(spans)
            if s[0] == "montecarlo.bridge" and _ancestor(spans, j, set(mine))
        )
        m[f"montecarlo.{side}.paths_per_s"] = paths / sim_s if sim_s else 0.0
        m[f"montecarlo.{side}.bridge_s"] = bridge
        m[f"montecarlo.{side}.bridge_share"] = bridge / sim_s if sim_s else 0.0
        m[f"montecarlo.{side}.ks_distance"] = info.get(f"{side}.ks_distance", 0.0)
    m["montecarlo.chunks"] = len(pick("montecarlo.chunk"))

    m["core.validate_target_s"] = total("core.validate_target")
    m["core.block_mass_calls"] = counts.get("core.block_mass", 0)
    m["core.boundary_csv_s"] = total("core.boundary_csv")
    m["cli.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if s[0].startswith("cli."))

    for layer in LAYERS:
        own = sum(selfs[i] for i, s in enumerate(spans) if s[0].split(".")[0] == layer)
        m[f"share.{layer}"] = own / wall if wall else 0.0
    return m


def _ancestor(spans: list[list], i: int, targets: set[int]) -> bool:
    parent = spans[i][3]
    while parent is not None:
        if parent in targets:
            return True
        parent = spans[parent][3]
    return False


def split_by_op(tracer: Tracer) -> dict[int, tuple[list[list], dict[str, int]]]:
    """Spans (re-indexed) and counts of each traced operation."""
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_op.setdefault(s[4], []).append(i)
    out = {}
    for op, idx in by_op.items():
        remap = {old: new for new, old in enumerate(idx)}
        spans = [
            [s[0], s[1], s[2], remap.get(s[3]), s[4], s[5]]
            for s in (tracer.spans[i] for i in idx)
        ]
        counts = {name: n for (o, name), n in tracer.counts.items() if o == op}
        out[op] = (spans, counts)
    return out
