"""Span tracing of the package's layers, installed from outside the package.

A Tracer replaces each traced public function, at every module attribute of
the package that refers to it, with a wrapper that records a span: name,
start, end, parent span and run id, plus a few counts.  Spans stay in memory
until the run ends.  Per-cube methods (DyadicCube.*, meets_box, bump_value)
are left alone: they run up to 10^6 times per run and a wrapper would cost
more than they do, so their time is part of the calling span's self time.

Self time is a span's duration minus the durations of its children; the
code is single-threaded, so children never overlap and the self times of
all spans under the root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# relative tolerance on "self times add up to the traced run_s"; the root
# span's wrapper and the attribute counts fall outside the spans
SELF_TIME_TOL = 1e-3

ROOT = "bench.run"


def _points(args, kwargs, result, pre):
    return {"points": int(np.size(args[0]))}


def _cells_of_result(args, kwargs, result, pre):
    return {"cells": int(np.size(result))}


def _points_of_result(args, kwargs, result, pre):
    return {"points": int(np.size(result))}


def _cells_of_field(args, kwargs, result, pre):
    return {"cells": int(args[0].mask.size)}


def _sampled_cells(args, kwargs, result, pre):
    return {"cells": int(result.mask.size)}


def _label_cells(args, kwargs, result, pre):
    return {"cells": int(result.labels.size)}


def _decomposition(args, kwargs, result, pre):
    return {"resolved": len(result.cubes), "frontier": len(result.frontier)}


def _chain(args, kwargs, result, pre):
    return {"found": bool(result.found)}


def _density(args, kwargs, result, pre):
    return {"samples": int(result.samples) * len(result.c_per_radius)}


def _net(args, kwargs, result, pre):
    return {"points": sum(len(v) for v in result.levels.values())}


def _adjacency_pre(args, kwargs):
    return args[0]._adj is None          # True when this call builds the graph


def _adjacency(args, kwargs, result, built):
    if not built:
        return {}
    return {"edges": sum(len(v) for v in result.values()) // 2}


# (module, function, span name, counts after the call)
FUNCTIONS = (
    ("cantor", "k_distance_many", "cantor.k_distance_many", _points),
    ("cantor", "k_nearest_many", "cantor.k_nearest_many", _points),
    ("cantor", "k_gap_mid_many", "cantor.k_gap_mid_many", _points),
    ("cantor", "c_distance_grid", "cantor.c_distance_grid", None),
    ("whitney", "whitney_decompose", "whitney.decompose", _decomposition),
    ("whitney", "reflect_assign", "whitney.reflect", None),
    ("whitney", "claim_count", "whitney.claim", None),
    ("whitney", "chain", "whitney.chain", _chain),
    ("regions", "membership_grid", "regions.membership_grid", _cells_of_result),
    ("regions", "region_membership_many", "regions.membership_many",
     _points_of_result),
    ("regions", "component_label", "regions.label", _label_cells),
    ("fields", "grid_sample", "fields.sample", _sampled_cells),
    ("fields", "gradient", "fields.gradient", _cells_of_field),
    ("fields", "seminorm_p", "fields.seminorm", _cells_of_field),
    ("extension", "extend", "extension.extend", None),
    ("extension", "partition_of_unity", "extension.pou", None),
    ("extension", "cube_average", "extension.cube_average", None),
    ("extension", "assemble", "extension.assemble", None),
    ("extension", "point_extend", "extension.point_extend", None),
    ("dimension", "measure_density_check", "dimension.density", _density),
    ("dimension", "build_net_hierarchy", "dimension.net", _net),
    ("dimension", "dim_upper_estimate", "dimension.estimate", None),
)


class _TracedOracle:
    """An oracle whose batch calls record spans; all else is forwarded."""

    def __init__(self, oracle, tracer: "Tracer"):
        self._oracle = oracle
        self.bracket_many = tracer.wrap("whitney.oracle.bracket_many",
                                        oracle.bracket_many, self._batch)
        self.member_many = tracer.wrap("whitney.oracle.member_many",
                                       oracle.member_many)

    @staticmethod
    def _batch(args, kwargs, result, pre):
        X = args[0]
        return {"points": int(X.shape[0]),
                "cubes": int(X.shape[0]) // 3 ** int(X.shape[1])}

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class Tracer:
    """In-memory spans of one run; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None, pre=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            rec = {"id": len(spans), "name": name,
                   "parent": stack[-1] if stack else None, "run": self.run_id}
            spans.append(rec)
            stack.append(rec["id"])
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result, state))
            return result

        return wrapper

    def _replace(self, orig, new) -> None:
        """Point every package module attribute that is `orig` at `new`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cantorslit"
                                   or modname.startswith("cantorslit.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self) -> None:
        """Patch the imported package; `import cantorslit` must come first."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules["cantorslit"]
        for modname, fname, span, attrs in FUNCTIONS:
            orig = getattr(getattr(pkg, modname), fname)
            self._replace(orig, self.wrap(span, orig, attrs))

        ext = sys.modules["cantorslit.extension"]
        jump = ext.jump_test_function
        traced_jump = self.wrap("extension.jump_test_function", jump)

        def jump_test_function(*args, **kwargs):
            return self.wrap("extension.jump_fn", traced_jump(*args, **kwargs))

        self._replace(jump, functools.wraps(jump)(jump_test_function))

        whitney = sys.modules["cantorslit.whitney"]
        oracle_for = whitney.oracle_for

        def traced_oracle_for(*args, **kwargs):
            return _TracedOracle(oracle_for(*args, **kwargs), self)

        self._replace(oracle_for, traced_oracle_for)

        cls = whitney.WhitneyDecomposition
        adjacency = cls.adjacency
        self._undo.append((cls, "adjacency", adjacency))
        cls.adjacency = self.wrap("whitney.adjacency", adjacency, _adjacency,
                                  _adjacency_pre)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def root(self, fn):
        """Wrap the workload call itself; its span is the run's root."""
        return self.wrap(ROOT, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    def noop(x):
        return x

    wrapped = Tracer("calibration").wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for i in range(calls):
        noop(i)
    bare = clock() - t0
    t0 = clock()
    for i in range(calls):
        wrapped(i)
    return max(0.0, (clock() - t0 - bare) / calls)


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer; the root's own self time is layer 'bench'."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + t
    return out


# metric name -> (unit, what it measures), in report order
METRICS = {
    "cantor.descent_s": ("s", "self time of k_*_many and c_distance_grid"),
    "cantor.calls": ("count", "k_distance/k_nearest/k_gap_mid descents"),
    "cantor.points": ("count", "points over all descents"),
    "cantor.points_per_s": ("1/s", "descent throughput"),
    "whitney.decompose_s": ("s", "self time of whitney_decompose"),
    "whitney.decompose_calls": ("count", "whitney_decompose calls"),
    "whitney.oracle_s": ("s", "self time of bracket_many + member_many"),
    "whitney.oracle_calls": ("count", "bracket_many batches"),
    "whitney.oracle_points": ("count", "points over bracket_many batches"),
    "whitney.cubes_examined": ("count", "cubes bracketed by whitney_decompose"),
    "whitney.cubes_resolved": ("count", "accepted cubes, all decompositions"),
    "whitney.cubes_frontier": ("count", "frontier cubes, all decompositions"),
    "whitney.resolve_ratio": ("1", "share of examined cubes accepted"),
    "whitney.adjacency_s": ("s", "self time of WhitneyDecomposition.adjacency"),
    "whitney.adjacency_edges": ("count", "edges of the adjacency graphs built"),
    "whitney.reflect_s": ("s", "self time of reflect_assign"),
    "whitney.claim_s": ("s", "self time of claim_count"),
    "whitney.chain_s": ("s", "self time of chain (the BFS)"),
    "whitney.chain_calls": ("count", "chain calls"),
    "whitney.chain_found_ratio": ("1", "share of chains found"),
    "regions.membership_grid_s": ("s", "self time of membership_grid"),
    "regions.membership_grid_cells": ("count", "cells classified on grids"),
    "regions.membership_many_s": ("s", "self time of region_membership_many"),
    "regions.membership_many_points": ("count", "points classified"),
    "regions.label_s": ("s", "self time of component_label"),
    "regions.label_cells": ("count", "cells of the flood-fill windows"),
    "fields.sample_s": ("s", "self time of grid_sample"),
    "fields.gradient_s": ("s", "self time of gradient"),
    "fields.seminorm_s": ("s", "self time of seminorm_p"),
    "fields.cells": ("count", "cells through grid_sample/gradient/seminorm_p"),
    "extension.extend_s": ("s", "self time of extend"),
    "extension.pou_s": ("s", "self time of partition_of_unity"),
    "extension.cube_average_s": ("s", "self time of cube_average"),
    "extension.cube_average_calls": ("count", "cube_average calls"),
    "extension.jump_fn_s": ("s", "jump_test_function: build + evaluations"),
    "extension.assemble_s": ("s", "self time of assemble"),
    "extension.point_extend_s": ("s", "self time of point_extend"),
    "extension.point_extend_calls": ("count", "point_extend calls"),
    "dimension.density_s": ("s", "self time of measure_density_check"),
    "dimension.density_samples": ("count", "Monte Carlo draws, all radii"),
    "dimension.net_s": ("s", "self time of build_net_hierarchy"),
    "dimension.net_points": ("count", "net points over all levels"),
    "dimension.estimate_s": ("s", "self time of dim_upper_estimate"),
}

# ratio metric -> (numerator metric or None, denominator metric)
RATIO_BASES = {
    "cantor.points_per_s": ("cantor.points", "cantor.descent_s"),
    "whitney.resolve_ratio": ("whitney.cubes_resolved",
                              "whitney.cubes_examined"),
    "whitney.chain_found_ratio": (None, "whitney.chain_calls"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of METRICS from one run's spans.

    A layer that did not run reports 0 for its times, counts and ratios.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, int] = {}          # summed counts, keyed "span:attr"
    for s, t in zip(spans, selfs):
        name = s["name"]
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        for key, val in s.items():
            if key not in ("id", "name", "parent", "run", "start", "end"):
                total[f"{name}:{key}"] = total.get(f"{name}:{key}", 0) + int(val)

    def st(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return total.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    descents = ("cantor.k_distance_many", "cantor.k_nearest_many",
                "cantor.k_gap_mid_many")
    descent_s = st(*descents, "cantor.c_distance_grid")
    points = sum(c(f"{d}:points") for d in descents)
    examined = sum(s.get("cubes", 0) for s in spans
                   if s["name"] == "whitney.oracle.bracket_many"
                   and s["parent"] is not None
                   and spans[s["parent"]]["name"] == "whitney.decompose")
    resolved = c("whitney.decompose:resolved")
    chains = n("whitney.chain")
    m = {
        "cantor.descent_s": descent_s,
        "cantor.calls": sum(n(d) for d in descents),
        "cantor.points": points,
        "cantor.points_per_s": ratio(points, descent_s),
        "whitney.decompose_s": st("whitney.decompose"),
        "whitney.decompose_calls": n("whitney.decompose"),
        "whitney.oracle_s": st("whitney.oracle.bracket_many",
                               "whitney.oracle.member_many"),
        "whitney.oracle_calls": n("whitney.oracle.bracket_many"),
        "whitney.oracle_points": c("whitney.oracle.bracket_many:points"),
        "whitney.cubes_examined": examined,
        "whitney.cubes_resolved": resolved,
        "whitney.cubes_frontier": c("whitney.decompose:frontier"),
        "whitney.resolve_ratio": ratio(resolved, examined),
        "whitney.adjacency_s": st("whitney.adjacency"),
        "whitney.adjacency_edges": c("whitney.adjacency:edges"),
        "whitney.reflect_s": st("whitney.reflect"),
        "whitney.claim_s": st("whitney.claim"),
        "whitney.chain_s": st("whitney.chain"),
        "whitney.chain_calls": chains,
        "whitney.chain_found_ratio": ratio(c("whitney.chain:found"), chains),
        "regions.membership_grid_s": st("regions.membership_grid"),
        "regions.membership_grid_cells": c("regions.membership_grid:cells"),
        "regions.membership_many_s": st("regions.membership_many"),
        "regions.membership_many_points": c("regions.membership_many:points"),
        "regions.label_s": st("regions.label"),
        "regions.label_cells": c("regions.label:cells"),
        "fields.sample_s": st("fields.sample"),
        "fields.gradient_s": st("fields.gradient"),
        "fields.seminorm_s": st("fields.seminorm"),
        "fields.cells": sum(c(f"fields.{f}:cells")
                            for f in ("sample", "gradient", "seminorm")),
        "extension.extend_s": st("extension.extend"),
        "extension.pou_s": st("extension.pou"),
        "extension.cube_average_s": st("extension.cube_average"),
        "extension.cube_average_calls": n("extension.cube_average"),
        "extension.jump_fn_s": st("extension.jump_test_function",
                                  "extension.jump_fn"),
        "extension.assemble_s": st("extension.assemble"),
        "extension.point_extend_s": st("extension.point_extend"),
        "extension.point_extend_calls": n("extension.point_extend"),
        "dimension.density_s": st("dimension.density"),
        "dimension.density_samples": c("dimension.density:samples"),
        "dimension.net_s": st("dimension.net"),
        "dimension.net_points": c("dimension.net:points"),
        "dimension.estimate_s": st("dimension.estimate"),
    }
    assert list(m) == list(METRICS)
    return m
