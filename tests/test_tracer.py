"""The benchmark's span tracer and harness still work on the package.

perfbench/spans.py replaces functions of the package by name; a rename or
deletion in src/ breaks traced benchmark runs.  The first test installs the
tracer on the imported package and takes it off again, without running a
workload; the middle ones check traced counters and results on small
calls (the trace study's decompositions among them); the last runs the
harness self-test on small instances.
"""

import importlib.util
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cantorslit
import cantorslit.extension
import cantorslit.fields
import cantorslit.whitney
from cantorslit.regions import region_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _package_attrs():
    return {name: dict(vars(mod)) for name, mod in vars(cantorslit).items()
            if isinstance(mod, types.ModuleType)}


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls():
    spans = _spans_module()
    before = _package_attrs()
    adjacency = cantorslit.whitney.WhitneyDecomposition.adjacency
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        for modname, fname, _, _ in spans.FUNCTIONS:
            assert getattr(getattr(cantorslit, modname), fname) \
                is not before[modname][fname], f"{modname}.{fname} not traced"
        assert cantorslit.whitney.oracle_for \
            is not before["whitney"]["oracle_for"]
    finally:
        tracer.uninstall()
    assert _package_attrs() == before
    assert cantorslit.whitney.WhitneyDecomposition.adjacency is adjacency


def test_traced_claim_count_counters():
    """The chain and adjacency counters match what claim_count did.

    One chain span per source, and the edges of w's touching graph, which
    claim_count builds to find the sources.  Chains walk their column, so
    wt's touching graph is never built.
    """
    spans = _spans_module()
    whitney = cantorslit.whitney
    w = whitney.whitney_decompose(region_spec("N_lambda", lam=0.25), 6)
    wt = whitney.whitney_decompose(region_spec("Omega_lambda", lam=0.25), 6)
    reflect = whitney.reflect_assign(w, wt)
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        res = whitney.claim_count(w, wt, reflect, k_max=4)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans)
    assert res.sources > 0
    assert m["whitney.chain_calls"] == res.sources
    assert wt._adj is None
    adj = w.adjacency()
    edges = sum(len(v) for v in adj.values())
    assert edges > 0
    assert m["whitney.adjacency_edges"] == edges // 2
    # the edge arrays are the tracer's contract: each undirected edge once
    assert sorted(adj) == ["u", "v"]
    assert m["whitney.adjacency_edges"] == len(adj["u"])


def test_traced_decompose_matches_untraced(monkeypatch):
    """The tracer's oracle wrapper changes no result and counts each block.

    A round brackets cubes only while some cube is live (not passive); here
    live cubes near the slit reach the max_gen round.  Each round's cubes go
    to bracket_many in blocks of _BLOCK_SAMPLES // 3^n, one call per block:
    9 calls over the 7 rounds, as rounds 5 and 6 split (round 6 sends
    4,574 of the 9,152 cubes it holds).
    """
    spans = _spans_module()
    whitney = cantorslit.whitney
    region, max_gen = region_spec("Omega_lambda", lam=0.25), 6
    bracket_cubes, rounds = whitney._bracket_cubes, []

    def record(oracle, gen, idx, corners=None):
        rounds.append(len(idx))
        return bracket_cubes(oracle, gen, idx, corners)
    monkeypatch.setattr(whitney, "_bracket_cubes", record)
    want = whitney.whitney_decompose(region, max_gen)
    monkeypatch.setattr(whitney, "_bracket_cubes", bracket_cubes)
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        got = whitney.whitney_decompose(region, max_gen)
    finally:
        tracer.uninstall()
    for name in ("gen", "idx", "lo_q", "hi_q", "frontier_gen", "frontier_idx"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(want.frontier) > 0
    m = spans.layer_metrics(tracer.spans)
    block = whitney._BLOCK_SAMPLES // 3 ** 2
    assert len(rounds) == max_gen + 1
    assert m["whitney.oracle_calls"] == sum(-(-k // block) for k in rounds)


@pytest.mark.parametrize("n, max_gen", [(2, 6), (3, 4)])
def test_traced_decompose_asks_each_question_once(n, max_gen, monkeypatch):
    """Per block, one descent brackets the samples and decides the centers.

    Each round's cubes go in blocks of _BLOCK_SAMPLES // 3^n, here 2^14 //
    3^n (N at n = 3 splits its max_gen round of 864 cubes in 2).  Under
    each bracket_many span only the slid-cone and gap-peak witnesses ask
    for heights, one k_distance_many per horizontal axis each: 2(n-1)
    spans.  The lateral-face witnesses and the memberships, centers
    included, read the batch's own descent.  The one member_many span is
    the max_gen round's center pre-test, before that round's first block:
    one point per cube with 0 < ub < sqrt(n) l.  Each lattice point is
    bracketed once per block and in one round only: after round 0 a cube's
    corners (all lattice coordinates even) were its parent's samples, so no
    batch holds one.
    """
    spans = _spans_module()
    whitney = cantorslit.whitney
    calls, batches = [], []   # per round and per block, in call order
    bracket_cubes = whitney._bracket_cubes
    bracket_many = whitney.RegionOracle.bracket_many
    monkeypatch.setattr(whitney, "_BLOCK_SAMPLES", 1 << 14)
    block = whitney._BLOCK_SAMPLES // 3 ** n

    def record(oracle, gen, idx, corners=None):
        calls.append((gen, len(idx)))
        return bracket_cubes(oracle, gen, idx, corners)

    def record_batch(oracle, X):
        batches.append(X.copy())
        return bracket_many(oracle, X)
    monkeypatch.setattr(whitney, "_bracket_cubes", record)
    monkeypatch.setattr(whitney.RegionOracle, "bracket_many", record_batch)
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        whitney.whitney_decompose(region_spec("N_lambda", lam=0.25, n=n),
                                  max_gen)
    finally:
        tracer.uninstall()

    gens = [g for g, k in calls for _ in range(-(-k // block))]
    cubes = [min(block, k - a) for _, k in calls for a in range(0, k, block)]

    def descents_under(name):
        return [[c["points"] for c in tracer.spans if c["parent"] == s["id"]
                 and c["name"] == "cantor.k_distance_many"]
                for s in tracer.spans if s["name"] == name]
    brackets = descents_under("whitney.oracle.bracket_many")
    members = descents_under("whitney.oracle.member_many")
    assert len(brackets) == len(cubes) == len(batches)
    assert [len(b) for b in brackets] == [2 * (n - 1)] * len(cubes)
    assert len(members) == 1
    assert members[0] == [members[0][0]] * (n - 1) and members[0][0] > 0
    # the pre-test runs between the last two rounds' blocks
    ids = {name: [s["id"] for s in tracer.spans if s["name"] == name]
           for name in ("whitney.oracle.bracket_many",
                        "whitney.oracle.member_many")}
    first = gens.index(max_gen)
    assert (ids["whitney.oracle.bracket_many"][first - 1]
            < ids["whitney.oracle.member_many"][0]
            < ids["whitney.oracle.bracket_many"][first])

    # one _bracket_cubes call per round, in round order
    assert [g for g, _ in calls] == list(range(max_gen + 1))
    assert (max(cubes) == block) == (n == 3)
    lattice = [np.ldexp(X, g + 1).astype(np.int64) for g, X in zip(gens, batches)]
    rounds = {}
    for g, X, Z in zip(gens, batches, lattice):
        assert np.array_equal(np.ldexp(Z, -(g + 1)), X)
        assert (g == 0) or not np.any(np.all(Z % 2 == 0, axis=1))
        assert len(np.unique(Z, axis=0)) == len(Z)
        rounds.setdefault(g, []).append(Z << (max_gen - g))
    # on the finest lattice, no point is sent in two rounds
    finest = np.concatenate([np.unique(np.concatenate(Zs), axis=0)
                             for Zs in rounds.values()])
    assert len(np.unique(finest, axis=0)) == len(finest)


def test_traced_trace_mismatch_decomposes_once_per_scale():
    """The trace study builds one assembly per grid scale.

    Each h has several windows, each with its own point_extend, but only
    two whitney_decompose spans and one reflect_assign, and the traced
    result equals the untraced one.
    """
    spans = _spans_module()
    ext = cantorslit.extension
    hs = [2.0 ** -8, 2.0 ** -9]
    want = ext.trace_mismatch(0.25, hs)
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        got = ext.trace_mismatch(0.25, hs)
    finally:
        tracer.uninstall()
    assert got == want
    names = [s["name"] for s in tracer.spans]
    m = spans.layer_metrics(tracer.spans)
    assert names.count("whitney.decompose") == 2 * len(hs)
    assert m["whitney.decompose_calls"] == 2 * len(hs)
    assert names.count("whitney.reflect") == len(hs)
    assert names.count("extension.point_extend") > 2 * len(hs)
    assert "extension.assemble" not in names


def test_traced_jump_keeps_support(monkeypatch):
    """The tracer's wrapper of the jump function keeps its support box.

    grid_sample hands the traced function only the cells within one cell
    of that box, and samples the same field as without the tracer.
    """
    spans = _spans_module()
    ext, fields = cantorslit.extension, cantorslit.fields
    region, h = region_spec("Omega_lambda", lam=0.25), 2.0 ** -6
    want = fields.grid_sample(ext.origin_jump(0.25, 2, 1.0 / 8.0), region, h)
    rows = []
    stack_centers = fields._stack_centers

    def record(axes):
        rows.append(math.prod(len(a) for a in axes))
        return stack_centers(axes)
    monkeypatch.setattr(fields, "_stack_centers", record)
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        u = ext.origin_jump(0.25, 2, 1.0 / 8.0)
        got = fields.grid_sample(u, region, h)
    finally:
        tracer.uninstall()
    assert [s["name"] for s in tracer.spans].count("extension.jump_fn") == 1
    assert u.support.tolist() == [[-0.375, -0.375], [0.375, 0.375]]
    # centers within h of [-3/8, 3/8]: (3/8 + h) / h on each side of 0
    assert rows == [(2 * (24 + 1)) ** 2]
    assert got.values.tobytes() == want.values.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()


def test_benchmark_selftest_passes():
    """perfbench/selftest.py: small claim and extend runs, traced and not.

    It fails when a workload check fails, when traced and untraced results
    differ, or when a counter it needs (such as
    extension.cube_average_calls) reads zero.  It writes no files.
    """
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
