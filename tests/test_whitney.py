"""Tests for the certified Whitney machinery: cubes, reflect map, chains."""

import hashlib
import math
import tracemalloc
from collections import deque
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorslit.whitney
from cantorslit.cantor import DEFAULT_TOL, _descend, _product_distance
from cantorslit.dyadic import (DyadicCube, cubes_touch, meets_window, order,
                               projection_contains, sides, subdivide)
from cantorslit.regions import D_BOX, D_NOTCH, region_spec
from cantorslit.whitney import (
    Q0_ID,
    RegionOracle,
    _box_boundary_dist,
    _bracket_cubes,
    _child_corners,
    UNASSIGNED,
    WhitneyDecomposition,
    central_mask,
    chain,
    claim_count,
    q0_adjacent,
    reflect_assign,
    verify_whitney,
    oracle_for,
    whitney_decompose,
)

LAM = 0.25
# sha256 of (gen, idx, lo_q, hi_q) of the max_gen=7 fixture, as int64 and
# float64 bytes; any change to the decomposition or its brackets shows here
FIXTURE_SHA = {
    "w": "cc12035dd67cbd7816795b979c78b00732a087be52fd0df535eda8c77eacd21e",
    "wt": "39fd7b2f64b805b402d34ab75c9c4bb87f512e9831a405e3e230cfc729e88eb1",
}
# sha256 of the sorted (gen, idx, k, load) of claim_count's per_cube on the
# fixture at k_max=4, keyed by complement cube rather than by row
PER_CUBE_SHA = "51189f60561b63f1dd9aa11d22bf74a9521279978e0e989d5ef2fc9cefb0104f"


@pytest.fixture(scope="module")
def decs():
    rn = region_spec("N_lambda", lam=LAM)
    ro = region_spec("Omega_lambda", lam=LAM)
    w = whitney_decompose(rn, max_gen=7)
    wt = whitney_decompose(ro, max_gen=7)
    return w, wt


def test_decomposition_clean(decs):
    w, wt = decs
    for dec in decs:
        rep = verify_whitney(dec, coverage_samples=2000, seed=1)
        assert rep.total_violations == 0
        assert rep.boundary_crossings == 0
        assert rep.coverage_misses == 0
    assert len(w) > 0 and len(wt) > 0


class _NoColumnBoxOracle(RegionOracle):
    """The oracle as it was without the tent's box bound outside the column
    (_oracle_reference equals it bit for bit)."""

    def bracket_many(self, X):
        return _oracle_reference(self.region, X, column_box=False)


@pytest.mark.parametrize("lam", [1 / 16, 1 / 8, 1 / 4, 0.4])
def test_omega_cubes_form_one_component(lam, monkeypatch):
    """W6 reads 0 for Omega at n = 2, and 2 without the box bound.

    Without it the cone bound's phantom surface |x_2| = -x_1 left of the
    column keeps a band of cubes unresolved, which cuts Omega's resolved
    cubes into three touching components: the strip left of the notch, the
    lower half and the upper half.
    """
    region = region_spec("Omega_lambda", lam=lam)
    assert verify_whitney(whitney_decompose(region, 6)).w6_violations == 0
    monkeypatch.setattr(cantorslit.whitney, "oracle_for", _NoColumnBoxOracle)
    assert verify_whitney(whitney_decompose(region, 6)).w6_violations == 2


def test_omega_halves_apart_at_n3():
    """Known gap: at n = 3 Omega's resolved cubes stay in two components,
    above and below the pinch plane, so W6 reads 1 and `whitney verify
    --region Omega_lambda --n 3` exits 1."""
    dec = whitney_decompose(region_spec("Omega_lambda", lam=0.25, n=3), 4)
    assert verify_whitney(dec).w6_violations == 1


def test_fixture_pinned(decs):
    for name, dec in zip(("w", "wt"), decs):
        h = hashlib.sha256()
        for a in (dec.gen.astype("<i8"), dec.idx.astype("<i8"),
                  dec.lo_q.astype("<f8"), dec.hi_q.astype("<f8")):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == FIXTURE_SHA[name]


def test_verifier_flags_planted_defects():
    """W2, W4 and the crossing check fire on a decomposition built by hand.

    (2,(1,1)) contains (3,(2,2)): one W2 violation.  (6,(32,16)) touches
    (2,(1,1)) across four generations: one W4 violation.  No dyadic cube of
    generation >= 0 straddles an integer hyperplane, so the crossing is a
    generation -1 cube, [-2,0] x [0,2], straddling x_n = 1 and no other
    slab plane.
    """
    gen = np.array([2, 3, 6, -1], dtype=np.int64)
    idx = np.array([[1, 1], [2, 2], [32, 16], [-1, 0]], dtype=np.int64)
    perm = order(gen, idx)
    dec = WhitneyDecomposition(
        oracle=oracle_for(region_spec("N_lambda", lam=LAM)), n=2,
        gen=gen[perm], idx=idx[perm], lo_q=np.zeros(4), hi_q=np.zeros(4),
        frontier_gen=np.zeros(0, dtype=np.int64),
        frontier_idx=np.zeros((0, 2), dtype=np.int64),
        frontier_stranded=np.zeros(0, dtype=bool))
    rep = verify_whitney(dec)
    assert rep.w2_violations == 1
    assert rep.w4_violations == 1
    assert rep.boundary_crossings == 1


def _small_decompositions():
    yield whitney_decompose(region_spec("Omega_lambda", lam=LAM), 5,
                            window=((0.0, -1.0), (1.0, 1.0)))
    yield whitney_decompose(region_spec("N_lambda", lam=LAM, n=3), 6,
                            window=((0.4, 0.4, -0.1), (0.6, 0.6, 0.1)))


def _assert_adjacency_brute_force(dec):
    """adjacency() is the all-pairs touching graph: int64 (u, v), u < v,
    sorted by (u, v)."""
    cubes = list(dec.cubes)
    want = [(i, j) for i in range(len(cubes)) for j in range(i + 1, len(cubes))
            if cubes_touch(cubes[i], cubes[j])]
    want = np.array(want, dtype=np.int64).reshape(-1, 2)
    adj = dec.adjacency()
    assert sorted(adj) == ["u", "v"]
    for key, col in zip("uv", want.T):
        assert adj[key].dtype == np.int64
        np.testing.assert_array_equal(adj[key], col)


def test_adjacency_matches_brute_force():
    for dec in _small_decompositions():
        assert len(set(dec.gen.tolist())) >= 3
        _assert_adjacency_brute_force(dec)
    # a windowed Omega at n=3, whose touching cubes span two generations
    dec = whitney_decompose(region_spec("Omega_lambda", lam=LAM, n=3), 5,
                            window=((0.0, 0.0, 0.0), (0.25, 0.25, 1.0)))
    assert len(set(dec.gen.tolist())) >= 2
    _assert_adjacency_brute_force(dec)
    # a window at the pinch point (0, 0) that keeps no resolved cube
    dec = whitney_decompose(region_spec("Omega_lambda", lam=LAM), 4,
                            window=((0.0, -1e-3), (1e-3, 1e-3)))
    assert len(dec) == 0 and len(dec.frontier_gen) > 0
    _assert_adjacency_brute_force(dec)
    rep = verify_whitney(dec)
    assert rep.w4_violations == rep.w6_violations == 0


def _bracket_cubes_reference(oracle, gen, idx):
    """3^n samples per cube, each sent to the oracle once per cube."""
    m, n = idx.shape
    side = np.broadcast_to(sides(gen), (m,))
    offs = np.array(list(product((0.0, 0.5, 1.0), repeat=n)))
    X = ((idx * side[:, None])[:, None, :]
         + side[:, None, None] * offs).reshape(-1, n)
    lo_s, hi_s, _ = oracle.bracket_many(X)
    mem = oracle.member_many(X).reshape(m, -1)
    lo_q = np.maximum(0.0, lo_s.reshape(m, -1).min(axis=1)
                      - math.sqrt(n) * side / 4.0)
    hi_q = hi_s.reshape(m, -1).min(axis=1)
    samples = np.stack((lo_s, hi_s)).reshape(2, m, -1).transpose(0, 2, 1)
    return lo_q, hi_q, samples, mem


def _whitney_decompose_reference(region, max_gen, window=None):
    """whitney_decompose's rounds with every round bracketing all 3^n
    samples of every cube; (gen, idx, lo_q, hi_q, frontier_gen,
    frontier_idx) as whitney_decompose sorts them."""
    oracle = oracle_for(region)
    n = oracle.n
    sqrtn = math.sqrt(n)
    active = oracle.roots()
    found = [(np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64),
              np.zeros(0), np.zeros(0))]
    for g in range(max_gen + 1):
        if window is not None:
            active = active[meets_window(g, active, *window)]
        if not len(active):
            break
        side = sides(np.full(len(active), g))
        lo_q, hi_q, center, _ = _bracket_cubes(oracle, g, active)
        accept = ((lo_q >= sqrtn * side) & (hi_q <= 4.0 * sqrtn * side)
                  & center)
        drop = ~center & (lo_q > 0.0)
        found.append((np.full(int(accept.sum()), g), active[accept],
                      lo_q[accept], hi_q[accept]))
        active = active[~accept & ~drop]
        if g < max_gen:
            active = subdivide(active)
    gen, idx, lo_q, hi_q = (np.concatenate(col) for col in zip(*found))
    perm = order(gen, idx)
    fgen = np.full(len(active), max_gen, dtype=np.int64)
    fperm = order(fgen, active)
    return (gen[perm], idx[perm], lo_q[perm], hi_q[perm], fgen[fperm],
            active[fperm])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _unsent(dec, sent, max_gen):
    """How many active frontier cubes the max_gen round held but did not
    send to _bracket_cubes; sent maps each round to the cubes it sent."""
    asked = set(map(tuple, sent[max_gen].tolist())) if max_gen in sent else ()
    return sum(tuple(r) not in asked
               for r in dec.frontier_idx[~dec.frontier_stranded].tolist())


BRACKET_CASES = [
    ("N_lambda", 0.25, 2, 6, None),
    ("Omega_lambda", 0.25, 2, 6, None),
    ("N_lambda", 0.125, 2, 6, None),
    ("Omega_lambda", 0.125, 2, 6, None),
    ("N_lambda", 0.25, 3, 5, None),
    ("Omega_lambda", 0.25, 3, 4, ((-1.0, 0.0, -1.0), (1.0, 1.0, 1.0))),
    ("Omega_lambda", 0.25, 2, 9, ((0.2, -0.2), (0.6, 0.2))),
]
# n = 4 only windowed: the unwindowed Omega_lambda at max_gen=4 runs out of
# memory on an 8 GB machine
N4_WINDOW = ((0.25, 0.25, 0.25, -0.25), (0.75, 0.75, 0.75, 0.25))


@pytest.mark.parametrize("kind, lam, n, max_gen, window", BRACKET_CASES)
def test_bracket_cubes_matches_reference(kind, lam, n, max_gen, window):
    """Sampling each distinct point once gives the per-cube brackets bitwise.

    Inputs: each generation alone, as whitney_decompose's first round
    passes them, and the resolved cubes of all generations, as
    verify_whitney passes them.  The sample table is the per-cube one, and
    the center membership is the middle sample's; where lo_q > 0 it decides
    the drop rule as all 3^n sample memberships did.
    """
    dec = whitney_decompose(region_spec(kind, lam=lam, n=n), max_gen,
                            window=window)
    gen = np.concatenate([dec.gen, dec.frontier_gen])
    idx = np.concatenate([dec.idx, dec.frontier_idx])
    calls = [(g, idx[gen == g]) for g in np.unique(gen).tolist()]
    calls.append((dec.gen, dec.idx))
    # every cube of a coarse generation over the box, with the clear cubes
    # outside the region that the drop rule removes
    g0 = 5 - n
    lo, hi = np.ldexp(dec.oracle.region.bbox, g0).astype(np.int64)
    axes = np.meshgrid(*map(np.arange, lo, hi), indexing="ij")
    calls.append((g0, np.stack(axes, axis=-1).reshape(-1, n)))
    assert len(calls) >= 3
    dropped = 0
    for g, rows in calls:
        lo_q, hi_q, center, samples = _bracket_cubes(dec.oracle, g, rows)
        *want, mem = _bracket_cubes_reference(dec.oracle, g, rows)
        for a, b in zip((lo_q, hi_q, samples), want):
            assert _same_bits(a, b)
        assert _same_bits(center, mem[:, (3 ** n - 1) // 2])
        clear = lo_q > 0.0
        assert np.array_equal(~mem.any(axis=1) & clear, ~center & clear)
        dropped += np.count_nonzero(~center & clear)
    assert dropped > 0


@pytest.mark.parametrize("kind, lam, n, max_gen, window", BRACKET_CASES + [
    ("N_lambda", 0.25, 4, 4, N4_WINDOW),
    ("Omega_lambda", 0.25, 4, 4, N4_WINDOW),
    # unwindowed: passive cubes reach the frontier at lambda = 1/4 only
    ("Omega_lambda", 0.25, 2, 9, None),
    ("Omega_lambda", 0.125, 2, 9, None),
    # below C's interval [3/16, 1/4]: no cube is live after round 6, and
    # the passive ones are carried down to max_gen
    ("Omega_lambda", 0.25, 2, 9, ((0.19921875, -0.12890625),
                                  (0.20703125, -0.12109375))),
    ("Omega_lambda", 0.4, 2, 8, None),
    ("Omega_lambda", 0.25, 3, 5, None),
])
def test_decompose_matches_reference(kind, lam, n, max_gen, window,
                                     monkeypatch):
    """Inherited corner brackets, the passive set and the max_gen round's
    skip give the decomposition bitwise.

    whitney_decompose brackets each lattice point once across its rounds,
    never brackets a cube whose inherited lower bound rules it out, and in
    the max_gen round brackets only the cubes a bracket can still accept or
    drop; the reference brackets all 3^n samples of every unresolved cube
    in every round.  Whenever the max_gen round holds a cube it leaves on
    the frontier, it leaves some unbracketed, so the skip is exercised.
    """
    whitney = cantorslit.whitney
    bracket_cubes, sent = whitney._bracket_cubes, {}

    def record(oracle, gen, idx, corners=None):
        sent[gen] = idx
        return bracket_cubes(oracle, gen, idx, corners)
    monkeypatch.setattr(whitney, "_bracket_cubes", record)
    region = region_spec(kind, lam=lam, n=n)
    dec = whitney_decompose(region, max_gen, window=window)
    want = _whitney_decompose_reference(region, max_gen, window)
    got = (dec.gen, dec.idx, dec.lo_q, dec.hi_q, dec.frontier_gen,
           dec.frontier_idx)
    assert len(dec) > 0 and len(dec.frontier) > 0
    for a, b in zip(got, want):
        assert _same_bits(a, b)
    assert ((_unsent(dec, sent, max_gen) > 0)
            == bool(np.any(~dec.frontier_stranded)))


# cubes sent to _bracket_cubes over all rounds, per case below
SENT = {("Omega_lambda", 0.25, 2, 9): 86204,
        ("Omega_lambda", 0.25, 2, 10): 174776,
        ("Omega_lambda", 0.25, 3, 5): 159692,
        ("N_lambda", 0.25, 2, 9): 11410,
        ("N_lambda", 0.125, 2, 9): 13282}


@pytest.mark.parametrize("kind, lam, n, max_gen, stranded, held", [
    ("Omega_lambda", 0.25, 2, 9, 912, 115740),
    ("Omega_lambda", 0.25, 2, 10, 3648, 233884),
    ("Omega_lambda", 0.25, 3, 5, 27136, 276268),
    ("N_lambda", 0.25, 2, 9, 0, 16010),
    ("N_lambda", 0.125, 2, 9, 0, 18170),
])
def test_passive_cubes_are_never_bracketed(kind, lam, n, max_gen, stranded,
                                           held, monkeypatch):
    """The cubes the rounds hold and send, and the stranded frontier, pinned.

    held counts each round's live cubes: those sent to _bracket_cubes and
    those the max_gen round leaves on the frontier unbracketed.  Without
    the passive set the rounds hold 116,892 cubes for Omega at lambda =
    1/4, max_gen = 9, and 238,684 at max_gen = 10; N has no passive cube
    here.  The max_gen round sends only the cubes a bracket can still
    accept or drop: for Omega at lambda = 1/4, max_gen = 9, 29,232 of the
    58,768 it holds.
    """
    whitney = cantorslit.whitney
    bracket_cubes, sent = whitney._bracket_cubes, {}

    def record(oracle, gen, idx, corners=None):
        sent[gen] = idx
        return bracket_cubes(oracle, gen, idx, corners)
    monkeypatch.setattr(whitney, "_bracket_cubes", record)
    dec = whitney.whitney_decompose(region_spec(kind, lam=lam, n=n), max_gen)
    assert sum(map(len, sent.values())) == SENT[kind, lam, n, max_gen]
    assert SENT[kind, lam, n, max_gen] + _unsent(dec, sent, max_gen) == held
    assert dec.stranded == stranded
    assert dec.stranded <= len(dec.frontier)


def _box_part(dec, box):
    """The cubes of dec whose closures meet box, with their brackets and
    stranded flags, as a decomposition windowed to box.

    For a run windowed to a stack of boxes holding box, this is the run
    windowed to box alone (see whitney_decompose).
    """
    lo, hi = np.asarray(box, dtype=float)
    keep = meets_window(dec.gen, dec.idx, lo, hi)
    fkeep = meets_window(dec.frontier_gen, dec.frontier_idx, lo, hi)
    return WhitneyDecomposition(
        oracle=dec.oracle, n=dec.n, gen=dec.gen[keep], idx=dec.idx[keep],
        lo_q=dec.lo_q[keep], hi_q=dec.hi_q[keep],
        frontier_gen=dec.frontier_gen[fkeep],
        frontier_idx=dec.frontier_idx[fkeep],
        frontier_stranded=dec.frontier_stranded[fkeep],
        window=(tuple(map(tuple, box)),))


# windows of the small-block runs, which make one oracle call per block
BLOCK_BOX = {2: ((0.1875, -0.0625), (0.3125, 0.0625)),
             3: ((0.25, 0.25, -0.25), (0.5, 0.5, 0.25))}
ONE_BLOCK = 1 << 62


@pytest.mark.parametrize("kind, lam, n, max_gen, stack", [
    ("N_lambda", 0.25, 2, 7, [BLOCK_BOX[2]]),
    # two boxes, each picked out of the stacked run
    ("Omega_lambda", 0.25, 2, 7,
     [BLOCK_BOX[2], ((0.25, 0.0), (0.375, 0.125))]),
    ("N_lambda", 0.125, 2, 7, [BLOCK_BOX[2]]),
    ("Omega_lambda", 0.125, 2, 7, [BLOCK_BOX[2]]),
    ("N_lambda", 0.25, 3, 4, [BLOCK_BOX[3]]),
    ("Omega_lambda", 0.25, 3, 4, [BLOCK_BOX[3]]),
])
def test_blocked_rounds_match_one_block(kind, lam, n, max_gen, stack,
                                        monkeypatch):
    """Rounds in blocks of 1 cube, 7 cubes or the default size give the
    decomposition, verify_whitney's report and its brackets of one block
    per round, bit for bit.

    The 1- and 7-cube runs are windowed, as one oracle call per block is
    slow; the default size splits the unwindowed late rounds (Omega at
    lambda 1/4, max_gen 7: 19,024 cubes in 6 blocks).
    """
    whitney = cantorslit.whitney
    region = region_spec(kind, lam=lam, n=n)
    default = whitney._BLOCK_SAMPLES
    names = ("gen", "idx", "lo_q", "hi_q", "frontier_gen", "frontier_idx",
             "frontier_stranded")

    def run(block, stack):
        monkeypatch.setattr(whitney, "_BLOCK_SAMPLES", block)
        dec = whitney_decompose(region, max_gen, window=stack)
        decs = [_box_part(dec, box) for box in stack] if stack else [dec]
        return [([getattr(d, name) for name in names], verify_whitney(d),
                 _bracket_cubes(d.oracle, d.gen, d.idx)) for d in decs]

    for block, window in [(3 ** n, stack), (7 * 3 ** n, stack),
                          (default, None)]:
        got = run(block, window)
        # one box at a time, one block per round
        want = ([run(ONE_BLOCK, [box])[0] for box in window] if window
                else run(ONE_BLOCK, None))
        assert len(got) == len(want)
        for (arrays, report, brackets), (arrays1, report1, brackets1) in zip(
                got, want):
            assert len(arrays[0]) > 0 or len(arrays[4]) > 0
            for name, x, y in zip(names, arrays, arrays1):
                assert _same_bits(x, y), (block, name)
            assert report == report1
            for x, y in zip(brackets, brackets1):
                assert _same_bits(x, y), block


def test_decompose_peak_memory_follows_the_block():
    """Rounds bracket in blocks, so the oracle's temporaries stay bounded.

    Omega at lambda 1/4, max_gen 8 peaks at 17.0 MiB under tracemalloc (the
    result holds 1.8 MiB); sending each round to bracket_many whole peaked
    at 50.5 MiB, doubling with each generation.
    """
    region = region_spec("Omega_lambda", lam=LAM)
    tracemalloc.start()
    try:
        whitney_decompose(region, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# box corners in units of 2^-3
BOX_UNIT = 3


@st.composite
def box_stacks(draw, bbox):
    """1-4 boxes on the 2^-3 lattice, the first with its lower corner in
    bbox; each later one overlaps, nests in, misses, or shares a face with
    an earlier one."""
    lo = np.array([draw(st.integers(int(a), int(b) - 1))
                   for a, b in np.ldexp(bbox, BOX_UNIT).T])
    n = len(lo)
    size = np.array([draw(st.integers(1, 5)) for _ in range(n)])
    boxes = [(lo, lo + size)]
    for _ in range(draw(st.integers(0, 3))):
        blo, bhi = boxes[draw(st.integers(0, len(boxes) - 1))]
        width, axis = bhi - blo, draw(st.integers(0, n - 1))
        step = np.zeros(n, dtype=np.int64)
        how = draw(st.sampled_from(("overlap", "nested", "disjoint", "touch")))
        if how == "nested":
            a = np.array([draw(st.integers(0, int(w))) for w in width])
            b = np.array([draw(st.integers(int(x), int(w)))
                          for x, w in zip(a, width)])
            boxes.append((blo + a, blo + b))
            continue
        if how == "overlap":
            step[axis] = draw(st.integers(0, max(int(width[axis]) - 1, 0)))
        else:
            step[axis] = width[axis] + (how == "disjoint") * draw(
                st.integers(1, 4))
        step[axis] *= draw(st.sampled_from((-1, 1)))
        boxes.append((blo + step, bhi + step))
    return [np.ldexp(np.stack(b), -BOX_UNIT).tolist() for b in boxes]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("N_lambda", "Omega_lambda")),
       n=st.sampled_from((2, 3)))
def test_stack_matches_windowed_decompose(data, kind, n):
    """One run over a stack of boxes gives each box's decomposition.

    The cubes of the stacked run meeting box equal whitney_decompose with
    window=box in every array and in stranded, bit for bit; a one-box
    stack is the box, window included.
    """
    region = region_spec(kind, lam=LAM, n=n)
    stack = data.draw(box_stacks(region.bbox))
    max_gen = data.draw(st.integers(6, 8) if n == 2 else st.integers(4, 5))
    whole = whitney_decompose(region, max_gen, window=stack)
    names = ("gen", "idx", "lo_q", "hi_q", "frontier_gen", "frontier_idx",
             "frontier_stranded")
    for box in stack:
        want = whitney_decompose(region, max_gen, window=box)
        one = whitney_decompose(region, max_gen, window=[box])
        for got in (_box_part(whole, box), one):
            for name in names:
                assert _same_bits(getattr(got, name), getattr(want, name)), name
            assert got.stranded == want.stranded
        assert one.window == want.window == (tuple(map(tuple, box)),)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("N_lambda", "Omega_lambda")),
       n=st.integers(2, 4), gen=st.integers(0, 20),
       seed=st.integers(0, 2 ** 32 - 1))
def test_child_corners_are_parent_samples(kind, n, gen, seed):
    """Child b's corner sample at offset o is its parent's at b + o/2.

    Checked on the sample points themselves and on their brackets: the
    corner rows of the children's own sample table are the parents' table
    mapped by _child_corners, bit for bit.
    """
    region = region_spec(kind, lam=0.25, n=n)
    oracle = oracle_for(region)
    rng = np.random.default_rng(seed)
    lo = np.floor(np.ldexp(region.bbox[0], gen)).astype(np.int64)
    hi = np.ceil(np.ldexp(region.bbox[1], gen)).astype(np.int64)
    # nearby cubes, so that their lattice box has int64 keys
    idx = rng.integers(lo, hi) + rng.integers(-3, 4, size=(4, n))
    kids = subdivide(idx)
    offs = np.array(list(product((0, 1, 2), repeat=n)))
    corner = np.all(offs % 2 == 0, axis=1)

    def points(g, rows):
        """(n, 3^n, m): coordinate of each sample of each cube."""
        return np.ldexp(2 * rows[None] + offs[:, None], -(g + 1)).transpose(2, 0, 1)
    assert _same_bits(_child_corners(points(gen, idx), n),
                      points(gen + 1, kids)[:, corner])
    handed = _child_corners(_bracket_cubes(oracle, gen, idx)[3], n)
    want = _bracket_cubes(oracle, gen + 1, kids)
    assert _same_bits(handed, want[3][:, corner])
    # and handed down, they give the children's brackets of all samples
    got = _bracket_cubes(oracle, gen + 1, kids, handed)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def _box_boundary_dist_reference(X, lo, hi):
    """_box_boundary_dist on whole rows, as it was before its columns."""
    q = np.maximum(lo - X, X - hi)
    top = reduce(np.maximum, q.T)
    p = np.maximum(q, 0.0)
    return np.where(top <= 0.0, -top, np.sqrt(reduce(np.add, (c * c for c in p.T))))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 4),
       box=st.sampled_from(("D_BOX", "D_NOTCH", "face", "random")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_box_boundary_dist_matches_reference(n, box, seed):
    """The column form gives the row form's distances bit for bit.

    Boxes: D's two profile boxes; bracket_many's lateral-face boxes, flat
    along one axis (and along x_n at n = 2, where gamma = 0); and random
    dyadic boxes flat along some axes.  Each coordinate is the box's lower
    or upper face, a 2^-3 lattice point or a random float, so points lie on
    faces and corners (where -top is -0.0), inside and outside.
    """
    rng = np.random.default_rng(seed)
    if box == "face":
        lo, hi = np.zeros(n), np.ones(n)
        i = rng.integers(n - 1)
        lo[i] = hi[i] = float(rng.integers(2))
        gamma = math.sqrt(n - 2) * 0.25
        lo[-1], hi[-1] = -gamma, gamma
    elif box == "random":
        lo, hi = np.sort(np.ldexp(rng.integers(-8, 9, size=(2, n)), -2), axis=0)
        flat = rng.random(n) < 0.3
        hi[flat] = lo[flat]
    else:
        lo, hi = D_BOX if box == "D_BOX" else D_NOTCH
    d = len(lo)
    pick = rng.integers(4, size=(300, d))
    X = np.select([pick == 0, pick == 1, pick == 2],
                  [np.broadcast_to(lo, (300, d)), np.broadcast_to(hi, (300, d)),
                   np.ldexp(rng.integers(-24, 25, size=(300, d)), -3)],
                  rng.uniform(-3.0, 3.0, size=(300, d)))
    got = _box_boundary_dist(X, lo, hi)
    assert _same_bits(got, _box_boundary_dist_reference(X, lo, hi))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("N_lambda", "Omega_lambda")),
       n=st.sampled_from((2, 3)), lam=st.sampled_from((0.25, 0.125)),
       gen=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_rows_independent(kind, n, lam, gen, seed):
    """bracket_many and member_many treat each row alone, bit for bit.

    _bracket_cubes rests on this: it sends each distinct sample point once
    and gathers the results back.  A permuted batch with repeated rows must
    give the results of the unique rows, gathered back.
    """
    region = region_spec(kind, lam=lam, n=n)
    oracle = oracle_for(region)
    rng = np.random.default_rng(seed)
    # generation-gen lattice points over the region's box and one cell more
    lo = np.floor(np.ldexp(region.bbox[0], gen)).astype(np.int64) - 1
    hi = np.ceil(np.ldexp(region.bbox[1], gen)).astype(np.int64) + 1
    points = np.ldexp(rng.integers(lo, hi + 1, size=(40, n)), -gen)
    batch = points[rng.integers(0, len(points), size=200)]
    uniq, inv = np.unique(batch, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    got = (*oracle.bracket_many(batch), oracle.member_many(batch))
    want = (*oracle.bracket_many(uniq), oracle.member_many(uniq))
    for a, b in zip(got, want):
        assert _same_bits(a, b[inv])


def _tent_bracket_reference(cantor, X, column_box=True):
    """The tent bracket with its own clipped-x' witness and descent.

    column_box=False leaves out the bound by the tent's box for x' outside
    the column [0,1]^{n-1}, as the oracle was before it had one.
    """
    n, tol = X.shape[1], DEFAULT_TOL
    XP, xn = X[:, :-1], X[:, -1]
    d, near, mids = _descend(XP, cantor, tol / math.sqrt(n - 1), full=True)
    g = np.sqrt(np.sum(d ** 2, axis=1))
    h = np.abs(xn)
    v = np.abs(g - h)
    lo = np.maximum(0.0, v - tol) / math.sqrt(2.0)
    gamma = math.sqrt(max(n - 2, 0)) * (1.0 - 2.0 * cantor.ratio_at(0)) / 2.0
    for i in range(n - 1):
        for c in (0.0, 1.0):
            blo, bhi = np.zeros(n), np.ones(n)
            blo[i] = bhi[i] = c
            blo[n - 1], bhi[n - 1] = -gamma, gamma
            lo = np.minimum(lo, _box_boundary_dist(X, blo, bhi))
    if column_box:
        G = math.sqrt(n - 1) * (1.0 - 2.0 * cantor.ratio_at(0)) / 2.0
        box = (np.r_[np.zeros(n - 1), -G], np.r_[np.ones(n - 1), G])
        out = ~np.all((XP >= 0.0) & (XP <= 1.0), axis=1)
        lo = np.where(out, np.maximum(lo, _box_boundary_dist(X, *box) - tol), lo)
    diff = XP - near
    rho = np.linalg.norm(diff, axis=1)
    direction = diff / np.where(rho > 0.0, rho, 1.0)[:, None]
    inside = h <= g
    w = XP + (np.where(inside, -1.0, 1.0) * (v / 2.0))[:, None] * direction
    bound = np.where(inside[:, None], XP, mids)
    bound = np.where(np.isnan(bound), w, bound)
    w = np.clip(w, np.minimum(near, bound), np.maximum(near, bound))
    cands = [w, np.where(np.isfinite(mids), mids, XP)]
    for i in range(n - 1):
        for c in (0.0, 1.0):
            cp = XP.copy()
            cp[:, i] = c
            cands.append(cp)
    sgn = np.where(xn >= 0.0, 1.0, -1.0)
    cp = np.clip(XP, 0.0, 1.0)
    gc, out = g.copy(), np.any(cp != XP, axis=1)
    if out.any():
        gc[out] = _product_distance(list(cp[out].T), cantor)
    hi = np.sqrt(np.sum((XP - cp) ** 2, axis=1) + (xn - sgn * gc) ** 2)
    for cp in cands:
        cp = np.clip(cp, 0.0, 1.0)
        gp = _product_distance(list(cp.T), cantor)
        d2 = np.sum((XP - cp) ** 2, axis=1) + (xn - sgn * gp) ** 2
        hi = np.minimum(hi, np.sqrt(d2))
    return lo, hi + tol


def _oracle_reference(region, X, column_box=True):
    """Bracket and membership with D's profile written out in literals."""
    n, cantor = region.n, region.cantor
    lo, hi = _tent_bracket_reference(cantor, X, column_box)
    XP, xn = X[:, :-1], X[:, -1]
    in_n = ((np.abs(xn) <= 1.0) & np.all((XP >= 0.0) & (XP <= 1.0), axis=1)
            & (np.abs(xn) <= _product_distance(list(XP.T), cantor)))
    if region.kind == "N_lambda":
        return lo, hi, in_n
    P, lat = X[:, n - 2:], X[:, : n - 2]
    d_d = np.minimum(_box_boundary_dist(P, (-2.0, -1.5), (1.0, 1.5)),
                     _box_boundary_dist(P, (-1.0, -1.0), (0.0, 1.0)))
    for i in range(n - 2):
        d_d = np.minimum(d_d, np.minimum(np.abs(X[:, i]), np.abs(X[:, i] - 1.0)))
    if n == 2:
        hi = np.minimum(hi, d_d + DEFAULT_TOL)
    a, b = P.T
    in_d = (((a > -2.0) & (a < 1.0) & (b > -1.5) & (b < 1.5))
            & ~((a >= -1.0) & (a <= 0.0) & (b >= -1.0) & (b <= 1.0))
            & np.all((lat > 0.0) & (lat < 1.0), axis=1))
    return np.minimum(lo, d_d), hi, in_d & ~in_n


@pytest.mark.parametrize("kind", ["N_lambda", "Omega_lambda"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [0.25, 0.125])
def test_oracle_matches_reference(kind, n, lam):
    """oracle_for's brackets and membership equal the reference bitwise.

    The membership bracket_many reads off its own descent equals both the
    reference and member_many.

    Inputs: uniform points over Omega's box grown by 0.1, their 2^-12
    dyadic roundings, rows with a coordinate of x' on {0, 1}, rows with x'
    outside the column [0,1]^{n-1}, and rows on the tent graph |x_n| = g.
    """
    region = region_spec(kind, lam=lam, n=n)
    rng = np.random.default_rng(11)
    bbox = region_spec("Omega_lambda", lam=lam, n=n).bbox
    U = rng.uniform(bbox[0] - 0.1, bbox[1] + 0.1, size=(20000, n))
    dyadic = np.ldexp(np.round(np.ldexp(U, 12)), -12)
    face = rng.uniform(0.0, 1.0, size=(4000, n))
    face[:, -1] = rng.uniform(-0.6, 0.6, size=4000)
    face[np.arange(4000), rng.integers(0, n - 1, size=4000)] = \
        rng.integers(0, 2, size=4000)
    outside = face.copy()
    outside[:, 0] = np.where(face[:, 0] < 0.5, -face[:, 0] - 1e-3,
                             face[:, 0] + 0.5)
    graph = rng.uniform(0.0, 1.0, size=(4000, n))
    graph[:, -1] = (np.where(graph[:, -1] < 0.5, -1.0, 1.0)
                    * _product_distance(list(graph[:, :-1].T), region.cantor))
    assert not np.all((outside[:, :-1] >= 0.0) & (outside[:, :-1] <= 1.0),
                      axis=1).any()
    oracle = oracle_for(region)
    for X in (U, dyadic, face, outside, graph):
        lo, hi, inside = oracle.bracket_many(X)
        want = _oracle_reference(region, X)
        for a, b in zip((lo, hi, inside), want):
            assert np.array_equal(a, b)
        assert np.array_equal(inside, oracle.member_many(X))


def _rhombus_segments(lam, depth):
    """Edges of the rhombi over the gaps of K(lam) of the first depth levels,
    as (start, end) point arrays; and the left ends and length of the
    level-depth intervals.  Interval [a, a + L] has the gap (a + lam L,
    a + L - lam L), and over it the tent is the rhombus with apexes (a +
    lam L, 0), (a + L - lam L, 0) and peaks (a + L/2, +-(1 - 2 lam) L/2)."""
    a, L, ends = np.zeros(1), 1.0, []
    for _ in range(depth):
        g0, g1, m = a + lam * L, a + L - lam * L, a + L / 2.0
        zero, top = np.zeros_like(a), np.full_like(a, (1.0 - 2.0 * lam) * L / 2.0)
        for s in (1.0, -1.0):
            ends += [((g0, zero), (m, s * top)), ((m, s * top), (g1, zero))]
        a, L = np.concatenate([a, a + L - lam * L]), lam * L
    P0 = np.concatenate([np.stack(p, axis=1) for p, _ in ends])
    P1 = np.concatenate([np.stack(q, axis=1) for _, q in ends])
    return P0, P1, a, L


def _rhombus_bracket_reference(lam, X, depth=10):
    """[lo, hi] on dist(x, boundary of N) at n = 2 with no Cantor descent.

    The boundary of N is the union of the rhombus edges over the gaps of K,
    so the distances to the edges down to depth bound it from above.  The
    edges deeper down, and K itself, lie in the level-depth boxes I x [-t,
    t], t = lam^depth (1 - 2 lam) / 2, so the min with the distances to those
    boxes bounds it from below.
    """
    P0, P1, a, L = _rhombus_segments(lam, depth)
    e = P1 - P0
    rel = X[:, None, :] - P0[None]
    s = np.clip(np.sum(rel * e, axis=2) / np.sum(e * e, axis=1), 0.0, 1.0)
    hi = np.linalg.norm(rel - s[..., None] * e, axis=2).min(axis=1)
    t = L * (1.0 - 2.0 * lam) / 2.0
    dx = np.maximum(np.maximum(a[None] - X[:, :1], X[:, :1] - a[None] - L), 0.0)
    dy = np.maximum(np.abs(X[:, 1:]) - t, 0.0)
    return np.minimum(hi, np.sqrt(dx * dx + dy * dy).min(axis=1)), hi


_COORD = st.floats(-1.5, 1.5)


@settings(max_examples=60, deadline=None)
@given(lam=st.sampled_from((1 / 16, 1 / 8, 1 / 4, 0.4)),
       outside=st.lists(st.tuples(st.one_of(st.floats(-2.5, -1e-9),
                                             st.floats(1.0 + 1e-9, 3.5)),
                                   _COORD), min_size=1, max_size=30),
       column=st.lists(st.tuples(st.floats(0.0, 1.0), _COORD), max_size=30))
def test_tent_bracket_brackets_rhombus_reference(lam, outside, column):
    """N's bracket at n = 2 meets the descent-free rhombus bracket.

    Points with x_1 outside [0, 1], where the tent's box bound acts, and
    points over the column.
    """
    X = np.array(outside + column)
    lo, hi, _ = oracle_for(region_spec("N_lambda", lam=lam)).bracket_many(X)
    ref_lo, ref_hi = _rhombus_bracket_reference(lam, X)
    assert np.all(lo <= ref_hi + DEFAULT_TOL)
    assert np.all(hi >= ref_lo - DEFAULT_TOL)


def test_phantom_cone_point_bracketed_by_box():
    """(-1.25, 1.25) lies on the cone bound's phantom surface |x_2| = -x_1.

    N's lo there is at least its distance to the tent's box [0,1] x [-1/4,
    1/4], hypot(1.25, 1) = 1.60078, and Omega's lo is dist(x, boundary of D) = 1/4, the distance to
    D's top face; the cone bound alone gave 0 for both.
    """
    X = np.array([[-1.25, 1.25]])
    lo_n = oracle_for(region_spec("N_lambda", lam=0.25)).bracket_many(X)[0]
    lo_o = oracle_for(region_spec("Omega_lambda", lam=0.25)).bracket_many(X)[0]
    assert lo_n[0] >= math.hypot(1.25, 1.0) - DEFAULT_TOL
    assert lo_o[0] == 0.25


def _settle_margin(lam, X):
    """b - d_d - 8 tol for Omega at n = 2, written out: the rows where it is
    >= 0 are those bracket_many settles on D's boundary alone."""
    tol, G = DEFAULT_TOL, (1.0 - 2.0 * lam) / 2.0
    out = (X[:, 0] < 0.0) | (X[:, 0] > 1.0)
    b = np.where(out, _box_boundary_dist(X, (0.0, -G), (1.0, G)) - tol,
                 (np.abs(X[:, 1]) - G - tol) / math.sqrt(2.0))
    d_d = np.minimum(_box_boundary_dist(X, (-2.0, -1.5), (1.0, 1.5)),
                     _box_boundary_dist(X, (-1.0, -1.0), (0.0, 1.0)))
    return b - (d_d + 8.0 * tol)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(lam=st.sampled_from((1 / 4, 1 / 8, 0.4)), column=st.booleans(),
       settled=st.tuples(_UNIT, _UNIT), kept=st.tuples(_UNIT, _UNIT),
       up=st.booleans(), right=st.booleans())
def test_settled_rows_at_the_threshold(lam, column, settled, kept, up, right):
    """bracket_many equals the full-bracket reference bitwise on the rows
    just either side of the threshold where D's boundary settles a row.

    One row D's boundary settles and one it does not, over the column or
    outside it; the segment between them is bisected to adjacent floats of
    its parameter where the margin b - d_d - 8 tol changes sign.  The rows a
    few ulps and a few tol either side of that point go through
    bracket_many, which must give _oracle_reference's bits and
    member_many's membership.
    """
    G = (1.0 - 2.0 * lam) / 2.0
    sy = 1.0 if up else -1.0
    if column:
        # over the column: |x_2| in [1.2, 1.5) is settled, |x_2| <= G is not
        p = np.array([settled[0], sy * (1.2 + 0.3 * settled[1])])
        q = np.array([kept[0], (2.0 * kept[1] - 1.0) * G])
    else:
        # left of the notch is settled; just off the column's sides is not
        p = np.array([-1.9 + 0.8 * settled[0], sy * 1.4 * settled[1]])
        dx = 0.2 * kept[0] + 1e-9
        q = np.array([1.0 + dx if right else -dx, (2.0 * kept[1] - 1.0) * G])
    region = region_spec("Omega_lambda", lam=lam)
    margin = lambda s: _settle_margin(lam, (q + s * (p - q))[None])[0]
    assert margin(1.0) >= 0.0 > margin(0.0)
    a, b = 0.0, 1.0
    while (mid := a + (b - a) / 2.0) not in (a, b):
        a, b = (a, mid) if margin(mid) >= 0.0 else (mid, b)
    x = q + b * (p - q)
    u = (p - q) / np.linalg.norm(p - q)
    steps = np.arange(-3, 4)
    X = np.concatenate([
        q + np.array([a, b])[:, None] * (p - q),
        x + np.multiply.outer(steps, np.spacing(x)),
        x + np.multiply.outer(steps * 4.0 * DEFAULT_TOL, u),
        x + np.multiply.outer(steps * 4.0 * DEFAULT_TOL, u[::-1] * (1, -1)),
    ])
    m = _settle_margin(lam, X)
    assert (m >= 0.0).any() and (m < 0.0).any()
    got = oracle_for(region).bracket_many(X)
    for arr, want in zip(got, _oracle_reference(region, X)):
        assert _same_bits(arr, want)
    assert np.array_equal(got[2], oracle_for(region).member_many(X))


@pytest.mark.parametrize("kind, descended, bracketed", [
    ("Omega_lambda", 12674, 68029),
    ("N_lambda", 7479, 7479),
])
def test_d_boundary_settles_most_omega_rows(kind, descended, bracketed,
                                            monkeypatch):
    """The full descent sees only the rows D's boundary does not settle.

    The rows of the full Cantor descent in _tent_bracket and the rows
    bracketed, over one decomposition at lambda = 1/4, max_gen = 7.  For
    Omega fewer than a quarter of the rows reach the descent; N takes no
    shortcut, so all of its rows do.
    """
    whitney, rows = cantorslit.whitney, {"descended": 0, "bracketed": 0}
    descend, bracket_many = whitney._descend, RegionOracle.bracket_many

    def count_descend(XP, *args, **kwargs):
        rows["descended"] += len(XP)
        return descend(XP, *args, **kwargs)

    def count_bracket_many(self, X):
        rows["bracketed"] += len(X)
        return bracket_many(self, X)
    monkeypatch.setattr(whitney, "_descend", count_descend)
    monkeypatch.setattr(RegionOracle, "bracket_many", count_bracket_many)
    whitney_decompose(region_spec(kind, lam=0.25), max_gen=7)
    assert rows == {"descended": descended, "bracketed": bracketed}
    if kind == "N_lambda":
        assert descended == bracketed
    else:
        assert descended < bracketed / 4


def test_decompose_rejects_max_gen_below_4():
    with pytest.raises(ValueError, match="max_gen must be >= 4"):
        whitney_decompose(region_spec("N_lambda", lam=LAM), max_gen=3)


def test_oracle_for_rejects_other_kinds():
    for kind in ("D", "Q0_tilde"):
        with pytest.raises(ValueError, match="no certified distance oracle"):
            oracle_for(region_spec(kind))


def test_whitney_bracket_consistency(decs):
    w, _ = decs
    sqrt2 = math.sqrt(2.0)
    lo = np.asarray(w.lo_q)
    hi = np.asarray(w.hi_q)
    sides = 2.0 ** -w.gen.astype(float)
    assert np.all(sqrt2 * sides <= lo + 1e-12)
    assert np.all(hi <= 4.0 * sqrt2 * sides + 1e-12)


def test_adjacency_symmetric_and_touching(decs):
    """Each edge is one touching pair, u < v, listed once."""
    w, _ = decs
    adj = w.adjacency()
    u, v = adj["u"], adj["v"]
    assert len(u) > 0 and np.all(u < v)
    assert len(set(zip(u.tolist(), v.tolist()))) == len(u)
    for r, s in zip(u.tolist(), v.tolist()):
        assert cubes_touch(w.cubes[r], w.cubes[s])


def test_central_mask_on_plane(decs):
    w, _ = decs
    v = np.flatnonzero(central_mask(w))
    assert len(v) > 0
    for r in v:
        c = w.cubes[r]
        assert c.idx[-1] in (-1, 0)
        assert c.lo[0] <= 1.0 and c.hi[0] >= 0.0


def test_reflect_properties(decs):
    w, wt = decs
    ra = reflect_assign(w, wt)
    assert ra.target.dtype == np.int64 and ra.target.shape == (len(w),)
    assert np.array_equal(ra.target == Q0_ID, central_mask(w))
    assigned = 0
    for r, t in enumerate(ra.target.tolist()):
        if t < 0:
            continue
        assigned += 1
        q = w.cubes[r]
        qt = wt.cubes[t]
        # side at most doubled
        assert qt.gen >= q.gen - 1
        # drop-axis projection containment
        assert projection_contains(qt, q, drop_axis=q.n - 1)
        # same closed half-space
        assert q.center[-1] * qt.center[-1] > 0.0
    assert assigned > 0
    assert ra.unassigned_fraction <= 0.05


def _reflect_reference(w, wt):
    """The per-cube loop over both candidate stacks, keyed (d, gen, idx).

    Cubes are 1-based ids here, 0 the reservoir and None no candidate; the
    ids are independent of the rows reflect_assign works in.
    """
    n = w.n
    central = set((np.flatnonzero(central_mask(w)) + 1).tolist())
    cen_w = (w.idx + 0.5) * 2.0 ** -w.gen[:, None].astype(float)
    cen_t = (wt.idx + 0.5) * 2.0 ** -wt.gen[:, None].astype(float)
    t_idx = wt.idx.tolist()
    stacks = {}
    for wid, (g, row) in enumerate(zip(wt.gen.tolist(), t_idx), 1):
        stacks.setdefault((g, tuple(row[: n - 1])), []).append((row[n - 1], wid))
    mapping, unassigned = {}, []
    for cid, (g, row) in enumerate(zip(w.gen.tolist(), w.idx.tolist()), 1):
        if cid in central:
            mapping[cid] = 0
            continue
        positive = row[n - 1] >= 0
        best = None
        for gshift in (1, 0):          # candidate gen = g - gshift
            gc = g - gshift
            horiz = tuple(j >> gshift for j in row[: n - 1])
            for jn, wid in stacks.get((gc, horiz), ()):
                if (jn >= 0) != positive:
                    continue
                d = float(np.linalg.norm(cen_t[wid - 1] - cen_w[cid - 1]))
                key = (d, gc, tuple(t_idx[wid - 1]))
                if best is None or key < best[0]:
                    best = (key, wid)
        mapping[cid] = None if best is None else best[1]
        if best is None:
            unassigned.append(cid)
    return mapping, sorted(central), unassigned


def _assert_reflect_matches_reference(w, wt):
    ra = reflect_assign(w, wt)
    mapping, central_ids, unassigned = _reflect_reference(w, wt)
    # ids to rows: the reservoir id 0 is Q0_ID, no candidate is UNASSIGNED
    want = [Q0_ID if t == 0 else UNASSIGNED if t is None else t - 1
            for t in mapping.values()]
    assert list(mapping) == list(range(1, len(w) + 1))
    assert ra.target.tolist() == want
    assert (np.flatnonzero(ra.target == Q0_ID) + 1).tolist() == central_ids
    assert (np.flatnonzero(ra.target == UNASSIGNED) + 1).tolist() == unassigned
    return ra


def test_reflect_matches_reference(decs):
    # n=2 at lambda 1/4 and 1/8
    _assert_reflect_matches_reference(*decs)
    _assert_reflect_matches_reference(
        whitney_decompose(region_spec("N_lambda", lam=0.125), 6),
        whitney_decompose(region_spec("Omega_lambda", lam=0.125), 6))
    # n=3, on a window around the pinch
    win = ((0.3, 0.3, -0.2), (0.7, 0.7, 0.2))
    _assert_reflect_matches_reference(
        whitney_decompose(region_spec("N_lambda", lam=LAM, n=3), 5, window=win),
        whitney_decompose(region_spec("Omega_lambda", lam=LAM, n=3), 5,
                          window=win))
    # one windowed pair as the trace study builds it: h = 2^-8 above the
    # first gap midpoint
    h, m, g = 2.0 ** -8, 0.5, 0.25
    win = ((m - 16 * h, g - 16 * h), (m + 16 * h, g + 16 * h))
    _assert_reflect_matches_reference(
        whitney_decompose(region_spec("N_lambda", lam=LAM), 11, window=win),
        whitney_decompose(region_spec("Omega_lambda", lam=LAM), 11, window=win))
    # hand-built: the complement has no generation-2 block, so the W
    # generation 3 finds no candidate one level coarser; W columns 20 and
    # -3 lie outside the complement's generation-3 range 4..6, and column 3
    # lies outside its generation-1 range 0..1 after the shift
    w = _hand_built([(2, (1, 1)), (2, (2, -2)), (2, (6, 3)), (3, (5, 2)),
                     (3, (5, -3)), (3, (20, 1)), (3, (-3, -2)), (3, (6, 1))])
    wt = _hand_built([(1, (0, 1)), (1, (0, 0)), (1, (0, -1)), (1, (1, -1)),
                      (1, (1, 2)), (3, (5, 6)), (3, (5, -7)), (3, (4, 0)),
                      (3, (6, 3)), (3, (6, -2))])
    assert 2 not in wt.index.blocks
    ra = _assert_reflect_matches_reference(w, wt)
    assert np.count_nonzero(ra.target == UNASSIGNED) == 3


def test_reflect_tie_goes_to_smaller_gen_idx():
    """Mirror-image candidates at equal distance: the smaller (gen, idx) wins."""
    def dec(idx):
        idx = np.array(idx, dtype=np.int64)
        gen = np.full(len(idx), 2, dtype=np.int64)
        return WhitneyDecomposition(
            oracle=None, n=2, gen=gen, idx=idx,
            lo_q=np.zeros(len(idx)), hi_q=np.zeros(len(idx)),
            frontier_gen=np.zeros(0, dtype=np.int64),
            frontier_idx=np.zeros((0, 2), dtype=np.int64),
        frontier_stranded=np.zeros(0, dtype=bool))
    # the first two tent cubes sit halfway between two same-side complement
    # cubes; the third has no complement cube in its column
    w = dec([[1, -3], [1, 2], [3, 2]])
    wt = dec([[1, -4], [1, -2], [1, 0], [1, 1], [1, 3]])
    ra = _assert_reflect_matches_reference(w, wt)
    assert [wt.cubes[t].idx for t in ra.target[:2]] == [(1, -4), (1, 1)]
    assert ra.target[2] == UNASSIGNED


def test_q0_adjacency():
    gen = np.array([0, 3])
    idx = np.array([[-1, 0],      # touches x = -1
                    [2, 2]])      # strictly inside
    assert q0_adjacent(gen, idx).tolist() == [True, False]
    # cubes touching the hole's faces x_{n-1} = 1 and x_n = -1, 1, and
    # their neighbours one step inside
    gen = np.array([3, 3, 3, 3, 3, 3])
    idx = np.array([[7, 0], [0, -8], [0, 7], [6, 0], [0, -7], [0, 6]])
    assert q0_adjacent(gen, idx).tolist() == [True] * 3 + [False] * 3
    # at n = 3 only the profile (last two) axes count
    idx3 = np.array([[5, 7, 0], [5, 0, 7], [9, 0, 0]])
    assert q0_adjacent(np.array([3, 3, 3]), idx3).tolist() == [True, True,
                                                              False]


def test_chain_projection_monotone(decs):
    _, wt = decs
    q0 = q0_adjacent(wt.gen, wt.idx)
    checked = 0
    for t in range(len(wt)):
        ch = chain(wt, t)
        if not ch.found:
            continue
        checked += 1
        assert ch.rows[0] == t and ch.rows[-1] == Q0_ID
        assert all(r >= 0 for r in ch.rows[:-1])
        # consecutive members touch (or end at the reservoir)
        for a, b in zip(ch.rows[:-1], ch.rows[1:]):
            if b == Q0_ID:
                assert q0[a]
            else:
                assert cubes_touch(wt.cubes[a], wt.cubes[b])
        src = wt.cubes[t]
        for r in ch.rows[:-1]:
            c = wt.cubes[r]
            assert c.gen <= src.gen
            assert projection_contains(c, src, drop_axis=wt.n - 1)
        if checked >= 60:
            break
    assert checked >= 40


def _neighbours(wt):
    """row -> ascending rows of the cubes touching it, from the edge arrays."""
    adj = {r: [] for r in range(len(wt))}
    edges = wt.adjacency()
    for r, s in zip(edges["u"].tolist(), edges["v"].tolist()):
        adj[r].append(s)
        adj[s].append(r)
    return {r: sorted(nbrs) for r, nbrs in adj.items()}


def _chain_reference(wt, a, adj):
    """Breadth-first search over wt's touching graph adj (from _neighbours),
    as (rows, found).

    Nodes are complement cube rows and Q0_ID, restricted to the cubes no
    finer than the source whose projection contains the source's;
    neighbours in ascending row order, Q0_ID first from a q0_adjacent cube.
    """
    n = wt.n
    shift = int(wt.gen[a]) - wt.gen
    ok = shift >= 0
    anc = wt.idx[a, : n - 1] >> np.where(ok, shift, 0)[:, None]
    rows = np.flatnonzero(ok & np.all(wt.idx[:, : n - 1] == anc, axis=1))
    allowed = set(rows.tolist()) | {Q0_ID}
    q0_set = set(rows[q0_adjacent(wt.gen[rows], wt.idx[rows])].tolist())
    prev = {a: None}
    dq = deque([a])
    while dq:
        cur = dq.popleft()
        if cur == Q0_ID:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return path[::-1], True
        out = adj[cur]
        if cur in q0_set:
            out = [Q0_ID] + out
        for nxt in out:
            if nxt not in prev and nxt in allowed:
                prev[nxt] = cur
                dq.append(nxt)
    return [], False


def _assert_chains_match_reference(wt, sources):
    adj = _neighbours(wt)
    for a in sources:
        ch = chain(wt, a)
        assert (ch.rows, ch.found) == _chain_reference(wt, a, adj), a


def test_chain_matches_reference(decs):
    """The column walk equals the breadth-first search on every row."""
    _, wt = decs
    _assert_chains_match_reference(wt, range(len(wt)))
    wt3 = whitney_decompose(region_spec("Omega_lambda", lam=LAM, n=3), 4)
    _assert_chains_match_reference(wt3, range(len(wt3)))


def _hand_built(cubes):
    """A planar decomposition of the given (gen, idx) cubes, rows in order."""
    gen = np.array([g for g, _ in cubes], dtype=np.int64)
    idx = np.array([i for _, i in cubes], dtype=np.int64)
    perm = order(gen, idx)
    return WhitneyDecomposition(
        oracle=None, n=2, gen=gen[perm], idx=idx[perm],
        lo_q=np.zeros(len(gen)), hi_q=np.zeros(len(gen)),
        frontier_gen=np.zeros(0, dtype=np.int64),
        frontier_idx=np.zeros((0, 2), dtype=np.int64),
        frontier_stranded=np.zeros(0, dtype=bool))


@pytest.mark.parametrize("cubes, source, want", [
    # over x in [0, 1/4]: four cubes down to x_n = -1 and four up to the
    # gen-1 cube on x_n = 1, both q0_adjacent; the first steps are both
    # gen 2, and (0, -2) is the smaller row, so the chain goes down; the
    # neighbour (1, -1) lies outside the column
    ([(2, (0, -4)), (2, (0, -3)), (2, (0, -2)), (2, (0, -1)), (2, (0, 0)),
      (2, (0, 1)), (1, (0, 1)), (2, (1, -1))], (2, (0, -1)),
     [(2, (0, -1)), (2, (0, -2)), (2, (0, -3)), (2, (0, -4))]),
    # a gen-3 source with four-cube runs each way: the upward first step is
    # gen 2, a smaller row than the downward gen-3 step, so it goes up
    ([(1, (0, -2)), (2, (0, -2)), (3, (0, -2)), (3, (0, -1)), (2, (0, 0)),
      (2, (0, 1)), (1, (0, 1))], (3, (0, -1)),
     [(3, (0, -1)), (2, (0, 0)), (2, (0, 1)), (1, (0, 1))]),
    # a gap in x_n below, no q0_adjacent cube above: no chain
    ([(2, (0, -4)), (2, (0, -2)), (2, (0, -1)), (2, (0, 0))], (2, (0, -1)),
     None),
])
def test_chain_tie_goes_to_smaller_first_step(cubes, source, want):
    """Equal runs up and down: the breadth-first search's choice."""
    wt = _hand_built(cubes)
    a = int(wt.index.find(source[0], np.array([source[1]]))[0])
    _assert_chains_match_reference(wt, range(len(wt)))
    ch = chain(wt, a)
    if want is None:
        assert ch.rows == [] and not ch.found
    else:
        assert ch.found and ch.rows[-1] == Q0_ID
        assert [(wt.cubes[r].gen, wt.cubes[r].idx) for r in ch.rows[:-1]] == want


def test_claim_count_runs(decs):
    w, wt = decs
    ra = reflect_assign(w, wt)
    res = claim_count(w, wt, ra, k_max=3)
    assert res.sources > 0
    assert set(res.counts) == {0, 1, 2, 3}
    assert res.counts[0] >= 1
    # counts are maxima of per-cube loads
    for k in res.counts:
        loads = [v for (r, kk), v in res.per_cube.items() if kk == k]
        assert res.counts[k] == (max(loads) if loads else 0)


def test_claim_count_per_cube_pinned(decs):
    """The chain load of every (complement cube, k), not only the maxima."""
    w, wt = decs
    res = claim_count(w, wt, reflect_assign(w, wt), k_max=4)
    loads = sorted((wt.cubes[r].gen, wt.cubes[r].idx, k, v)
                   for (r, k), v in res.per_cube.items())
    assert len(loads) == 736
    assert hashlib.sha256(repr(loads).encode()).hexdigest() == PER_CUBE_SHA


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tent_rhombi_are_images_of_the_first(k):
    """At lambda = 2^-k, N's resolved cubes over each gap of levels 1 and 2
    are the exact image of those over the level-0 gap (1 - 2 lambda).

    At n = 2 N's interior is a disjoint union of open rhombi, one over each
    gap of K, and x -> lambda x, x -> lambda x + (1 - lambda) map the rhombus
    over a gap onto those over its two children.  They map generation-g
    dyadic cubes onto generation g + k ones, and the Whitney rule is scale
    covariant, so a level-j rhombus holds the level-0 rhombus's cubes of
    generation <= max_gen - jk, moved.  A resolved cube lies in one rhombus,
    the one over the gap that holds its centre.
    """
    lam, max_gen = 2.0 ** -k, 12
    dec = whitney_decompose(region_spec("N_lambda", lam=lam), max_gen)
    gen, idx = dec.gen.tolist(), dec.idx.tolist()
    cx = (dec.idx[:, 0] + 0.5) * sides(dec.gen)

    def rhombus(a, length):
        """The cubes over the gap of the construction interval [a, a + length]."""
        rows = np.flatnonzero((cx > a + lam * length)
                              & (cx < a + length - lam * length))
        return {(gen[r], tuple(idx[r])) for r in rows.tolist()}

    base = rhombus(0.0, 1.0)
    assert len(base) > 1000
    lefts = [0.0]
    for j in (1, 2):
        lefts = [a + b for a in lefts for b in (0.0, (1.0 - lam) * lam ** (j - 1))]
        s = j * k
        for a in lefts:
            image = {(g + s, (i + int(a * 2 ** (g + s)), i_n))
                     for g, (i, i_n) in base if g + s <= max_gen}
            assert image and rhombus(a, lam ** j) == image


def test_window_decomposition():
    rn = region_spec("N_lambda", lam=LAM)
    w = whitney_decompose(rn, max_gen=8, window=((0.4, 0.1), (0.6, 0.3)))
    assert len(w) > 0
    for c in w.cubes:
        assert np.all(c.hi >= [0.4, 0.1]) and np.all(c.lo <= [0.6, 0.3])


def test_claim_count_k1_configuration(decs):
    """The k=1 maximum c_1 = 3 at lam=1/4 is a local multiplicity.

    Complement cube (5, (11, -8)) collects the chains of three gen-6
    sources from two adjacent columns in the left half of the first gap
    (1/4, 3/4): (22, -2), and the stacked pair (23, -2), (23, -3), which
    share the reflected cube (6, (23, -12)).
    """
    w, wt = decs
    ra = reflect_assign(w, wt)
    res = claim_count(w, wt, ra, k_max=1)
    hub = int(wt.index.find(5, np.array([[11, -8]]))[0])
    assert res.counts[1] == 3
    assert res.per_cube[(hub, 1)] == 3
    central, adj = central_mask(w), w.adjacency()
    u, v = adj["u"], adj["v"]
    reflected = {}
    for idx in ((22, -2), (23, -2), (23, -3)):
        r = int(w.index.find(6, np.array([idx]))[0])
        # a source: outside the central family, touching it, reflected
        assert not central[r]
        assert central[np.concatenate((v[u == r], u[v == r]))].any()
        t = int(ra.target[r])
        assert t >= 0
        assert hub in chain(wt, t).rows
        reflected[idx] = wt.cubes[t]
    # three distinct sources on a load of 3: these are all of them
    assert reflected[(23, -2)] == reflected[(23, -3)] == DyadicCube(6, (23, -12))
    assert reflected[(22, -2)] != reflected[(23, -2)]


def test_claim_count_sources_brute_force(decs):
    """The sources are the rows outside the central family, with a
    reflected cube, that touch some central cube; found by all pairs."""
    w, wt = decs
    ra = reflect_assign(w, wt)
    central = central_mask(w)
    cubes = list(w.cubes)
    hubs = [cubes[r] for r in np.flatnonzero(central)]
    want = sum(any(cubes_touch(cubes[r], c) for c in hubs)
               for r in np.flatnonzero(~central & (ra.target >= 0)))
    assert want > 0
    assert claim_count(w, wt, ra, k_max=1).sources == want
