"""Tests for exact dyadic cube arithmetic."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorslit.dyadic import (
    CubeIndex,
    CubeView,
    DyadicCube,
    cubes_touch,
    meets_window,
    order,
    overlap_lengths,
    projection_contains,
    sides,
    subdivide,
)


def test_basic_geometry():
    c = DyadicCube(gen=2, idx=(1, -3))
    assert c.side == 0.25
    assert np.allclose(c.lo, [0.25, -0.75])
    assert np.allclose(c.hi, [0.5, -0.5])
    assert np.allclose(c.center, [0.375, -0.625])


def test_children_parent_roundtrip():
    idx = np.array([[5, -2], [0, 0]], dtype=np.int64)
    kids = subdivide(idx)
    assert kids.shape == (8, 2)
    # each row's four children shift back to it, and lie inside it
    assert np.array_equal(kids >> 1, np.repeat(idx, 4, axis=0))
    parent = DyadicCube(3, (5, -2))
    for k in kids[:4].tolist():
        child = DyadicCube(4, tuple(k))
        assert np.all(parent.lo <= child.lo) and np.all(child.hi <= parent.hi)
    assert sorted(map(tuple, kids[:4].tolist())) == [
        (10, -4), (10, -3), (11, -4), (11, -3)]


def test_touching_and_faces():
    a = DyadicCube(gen=2, idx=(0, 0))
    b = DyadicCube(gen=2, idx=(1, 0))   # shares a face
    d = DyadicCube(gen=2, idx=(1, 1))   # shares a corner
    e = DyadicCube(gen=2, idx=(2, 0))   # disjoint
    # a face meets in one zero-length axis, a corner in all of them
    assert cubes_touch(a, b) and overlap_lengths(a, b).count(0) == 1
    assert cubes_touch(a, d) and overlap_lengths(a, d).count(0) == 2
    assert not cubes_touch(a, e) and overlap_lengths(a, e) is None
    # cross-generation face contact
    f = DyadicCube(gen=3, idx=(2, 0))
    assert cubes_touch(a, f) and overlap_lengths(a, f).count(0) == 1
    ov = overlap_lengths(a, b)
    assert ov is not None and ov[0] == 0 and ov[1] > 0


def test_projection_contains():
    big = DyadicCube(gen=1, idx=(0, 1))
    small = DyadicCube(gen=2, idx=(1, -1))
    assert projection_contains(big, small, drop_axis=1)
    far = DyadicCube(gen=2, idx=(3, -1))
    assert not projection_contains(big, far, drop_axis=1)


def test_boxes_and_hyperplanes():
    idx = np.array([[1, 1]], dtype=np.int64)     # [1/4, 1/2]^2 at gen 2
    assert meets_window(2, idx, [0.0, 0.0], [1.0, 1.0])[0]
    assert not meets_window(2, idx, [0.6, 0.6], [1.0, 1.0])[0]
    # closed test: a box touching the cube's corner meets it
    assert meets_window(2, idx, [0.5, 0.5], [1.0, 1.0])[0]
    # per-row generations
    got = meets_window(np.array([0, 3]), np.array([[0, 0], [0, 0]]),
                       [0.2, 0.2], [0.3, 0.3])
    assert got.tolist() == [True, False]


def test_ordering_deterministic():
    cubes = [DyadicCube(gen=2, idx=(i, j)) for i in (1, 0) for j in (1, 0)]
    s = sorted(cubes)
    assert s[0].idx == (0, 0) and s[-1].idx == (1, 1)
    # the array order is the DyadicCube order
    rng = np.random.default_rng(3)
    gen = rng.integers(0, 4, size=200)
    idx = rng.integers(-5, 5, size=(200, 3))
    perm = order(gen, idx)
    view = list(CubeView(gen[perm], idx[perm]))
    assert view == sorted(CubeView(gen, idx))


def test_cube_index_lookup():
    rng = np.random.default_rng(4)
    gen = rng.integers(0, 5, size=300)
    idx = rng.integers(-40, 40, size=(300, 2))
    keep = np.unique(np.column_stack([gen, idx]), axis=0, return_index=True)[1]
    gen, idx = gen[keep], idx[keep]
    perm = order(gen, idx)
    gen, idx = gen[perm], idx[perm]
    index = CubeIndex(gen, idx)
    rows = {(g, tuple(r)): i for i, (g, r) in
            enumerate(zip(gen.tolist(), idx.tolist()))}
    q = rng.integers(-45, 45, size=(500, 2))
    for g in range(-1, 6):
        got = index.find(g, q).tolist()
        assert got == [rows.get((g, tuple(r)), -1) for r in q.tolist()]
    assert np.array_equal(sides(np.array([0, 3])), [1.0, 0.125])


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 300), span=st.integers(1, 5))
def test_cube_index_column(n, seed, size, span):
    """column(g, h) is the run of rows a full scan of g's block finds.

    Random cube sets of generations 0..3 in (gen, idx) order; generation 1
    holds cubes over h_0 = -1 and 1 but none over h_0 = 0, so some h inside
    its horizontal range has no cube.  Every h over the range grown by one
    on each side is asked, and generations -1 and 4 have no block: all
    those runs must be empty.  One call with an array of generations
    broadcast against h gives each generation's runs.
    """
    rng = np.random.default_rng(seed)
    gen = rng.integers(0, 4, size=size)
    idx = rng.integers(-span, span + 1, size=(size, n))
    idx[gen == 1, 0] = np.where(idx[gen == 1, 0] == 0, 1, idx[gen == 1, 0])
    gen = np.append(gen, [1, 1])
    idx = np.concatenate([idx, np.full((2, n), -1)])
    idx[-1, 0] = 1
    keep = np.unique(np.column_stack([gen, idx]), axis=0, return_index=True)[1]
    perm = order(gen[keep], idx[keep])
    gen, idx = gen[keep][perm], idx[keep][perm]
    index = CubeIndex(gen, idx)
    empty_inside = outside = 0
    every_h = np.array(list(product(range(-span - 1, span + 2), repeat=n - 1)),
                       dtype=np.int64)
    every_g = index.column(np.arange(-1, 5)[:, None], every_h)
    for g in range(-1, 5):
        a, b = index.blocks.get(g, (0, 0))
        # all of g's columns in one call: the one-row answers, row by row
        runs = index.column(g, every_h)
        assert runs.shape == (2, len(every_h))
        assert np.array_equal(every_g[:, g + 1], runs)
        for h, run in zip(every_h, runs.T):
            want = a + np.flatnonzero(np.all(idx[a:b, :-1] == h, axis=1))
            start, stop = index.column(g, h)
            assert np.array_equal(np.arange(start, stop), want)
            assert np.array_equal(np.arange(*run), want)
            if b > a and not len(want):
                lo, hi = idx[a:b, :-1].min(axis=0), idx[a:b, :-1].max(axis=0)
                inside = np.all((lo <= h) & (h <= hi))
                empty_inside += int(inside)
                outside += int(not inside)
    assert empty_inside > 0 and outside > 0


def test_cube_index_refuses_to_wrap():
    gen = np.zeros(2, dtype=np.int64)
    with pytest.raises(OverflowError):
        CubeIndex(gen, np.array([[0, 0], [2 ** 40, 2 ** 40]], dtype=np.int64))
    # 2^31 x 2^32 keys still fit
    CubeIndex(gen, np.array([[0, 0], [2 ** 31 - 1, 2 ** 32 - 1]], dtype=np.int64))
    with pytest.raises(ValueError):
        CubeIndex(gen, np.array([[1, 0], [0, 0]], dtype=np.int64))


def test_invalid_cube():
    with pytest.raises(ValueError):
        DyadicCube(gen=-1, idx=(0, 0))
