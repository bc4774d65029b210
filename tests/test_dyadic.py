"""Tests for exact dyadic cube arithmetic."""

import numpy as np
import pytest

from cantorslit.dyadic import (
    DyadicCube,
    cubes_touch,
    face_adjacent,
    inside_open_box,
    meets_box,
    overlap_lengths,
    projection_contains,
    root_cubes_covering,
)


def test_basic_geometry():
    c = DyadicCube(gen=2, idx=(1, -3))
    assert c.side == 0.25
    assert np.allclose(c.lo, [0.25, -0.75])
    assert np.allclose(c.hi, [0.5, -0.5])
    assert np.allclose(c.center, [0.375, -0.625])


def test_children_parent_roundtrip():
    c = DyadicCube(gen=3, idx=(5, -2))
    kids = c.children()
    assert len(kids) == 4
    for k in kids:
        assert k.parent() == c
        assert c.contains_cube(k)
    assert c.parent().contains_cube(c)


def test_contains_point():
    c = DyadicCube(gen=1, idx=(0, 0))
    assert c.contains_point([0.5, 0.5])
    assert c.contains_point([0.25, 0.0], closed=True)
    assert not c.contains_point([0.25, 0.0], closed=False)
    assert not c.contains_point([0.75, 0.25])


def test_touching_and_faces():
    a = DyadicCube(gen=2, idx=(0, 0))
    b = DyadicCube(gen=2, idx=(1, 0))   # shares a face
    d = DyadicCube(gen=2, idx=(1, 1))   # shares a corner
    e = DyadicCube(gen=2, idx=(2, 0))   # disjoint
    assert cubes_touch(a, b) and face_adjacent(a, b)
    assert cubes_touch(a, d) and not face_adjacent(a, d)
    assert not cubes_touch(a, e)
    # cross-generation face contact
    f = DyadicCube(gen=3, idx=(2, 0))
    assert cubes_touch(a, f) and face_adjacent(a, f)
    ov = overlap_lengths(a, b)
    assert ov is not None and ov[0] == 0 and ov[1] > 0


def test_projection_contains():
    big = DyadicCube(gen=1, idx=(0, 1))
    small = DyadicCube(gen=2, idx=(1, -1))
    assert projection_contains(big, small, drop_axis=1)
    far = DyadicCube(gen=2, idx=(3, -1))
    assert not projection_contains(big, far, drop_axis=1)


def test_boxes_and_hyperplanes():
    c = DyadicCube(gen=2, idx=(1, 1))
    assert meets_box(c, [0.0, 0.0], [1.0, 1.0])
    assert not meets_box(c, [0.6, 0.6], [1.0, 1.0], closed=False)
    assert inside_open_box(c, [0.0, 0.0], [1.0, 1.0])
    assert not inside_open_box(c, [0.3, 0.3], [1.0, 1.0])


def test_root_cover():
    roots = root_cubes_covering([-1.0, -1.0], [1.0, 1.0], 2)
    assert len(roots) == 4
    los = sorted(tuple(r.idx) for r in roots)
    assert los == [(-1, -1), (-1, 0), (0, -1), (0, 0)]


def test_ordering_deterministic():
    cubes = [DyadicCube(gen=2, idx=(i, j)) for i in (1, 0) for j in (1, 0)]
    s = sorted(cubes)
    assert s[0].idx == (0, 0) and s[-1].idx == (1, 1)


def test_invalid_cube():
    with pytest.raises(ValueError):
        DyadicCube(gen=-1, idx=(0, 0))
