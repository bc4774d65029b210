"""Tests for region membership, components, and two-sided points."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorslit import regions
from cantorslit.cantor import CantorSpec, k_distance_many
from cantorslit.regions import (
    RegionSpec,
    component_label,
    membership_grid,
    region_membership,
    region_membership_many,
    region_spec,
    two_sided_sample,
)
from cantorslit.whitney import oracle_for


def spec_omega(lam=0.25, n=2):
    return region_spec("Omega_lambda", lam=lam, n=n)


def test_d_membership():
    d = region_spec("D")
    assert region_membership(d, [-1.5, 0.0])
    assert region_membership(d, [0.5, 1.2])
    assert not region_membership(d, [-0.5, 0.0])      # inside the notch
    assert not region_membership(d, [0.5, 1.6])       # above the box
    assert not region_membership(d, [-2.5, 0.0])      # left of the box


def test_tent_membership():
    nl = region_spec("N_lambda", lam=0.25)
    # at x' = 1/2 the tent height is 1/4
    assert region_membership(nl, [0.5, 0.2])
    assert not region_membership(nl, [0.5, 0.3])
    # on the Cantor set the tent pinches to the plane
    assert region_membership(nl, [0.25, 0.0])
    assert not region_membership(nl, [0.25, 0.01])


def test_omega_is_d_minus_tent():
    om = spec_omega()
    d = region_spec("D")
    nl = region_spec("N_lambda", lam=0.25)
    rng = np.random.default_rng(3)
    pts = rng.uniform([-2.2, -1.7], [1.2, 1.7], size=(400, 2))
    for x in pts:
        expect = region_membership(d, x) and not region_membership(nl, x)
        assert region_membership(om, x) == expect


def test_membership_many_matches_scalar():
    for kind, lam in (("Omega_lambda", 0.25), ("N_lambda", 0.125), ("D", None)):
        sp = region_spec(kind, lam=lam)
        rng = np.random.default_rng(11)
        pts = rng.uniform([-2.2, -1.7], [1.2, 1.7], size=(300, 2))
        many = region_membership_many(sp, pts)
        for x, m in zip(pts, many):
            assert region_membership(sp, x) == bool(m)


def test_membership_grid_matches_points():
    sp = spec_omega()
    axes = [np.linspace(-1.9, 0.9, 41), np.linspace(-1.4, 1.4, 37)]
    grid = membership_grid(sp, axes)
    assert grid.shape == (41, 37)
    for i in (0, 13, 40):
        for j in (0, 18, 36):
            assert grid[i, j] == region_membership(sp, [axes[0][i], axes[1][j]])


def test_q0_profile():
    q0 = region_spec("Q0_tilde")
    assert region_membership(q0, [-1.5, 0.0])
    assert not region_membership(q0, [0.5, 0.5])      # inside [-1,1]^2
    assert region_membership(q0, [0.5, 1.2])


@pytest.mark.parametrize("n, lam, step, box, size, seed", [
    (2, 0.25, 2.0 ** -14, ([0.0, -0.5], [1.0, 0.5]), 50, 5),
    (3, 0.25, 2.0 ** -8, ([-0.2, -0.2, -0.4], [1.2, 1.2, 0.4]), 60, 5),
    (3, 0.125, 2.0 ** -8, ([-0.2, -0.2, -0.4], [1.2, 1.2, 0.4]), 60, 5),
], ids=["n2-lam0.25", "n3-lam0.25", "n3-lam0.125"])
def test_boundary_distance_bracket(n, lam, step, box, size, seed):
    nl = region_spec("N_lambda", lam=lam, n=n)
    X = np.random.default_rng(seed).uniform(*box, size=(size, n))
    lo, hi, _ = oracle_for(nl).bracket_many(X)
    assert np.all((0.0 <= lo) & (lo <= hi))
    # brute force over the tent boundary: the graph {|x_n| = g(x')} sampled
    # on [0,1]^(n-1), and the lateral faces x_i in {0,1}, |x_n| <= g, as
    # vertical segments over their sampled edges (single points at n=2)
    s = np.arange(0.0, 1.0 + step, step)
    graph = np.stack([a.ravel() for a in
                      np.meshgrid(*[s] * (n - 1), indexing="ij")], axis=1)
    edges = []
    for i in range(n - 1):
        for c in (0.0, 1.0):
            edge = graph[graph[:, i] == 0.0].copy()
            edge[:, i] = c
            edges.append(edge)
    edges = np.concatenate(edges)

    def height(P):
        return np.sqrt(sum(k_distance_many(c, nl.cantor) ** 2 for c in P.T))

    g, ge = height(graph), height(edges)
    brute = np.array([min(
        np.sqrt(np.sum((x[:-1] - graph) ** 2, axis=1)
                + (abs(x[-1]) - g) ** 2).min(),
        np.sqrt(np.sum((x[:-1] - edges) ** 2, axis=1)
                + np.maximum(abs(x[-1]) - ge, 0.0) ** 2).min()) for x in X])
    assert np.all(lo <= brute + 2.0 ** -30)
    assert np.all(brute <= hi + (n - 1) * step)


def test_component_label_splits_pinch():
    sp = spec_omega()
    cm = component_label(sp, (0.0, 0.0), 0.25, 0.25 / 128)
    up = cm.label_at((cm.h, 4 * cm.h))
    dn = cm.label_at((cm.h, -4 * cm.h))
    assert up >= 0 and dn >= 0
    assert up != dn
    assert cm.count >= 2
    assert cm.side_labels((0.0, 0.0)) == (up, dn)


def test_label_at_many_matches_points():
    cm = component_label(spec_omega(n=3), (0.0, 0.0, 0.0), 0.25, 0.25 / 32)
    rng = np.random.default_rng(4)
    # about three quarters of the points fall outside the window's grid
    X = rng.uniform(-0.4, 0.4, (300, 3))
    got = cm.label_at(X)
    want = []
    for x in X:
        idx = np.floor((x - cm.origin) / cm.h).astype(int)
        on = np.all((idx >= 0) & (idx < cm.labels.shape))
        want.append(cm.labels[tuple(idx)] if on else -1)
    assert got.shape == (300,)
    assert got.tolist() == want
    assert [cm.label_at(x) for x in X] == want
    assert (got == -1).any() and (got >= 0).any()
    assert cm.label_at(X.reshape(10, 30, 3)).tolist() == \
        np.reshape(want, (10, 30)).tolist()


@pytest.mark.parametrize("center, radius, n", [
    ((0.5, 0.0), 0.3, 2), ((0.0, 0.0, 0.0), 0.25, 3)])
def test_component_label_numbers_by_first_appearance(center, radius, n):
    cm = component_label(spec_omega(lam=0.125, n=n), center, radius,
                         radius / 32)
    flat = cm.labels.ravel()
    _, first = np.unique(flat, return_index=True)
    order = flat[np.sort(first)]
    assert cm.count >= 2
    assert order[order >= 0].tolist() == list(range(cm.count))


def _label_by_scan(mask):
    """Face-connected components numbered 1.. in the order of their first
    cell in a C-order scan, by breadth-first search; 0 off the mask."""
    out = np.zeros(mask.shape, dtype=int)
    count = 0
    for start in zip(*np.nonzero(mask)):   # np.nonzero scans in C order
        if out[start]:
            continue
        count += 1
        out[start] = count
        todo = deque([start])
        while todo:
            cell = todo.popleft()
            for axis in range(mask.ndim):
                for step in (-1, 1):
                    nb = list(cell)
                    nb[axis] += step
                    nb = tuple(nb)
                    if (0 <= nb[axis] < mask.shape[axis] and mask[nb]
                            and not out[nb]):
                        out[nb] = count
                        todo.append(nb)
    return out, count


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from((2, 3)), data=st.data())
def test_label_numbers_components_in_c_order(n, data):
    # component_label keeps ndimage.label's numbering, so the scipy it runs
    # on must number components by their first cell in C order
    shape = tuple(data.draw(st.lists(st.integers(1, 16 if n == 2 else 8),
                                     min_size=n, max_size=n)))
    fill = data.draw(st.sampled_from((0.3, 0.5, 0.6)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    mask = np.random.default_rng(seed).random(shape) < fill
    structure = regions.ndimage.generate_binary_structure(n, 1)
    got, count = regions.ndimage.label(mask, structure=structure)
    want, want_count = _label_by_scan(mask)
    assert count == want_count
    assert np.array_equal(got, want)


def test_component_label_connected_away_from_slit():
    sp = spec_omega()
    cm = component_label(sp, (-1.5, 0.0), 0.2, 0.2 / 64)
    a = cm.label_at((-1.55, 0.05))
    b = cm.label_at((-1.45, -0.05))
    assert a == b >= 0


def test_two_sided_sample_depth_one():
    sp = spec_omega()
    sample = two_sided_sample(sp, depth=1)
    assert sample.points.shape[0] == 2
    assert all(sample.verified), sample.failures


def test_region_spec_validation():
    with pytest.raises(ValueError):
        region_spec("N_lambda")            # needs a Cantor spec
    with pytest.raises(ValueError):
        RegionSpec("Omega2", n=3, cantor=CantorSpec(lam=0.25))
    with pytest.raises(ValueError):
        region_spec("bogus", lam=0.25)
    # Omega2 reads only a variable-ratio set, so lam builds none
    assert region_spec("Omega2", lam=0.25).cantor is None
    with pytest.raises(ValueError, match="variable-ratio"):
        RegionSpec("Omega2", cantor=CantorSpec(lam=0.25))


# (kind, n, lambda): every region kind, with n=3 for all but the planar Omega2
MEMBERSHIP_CASES = [(k, n, 0.25 if k in ("N_lambda", "Omega_lambda") else None)
                    for n in (2, 3)
                    for k in ("D", "Q0_tilde", "N_lambda", "Omega_lambda")
                    ] + [("Omega2", 2, None)]

# profile points (x_{n-1}, x_n) where < versus <= decides: box faces, notch
# faces and corners, slab faces, and the tent graph over the gap midpoint
# 1/2 of C(1/4), where the height is exactly 1/4
PROFILE = {
    "D": {(-2.0, 0.0): False, (0.99, 0.0): True, (1.0, 0.0): False,
          (-1.5, 1.5): False, (-1.5, -1.4): True, (-1.0, 0.0): False,
          (-1.01, 0.0): True, (0.0, 0.5): False, (0.01, 0.5): True,
          (-0.5, 1.0): False, (-0.5, -1.01): True, (0.0, 1.0): False},
    "Q0_tilde": {(-1.5, 0.0): True, (0.5, 0.5): False, (0.5, 1.0): False,
                 (0.5, 1.2): True, (-1.0, 1.01): True, (-2.0, 0.0): False},
    "N_lambda": {(0.5, 0.25): True, (0.5, -0.25): True, (0.5, 0.2500001): False,
                 (0.25, 0.0): True, (0.25, 0.01): False, (0.0, 0.0): True,
                 (1.0, 0.0): True, (1.0001, 0.0): False, (-0.0001, 0.0): False,
                 (0.5, 1.0): False},
    "Omega_lambda": {(0.5, 0.25): False, (0.5, -0.25): False, (0.5, 0.3): True,
                     (0.25, 0.0): False, (0.25, -0.01): True, (0.0, 0.0): False,
                     (1.0, 0.0): False, (-1.5, 0.0): True, (0.9, 1.5): False},
    # the fat/thin set's first gap is (1/3, 2/3); open square (-1,1)^2
    "Omega2": {(-1.0, 0.0): False, (0.5, 0.9): True, (-0.5, 0.0): True,
               (0.0, 0.0): False, (0.5, 0.1): False, (0.5, 0.2): True,
               (0.5, 1.0): False, (1.0, 0.5): False},
}


@pytest.mark.parametrize("kind,n,lam", MEMBERSHIP_CASES)
def test_membership_forms_agree(kind, n, lam):
    sp = region_spec(kind, lam=lam, n=n)
    # lifted to n=3 by x_1 = 1/4, a point of C(1/4) inside (0,1): the tent
    # height and every face stay those of the profile
    lift = (0.25,) * (n - 2)
    expected = {lift + p: m for p, m in PROFILE[kind].items()}
    if n == 3:
        # prefix faces: D, Q0_tilde and Omega are open in x_1, N is closed
        in_n = kind == "N_lambda"
        expected.update({(0.0, 0.5, 0.5): False, (1.0, 0.5, 0.5): False,
                         (0.0, 0.25, 0.0): in_n, (1.0, 0.75, 0.0): in_n})
        if kind in ("N_lambda", "Omega_lambda"):
            # the tent graph over the gap midpoints (1/2, 1/2)
            h = float(np.sqrt(0.25 ** 2 + 0.25 ** 2))
            expected.update({(0.5, 0.5, h): in_n, (0.5, 0.5, -h): in_n,
                             (0.5, 0.5, 0.3536): not in_n})
    box = sp.bbox
    rng = np.random.default_rng(17)
    pts = np.concatenate([np.array(list(expected)),
                          rng.uniform(box[0] - 0.2, box[1] + 0.2, (30, n))])
    scalar = np.array([region_membership(sp, x) for x in pts])
    assert list(scalar[:len(expected)]) == list(expected.values())
    assert np.array_equal(region_membership_many(sp, pts), scalar)
    axes = [np.unique(pts[:, i]) for i in range(n)]
    grid = membership_grid(sp, axes)
    assert grid.shape == tuple(len(a) for a in axes)
    cells = tuple(np.searchsorted(axes[i], pts[:, i]) for i in range(n))
    assert np.array_equal(grid[cells], scalar)
