"""Tests for the reflection extension operator and its closed-form factors."""

import math
import re
import warnings
from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorslit.extension as extension
from cantorslit.cantor import CantorSpec
from cantorslit.dyadic import DyadicCube
from cantorslit.extension import (
    ExtensionAssembly,
    _bump_profile,
    assemble,
    bound_report,
    cube_average,
    d_factor,
    extend,
    finest_gen,
    gap_midpoints,
    jump_ratio,
    jump_test_function,
    norm_factor,
    origin_jump,
    partition_of_unity,
    point_extend,
    ratio_p,
    thm_upper_curve,
    trace_mismatch,
)
from cantorslit.fields import (GridField, _grid_axes, _stack_centers,
                               grid_sample, gradient, seminorm_p)
from cantorslit.regions import (RegionSpec, _cells_in_box, membership_grid,
                                region_membership_many, region_spec)
from cantorslit.whitney import Q0_ID, UNASSIGNED, whitney_decompose

LAM = 0.25
H = 2.0 ** -9


@pytest.fixture(scope="module")
def asm():
    return assemble(LAM, n=2, max_gen=6)


def _pou_reference(dec, h, bbox):
    """The per-cube loop: each bump added on its clipped support slices."""
    shape = tuple(int(round((bbox[1, i] - bbox[0, i]) / h)) for i in range(dec.n))
    total = np.zeros(shape)
    for cube in dec.cubes:
        pad = cube.side / 16.0
        a = np.maximum(0, np.floor((cube.lo - pad - bbox[0]) / h).astype(int))
        b = np.minimum(shape, np.ceil((cube.hi + pad - bbox[0]) / h).astype(int))
        if np.any(b <= a):
            continue
        phi = np.ones(())
        for ax in range(dec.n):
            coords = bbox[0, ax] + (np.arange(a[ax], b[ax]) + 0.5) * h
            phi = np.multiply.outer(phi, _bump_profile(coords, cube.center[ax],
                                                       cube.side))
        total[tuple(slice(i, j) for i, j in zip(a, b))] += phi
    return total


def test_pou_matches_reference(asm):
    win3 = np.array([[0.0, 0.0, -0.25], [0.5, 0.5, 0.25]])
    w3 = whitney_decompose(region_spec("N_lambda", lam=LAM, n=3), 5,
                           window=win3)
    cases = [
        (asm.w, H, asm.region_n.bbox),      # tent bbox: edge cubes clipped
        (asm.w, H, asm.region_omega.bbox),
        (asm.w, H, np.array([[0.1, -0.2], [0.6, 0.3]])),  # off the cube grid
        (w3, 2.0 ** -8, win3),
    ]
    for dec, h, bbox in cases:
        pou = partition_of_unity(dec, h, bbox)
        ref = _pou_reference(dec, h, bbox)
        assert pou.total.shape == ref.shape
        assert pou.total.tobytes() == ref.tobytes()
        assert np.all(np.diff(pou.rows) >= 0)     # (gen, idx) cube order
        assert np.all(pou.phi > 0.0)              # no support-edge zeros
        # normalised weights sum to 1 wherever the grid is covered
        total = pou.total.ravel()
        covered = total > 0.0
        keep = covered[pou.cells]
        norm = np.bincount(pou.cells[keep],
                           pou.phi[keep] / total[pou.cells[keep]],
                           minlength=total.size)
        assert covered.any()
        assert np.allclose(norm[covered], 1.0, atol=1e-12)


def test_pou_box_matches_whole_grid(asm):
    """A box's table is the whole grid's entries in the box, renumbered."""
    bbox = np.array([[-0.25, -0.5], [0.75, 0.5]])
    h = 1.0 / 640.0  # not dyadic
    axes = _grid_axes(bbox, h)
    full = partition_of_unity(asm.w, h, bbox)
    shape = full.total.shape
    on_centers = ((axes[0][160], axes[1][7]), (axes[0][400], axes[1][300]))
    assert _cells_in_box(axes, *on_centers) == (slice(160, 401),
                                                slice(7, 301))
    for lo, hi in (((0.0, -0.3), (0.41, 0.2)), ((-1.0, -1.0), (2.0, 0.0)),
                   ((2.0, 0.0), (3.0, 1.0)), on_centers):
        box = _cells_in_box(axes, lo, hi)
        pou = partition_of_unity(asm.w, h, bbox, box)
        assert pou.total.tobytes() == full.total[box].tobytes()
        at = np.unravel_index(full.cells, shape)
        keep = np.ones(len(full.cells), dtype=bool)
        for i, s in zip(at, box):
            keep &= (i >= s.start) & (i < s.stop)
        sub = np.ravel_multi_index(
            tuple(i[keep] - s.start for i, s in zip(at, box)),
            pou.total.shape)
        assert np.array_equal(pou.cells, sub)
        assert pou.phi.tobytes() == full.phi[keep].tobytes()
        assert np.array_equal(pou.rows, full.rows[keep])


def test_pou_rejects_coarse_grid(asm):
    with pytest.raises(ValueError):
        partition_of_unity(asm.w, 2.0 ** -5, asm.region_n.bbox)


@pytest.mark.parametrize("g", range(4, 21))
def test_finest_gen_on_powers_of_two(g):
    assert finest_gen(2.0 ** -(g + 3)) == g


@settings(max_examples=300, deadline=None)
@given(m=st.integers(384, 24576))
def test_finest_gen_is_the_largest_admitted(m):
    """h = 3/m: finest_gen(h) satisfies h <= 2^-g/8 + 1e-15, the next does
    not, so grids that are not powers of two keep their finest generation."""
    h, g = 3.0 / m, finest_gen(3.0 / m)
    assert h <= 2.0 ** -g / 8.0 + 1e-15
    assert h > 2.0 ** -(g + 1) / 8.0 + 1e-15


def test_jump_ratio_on_a_grid_that_is_not_a_power_of_two():
    """3/2560 lies between 2^-10 and 2^-9: it resolves max_gen 6."""
    assert finest_gen(3.0 / 2560.0) == 6
    assert jump_ratio(0.25, 2, 1.5, 3.0 / 2560.0) == 0.03237472550746158


def test_cube_average_constant(asm):
    u = grid_sample(lambda X: np.full(X.shape[0], 3.5), asm.region_omega, H)
    q = asm.wt.cubes[0]
    assert cube_average(u, q) == pytest.approx(3.5, abs=1e-12)
    # the reservoir average (Q = None) is the same constant
    assert cube_average(u, None) == pytest.approx(3.5, abs=1e-12)

    # a random field against the full-grid masked mean over cell centers
    rng = np.random.default_rng(29)
    r = GridField(bbox=u.bbox, h=u.h, values=rng.normal(size=u.grid_shape),
                  mask=u.mask, kind="scalar")
    grids = np.meshgrid(*u.axes(), indexing="ij")

    def brute(cube):
        sel = u.mask.copy()
        for ax, g in enumerate(grids):
            sel &= (g > cube.lo[ax]) & (g < cube.hi[ax])
        return float(np.sum(r.values[sel]) / np.count_nonzero(sel))

    # the first resolved cubes, and [0,1] x [1,2], clipped by the grid edge
    clipped = DyadicCube(0, (0, 1))
    assert clipped.hi[1] > u.bbox[1, 1]
    for cube in [asm.wt.cubes[r] for r in range(20)] + [clipped]:
        assert cube_average(r, cube) == brute(cube)
    # a cube inside the tent has no masked-in cells
    with pytest.raises(ValueError):
        cube_average(r, DyadicCube(4, (8, 0)))

    # a grid over [-1/2, 1] x [-3/2, 3/2]: a cube wholly left of it or
    # wholly below it has no on-grid cell, and one straddling its low edge
    # averages the on-grid cells it holds
    bbox = np.array([[-0.5, -1.5], [1.0, 1.5]])
    axes = _grid_axes(bbox, H)
    shape = tuple(len(a) for a in axes)
    w = GridField(bbox=bbox, h=H, values=rng.normal(size=shape),
                  mask=np.ones(shape, dtype=bool), kind="scalar")
    for off in [DyadicCube(3, (-14, -10)), DyadicCube(3, (0, -14))]:
        with pytest.raises(ValueError, match="no masked-in cells"):
            cube_average(w, off)
    grids = np.meshgrid(*axes, indexing="ij")
    for cube in [DyadicCube(0, (-1, 0)), DyadicCube(0, (0, -2))]:
        sel = np.ones(shape, dtype=bool)
        for ax, g in enumerate(grids):
            sel &= (g >= cube.lo[ax]) & (g <= cube.hi[ax])
        assert 0 < np.count_nonzero(sel) < sel.size
        assert cube_average(w, cube) == float(np.sum(w.values[sel])
                                              / np.count_nonzero(sel))


def test_extend_averages_each_reflected_cube_once(asm, monkeypatch):
    u = grid_sample(lambda X: X[:, 0], asm.region_omega, H)
    want = extend(u, asm)
    seen = []

    def counted(v, Q):
        seen.append(None if Q is None else (Q.gen, Q.idx))
        return cube_average(v, Q)
    monkeypatch.setattr(extension, "cube_average", counted)
    got = extend(u, asm)
    assert got.values.tobytes() == want.values.tobytes()
    assert len(seen) == len(set(seen)) < len(asm.w)


def _cube_average_reference(u, Q):
    """The whole-grid mean: the reservoir classified by membership_grid over
    the whole grid, a cube by its closed index box; every value gathered."""
    if Q is None:
        q0 = membership_grid(RegionSpec(kind="Q0_tilde", n=u.n), u.axes())
        vals = u.values[u.mask & q0]
    else:
        sls = _cells_in_box(u.axes(), Q.lo, Q.hi)
        vals = u.values[sls][u.mask[sls]]
    if vals.size == 0:
        raise ValueError("cube has no masked-in cells to average over")
    return float(np.sum(vals) / vals.size)


@pytest.mark.parametrize("n, h, lo, hi", [
    (2, 2.0 ** -4, (-2.0, -1.5), (1.0, 1.5)),           # D's box
    # centres on the hole's and D's faces, and outside D_BOX
    (2, 0.25, (-2.625, -2.125), (1.625, 2.125)),
    (2, 0.1, (-2.05, -1.55), (1.05, 1.55)),             # non-dyadic centres
    (3, 0.25, (-0.375, -2.625, -2.125), (1.375, 1.625, 2.125)),
    (3, 0.125, (0.0, -0.5, 0.75), (1.0, 1.25, 1.75)),
])
def test_reservoir_matches_membership(n, h, lo, hi):
    """cube_average(u, None) averages exactly the masked-in cells whose
    centres region_membership_many puts in Q0_tilde, faces included: on
    random values its mean is bit for bit the mean over those cells."""
    bbox = np.array([lo, hi])
    axes = _grid_axes(bbox, h)
    rng = np.random.default_rng(3)
    shape = tuple(len(a) for a in axes)
    mask = rng.random(shape) < 0.8
    u = GridField(bbox=bbox, h=h, values=rng.standard_normal(shape),
                  mask=mask, kind="scalar")
    q0 = region_membership_many(RegionSpec(kind="Q0_tilde", n=n),
                                _stack_centers(axes)).reshape(shape)
    want = u.values[mask & q0]
    assert 0 < want.size < np.count_nonzero(mask)
    assert cube_average(u, None) == float(np.sum(want) / want.size)


def _extend_reference(u, asm):
    """The whole-grid extension: every cube whose support meets the grid,
    tent membership over the whole grid, a zero-fill and a gather."""
    pou = partition_of_unity(asm.w, u.h, u.bbox)
    n_mask = membership_grid(asm.region_n, u.axes())
    tent = np.unique(pou.rows)
    rid = asm.reflect.target[tent]
    missing = tent[rid == UNASSIGNED]
    if len(missing):
        raise ValueError(f"unassigned tent cube {asm.w.cubes[missing[0]]}"
                         " inside the support")
    targets, which = np.unique(rid, return_inverse=True)
    avg = np.array([_cube_average_reference(
        u, None if t == Q0_ID else asm.wt.cubes[t]) for t in targets.tolist()])
    a = np.zeros(len(asm.w))
    a[tent] = avg[which]
    num = np.bincount(pou.cells, a[pou.rows] * pou.phi,
                      minlength=pou.total.size).reshape(u.grid_shape)
    covered = pou.total > 0.0
    vals = np.zeros(u.grid_shape)
    vals[u.mask] = u.values[u.mask]
    blend = n_mask & covered & ~u.mask
    vals[blend] = num[blend] / pou.total[blend]
    flags = n_mask & ~covered & ~u.mask
    return GridField(bbox=u.bbox.copy(), h=u.h, values=vals,
                     mask=u.mask | blend, kind="scalar", flags=flags)


def _extend_outcome(f, u, asm):
    try:
        e = f(u, asm)
    except ValueError as err:
        return f"ValueError: {err}"
    return (e.bbox.tobytes(), e.h, e.values.tobytes(), e.mask.tobytes(),
            e.flags.tobytes(), e.kind)


def test_extend_matches_reference(asm, monkeypatch):
    """extend equals the whole-grid extension bit for bit, flags included.

    Random values, also on masked-out cells, with -0.0 entries; at n = 2
    on the slit domain's box, on grids that hold, straddle or miss the
    tent's box, at a non-dyadic spacing, with a windowed assembly and with
    a random mask, and at n = 3; and a grid_sample'd jump, whose support
    is a proper sub-box of the grid.  Tent membership is classified on the
    tent's box only.
    """
    box = ((0.25, -0.5), (0.5, 0.5))
    win = ExtensionAssembly.of(
        whitney_decompose(asm.region_n, 6, window=box),
        whitney_decompose(asm.region_omega, 6, window=box))
    asm3 = assemble(LAM, n=3, max_gen=4)
    omega = asm.region_omega.bbox
    cases = [   # (assembly, h, bbox, random mask instead of the region's)
        (asm, H, omega, False),
        (asm, H, omega, True),
        (asm, H, np.array([[-0.5, -1.5], [1.0, 1.5]]), False),
        (asm, H, np.array([[-2.0, -1.5], [-0.5, 1.5]]), False),  # no tent
        (asm, H, np.array([[-0.25, -0.75], [0.75, 0.25]]), False),  # raises
        (asm, 1.0 / 640.0, np.array([[-0.5, -1.5], [1.0, 1.5]]), False),
        (win, H, omega, False),
        (asm3, 2.0 ** -7, np.array([[0.0, -1.25, -0.25], [1.0, 1.0, 0.25]]),
         False),
    ]
    seen = []

    def recorded(spec, axes):
        if spec.kind == "N_lambda":
            seen.append([len(np.ravel(a)) for a in axes])
        return membership_grid(spec, axes)

    monkeypatch.setattr(extension, "membership_grid", recorded)
    rng = np.random.default_rng(37)
    outcomes = set()
    for a, h, bbox, random_mask in cases:
        axes = _grid_axes(bbox, h)
        mask = (rng.random(tuple(len(x) for x in axes)) < 0.7 if random_mask
                else membership_grid(a.region_omega, axes))
        values = rng.normal(size=mask.shape)
        values[rng.random(mask.shape) < 0.1] = -0.0
        u = GridField(bbox=bbox, h=h, values=values, mask=mask)
        seen.clear()
        got = _extend_outcome(extend, u, a)
        assert got == _extend_outcome(_extend_reference, u, a)
        tent_box = [int(np.count_nonzero((x >= lo) & (x <= hi)))
                    for x, lo, hi in zip(axes, *a.region_n.bbox)]
        if not isinstance(got, str):
            assert seen == [tent_box]
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}
    u = grid_sample(origin_jump(LAM, 2, 1.0 / 8.0), asm.region_omega, H)
    assert math.prod(s.stop - s.start for s in u.support) < u.mask.size
    got = _extend_outcome(extend, u, asm)
    assert not isinstance(got, str)
    assert got == _extend_outcome(_extend_reference, u, asm)


def _poisoned(f):
    """f with NaN on every value outside its support."""
    vals = np.full_like(f.values, np.nan)
    vals[f.support] = f.values[f.support]
    return replace(f, values=vals)


def _field_bits(f):
    return (f.values.tobytes(), f.mask.tobytes(),
            None if f.flags is None else f.flags.tobytes(), f.kind)


def test_passes_never_read_outside_support(asm):
    """With every value outside support set to NaN, gradient, seminorm_p
    and extend return the clean field's bits, so they never read there.

    The jump's support is a proper sub-box of the grid; the reflected cubes
    lie inside it, across its faces and outside it, and the reservoir holds
    none of its cells.
    """
    u = grid_sample(origin_jump(LAM, 2, 1.0 / 8.0), asm.region_omega, H)
    axes = u.axes()
    overlap = set()
    for t in np.unique(asm.reflect.target[asm.reflect.target >= 0]):
        q = asm.wt.cubes[int(t)]
        box = _cells_in_box(axes, q.lo, q.hi)
        cells = [(max(b.start, s.start) < min(b.stop, s.stop),
                  s.start <= b.start and b.stop <= s.stop)
                 for b, s in zip(box, u.support)]
        overlap.add("inside" if all(c[1] for c in cells) else
                    "across" if all(c[0] for c in cells) else "outside")
    assert overlap == {"inside", "across", "outside"}
    assert Q0_ID in asm.reflect.target
    eu, g = extend(u, asm), gradient(u)
    geu = gradient(eu)
    assert _field_bits(extend(_poisoned(u), asm)) == _field_bits(eu)
    assert _field_bits(gradient(_poisoned(u))) == _field_bits(g)
    assert _field_bits(gradient(_poisoned(eu))) == _field_bits(geu)
    for f in (u, g, eu, geu):
        assert np.isnan(_poisoned(f).values).any()
        assert seminorm_p(_poisoned(f), 1.5) == seminorm_p(f, 1.5)


@lru_cache
def _assembled(n, max_gen):
    return assemble(LAM, n=n, max_gen=max_gen)


# (max_gen, h, bbox): grids with reservoir cells at n = 2 and 3, and one
# without any
_GRIDS = [(5, 2.0 ** -8, ((-0.5, -1.5), (1.0, 1.5))),
          (5, 2.0 ** -8, ((-0.25, -0.5), (1.0, 0.5))),
          (4, 2.0 ** -7, ((0.0, 0.0, -0.25), (0.25, 0.25, 1.25)))]


def _result(fn, *args):
    """fn's result bits or error, with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
            out = _field_bits(out) if isinstance(out, GridField) else out
        except ValueError as err:
            out = f"ValueError: {err}"
    return out, [str(w.message) for w in caught]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_support_matches_whole_grid(data):
    """A producer-set support gives the results, warnings and errors of the
    whole-grid default, and each producer leaves +0.0 outside its support.

    The sampled function has a random support box, possibly off the grid,
    and values 0, -0.0 and +-1/2, +-1; masks are the region's or random,
    seminorms run with and without a random submask.
    """
    max_gen, h, bbox = data.draw(st.sampled_from(_GRIDS))
    bbox = np.array(bbox)
    n = bbox.shape[1]
    a = _assembled(n, max_gen)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pad = 0.1 * (bbox[1] - bbox[0])
    ends = np.sort(rng.uniform(bbox[0] - pad, bbox[1] + pad, (2, n)), axis=0)
    if data.draw(st.integers(0, 3)) == 0:
        ends = np.stack([bbox[1] + 0.1, bbox[1] + 0.2])     # off the grid

    def f(X):
        inside = np.all((X >= ends[0]) & (X <= ends[1]), axis=1)
        v = np.round(2.0 * np.sin(41.0 * X[:, 0] + 29.0 * X[:, -1])) / 2.0
        return np.where(inside, v, 0.0)
    f.support = ends

    u = grid_sample(f, a.region_omega, h, bbox)
    if data.draw(st.booleans()):
        u = replace(u, mask=rng.random(u.grid_shape) < 0.8)
    submask = rng.random(u.grid_shape) < 0.5 if data.draw(st.booleans()) else None
    p = data.draw(st.sampled_from((1.0, 1.5, 3.0)))
    fields = [u]
    for produce in (gradient, lambda v: extend(v, a)):
        got = _result(produce, u)
        assert got == _result(produce, replace(u, support=None))
        if not isinstance(got[0], str):
            fields.append(produce(u))
    if len(fields) == 3:
        fields.append(gradient(fields[2]))
        assert _result(gradient, fields[2]) == _result(
            gradient, replace(fields[2], support=None))
    for v in fields:
        outside = np.ones(v.grid_shape, dtype=bool)
        outside[v.support] = False
        rest = v.values[outside]
        assert not np.any(rest != 0) and not np.any(np.signbit(rest))
        assert _result(seminorm_p, v, p, submask) == _result(
            seminorm_p, replace(v, support=None), p, submask)


def test_extend_names_unassigned_tent_cube(asm):
    u = grid_sample(lambda X: np.ones(X.shape[0]), asm.region_omega, H,
                    bbox=asm.region_n.bbox)
    target = asm.reflect.target.copy()
    target[6] = UNASSIGNED
    reflect = replace(asm.reflect, target=target)
    name = re.escape(f"unassigned tent cube {asm.w.cubes[6]} inside")
    with pytest.raises(ValueError, match=name):
        extend(u, replace(asm, reflect=reflect))


def test_extend_constant_exact(asm):
    u = grid_sample(lambda X: np.ones(X.shape[0]), asm.region_omega, H)
    eu = extend(u, asm)
    assert np.max(np.abs(eu.values[eu.mask] - 1.0)) == 0.0


def test_extend_linear_to_tolerance(asm):
    base = grid_sample(lambda X: np.zeros(X.shape[0]), asm.region_omega, H)
    rng = np.random.default_rng(17)
    v1 = rng.normal(size=base.values.shape)
    v2 = rng.normal(size=base.values.shape)
    a, b = 0.7, -1.3

    def field(vals):
        return GridField(bbox=base.bbox, h=base.h, values=vals,
                         mask=base.mask, kind="scalar")

    e1 = extend(field(v1), asm)
    e2 = extend(field(v2), asm)
    e12 = extend(field(a * v1 + b * v2), asm)
    dev = np.abs(e12.values - (a * e1.values + b * e2.values))
    assert np.max(dev[e12.mask]) <= 1e-12


def test_extend_preserves_range(asm):
    ro = asm.region_omega
    x0 = np.zeros(2)
    u_fn = jump_test_function(x0, 1.0 / 8.0, ro,
                              np.array([1.0 / 64.0, 1.0 / 16.0]))
    u = grid_sample(u_fn, ro, H)
    eu = extend(u, asm)
    vals = eu.values[eu.mask]
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_jump_function_structure():
    ro = region_spec("Omega_lambda", lam=LAM)
    r = 1.0 / 8.0
    u = jump_test_function(np.zeros(2), r, ro, np.array([r / 8.0, r / 2.0]))
    pts = np.array([
        [0.01, 0.05],     # upper side, close: 1
        [0.01, -0.05],    # lower side: 0
        [0.9, 0.5],       # outside 3r: 0
    ])
    vals = u(pts)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == 0.0
    assert vals[2] == 0.0
    assert np.all((u(np.random.default_rng(2).uniform(-0.4, 0.4, (200, 2)))
                   >= 0.0))


def test_jump_function_support_box_is_exact():
    """u equals the formula evaluated on every row, bit for bit (signed zeros too)."""
    ro = region_spec("Omega_lambda", lam=LAM)
    rng = np.random.default_rng(5)
    # r = 5/32 puts the Pythagorean points (9, 12)/32 at d = 15/32 = 3r exactly
    for r in (1.0 / 8.0, 5.0 / 32.0):
        x0 = np.zeros(2)
        u = jump_test_function(x0, r, ro, np.array([r / 8.0, r / 2.0]))
        b = 3.0 * r
        t = np.linspace(-b, b, 41)
        edge = np.concatenate([np.column_stack([np.full_like(t, s), t])
                               for s in (-b, b)]
                              + [np.column_stack([t, np.full_like(t, s)])
                                 for s in (-b, b)])
        sphere = np.array([[0.0, b], [b, 0.0], [0.0, -b], [-b, 0.0]]
                          + [[sx * 9 / 32, sy * 12 / 32] for sx in (-1, 1)
                             for sy in (-1, 1)]
                          + [[sx * 12 / 32, sy * 9 / 32] for sx in (-1, 1)
                             for sy in (-1, 1)])
        ulp = np.column_stack([np.nextafter(np.full(2, b), [0.0, 1.0]),
                               np.full(2, 0.01)])
        far = np.array([[0.9, 0.5], [5.0, 5.0], [-3.0, 0.2], [0.0, -0.9]])
        pts = np.concatenate([rng.uniform([-0.2, -1.0], [1.2, 1.0], (20000, 2)),
                              rng.uniform(-b - 0.01, b + 0.01, (20000, 2)),
                              edge, sphere, ulp, far])
        for X in (pts, np.zeros((0, 2))):
            d = np.linalg.norm(X - x0, axis=1)
            ind = region_membership_many(ro, X)
            ind &= X[:, 1] - x0[1] > 0.0
            want = np.clip(3.0 - d / r, 0.0, 1.0) * ind
            got = u(X)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.all(u(sphere[:4]) == 0.0)


def test_origin_jump_at_n3():
    """At n = 3 the witness lies off D's notch face x_2 = 0.

    A witness with x_2 = 0 lies outside the slit domain, and building the
    function raised.  The build flood-fills 411^3 cells, so it runs once.
    """
    r = 1.0 / 8.0
    u = origin_jump(0.25, 3, r)
    w = np.array([r / 8.0, r / 8.0, r / 2.0])
    assert u(np.stack([w, w * [1.0, 1.0, -1.0]])).tolist() == [1.0, 0.0]


def test_jump_function_rejects_one_sided_point():
    ro = region_spec("Omega_lambda", lam=LAM)
    # away from the slit the mirrored witness lands in the same component
    with pytest.raises(ValueError):
        jump_test_function(np.array([-1.5, 0.0]), 1.0 / 8.0, ro,
                           np.array([-1.49, 1.0 / 64.0]))


def test_jump_function_rejects_bad_radius_and_witness():
    ro = region_spec("Omega_lambda", lam=LAM)
    with pytest.raises(ValueError, match="r must be positive"):
        jump_test_function(np.zeros(2), 0.0, ro, np.array([0.01, 0.05]))
    # (5, 5) lies outside the flood-fill window of radius 3.2 r
    with pytest.raises(ValueError, match="matches no component"):
        jump_test_function(np.zeros(2), 1.0 / 8.0, ro, np.array([5.0, 5.0]))


def test_ratio_p_rejects_a_constant_function():
    with pytest.raises(ValueError, match="zero seminorm"):
        ratio_p(lambda X: np.ones(len(X)), LAM, 2, 1.5, 2.0 ** -7)


def test_jump_ratios_pinned():
    """Criterion 8's three ratios, bit for bit.

    Criterion 8 fails on their order before any value is checked, so the
    values themselves are pinned here.
    """
    got = [jump_ratio(lam, 2, 1.5, 2.0 ** -10, max_gen=7)
           for lam in (1.0 / 16.0, 1.0 / 8.0, 0.25)]
    assert got == [2.563832306868019, 2.0394358800973738, 1.1266716472710812]


def test_grid_sample_rejects_nonfinite_inside_only():
    """A non-finite sample raises on a masked-in cell and reads 0.0 outside."""
    ro = region_spec("Omega_lambda", lam=LAM)
    h = 2.0 ** -3
    # cell centers: one in the slit domain, one in D's notch
    inside, outside = np.array([0.5625, 0.6875]), np.array([-0.4375, 0.0625])
    assert region_membership_many(ro, np.stack([inside, outside])).tolist() \
        == [True, False]

    def spike(at):
        def f(X):
            hit = np.all(np.abs(X - at) < h / 2, axis=1)
            return np.where(hit, np.inf, 1.0)
        return f

    with pytest.raises(ValueError, match="not finite"):
        grid_sample(spike(inside), ro, h)
    u = grid_sample(spike(outside), ro, h)
    cell = tuple(((outside - u.bbox[0]) / h - 0.5).astype(int))
    assert not u.mask[cell] and u.values[cell] == 0.0
    assert np.all(u.values[u.mask] == 1.0) and np.all(u.values[~u.mask] == 0.0)
    assert not np.any(np.signbit(u.values))


def test_norm_factor_values():
    assert norm_factor(1.0 / 8.0, 2, 1.5) == pytest.approx(13.4907, abs=5e-4)
    assert norm_factor(1.0 / 16.0, 2, 1.5) == pytest.approx(9.1658, abs=5e-4)
    assert norm_factor(1.0 / 32.0, 2, 1.5) == pytest.approx(7.7250, abs=5e-4)
    assert math.isinf(norm_factor(0.25, 2, 1.5))   # dim = n - p
    with pytest.raises(ValueError):
        norm_factor(0.25, 2, 1.0)


def test_d_factor_and_curve():
    assert d_factor(1.0, 2.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        d_factor(1.0, 1.0)
    assert math.isnan(thm_upper_curve(0.5, 2, 1.5))
    # the upper curve approaches n - p from below as the norm grows
    assert thm_upper_curve(100.0, 2, 1.5) < 0.5
    assert thm_upper_curve(100.0, 2, 1.5) > thm_upper_curve(10.0, 2, 1.5)


def test_bound_report_schema():
    rep = bound_report(2, 1.5, [1.0 / 8.0, 1.0 / 16.0])
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert set(row) == set(rep.COLUMNS)
        assert math.isnan(row["empirical_ratio"])  # no grid requested
        assert 2.0 <= row["C_eff"] <= 2.5


def test_gap_midpoints():
    mids = gap_midpoints(CantorSpec(lam=LAM), 1)
    assert mids.shape == (1, 2)
    assert mids[0, 0] == pytest.approx(0.5)
    assert mids[0, 1] == pytest.approx(0.25)
    mids2 = gap_midpoints(CantorSpec(lam=LAM), 2)
    assert mids2.shape == (3, 2)


def _pointwise_reference(x, asm, u_fn):
    """point_extend's old loop: the 3^n cubes of each generation around x."""
    dec = asm.w
    pairs = []
    offs = np.array(list(product((-1, 0, 1), repeat=dec.n)), dtype=np.int64)
    for g in dec.index.blocks:
        rows = dec.index.find(g, np.floor(x * 2.0 ** g).astype(np.int64) + offs)
        rows = rows[rows >= 0]
        side = 2.0 ** -g
        vals = np.prod(_bump_profile(x, (dec.idx[rows] + 0.5) * side, side),
                       axis=1)
        pairs += [(r, v) for r, v in zip(rows.tolist(), vals.tolist())
                  if v > 0.0]
    if not pairs:
        raise ValueError(f"no resolved tent cube covers {x}")
    num = den = 0.0
    for row, phi in pairs:
        rid = asm.reflect.target[row]
        if rid == UNASSIGNED:
            raise ValueError(f"unassigned tent cube {dec.cubes[row]} at {x}")
        if rid == Q0_ID:
            raise ValueError("reservoir averages need a grid; use extend()")
        q = asm.wt.cubes[rid]
        t = (np.arange(4) + 0.5) / 4
        grids = np.meshgrid(*[q.lo[i] + q.side * t for i in range(q.n)],
                            indexing="ij")
        a = float(np.mean(u_fn(np.stack([g.ravel() for g in grids], axis=-1))))
        num += a * phi
        den += phi
    return num / den


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as e:
        return f"ValueError: {e}"


def test_point_extend_matches_reference():
    asm7 = assemble(LAM, n=2, max_gen=7)

    def u_fn(X):
        return X[:, 0] + 0.5 * np.sin(3.0 * X[:, 1])

    rng = np.random.default_rng(41)
    X = rng.uniform([0.0, -0.25], [1.0, 0.25], (3000, 2))
    X = X[region_membership_many(asm7.region_n, X)][:400]
    # points within 2^-12 of the slit plane, and one outside the tent
    X = np.concatenate([X, X[:20] * [1.0, 2.0 ** -12], [[0.5, 0.9]]])
    got = [_outcome(point_extend, x, asm7, u_fn) for x in X]
    assert got == [_outcome(_pointwise_reference, x, asm7, u_fn) for x in X]
    kinds = {g.split(" ")[1] if g.startswith("V") else "value" for g in got}
    assert kinds == {"value", "no", "reservoir"}
    # with no cube assigned, both name the same first cube at every point
    none = np.full(len(asm7.w), UNASSIGNED)
    bad = replace(asm7, reflect=replace(asm7.reflect, target=none))
    got = [_outcome(point_extend, x, bad, u_fn) for x in X[:100]]
    assert got == [_outcome(_pointwise_reference, x, bad, u_fn)
                   for x in X[:100]]
    assert any("unassigned tent cube DyadicCube(gen=" in g for g in got)


def test_point_extend_matches_grid_for_affine(asm):
    # affine functions are reproduced exactly by cube averages
    def u_fn(X):
        return 2.0 * X[:, 0] - 0.5 * X[:, 1] + 1.0

    x = np.array([0.5, 0.1])   # inside the tent, covered by resolved cubes
    val = point_extend(x, asm, u_fn)
    assert np.isfinite(val)
    # averages of an affine function over reflected cubes below the surface
    # stay within the function's range over the unit neighborhood
    assert 0.0 <= val <= 4.0


def test_trace_mismatch_pinned():
    """The trace study's mismatches and order at h = 2^-8, 2^-9, bit for bit.

    Criterion 6 checks only that the order is at least 0.8; these are the
    values of the per-window decompositions, which the windows' stacked
    decomposition must reproduce.
    """
    tr = trace_mismatch(0.25, [2.0 ** -8, 2.0 ** -9])
    assert tr["hs"] == [2.0 ** -8, 2.0 ** -9]
    assert tr["mismatch"] == [0.00688914762443954, 0.0034505235385685618]
    assert tr["order"] == 0.9975102185243298


def _trace_calls(lam, hs, monkeypatch):
    """(x, u_fn, value) of each point_extend call of trace_mismatch(lam, hs)."""
    calls = []

    def record(x, asm, u_fn):
        val = point_extend(x, asm, u_fn)
        calls.append((x, u_fn, val))
        return val
    monkeypatch.setattr(extension, "point_extend", record)
    trace_mismatch(lam, hs)
    return calls


# scales with 3 to 7 points each, so every stack holds several boxes
@pytest.mark.parametrize("lam, hs", [
    (1.0 / 16.0, [2.0 ** -9]),
    (1.0 / 8.0, [2.0 ** -8, 2.0 ** -9]),
    (0.25, [2.0 ** -8, 2.0 ** -10]),
    (0.4, [2.0 ** -8]),
])
def test_trace_points_match_per_window(lam, hs, monkeypatch):
    """Each trace point reads off its scale's stacked assembly, whose boxes
    have half-width _TRACE_PAD h, the value of the assembly windowed to its
    own box of half-width 16h alone, exactly: the shrunk windows against
    the old ones, point by point."""
    assert extension._TRACE_PAD < 16.0
    calls = _trace_calls(lam, hs, monkeypatch)
    rn = region_spec("N_lambda", lam=lam, n=2)
    ro = region_spec("Omega_lambda", lam=lam, n=2)
    want = []
    for h in hs:
        max_gen = int(round(math.log2(1.0 / h))) + 3
        pad = 16.0 * h
        for m, g in gap_midpoints(CantorSpec(lam=lam), 3):
            if g > 8.0 * h:
                box = ((m - pad, g - pad), (m + pad, g + pad))
                want.append((np.array([m, g - 2.0 * h]), ExtensionAssembly.of(
                    whitney_decompose(rn, max_gen, window=box),
                    whitney_decompose(ro, max_gen, window=box))))
    assert len(calls) == len(want) >= 3 * len(hs)
    for (x, u_fn, got), (y, asm) in zip(calls, want):
        assert np.array_equal(x, y)
        assert got == point_extend(y, asm, u_fn), (lam, x)


def test_trace_points_match_unwindowed(monkeypatch):
    """At lambda 1/4, h = 2^-8 every trace point equals point_extend on the
    unwindowed max_gen=11 assembly, exactly."""
    calls = _trace_calls(0.25, [2.0 ** -8], monkeypatch)
    full = assemble(0.25, n=2, max_gen=11)
    assert len(calls) == 3
    for x, u_fn, got in calls:
        assert got == point_extend(x, full, u_fn), x


def test_trace_certificate_fires_when_pad_too_small(monkeypatch):
    """The run-time check on the reflected targets raises instead of
    returning a value once the windows are too small to vouch for them.

    At lambda 0.4, h = 2^-11 the targets hold with the least slack over
    lambda 1/16, 1/8, 1/4, 0.4 at h = 2^-8..2^-11, 1.05h at the pad of 3h,
    so the check fails just below a pad of 1.95h (below about 1.9h the
    weighted cubes run out first, and point_extend finds no cube covering
    the point).
    """
    assert trace_mismatch(0.4, [2.0 ** -11])["mismatch"][0] > 0.0
    monkeypatch.setattr(extension, "_TRACE_PAD", 1.94)
    with pytest.raises(ValueError, match="reflected target is not certified"):
        trace_mismatch(0.4, [2.0 ** -11])


@pytest.mark.parametrize("hs, match", [
    ([2.0 ** -3], r"h=0\.125 has no gap midpoint"),
    ([0.003, 0.0015], r"h=0\.003 is not a power of two"),
    ([2.0 ** -8, 0.0], r"h=0\.0 is not a power of two"),
])
def test_trace_rejects_bad_scales_before_any_work(hs, match, monkeypatch):
    """A scale the window argument does not cover fails loudly, naming it,
    before any scale is decomposed."""
    def no_work(*a, **kw):
        raise AssertionError("decomposed before checking the scales")
    monkeypatch.setattr(extension, "whitney_decompose", no_work)
    with pytest.raises(ValueError, match=match):
        trace_mismatch(0.25, hs)
