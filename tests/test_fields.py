"""Tests for masked grid fields, seminorms, projections, and the energy check."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorslit.fields as fields
from cantorslit.fields import (
    BoxUnion,
    EnergyHypothesisError,
    GridField,
    grid_sample,
    gradient,
    interval_union_measure,
    pixel_projection_measure,
    poincare_energy_check,
    projection_measure,
    seminorm_p,
)
from cantorslit.regions import (membership_grid, region_membership_many,
                                region_spec)


def box_field(f, h=1.0 / 64.0, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    """Unmasked field of f at the cell centers of the box [lo, hi]."""
    bbox = np.array([lo, hi], dtype=float)
    shape = tuple(int(round(m)) for m in (bbox[1] - bbox[0]) / h)
    u = GridField(bbox=bbox, h=h, values=np.zeros(shape),
                  mask=np.ones(shape, dtype=bool))
    u.values = f(fields._stack_centers(u.axes())).reshape(shape)
    return u


def test_grid_sample_shape_and_values():
    u = box_field(lambda X: X[:, 0] + 2.0 * X[:, 1])
    assert u.grid_shape == (64, 64)
    assert np.all(u.mask)
    c = fields._stack_centers(u.axes()).reshape(64, 64, 2)
    assert np.allclose(u.values, c[:, :, 0] + 2.0 * c[:, :, 1])
    # (0.5, 0.5) lies in cell (32, 32)
    assert u.values[32, 32] == pytest.approx(0.5 + 1.0, abs=u.h * 3)


def _grid_sample_reference(f, region, h, bbox=None):
    """The whole-grid sampling: f at every cell center, support or not."""
    bbox = np.asarray(region.bbox if bbox is None else bbox, dtype=float)
    axes = fields._grid_axes(bbox, h)
    mask = membership_grid(region, axes)
    pts = fields._stack_centers(axes)
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), (pts.shape[0],))
    vals = vals.reshape(mask.shape)
    if not np.all(np.isfinite(vals) | ~mask):
        raise ValueError("sampled values are not finite on masked-in cells")
    return GridField(bbox=bbox, h=h, values=np.where(mask, vals, 0.0),
                     mask=mask, kind="scalar", region=region)


def _sample_outcome(sample, f, region, h, bbox):
    try:
        u = sample(f, region, h, bbox)
    except ValueError as e:
        return f"ValueError: {e}"
    return (u.bbox.tobytes(), u.h, u.values.tobytes(), u.mask.tobytes(),
            u.region)


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from((2, 3)),
       h=st.sampled_from((2.0 ** -3, 2.0 ** -4, 0.1, 0.2)),
       cube=st.booleans(),
       where=st.sampled_from(("inside", "edge", "disjoint", "all")),
       snap=st.booleans(),
       nonfinite=st.sampled_from((None, "masked-out", "masked-in")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_sample_support_matches_reference(n, h, cube, where, snap,
                                               nonfinite, seed):
    """With a support box, grid_sample equals the whole-grid sampling.

    The support lies inside the grid, straddles an edge, misses the grid
    or covers it; its faces may sit exactly on cell centers.  Values
    inside it include -0.0, and non-finite ones on masked-out or masked-in
    cells; the grid is the region's box or the cube [-1/2, 1/2]^n.  f sees
    at most the cells within one cell of the support.
    """
    rng = np.random.default_rng(seed)
    region = region_spec("Omega_lambda", lam=0.25, n=n)
    bbox = np.array([[-0.5] * n, [0.5] * n]) if cube else region.bbox
    span = bbox[1] - bbox[0]
    if where == "inside":
        lo = bbox[0] + span * rng.uniform(0.05, 0.5, n)
        hi = lo + span * rng.uniform(0.0, 0.45, n)
    elif where == "edge":
        lo = bbox[0] + span * rng.uniform(0.05, 0.5, n)
        hi = lo + span * rng.uniform(0.0, 0.45, n)
        ax = int(rng.integers(n))
        if rng.random() < 0.5:
            lo[ax] = bbox[0, ax] - span[ax] * rng.uniform(0.0, 0.5)
        else:
            hi[ax] = bbox[1, ax] + span[ax] * rng.uniform(0.0, 0.5)
    elif where == "disjoint":
        lo = bbox[0] + span * rng.uniform(0.05, 0.5, n)
        hi = lo + span * rng.uniform(0.0, 0.45, n)
        ax = int(rng.integers(n))
        off = span[ax] * rng.uniform(0.01, 0.5)
        lo[ax], hi[ax] = bbox[1, ax] + off, bbox[1, ax] + 2.0 * off
    else:
        lo = bbox[0] - rng.uniform(0.0, 1.0, n)
        hi = bbox[1] + rng.uniform(0.0, 1.0, n)
    if snap:        # faces on the nearest cell centers
        lo = bbox[0] + (np.round((lo - bbox[0]) / h - 0.5) + 0.5) * h
        hi = bbox[0] + (np.round((hi - bbox[0]) / h - 0.5) + 0.5) * h
    k = rng.normal(size=n) * 5.0
    rows = []

    def f(X):
        rows.append(len(X))
        v = np.round(np.sin(X @ k), 1)  # -0.0 where -0.05 < sin < 0
        if nonfinite is not None:
            member = region_membership_many(region, X)
            v[member == (nonfinite == "masked-in")] = np.nan
        return np.where(np.all((X >= lo) & (X <= hi), axis=1), v, 0.0)

    f.support = np.stack([lo, hi])

    def plain(X):
        return f(X)

    got = _sample_outcome(grid_sample, f, region, h, bbox)
    near = math.prod(int(np.count_nonzero((a >= a_lo - h) & (a <= a_hi + h)))
                     for a, a_lo, a_hi in zip(fields._grid_axes(bbox, h),
                                              lo, hi))
    assert sum(rows) <= near
    want = _sample_outcome(_grid_sample_reference, f, region, h, bbox)
    assert got == want
    # without the attribute grid_sample samples every cell
    rows.clear()
    assert _sample_outcome(grid_sample, plain, region, h, bbox) == want
    assert rows == [math.prod(fields._grid_shape(bbox, h))]


def test_gradient_of_linear_is_exact():
    u = box_field(lambda X: 3.0 * X[:, 0] - 2.0 * X[:, 1])
    g = gradient(u)
    assert g.kind == "vector"
    inner = g.values[g.mask]
    assert np.allclose(inner[:, 0], 3.0, atol=1e-12)
    assert np.allclose(inner[:, 1], -2.0, atol=1e-12)


def test_gradient_respects_region_barrier():
    # a function with opposite signs across the pinch plane of the slit
    ro = region_spec("Omega_lambda", lam=0.25)
    h = 2.0 ** -8
    u = grid_sample(lambda X: np.sign(X[:, 1]), ro, h)
    g = gradient(u)
    # over the Cantor base the pinch plane separates the two sides even
    # where the tent is thinner than the grid; the barrier must prevent
    # differencing across it, so no O(1/h) vertical derivatives appear there
    c = fields._stack_centers(u.axes()).reshape(u.grid_shape + (2,))
    sel = g.mask & (c[:, :, 0] > 0.05) & (c[:, :, 0] < 0.95)
    assert np.max(np.abs(g.values[sel][:, 1])) < 0.5 / h


def test_seminorm_known_value():
    u = box_field(lambda X: X[:, 0])
    g = gradient(u)
    # |grad u| = 1 on the unit square
    assert seminorm_p(g, 2.0) == pytest.approx(1.0, rel=1e-10)
    assert seminorm_p(g, 1.5) == pytest.approx(1.0, rel=1e-10)


def _gradient_reference(u):
    """The whole-grid stencil: every cell, every axis."""
    n = u.n
    vals, mask, h = u.values, u.mask, u.h
    axes = u.axes() if u.region is not None else None
    out = np.zeros(vals.shape + (n,))
    for ax in range(n):
        up = np.zeros_like(vals)
        dn = np.zeros_like(vals)
        m_up = np.zeros_like(mask)
        m_dn = np.zeros_like(mask)
        sl_c = [slice(None)] * n
        sl_p = [slice(None)] * n
        sl_c[ax], sl_p[ax] = slice(None, -1), slice(1, None)
        up[tuple(sl_c)] = vals[tuple(sl_p)]
        m_up[tuple(sl_c)] = mask[tuple(sl_p)]
        dn[tuple(sl_p)] = vals[tuple(sl_c)]
        m_dn[tuple(sl_p)] = mask[tuple(sl_c)]
        if axes is not None:
            mid_axes = list(axes)
            mid_axes[ax] = 0.5 * (axes[ax][:-1] + axes[ax][1:])
            face_ok = membership_grid(u.region, mid_axes)
            m_up[tuple(sl_c)] &= face_ok
            m_dn[tuple(sl_p)] &= face_ok
        both = mask & m_up & m_dn
        only_up = mask & m_up & ~m_dn
        only_dn = mask & m_dn & ~m_up
        comp = np.zeros_like(vals)
        comp[both] = (up[both] - dn[both]) / (2.0 * h)
        comp[only_up] = (up[only_up] - vals[only_up]) / h
        comp[only_dn] = (vals[only_dn] - dn[only_dn]) / h
        out[..., ax] = comp
    return GridField(bbox=u.bbox, h=h, values=out, mask=mask.copy(),
                     kind="vector", region=u.region)


def _seminorm_reference(g, p, submask=None):
    """Every selected cell's term, zeros included, gathered in C order and
    summed by math.fsum."""
    sel = g.mask if submask is None else (g.mask & submask)
    if not np.any(sel):
        warnings.warn("seminorm over an empty mask", stacklevel=2)
        return 0.0
    if g.kind == "vector":
        mag = np.sqrt(np.sum(g.values[sel] ** 2, axis=-1))
    else:
        mag = np.abs(g.values[sel])
    total = math.fsum(mag ** p) * g.h ** g.n
    return total ** (1.0 / p)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from((2, 3)),
       h=st.sampled_from((2.0 ** -5, 2.0 ** -3, 0.1, 0.3)),
       corner=st.sampled_from(((0.0, -0.1), (0.4, -0.2), (-0.05, -0.13),
                               (-1.2, -0.3))),
       with_region=st.booleans(), region_mask=st.booleans(),
       density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
       neg_zeros=st.booleans(), with_submask=st.booleans(),
       p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_and_seminorm_match_reference(n, h, corner, with_region,
                                               region_mask, density,
                                               neg_zeros, with_submask, p,
                                               seed):
    """gradient and seminorm_p equal the whole-grid passes, bit for bit.

    Values are nonzero on a random sub-box (it may touch the grid's edge,
    cover all of it or hold no nonzero at all), also on masked-out cells,
    with -0.0 entries anywhere; masks are random or the region's own.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(m) for m in rng.integers(1, 12 if n == 2 else 7, n))
    lo = np.array((0.1,) * (n - 2) + corner)
    bbox = np.stack([lo, lo + np.array(shape) * h])
    region = region_spec("Omega_lambda", lam=0.25, n=n)
    if region_mask:
        mask = membership_grid(region, fields._grid_axes(bbox, h))
    else:
        mask = rng.random(shape) < rng.choice((0.0, 0.5, 0.9, 1.0))
    values = np.zeros(shape)
    a = [int(rng.integers(0, m)) for m in shape]
    b = [int(rng.integers(i + 1, m + 1)) for i, m in zip(a, shape)]
    box = tuple(slice(i, j) for i, j in zip(a, b))
    values[box] = np.where(rng.random(values[box].shape) < density,
                           rng.normal(size=values[box].shape), 0.0)
    if neg_zeros:
        values[rng.random(shape) < 0.2] = -0.0
    u = GridField(bbox=bbox, h=h, values=values, mask=mask,
                  region=region if with_region else None)
    g, ref = gradient(u), _gradient_reference(u)
    assert g.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(g.mask, ref.mask) and g.region is ref.region
    submask = rng.random(shape) < 0.5 if with_submask else None
    for f in (u, g, ref):
        got, got_warn = _warned(seminorm_p, f, p, submask)
        want, want_warn = _warned(_seminorm_reference, f, p, submask)
        assert got == want and got_warn == want_warn
        sel = f.mask if submask is None else f.mask & submask
        assert got_warn == ([] if sel.any() else ["seminorm over an empty mask"])


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from((2, 3)), vector=st.booleans(),
       with_submask=st.booleans(), h=st.sampled_from((2.0 ** -4, 0.1, 0.3)),
       p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_seminorm_sum_is_correctly_rounded(n, vector, with_submask, h, p,
                                           seed):
    """seminorm_p's sum of |g|^p is the exact sum rounded once.

    Values spread over twelve decades, with signs and zeros, on random
    masks and submasks; the exact sum is taken over Fractions.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(m) for m in rng.integers(1, 20 if n == 2 else 8, n))
    vshape = shape + ((n,) if vector else ())
    values = (rng.choice((-1.0, 1.0), vshape) * (rng.random(vshape) < 0.8)
              * 10.0 ** rng.uniform(-6, 6, vshape))
    mask = rng.random(shape) < rng.choice((0.3, 0.7, 1.0))
    submask = rng.random(shape) < 0.5 if with_submask else None
    bbox = np.stack([np.zeros(n), np.array(shape) * h])
    g = GridField(bbox=bbox, h=h, values=values, mask=mask,
                  kind="vector" if vector else "scalar")
    sel = mask if submask is None else mask & submask
    if not sel.any():
        return
    mag = (np.sqrt(np.sum(values[sel] ** 2, axis=-1)) if vector
           else np.abs(values[sel]))
    exact = float(sum(map(Fraction, (mag ** p).tolist())))
    assert seminorm_p(g, p, submask) == (exact * h ** n) ** (1.0 / p)


def test_seminorm_overflow_reads_inf():
    """Finite terms whose sum passes the float range give inf."""
    g = GridField(bbox=np.array([[0.0, 0.0], [2.0, 1.0]]), h=1.0,
                  values=np.full((2, 1), 1e154), mask=np.ones((2, 1), bool))
    assert math.isfinite(1e154 ** 2)
    assert seminorm_p(g, 2.0) == math.inf


def test_gradient_of_zero_field_skips_membership(monkeypatch):
    """An all +0.0 field has a +0.0 gradient; no face is classified."""
    def refuse(*args):
        raise AssertionError("membership_grid called")

    monkeypatch.setattr(fields, "membership_grid", refuse)
    ro = region_spec("Omega_lambda", lam=0.25)
    bbox = np.array([[0.0, -0.5], [1.0, 0.5]])
    u = GridField(bbox=bbox, h=0.125, values=np.zeros((8, 8)),
                  mask=np.ones((8, 8), dtype=bool), region=ro)
    g = gradient(u)
    assert g.values.shape == (8, 8, 2)
    assert g.values.tobytes() == np.zeros((8, 8, 2)).tobytes()
    assert seminorm_p(g, 1.5) == 0.0


def test_interval_union_measure():
    assert interval_union_measure([(0.0, 1.0), (0.5, 2.0)]) == pytest.approx(2.0)
    assert interval_union_measure([(0.0, 0.25), (0.5, 0.75)]) == pytest.approx(0.5)
    assert interval_union_measure([]) == 0.0


def test_box_union_and_projection():
    F = BoxUnion(n=2)
    F.add_box([0.0, 0.0], [0.25, 1.0])
    F.add_box([0.5, 0.0], [0.75, 1.0])
    # shadow on the first axis has length 1/2 (projection along axis 2)
    exact = projection_measure(F, 2)
    pix = pixel_projection_measure(F, 2, h=2.0 ** -10)
    assert exact == pytest.approx(0.5, abs=1e-12)
    assert abs(pix - exact) <= 0.01 * max(exact, 1e-12)
    # n = 3: dyadic corners, so the 2^-12 pixel count is exact
    G = BoxUnion(n=3)
    G.add_box([0.0, 0.0, 0.0], [0.5, 0.5, 0.25])
    G.add_box([0.25, 0.25, 0.25], [0.5, 0.75, 0.75])
    assert projection_measure(G, 3) == 0.3125
    assert projection_measure(G, 1) == 0.375
    assert pixel_projection_measure(G, 3, h=2.0 ** -6) == 0.3125
    assert projection_measure(BoxUnion(n=3), 2) == 0.0


def _pixel_projection_reference(F, axis, h):
    """Every pixel center tested against every projected closed box."""
    keep = [i for i in range(F.n) if i != axis - 1]
    lo = np.min([b[0][keep] for b in F.boxes], axis=0)
    hi = np.max([b[1][keep] for b in F.boxes], axis=0)
    axes = [a + (np.arange(int(math.ceil((b - a) / h)) + 1) + 0.5) * h
            for a, b in zip(lo, hi)]
    c = fields._stack_centers(axes)
    hit = np.zeros(len(c), dtype=bool)
    for blo, bhi in F.boxes:
        hit |= np.all((c >= blo[keep]) & (c <= bhi[keep]), axis=1)
    return float(np.count_nonzero(hit)) * h ** len(keep)


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from((2, 3)), h=st.sampled_from((2.0 ** -4, 0.1, 0.03)),
       data=st.data())
def test_pixel_projection_matches_reference(n, h, data):
    # box faces on multiples of h/2, so many of them pass through centers
    F = BoxUnion(n=n)
    for _ in range(data.draw(st.integers(1, 4))):
        lo = np.array(data.draw(st.lists(st.integers(-12, 12),
                                         min_size=n, max_size=n)))
        ext = np.array(data.draw(st.lists(st.integers(0, 8),
                                          min_size=n, max_size=n)))
        F.add_box(lo * h / 2, (lo + ext) * h / 2)
    for axis in range(1, n + 1):
        assert (pixel_projection_measure(F, axis, h)
                == _pixel_projection_reference(F, axis, h))


def _energy_reference(Q, F, f, delta, p):
    """The energy check with closed-box tests on every cell center: the
    failing clause's name, or the energy."""
    qlo, qhi = (np.asarray(v, dtype=float) for v in Q)
    n, ell = f.n, float(qhi[0] - qlo[0])
    budget = delta / (2 * n * 2 ** n) * ell ** (n - 1)
    if any(projection_measure(F, axis) > budget for axis in range(1, n + 1)):
        return "projection"
    c = fields._stack_centers(f.axes()).reshape(f.grid_shape + (n,))

    def inside(lo, hi):
        return np.all((c >= lo) & (c <= hi), axis=-1)

    in_half = inside(qlo + ell / 4, qhi - ell / 4) & f.mask
    m = [float(np.count_nonzero(in_half & (np.abs(f.values - v) <= 1e-9)))
         * f.h ** n for v in (0.0, 1.0)]
    if min(m) <= delta * ell ** n / 2 ** n:
        return "level-set"
    in_q = inside(qlo, qhi)
    for lo, hi in F.boxes:
        in_q &= ~inside(lo, hi)
    return seminorm_p(gradient(f), p, submask=in_q) ** p


@settings(max_examples=60, deadline=None)
@given(h=st.sampled_from((2.0 ** -7, 1.0 / 120.0)),
       lo=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
       size=st.integers(100, 240), t=st.floats(0.2, 0.8),
       boxes=st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 240),
                                st.integers(0, 1), st.integers(0, 1)),
                      max_size=2),
       seed=st.integers(0, 2 ** 16))
def test_energy_check_matches_reference(h, lo, size, t, boxes, seed):
    # Q and F have corners on multiples of h/2 (on cell faces or centers),
    # F's boxes within three cells of a steep ramp from 0 to 1 at the
    # fraction t of Q's width, so either level set may be too small; and a
    # random mask
    rng = np.random.default_rng(seed)
    qlo = np.array(lo) * h / 2
    Q = (qlo, qlo + size * h / 2)
    x_t = qlo[0] + t * size * h / 2
    u = box_field(lambda X: np.clip(32.0 * (X[:, 0] - x_t), 0.0, 1.0), h=h)
    u.mask = rng.random(u.grid_shape) < 0.9
    F = BoxUnion(n=2)
    for off, b, da, db in boxes:
        a = round(2 * x_t / h) + off
        F.add_box([a * h / 2, b * h / 2], [(a + da) * h / 2, (b + db) * h / 2])
    want = _energy_reference(Q, F, u, 0.25, 1.5)
    try:
        got = poincare_energy_check(Q, F, u, delta=0.25, p=1.5)["lhs"]
    except EnergyHypothesisError as exc:
        got = exc.clause
    assert got == want


def test_energy_check_passes_on_transition():
    # a clean 0-to-1 transition inside the unit cube, F empty
    def f(X):
        return np.clip(4.0 * (X[:, 0] - 0.375), 0.0, 1.0)

    u = box_field(f, h=1.0 / 128.0)
    res = poincare_energy_check(((0.0, 0.0), (1.0, 1.0)), BoxUnion(n=2), u,
                                delta=0.2, p=1.5)
    assert res["lhs"] > 0.0
    assert res["ratio"] > 0.0
    # gradient 4 on a strip of width 1/4: lhs = 4^1.5 / 4 = 2
    assert res["lhs"] == pytest.approx(2.0, rel=0.05)


def test_energy_check_rejects_bad_projection():
    u = box_field(lambda X: np.clip(4.0 * (X[:, 0] - 0.375), 0.0, 1.0),
                  h=1.0 / 64.0)
    F = BoxUnion(n=2)
    F.add_box([0.0, 0.0], [1.0, 1.0])   # shadow as large as the face
    with pytest.raises(EnergyHypothesisError) as exc:
        poincare_energy_check(((0.0, 0.0), (1.0, 1.0)), F, u, delta=0.25, p=1.5)
    assert exc.value.clause == "projection"


def test_energy_check_rejects_missing_level_set():
    u = box_field(lambda X: np.full(X.shape[0], 0.5), h=1.0 / 64.0)
    with pytest.raises(EnergyHypothesisError) as exc:
        poincare_energy_check(((0.0, 0.0), (1.0, 1.0)), BoxUnion(n=2), u,
                              delta=0.25, p=1.5)
    assert exc.value.clause == "level-set"


def test_energy_check_rejects_bad_delta_and_shape():
    u = box_field(lambda X: X[:, 0], h=1.0 / 32.0)
    with pytest.raises(ValueError):
        poincare_energy_check(((0.0, 0.0), (1.0, 1.0)), BoxUnion(n=2), u,
                              delta=1.5, p=1.5)
    with pytest.raises(ValueError):
        poincare_energy_check(((0.0, 0.0), (1.0, 2.0)), BoxUnion(n=2), u,
                              delta=0.25, p=1.5)
