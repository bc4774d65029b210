"""Tests for separated nets, the dimension estimator, and density checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorslit.dimension
from cantorslit.cantor import CantorSpec, fat_thin_cantor
from cantorslit.dimension import (
    NetHierarchy,
    NoComponentError,
    build_net_hierarchy,
    cantor_candidates,
    dim_upper_estimate,
    measure_density_check,
    measure_density_sides,
    separated_net,
)
from cantorslit.regions import ComponentMap, component_label, region_spec


def test_separated_net_separation_and_maximality():
    cand = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
    net = separated_net(cand, 0.25)
    d = np.abs(net[:, None, 0] - net[None, :, 0])
    off = d[~np.eye(len(net), dtype=bool)]
    assert np.all(off >= 0.25 - 1e-12)
    # every candidate is within r of some net point (maximality)
    dc = np.min(np.abs(cand[:, 0][:, None] - net[None, :, 0]), axis=1)
    assert np.all(dc < 0.25)


def _separated_net_reference(candidates, r):
    """separated_net as a scalar loop: one np.linalg.norm per accepted
    point and candidate."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    accepted = []
    for c in candidates:
        if all(np.linalg.norm(c - a) >= r for a in accepted):
            accepted.append(c)
    return (np.array(accepted) if accepted
            else np.zeros((0, candidates.shape[1])))


def _assert_same_net(candidates, r):
    got = separated_net(candidates, r)
    want = _separated_net_reference(candidates, r)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3),
       ints=st.lists(st.lists(st.integers(-64, 64), min_size=3,
                              max_size=3), max_size=60),
       lifted=st.lists(st.floats(-2.0, 2.0), max_size=60),
       r=st.sampled_from([0.25, 0.1, 0.3, 2.0 ** -5, 1.0 / 3.0]))
@example(n=2, ints=[[0, 0, 0], [8, 0, 0], [0, 8, 0]], lifted=[], r=0.25)
def test_separated_net_matches_scalar_loop(n, ints, lifted, r):
    """The one-array test accepts the candidates the norm loop accepts,
    bit for bit: on multiples of 2^-5, where every square and sum is
    exact and distances of exactly r are common, and on points that
    differ in their first coordinate only, as cantor_candidates' do."""
    _assert_same_net(np.array(ints, dtype=float).reshape(-1, 3)[:, :n]
                     / 32.0, r)
    pts = np.zeros((len(lifted), n))
    pts[:, 0] = lifted
    _assert_same_net(pts, r)


def test_separated_net_matches_scalar_loop_on_audit_nets():
    """Every level of the audit workload's hierarchies, (1/4, 5 levels)
    and (1/8, 4 levels), from the same candidates."""
    for lam, levels in ((0.25, 5), (0.125, 4)):
        h = build_net_hierarchy(CantorSpec(lam=lam), levels, n=2)
        for i in range(1, levels + 1):
            cand = cantor_candidates(CantorSpec(lam=lam), h.radius(i), n=2)
            want = _separated_net_reference(cand, h.radius(i))
            assert h.levels[i].tobytes() == want.tobytes()


def test_net_cardinality_monotone_in_r():
    cand = cantor_candidates(CantorSpec(lam=0.25), 4.0 ** -5)
    sizes = [len(separated_net(cand, r))
             for r in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_exact_counts_on_quarter_cantor():
    spec = CantorSpec(lam=0.25)
    for i in range(1, 5):
        r = 2.0 * 4.0 ** -i
        cand = cantor_candidates(spec, r)
        net = separated_net(cand, r)
        assert len(net) == 2 ** i


def test_hierarchy_counts_bounded():
    h = build_net_hierarchy(CantorSpec(lam=0.25), levels=4, n=2)
    total = {i: len(h.levels[i]) for i in h.levels}
    for i in sorted(h.levels)[:-1]:
        for k in range(len(h.levels[i])):
            for l in sorted(h.levels):
                if l <= i:
                    continue
                assert h.net_counts(i, k, l - i) <= total[l]


def test_dim_estimate_1d():
    spec = CantorSpec(lam=0.25)
    h = build_net_hierarchy(spec, levels=5, n=1)
    est = dim_upper_estimate(h)
    assert est.certified
    assert abs(est.s - 0.5) <= 0.07
    assert est.levels == 5
    assert len(est.certificate) > 0


def test_dim_estimate_requires_levels():
    h = build_net_hierarchy(CantorSpec(lam=0.25), levels=2, n=1)
    with pytest.raises(ValueError):
        dim_upper_estimate(h)


def test_candidates_warn_past_the_spec_depth():
    # two construction steps leave cells of size 1/3 * 3/8 > 1e-3 / 4
    with pytest.warns(UserWarning, match="coarser than r/4"):
        cantor_candidates(fat_thin_cantor(2), 1e-3)


def test_dim_estimate_uncertified_on_crowded_levels():
    """40 nearly coincident points at every level: each deeper count is 40,
    and from level 2 only j = 1 is available, where 40 < 4^s needs s > 2.6,
    past the grid's 1.5."""
    pts = np.zeros((40, 2))
    pts[:, 0] = 0.5 + 1e-9 * np.arange(40)
    h = NetHierarchy(cantor=CantorSpec(lam=0.25), n=2,
                     levels={1: pts, 2: pts, 3: pts})
    est = dim_upper_estimate(h)
    assert est.s == 1.5 and not est.certified
    assert est.certificate == {} and est.levels == 3


def test_density_quick_both_sides():
    ro = region_spec("Omega_lambda", lam=0.25)
    for side in ("upper", "lower"):
        res = measure_density_check(ro, (0.0, 0.0), [0.25, 0.125],
                                    samples=20000, seed=3, side=side)
        assert res.c_fit > 0.0
        assert len(res.c_per_radius) == 2
        assert all(hw > 0.0 for hw in res.halfwidth)


def test_density_n3_at_origin_both_sides():
    # the witnesses (h, h, +-4h) sit over the pinch, clear of D's notch
    ro = region_spec("Omega_lambda", lam=0.25, n=3)
    for side in ("upper", "lower"):
        res = measure_density_check(ro, (0.0, 0.0, 0.0), [0.25],
                                    samples=20000, seed=3, side=side)
        assert len(res.c_per_radius) == 1
        assert 0.3 < res.c_fit < 0.5


def _c_per_radius_reference(region, x, radii, samples, seed, side):
    """measure_density_check's estimates from the row forms: the ball test
    as np.sum over the last axis, the labels by a moveaxis gather."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    cs = []
    for r in radii:
        cmap = component_label(region, x, r, r / 256)
        label = cmap.side_labels(x)[0 if side == "upper" else 1]
        pts = x + rng.uniform(-r, r, size=(samples, len(x)))
        idx = np.floor((pts - cmap.origin) / cmap.h).astype(int)
        on = np.all((idx >= 0) & (idx < cmap.labels.shape), axis=-1)
        idx = np.where(on[..., None], idx, 0)
        lab = np.where(on, cmap.labels[tuple(np.moveaxis(idx, -1, 0))], -1)
        hits = (np.sum((pts - x) ** 2, axis=1) <= r * r) & (lab == label)
        boxvol = (2.0 * r) ** len(x)
        cs.append(float(np.count_nonzero(hits)) / samples * boxvol / r ** len(x))
    return cs


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_density_matches_row_reference(side):
    """The column-by-column ball test and flat label lookup count the same
    hits as the row forms, and the column sum is np.sum's bit for bit."""
    ro = region_spec("Omega_lambda", lam=0.25)
    radii = [0.25, 0.125]
    res = measure_density_check(ro, (0.0, 0.0), radii, samples=50000,
                                seed=11, side=side)
    want = _c_per_radius_reference(ro, (0.0, 0.0), radii, 50000, 11, side)
    assert res.c_per_radius == want
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        d = rng.uniform(-1.0, 1.0, size=(100000, n))
        col = sum(c ** 2 for c in d.T)
        assert col.tobytes() == np.sum(d ** 2, axis=1).tobytes()


@pytest.mark.parametrize("point, radii, skips", [
    ((0.0, 0.0), [0.25, 0.125], 0),
    # the lower witness lies in the tent at radius 1/4 only
    ((0.5, 0.252), [0.25, 0.03125, 0.25], 2),
])
def test_density_sides_match_one_side_each(point, radii, skips, monkeypatch):
    """Both sides from one labelling per radius equal each side alone, bit
    for bit, even where one side skips a radius; the skip warnings come
    side by side, as two one-side calls give them."""
    ro = region_spec("Omega_lambda", lam=0.25)
    labelled = []

    def record(*args):
        labelled.append(args[2])
        return component_label(*args)
    monkeypatch.setattr(cantorslit.dimension, "component_label", record)
    with warnings.catch_warnings(record=True) as both:
        warnings.simplefilter("always")
        got = measure_density_sides(ro, point, radii, samples=3000, seed=9)
    assert labelled == radii
    with warnings.catch_warnings(record=True) as each:
        warnings.simplefilter("always")
        want = {side: measure_density_check(ro, point, radii, samples=3000,
                                            seed=9, side=side)
                for side in ("upper", "lower")}
    assert list(got) == ["upper", "lower"]
    for side in got:
        for name in ("c_per_radius", "halfwidth", "c_fit", "radii"):
            assert getattr(got[side], name) == getattr(want[side], name)
    assert len(both) == skips
    assert [str(w.message) for w in both] == [str(w.message) for w in each]
    # the warnings point at the caller, as one-side calls' do
    assert all(w.filename == __file__ for w in both + each)


def test_density_sides_name_first_side_without_component():
    ro = region_spec("Omega_lambda", lam=0.25)
    with pytest.warns(UserWarning, match="radius 0.25"), \
            pytest.raises(NoComponentError) as exc:
        measure_density_sides(ro, (0.5, 0.252), [0.25], samples=100)
    assert exc.value.side == "lower"
    with pytest.warns(UserWarning), pytest.raises(NoComponentError) as exc:
        measure_density_sides(ro, (5.0, 5.0), [0.25], samples=100)
    assert exc.value.side == "upper"


def _density_reference(region, x, radii, samples, seed, side):
    """(c_per_radius, halfwidth) of measure_density_check from one draw of
    all samples per radius, as it was before the draws came in blocks."""
    x = np.asarray(x, dtype=float)
    n = region.n
    rng = np.random.default_rng(seed)
    cs, hw = [], []
    for r in radii:
        cmap = component_label(region, x, r, r / 256)
        label = cmap.side_labels(x)[0 if side == "upper" else 1]
        pts = x + rng.uniform(-r, r, size=(samples, n))
        inside = sum((c - xi) ** 2 for c, xi in zip(pts.T, x)) <= r * r
        hits = inside & (cmap.label_at(pts) == label)
        phat = float(np.count_nonzero(hits)) / samples
        boxvol = (2.0 * r) ** n
        cs.append(phat * boxvol / r ** n)
        hw.append(1.96 * math.sqrt(phat * (1.0 - phat) / samples)
                  * boxvol / r ** n)
    return cs, hw


@pytest.mark.parametrize("block, samples", [
    (1, 1003), (7, 1003), (cantorslit.dimension._DRAW_BLOCK, 150001)])
def test_density_blocks_match_one_draw(block, samples, monkeypatch):
    """Draws streamed in blocks of the one generator stream give the
    estimates of one draw of all samples, bit for bit, also where the last
    block is short."""
    monkeypatch.setattr(cantorslit.dimension, "_DRAW_BLOCK", block)
    assert block == 1 or samples % block
    ro = region_spec("Omega_lambda", lam=0.25)
    radii = [0.25, 0.125]
    both = measure_density_sides(ro, (0.0, 0.0), radii, samples=samples,
                                 seed=4)
    for side in ("upper", "lower"):
        want = _density_reference(ro, (0.0, 0.0), radii, samples, 4, side)
        one = measure_density_check(ro, (0.0, 0.0), radii, samples=samples,
                                    seed=4, side=side)
        for res in (one, both[side]):
            assert (res.c_per_radius, res.halfwidth) == want
            assert res.c_fit == min(want[0])


@settings(max_examples=12, deadline=None)
@given(point=st.one_of(
           st.sampled_from([(0.0625, 0.0), (0.25, 0.0), (0.8125, 0.0)]),
           st.tuples(st.floats(-1.9, -1.1), st.floats(-1.4, 1.4))),
       radii=st.lists(st.sampled_from([0.3, 0.1, 0.25, 0.0625]),
                      min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([97, 1000]),
       samples=st.integers(1, 2500))
def test_density_matches_reference_off_origin(point, radii, seed, block,
                                              samples):
    """Off-origin points, non-dyadic radii and a block that need not
    divide the sample count: both entry points give the one-draw
    reference's c_per_radius and halfwidth, bit for bit."""
    ro = region_spec("Omega_lambda", lam=0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cantorslit.dimension, "_DRAW_BLOCK", block)
        both = measure_density_sides(ro, point, radii, samples=samples,
                                     seed=seed)
        for side in ("upper", "lower"):
            want = _density_reference(ro, point, radii, samples, seed, side)
            one = measure_density_check(ro, point, radii, samples=samples,
                                        seed=seed, side=side)
            for res in (one, both[side]):
                assert (res.c_per_radius, res.halfwidth) == want


@settings(max_examples=50, deadline=None)
@given(r=st.floats(1e-6, 10.0), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 300))
@example(r=0.3, seed=7, size=300)
@example(r=0.1, seed=0, size=257)
def test_scaled_random_is_uniform(r, seed, size):
    """random(out=) scaled in place, U * 2r + (-r), is uniform(-r, r) bit
    for bit: numpy computes low + (high - low) * U, and r - (-r) = 2r."""
    buf = np.empty((size, 2))
    np.random.default_rng(seed).random(out=buf)
    buf *= 2.0 * r
    buf += -r
    want = np.random.default_rng(seed).uniform(-r, r, size=(size, 2))
    assert buf.tobytes() == want.tobytes()


def test_density_draws_off_the_label_grid_are_misses(monkeypatch):
    """A label grid smaller than the ball's box (13 x 21 cells of h = r/16
    against 32 x 32): label_at gives -1 off it, and the kernel counts
    those draws as misses, in every block."""
    monkeypatch.setattr(cantorslit.dimension, "_DRAW_BLOCK", 500)
    x, r = np.array([0.1, -0.2]), 0.3
    h = r / 16
    labels = np.random.default_rng(1).integers(
        -1, 3, size=(13, 21)).astype(np.int32)
    cmap = ComponentMap(h=h, origin=x - np.array([5.5, 12.25]) * h,
                        labels=labels, count=3)
    samples = 4321
    pts = x + np.random.default_rng(6).uniform(-r, r, size=(samples, 2))
    idx = np.floor((pts - cmap.origin) / h).astype(int)
    on = np.all((idx >= 0) & (idx < labels.shape), axis=1)
    assert on.any() and not on.all()
    want_labels = np.full(samples, -1)
    want_labels[on] = labels[tuple(idx[on].T)]
    assert cmap.label_at(pts).tolist() == want_labels.tolist()
    inside = sum((c - xi) ** 2 for c, xi in zip(pts.T, x)) <= r * r
    assert (inside & ~on).any()
    want = [int(np.count_nonzero(inside & on & (want_labels == lab)))
            for lab in (0, 1, 2)]
    counts = cantorslit.dimension._hit_counts(
        cmap, x, r, [0, 1, 2], np.random.default_rng(6), samples)
    assert counts == want


class _CountingGenerator:
    """A numpy Generator that logs each random() call."""

    def __init__(self, gen, log):
        self._gen, self._log = gen, log

    def random(self, *args, **kwargs):
        self._log.append("draw")
        return self._gen.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.mark.parametrize("point, radii, events", [
    ((0.0, 0.0), [0.25, 0.125], ["label", "draw", "label", "draw"]),
    # the lower side skips radius 1/4, so from then on the sides' streams
    # differ and a radius both sides keep draws twice
    ((0.5, 0.252), [0.25, 0.03125, 0.25],
     ["label", "draw", "label", "draw", "draw", "label", "draw"]),
])
def test_density_sides_share_one_pass(point, radii, events, monkeypatch):
    """measure_density_sides draws once per radius for both sides while
    their generators agree, and once per side after one side skipped."""
    log = []
    real_rng, real_label = np.random.default_rng, component_label

    def rng(seed):
        return _CountingGenerator(real_rng(seed), log)

    def label(*args):
        log.append("label")
        return real_label(*args)
    monkeypatch.setattr(np.random, "default_rng", rng)
    monkeypatch.setattr(cantorslit.dimension, "component_label", label)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        measure_density_sides(region_spec("Omega_lambda", lam=0.25), point,
                              radii, samples=3000, seed=9)
    assert log == events


def test_density_peak_memory_follows_the_block():
    """10^6 draws at one radius peak at 4.1 MiB under tracemalloc, flood
    fill included; one draw of all of them peaked at 48.7 MiB."""
    ro = region_spec("Omega_lambda", lam=0.25)
    tracemalloc.start()
    try:
        measure_density_check(ro, (0.0, 0.0), [0.25], samples=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_density_full_ball_interior():
    # a ball fully inside the domain: density approaches the ball volume pi
    ro = region_spec("Omega_lambda", lam=0.25)
    res = measure_density_check(ro, (-1.5, 0.0), [0.2], samples=200000,
                                seed=5, side="upper")
    assert res.c_fit == pytest.approx(np.pi, abs=0.05)


def test_density_rejects_bad_side():
    ro = region_spec("Omega_lambda", lam=0.25)
    with pytest.raises(ValueError):
        measure_density_check(ro, (0.0, 0.0), [0.25], samples=100, side="middle")


def test_density_rejects_no_samples():
    ro = region_spec("Omega_lambda", lam=0.25)
    with pytest.raises(ValueError, match="samples"):
        measure_density_check(ro, (0.0, 0.0), [0.25], samples=0)
