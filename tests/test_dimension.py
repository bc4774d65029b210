"""Tests for separated nets, the dimension estimator, and density checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

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
from cantorslit.regions import component_label, region_spec


def test_separated_net_separation_and_maximality():
    cand = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
    net = separated_net(cand, 0.25)
    d = np.abs(net[:, None, 0] - net[None, :, 0])
    off = d[~np.eye(len(net), dtype=bool)]
    assert np.all(off >= 0.25 - 1e-12)
    # every candidate is within r of some net point (maximality)
    dc = np.min(np.abs(cand[:, 0][:, None] - net[None, :, 0]), axis=1)
    assert np.all(dc < 0.25)


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
