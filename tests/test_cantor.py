"""Tests for the Cantor set distance and construction helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorslit.cantor import (
    CantorSpec,
    box_dimension_estimate,
    c_distance_grid,
    cantor_dim,
    cell_endpoints,
    cell_left_endpoints,
    construction_intervals,
    fat_thin_cantor,
    interval_union_distance,
    k_distance,
    k_distance_many,
    k_gap_mid_many,
    k_nearest_many,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        CantorSpec(lam=0.5)
    with pytest.raises(ValueError):
        CantorSpec(lam=-0.1)
    with pytest.raises(ValueError):
        CantorSpec(kind="variable", ratios=())
    with pytest.raises(ValueError):
        CantorSpec(kind="nope", lam=0.25)
    for bad in (0.6, 0.0):
        with pytest.raises(ValueError):
            CantorSpec(kind="variable", ratios=(0.25, bad))


def test_k_distance_known_points():
    spec = CantorSpec(lam=0.25)
    for x in (0.0, 0.25, 0.75, 1.0, 1.0 / 16.0, 13.0 / 16.0):
        assert k_distance(x, spec) <= 2.0 ** -39
    # the central gap (1/4, 3/4) peaks at the midpoint
    assert abs(k_distance(0.5, spec) - 0.25) <= 2.0 ** -39
    # outside [0, 1] the distance is to the nearest endpoint
    assert abs(k_distance(-0.5, spec) - 0.5) <= 2.0 ** -39
    assert abs(k_distance(1.25, spec) - 0.25) <= 2.0 ** -39
    # no negative zero at set points, scalar or vector
    assert math.copysign(1.0, k_distance(0.0, spec)) == 1.0
    assert math.copysign(1.0, k_distance_many(np.array([0.0]), spec)[0]) == 1.0


def test_k_distance_matches_interval_union():
    spec = CantorSpec(lam=0.25)
    xs = np.linspace(-0.2, 1.2, 257)
    d_cert = k_distance_many(xs, spec)
    d_iv = interval_union_distance(xs, spec, depth=20)
    # depth-20 cells have length 4^-20; the union over-approximates K
    assert np.all(d_iv <= d_cert + 2.0 ** -39)
    assert np.all(d_cert <= d_iv + 0.25 ** 20 + 2.0 ** -39)


def test_k_distance_many_matches_scalar():
    spec = CantorSpec(lam=1.0 / 8.0)
    xs = np.linspace(0.0, 1.0, 101)
    many = k_distance_many(xs, spec)
    for x, d in zip(xs, many):
        assert k_distance(float(x), spec) == pytest.approx(d, abs=0.0)


def test_k_nearest_realizes_distance():
    spec = CantorSpec(lam=0.25)
    xs = np.linspace(-0.1, 1.1, 97)
    near = k_nearest_many(xs, spec)
    dist = k_distance_many(xs, spec)
    assert np.allclose(np.abs(xs - near), dist, atol=2.0 ** -38)
    assert k_nearest_many(np.array([0.4]), spec)[0] == pytest.approx(
        0.25, abs=2.0 ** -38)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       x=st.floats(-0.5, 1.5))
def test_descent_nearest_point_property(lam, x):
    spec = CantorSpec(lam=lam)
    near = float(k_nearest_many(np.array([x]), spec)[0])
    assert abs(abs(x - near) - k_distance(x, spec)) <= 2.0 ** -38
    assert k_distance(near, spec) <= 2.0 ** -38


def test_descent_of_subnormal_ratio_does_not_overflow():
    """Each level rescales only the surviving branch, so tiny x under a
    subnormal lambda neither overflows nor warns."""
    spec = CantorSpec(lam=2.2e-310)
    xs = np.array([1e-320, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = k_distance_many(xs, spec)
        near = k_nearest_many(xs, spec)
    assert np.all(np.isfinite(dist)) and np.all(np.isfinite(near))
    assert np.all(dist <= 2.0 ** -39)


@pytest.mark.parametrize("spec", [
    fat_thin_cantor(3), fat_thin_cantor(8), fat_thin_cantor(12),
    CantorSpec(kind="variable", ratios=(0.25, 0.4, 0.1, 0.5, 0.3)),
], ids=["fat_thin_3", "fat_thin_8", "fat_thin_12", "variable_5"])
def test_descent_stops_at_the_spec_depth(spec):
    """A variable spec's cells stay longer than 2^-40, so the descent ends
    at its depth: the distance is then to the depth-level interval union."""
    xs = np.concatenate([np.linspace(-0.2, 1.2, 4001),
                         construction_intervals(spec, spec.depth).ravel()])
    d_ref = interval_union_distance(xs, spec, spec.depth)
    assert np.max(np.abs(k_distance_many(xs, spec) - d_ref)) <= 2.0 ** -40


def test_gap_midpoints_bracket_points():
    spec = CantorSpec(lam=0.25)
    mids = k_gap_mid_many(np.array([0.5, 0.3, 0.7]), spec)
    assert np.allclose(mids, 0.5, atol=2.0 ** -38)
    # outside the unit interval the surrounding gap is infinite
    mids = k_gap_mid_many(np.array([-0.5, 1.5]), spec)
    assert mids[0] == -math.inf and mids[1] == math.inf


def test_c_distance_product():
    spec = CantorSpec(lam=0.25)
    d = c_distance_grid([np.array([0.5, 0.25]), np.array([0.5, 0.75])], spec)
    assert d.shape == (2, 2)
    # distance in the plane to K x K from (1/2, 1/2) is 0.25 * sqrt(2)
    assert d[0, 0] == pytest.approx(0.25 * math.sqrt(2.0), abs=1e-9)
    # on the product set
    assert d[1, 1] <= 1e-9


def test_cantor_dim_formula():
    assert cantor_dim(CantorSpec(lam=0.25), 2) == pytest.approx(0.5)
    assert cantor_dim(CantorSpec(lam=1.0 / 8.0), 2) == pytest.approx(1.0 / 3.0)
    assert cantor_dim(CantorSpec(lam=0.25), 3) == pytest.approx(1.0)


def test_construction_intervals_and_measure():
    spec = CantorSpec(lam=0.25)
    iv = construction_intervals(spec, 3)
    assert iv.shape == (8, 2)
    widths = iv[:, 1] - iv[:, 0]
    assert np.allclose(widths, 0.25 ** 3)
    assert widths.sum() == pytest.approx(0.5 ** 3)
    lefts = cell_left_endpoints(spec, 2)
    assert lefts.shape == (4,)
    ends = cell_endpoints(spec, 1)
    assert np.allclose(np.sort(ends), [0.0, 0.25, 0.75, 1.0])


def test_fat_thin_ratios():
    spec = fat_thin_cantor(8)
    assert spec.kind == "variable"
    assert len(spec.ratios) == 8
    # ratios increase toward 1/2 (box dimension 1) while the retained
    # length decreases to zero (sum of the removed proportions diverges)
    assert all(a < b < 0.5 for a, b in zip(spec.ratios, spec.ratios[1:]))
    retained = [np.diff(construction_intervals(spec, d), axis=1).sum()
                for d in (4, 8)]
    assert retained[1] < retained[0]


def test_box_dimension_estimate():
    # fixed-ratio set at box scales coarser than the cell length
    spec = CantorSpec(lam=0.25)
    est = box_dimension_estimate(spec, depth=8, box_gens=range(2, 16))
    assert abs(est - 0.5) <= 0.07
    # the fat/thin set has full box dimension in the sub-cell regime
    ft = fat_thin_cantor(12)
    assert box_dimension_estimate(ft, 12) > 0.9
