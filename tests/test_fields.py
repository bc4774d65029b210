"""Tests for masked grid fields, seminorms, projections, and the energy check."""

import math

import numpy as np
import pytest

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
from cantorslit.regions import region_spec


def box_field(f, h=1.0 / 64.0, lo=(0.0, 0.0), hi=(1.0, 1.0)):
    """Unmasked field of f at the cell centers of the box [lo, hi]."""
    bbox = np.array([lo, hi], dtype=float)
    shape = tuple(int(round(m)) for m in (bbox[1] - bbox[0]) / h)
    u = GridField(bbox=bbox, h=h, values=np.zeros(shape),
                  mask=np.ones(shape, dtype=bool))
    u.values = f(u.centers()).reshape(shape)
    return u


def test_grid_sample_shape_and_values():
    u = box_field(lambda X: X[:, 0] + 2.0 * X[:, 1])
    assert u.grid_shape == (64, 64)
    assert np.all(u.mask)
    c = u.centers().reshape(64, 64, 2)
    assert np.allclose(u.values, c[:, :, 0] + 2.0 * c[:, :, 1])
    # (0.5, 0.5) lies in cell (32, 32)
    assert u.values[32, 32] == pytest.approx(0.5 + 1.0, abs=u.h * 3)


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
    c = u.centers().reshape(u.grid_shape + (2,))
    sel = g.mask & (c[:, :, 0] > 0.05) & (c[:, :, 0] < 0.95)
    assert np.max(np.abs(g.values[sel][:, 1])) < 0.5 / h


def test_seminorm_known_value():
    u = box_field(lambda X: X[:, 0])
    g = gradient(u)
    # |grad u| = 1 on the unit square
    assert seminorm_p(g, 2.0) == pytest.approx(1.0, rel=1e-10)
    assert seminorm_p(g, 1.5) == pytest.approx(1.0, rel=1e-10)


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
    pts = np.array([[0.1, 0.5], [0.4, 0.5], [0.6, 0.5]])
    assert list(F.contains_many(pts)) == [True, False, True]
    # n = 3: dyadic corners, so the 2^-12 pixel count is exact
    G = BoxUnion(n=3)
    G.add_box([0.0, 0.0, 0.0], [0.5, 0.5, 0.25])
    G.add_box([0.25, 0.25, 0.25], [0.5, 0.75, 0.75])
    assert projection_measure(G, 3) == 0.3125
    assert projection_measure(G, 1) == 0.375
    assert pixel_projection_measure(G, 3, h=2.0 ** -6) == 0.3125
    assert projection_measure(BoxUnion(n=3), 2) == 0.0


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
