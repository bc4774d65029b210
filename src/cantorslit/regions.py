"""Membership and component oracles for the slit domains.

The domains are built from a box D with a rectangular notch removed and a
"tent" region N(lam) pinched on the product Cantor set:

    D         = (0,1)^{n-2} x ((-2,1) x (-3/2,3/2) \\ [-1,0] x [-1,1])
    N(lam)    = {x in [0,1]^{n-1} x [-1,1] : |x_n| <= dist(x', C(lam))}
    Omega     = D \\ N(lam)
    Q0_tilde  = (0,1)^{n-2} x ((-2,1) x (-3/2,3/2) \\ [-1,1] x [-1,1])

with x' = (x_1, ..., x_{n-1}).  A planar variant Omega_2 replaces C(lam)
with a variable-ratio Cantor set of dimension 1 and length 0.

N(lam) is written with |x_n| and a symmetric slab so that the pinch set
C(lam) x {0} is approachable from both half-spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .cantor import (CantorSpec, _product_distance,
                     cell_left_endpoints, fat_thin_cantor,
                     interval_union_distance)

REGION_KINDS = ("D", "N_lambda", "Omega_lambda", "Q0_tilde", "Omega2")

# D's profile in the last two coordinates, as (lower corner, upper corner):
# the open box minus the closed notch; Q0_tilde removes the closed hole
# instead of the notch
D_BOX = ((-2.0, -1.5), (1.0, 1.5))
D_NOTCH = ((-1.0, -1.0), (0.0, 1.0))
Q0_HOLE = ((-1.0, -1.0), (1.0, 1.0))


@dataclass(frozen=True)
class RegionSpec:
    kind: str
    n: int = 2
    cantor: CantorSpec | None = None

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.kind in ("N_lambda", "Omega_lambda") and self.cantor is None:
            raise ValueError(f"{self.kind} needs a Cantor spec")
        if self.kind == "Omega2":
            if self.n != 2:
                raise ValueError("Omega2 is planar")
            if self.cantor is not None and self.cantor.kind != "variable":
                raise ValueError("Omega2 needs a variable-ratio Cantor spec")

    @property
    def bbox(self) -> np.ndarray:
        """(2, n) array of [lower corner; upper corner] containing the closure."""
        n = self.n
        lo = np.zeros(n)
        hi = np.ones(n)
        if self.kind in ("D", "Omega_lambda", "Q0_tilde"):
            lo[n - 2:], hi[n - 2:] = D_BOX
        elif self.kind == "N_lambda":
            lo[n - 1], hi[n - 1] = -1.0, 1.0
        elif self.kind == "Omega2":
            lo[:], hi[:] = -1.0, 1.0
        return np.stack([lo, hi])


def region_spec(kind: str, lam: float | None = None, n: int = 2) -> RegionSpec:
    """Convenience constructor; builds the tent kinds' Cantor spec from lam."""
    tent = lam is not None and kind in ("N_lambda", "Omega_lambda")
    return RegionSpec(kind=kind, n=n, cantor=CantorSpec(lam=lam) if tent else None)


def _check_dim(spec: RegionSpec, x: np.ndarray):
    if x.shape != (spec.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({spec.n},)")


def _in_region(spec: RegionSpec, coords, tent=None) -> np.ndarray:
    """Membership from n coordinate arrays that broadcast against each other.

    The one membership routine: points pass their columns, grids pass each
    axis shaped along its own dimension, so a grid's tent heights are
    per-axis descents and no (cells, n) point array is built.  D, Omega and
    Q0_tilde are open, N is closed; points within the distance tolerance of
    the tent graph are classified by the <= inequality on the height
    resolved to 2^-40; tent, when given, is that height already computed
    as _product_distance does.  Omega_2 uses its variable-ratio set at the
    spec's full depth.
    """
    n = spec.n
    a, b = coords[n - 2], coords[n - 1]
    if spec.kind == "Omega2":
        cantor = spec.cantor if spec.cantor is not None else fat_thin_cantor(12)
        over = (a >= 0.0) & (a <= 1.0)
        above = np.abs(b) > interval_union_distance(a, cantor, cantor.depth)
        return ((a > -1.0) & (a < 1.0)) & ((b > -1.0) & (b < 1.0)) & (~over | above)
    in_n = None
    if spec.kind in ("N_lambda", "Omega_lambda"):
        h = np.abs(b)
        in_n = h <= 1.0
        for x in coords[: n - 1]:
            in_n = in_n & ((x >= 0.0) & (x <= 1.0))
        if tent is None:
            tent = _product_distance(coords[: n - 1], spec.cantor)
        in_n = in_n & (h <= tent)
        if spec.kind == "N_lambda":
            return in_n
    (blo, bhi), (hlo, hhi) = D_BOX, Q0_HOLE if spec.kind == "Q0_tilde" else D_NOTCH
    inside = ((a > blo[0]) & (a < bhi[0])) & ((b > blo[1]) & (b < bhi[1]))
    inside = inside & ~(((a >= hlo[0]) & (a <= hhi[0]))
                        & ((b >= hlo[1]) & (b <= hhi[1])))
    for x in coords[: n - 2]:
        inside = inside & ((x > 0.0) & (x < 1.0))
    return inside if in_n is None else inside & ~in_n


def region_membership(spec: RegionSpec, x) -> bool:
    """Membership of one point in the open region (D, Omega, Q0) or closed N."""
    x = np.asarray(x, dtype=float)
    _check_dim(spec, x)
    return bool(_in_region(spec, list(x)))


def membership_grid(spec: RegionSpec, axes: list[np.ndarray]) -> np.ndarray:
    """Vectorised region membership on a tensor grid (cell centers)."""
    n = spec.n
    if len(axes) != n:
        raise ValueError("need one coordinate axis per dimension")
    return _in_region(spec, [np.reshape(a, [-1 if j == i else 1 for j in range(n)])
                             for i, a in enumerate(axes)])


def region_membership_many(spec: RegionSpec, X) -> np.ndarray:
    """Vectorised region membership for an (m, n) array of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.n:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {spec.n}")
    return _in_region(spec, list(X.T))


@dataclass
class ComponentMap:
    """Flood-fill labeling of region cells inside a ball window."""

    h: float
    origin: np.ndarray          # lower corner of the cell grid
    labels: np.ndarray          # -1 outside window/region, else component id
    count: int

    def label_at(self, x) -> np.ndarray:
        """Component labels of the cells containing the points x, of shape
        (..., n); -1 off the grid.  One point gives a numpy integer."""
        x = np.asarray(x, dtype=float)
        # one flat C-order cell index, built axis by axis: reductions and
        # gathers over a short last axis are several times slower
        flat, on = 0, True
        for xi, o, m in zip(np.moveaxis(x, -1, 0), self.origin,
                            self.labels.shape):
            k = np.floor((xi - o) / self.h).astype(int)
            on = on & (k >= 0) & (k < m)
            flat = flat * m + k.clip(0, m - 1)
        return np.where(on, self.labels.reshape(-1)[flat], -1)[()]

    def side_labels(self, x) -> tuple:
        """(upper, lower) labels at the witnesses x + (h, .., h, +-4h), one
        cell off the lateral faces and four off the pinch plane."""
        x = np.asarray(x, dtype=float)
        off = np.full(x.shape[-1], self.h)
        off[-1] = 4.0 * self.h
        upper = self.label_at(x + off)
        off[-1] = -off[-1]
        return upper, self.label_at(x + off)

    def cells_of(self, label: int) -> np.ndarray:
        """(m, n) array of centers of the cells carrying the given label."""
        idx = np.argwhere(self.labels == label)
        return self.origin + (idx + 0.5) * self.h


def component_label(spec: RegionSpec, center, radius: float, h: float) -> ComponentMap:
    """Deterministic flood-fill labeling of the region inside B(center, radius).

    Face adjacency (2n neighbours) is used so that the two sides of the slit
    are never connected through a grid corner.  Labels are ndimage.label's
    less one, which number components by their first cell in C order
    (pinned by test_label_numbers_components_in_c_order); -1 is off the
    window or the region.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if h > radius / 16:
        raise ValueError("grid spacing must satisfy h <= radius/16")
    center = np.asarray(center, dtype=float)
    _check_dim(spec, center)
    n = spec.n
    # cell centers on the lattice center + h*Z, so that a query point on a
    # pinch hyperplane gets a full row of centers exactly on that plane
    half = int(math.ceil(radius / h))
    m = 2 * half + 1
    origin = center - (half + 0.5) * h
    axes = [origin[i] + (np.arange(m) + 0.5) * h for i in range(n)]
    mask = membership_grid(spec, axes)
    # the ball, one axis-0 slab at a time: ((d_0^2 + d_1^2) + ...) <= r^2
    sq = [(a - c) ** 2 for a, c in zip(axes, center)]
    rest = [d.reshape([-1 if j == i else 1 for j in range(n - 1)])
            for i, d in enumerate(sq[1:])]
    for k in range(m):
        mask[k] &= sum(rest, sq[0][k]) <= radius ** 2
    structure = ndimage.generate_binary_structure(n, 1)  # faces only
    raw, count = ndimage.label(mask, structure=structure)
    raw -= 1
    return ComponentMap(h=h, origin=origin, labels=raw, count=count)


@dataclass
class TwoSidedSample:
    """Construction-corner points on the pinch plane with side witnesses."""

    points: np.ndarray                  # (m, n), all with x_n = 0
    depth: int
    witness_labels: list[tuple[int, int]] = field(default_factory=list)
    verified: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def two_sided_sample(spec: RegionSpec, depth: int) -> TwoSidedSample:
    """All depth-level lower-left Cantor cell corners, lifted to x_n = 0.

    Each point is checked for two-sidedness with flood fills of spacing
    radius/64 at radii lam^depth and lam^depth / 2: both windows must show an
    upper and a lower component, and the small-radius components must nest
    into the large ones.
    """
    if spec.kind != "Omega_lambda":
        raise ValueError("two_sided_sample expects an Omega_lambda spec")
    cantor = spec.cantor
    if depth > cantor.depth:
        raise ValueError("depth exceeds the Cantor recursion cutoff")
    n = spec.n
    lefts = cell_left_endpoints(cantor, depth)
    grids = np.meshgrid(*([lefts] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids] + [np.zeros(grids[0].size)], axis=1)

    r = cantor.lam ** depth
    sample = TwoSidedSample(points=pts, depth=depth)
    for p in pts:
        maps = {}
        ok = True
        msg = []
        for rad in (r, r / 2):
            cm = component_label(spec, p, rad, rad / 64)
            lu, ld = (int(v) for v in cm.side_labels(p))
            if lu < 0 or ld < 0 or lu == ld:
                ok = False
                msg.append(f"r={rad:g}: witnesses not in distinct components")
            maps[rad] = (cm, lu, ld)
        if ok:
            cm_s, lu_s, ld_s = maps[r / 2]
            cm_l, lu_l, ld_l = maps[r]
            for lab_s, lab_l, side in ((lu_s, lu_l, "upper"), (ld_s, ld_l, "lower")):
                big = cm_l.label_at(cm_s.cells_of(lab_s))
                # cells whose coarse container is masked out (tent boundary
                # misclassification at the coarser h) carry no information
                big = big[big >= 0]
                if big.size == 0 or not np.all(big == lab_l):
                    ok = False
                    msg.append(f"{side} component does not nest")
        sample.witness_labels.append((maps[r][1], maps[r][2]))
        sample.verified.append(ok)
        if not ok:
            sample.failures.append(f"point {p.tolist()}: " + "; ".join(msg))
    return sample
