"""Cantor set generators and distance oracles.

K(lam) is the attractor of the IFS {x -> lam*x, x -> lam*x + 1 - lam} on
[0,1]; its (n-1)-fold product gives the product Cantor set used by the slit
domains.  A variable-ratio variant removes a different middle proportion at
each construction step, which allows sets of full dimension but zero length.

All distances are resolved by recursive descent down the construction tree
and certified to the absolute tolerance DEFAULT_TOL = 2^-40; only the
per-axis descents of a product distance take a finer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 2.0 ** -40


@dataclass(frozen=True)
class CantorSpec:
    """Description of a one-dimensional Cantor set (and its product powers).

    kind   : "fixed" (single contraction ratio) or "variable" (ratio
             sequence, one per construction step).
    lam    : contraction ratio in (0, 1/2), fixed kind only.
    ratios : per-step ratios in (0, 1/2], variable kind only.
    """

    kind: str = "fixed"
    lam: float | None = None
    ratios: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ("fixed", "variable"):
            raise ValueError(f"unknown Cantor kind {self.kind!r}")
        if self.kind == "fixed":
            if self.lam is None or not (0.0 < self.lam < 0.5):
                raise ValueError("fixed-ratio spec needs lambda in (0, 1/2)")
        else:
            if not self.ratios:
                raise ValueError("variable-ratio spec needs a ratio sequence")
            # each factor 2r <= 1, so the retained length never grows
            if not all(0.0 < r <= 0.5 for r in self.ratios):
                raise ValueError("variable ratios must lie in (0, 1/2]")

    @property
    def depth(self) -> int:
        """Construction steps resolved: the ratio count, or 60 for fixed."""
        return 60 if self.kind == "fixed" else len(self.ratios)

    def ratio_at(self, level: int) -> float:
        if self.kind == "fixed":
            return self.lam
        return self.ratios[level]


def _check_tol(tol: float):
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError("tol must be positive and finite")


def _descend(x, spec: CantorSpec, tol: float, full: bool = False):
    """The one descent down the construction tree, elementwise over x.

    Outside [0,1] the nearest point is the closest endpoint, inside the
    removed middle gap it is the closest gap endpoint, otherwise the query is
    rescaled into the surviving branch; a point stops once its cell is
    shorter than tol or the spec's depth is reached.  Returns the distance,
    or with full=True the triple (distance, nearest point, gap midpoint).
    Settled points leave the working arrays, so each level costs only what
    is still descending.
    """
    _check_tol(tol)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    t = x.ravel().copy()
    dist = np.empty(t.shape)
    if full:
        near, mid = np.empty(t.shape), np.empty(t.shape)
        offset = np.zeros(t.shape)
    scale = np.ones(t.shape)
    idx = np.arange(t.size)
    level = 0
    while idx.size:
        edge = (t <= 0.0) | (t >= 1.0)
        if level < spec.depth:
            lam = spec.ratio_at(level)
            cut = ~edge & (scale < tol)
            gap = ~(edge | cut) & (t >= lam) & (t <= 1.0 - lam)
        else:
            cut, gap = ~edge, np.zeros(t.shape, dtype=bool)
        done = edge | cut | gap
        k, ts, ss, cs, gs = idx[done], t[done], scale[done], cut[done], gap[done]
        left = ts <= 0.0
        # abs, not negation: a point at a left end has distance +0.0
        d = np.where(left, np.abs(ts), ts - 1.0)
        if gs.any():
            d = np.where(gs, np.minimum(ts - lam, (1.0 - lam) - ts), d)
        dist[k] = np.where(cs, 0.0, d * ss)
        if full:
            os_ = offset[done]
            pt = np.where(left | cs, os_, os_ + ss)
            md = np.where(cs, np.nan, np.where(left, -np.inf, np.inf))
            if gs.any():
                pt = np.where(gs, os_ + ss * np.where(
                    ts - lam <= (1.0 - lam) - ts, lam, 1.0 - lam), pt)
                md = np.where(gs, os_ + ss * 0.5, md)
            near[k], mid[k] = pt, md
        go = ~done
        if not go.any():
            break
        # descend into the surviving branch; here level < depth
        t, scale, idx = t[go], scale[go], idx[go]
        hi = t > 1.0 - lam
        if full:
            offset = offset[go] + np.where(hi, scale * (1.0 - lam), 0.0)
        t = (t - np.where(hi, 1.0 - lam, 0.0)) / lam
        scale = scale * lam
        level += 1
    if full:
        return tuple(a.reshape(x.shape) for a in (dist, near, mid))
    return dist.reshape(x.shape)


def k_distance(x: float, spec: CantorSpec) -> float:
    """Distance from a real x to the 1-D Cantor set, within 2^-40."""
    return float(_descend(x, spec, DEFAULT_TOL))


def k_distance_many(x, spec: CantorSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorised k_distance over an array of reals."""
    return _descend(x, spec, tol)


def k_nearest_many(x, spec: CantorSpec) -> np.ndarray:
    """Points of the 1-D Cantor set within 2^-40 of the nearest ones to x."""
    return _descend(x, spec, DEFAULT_TOL, full=True)[1]


def k_gap_mid_many(x, spec: CantorSpec) -> np.ndarray:
    """Midpoint of the construction gap around each x (vectorised).

    Returns -inf / +inf for points left of 0 / right of 1 (half-infinite
    gaps) and nan for points inside a construction cell at the recursion
    cutoff (no surrounding gap resolved).  The midpoint is where the local
    distance function to the set peaks, which certified boundary witnesses
    need in order not to overshoot the active cone of the nearest point.
    Descends to 2^-40.
    """
    return _descend(x, spec, DEFAULT_TOL, full=True)[2]


def _product_distance(coords, spec: CantorSpec) -> np.ndarray:
    """Distance, within 2^-40, to the product set from per-axis coordinates.

    Nearest-point coordinates decouple on a product set, so the distance is
    the l2 norm of the per-axis distances, each resolved to 2^-40/sqrt(axes).
    The arrays broadcast against each other: equal shapes give points, axes
    shaped along their own dimension give a tensor grid.
    """
    per_tol = DEFAULT_TOL / math.sqrt(len(coords))
    return np.sqrt(sum(k_distance_many(c, spec, per_tol) ** 2 for c in coords))


def c_distance_grid(axes: list[np.ndarray], spec: CantorSpec) -> np.ndarray:
    """Distance, within 2^-40, to the product set prod K in R^len(axes) on a
    tensor grid given the per-axis coordinates."""
    k = len(axes)
    return _product_distance([np.reshape(a, [-1 if j == i else 1 for j in range(k)])
                              for i, a in enumerate(axes)], spec)


def cantor_dim(spec: CantorSpec, n: int) -> float:
    """Hausdorff dimension of the (n-1)-fold product set: -(n-1) ln2 / ln lam."""
    if spec.kind != "fixed":
        raise ValueError("closed-form dimension needs a fixed-ratio spec; "
                         "use the net-hierarchy estimator instead")
    if n < 2:
        raise ValueError("n must be >= 2")
    return -(n - 1) * math.log(2.0) / math.log(spec.lam)


def fat_thin_cantor(depth: int) -> CantorSpec:
    """Variable-ratio set removing middle proportion 1/(k+2) at step k.

    The removed proportions satisfy sum 1/(k+2) = inf (so the limit set has
    zero length) while 1/(k+2) -> 0 (so its box dimension is 1).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ratios = tuple((1.0 - 1.0 / (k + 2)) / 2.0 for k in range(1, depth + 1))
    return CantorSpec(kind="variable", ratios=ratios)


def construction_intervals(spec: CantorSpec, depth: int) -> np.ndarray:
    """(2^depth, 2) array of [left, right] construction intervals."""
    if depth < 0 or depth > spec.depth:
        raise ValueError(f"depth must be in [0, {spec.depth}]")
    iv = np.array([[0.0, 1.0]])
    for k in range(depth):
        lam = spec.ratio_at(k)
        length = iv[:, 1] - iv[:, 0]
        left = np.stack([iv[:, 0], iv[:, 0] + lam * length], axis=1)
        right = np.stack([iv[:, 1] - lam * length, iv[:, 1]], axis=1)
        iv = np.concatenate([left, right])
        iv = iv[np.argsort(iv[:, 0])]
    return iv


def cell_left_endpoints(spec: CantorSpec, depth: int) -> np.ndarray:
    """Sorted left endpoints of the depth-level construction intervals."""
    return construction_intervals(spec, depth)[:, 0]


def cell_endpoints(spec: CantorSpec, depth: int) -> np.ndarray:
    """Sorted distinct endpoints of the depth-level construction intervals."""
    iv = construction_intervals(spec, depth)
    return np.unique(iv.ravel())


def interval_union_distance(x, spec: CantorSpec, depth: int) -> np.ndarray:
    """Distance from x to the union of depth-level construction intervals.

    Underestimates the distance to the limit set by at most the interval
    length at that depth.
    """
    iv = construction_intervals(spec, depth)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    left, right = iv[:, 0], iv[:, 1]
    j = np.searchsorted(left, x, side="right") - 1
    jc = np.clip(j, 0, len(iv) - 1)
    inside = (j >= 0) & (x <= right[jc])
    # distance to the previous interval's right end and next interval's left end
    d_prev = np.where(j >= 0, x - right[jc], np.inf)
    jn = np.clip(j + 1, 0, len(iv) - 1)
    d_next = np.where(j + 1 <= len(iv) - 1, left[jn] - x, np.inf)
    d = np.minimum(np.abs(d_prev), np.abs(d_next))
    return np.where(inside, 0.0, d)


def box_dimension_estimate(spec: CantorSpec, depth: int,
                           box_gens: range | None = None) -> float:
    """Box-counting dimension of the depth-level interval union.

    Counts dyadic boxes of size 2^-g meeting the union and fits the slope of
    log N against g * log 2.  The default box sizes straddle the interval
    length at the given depth, the finest scale at which the approximant
    still carries information about the limit set.
    """
    iv = construction_intervals(spec, depth)
    if box_gens is None:
        finest = int(round(-math.log2(float(iv[0, 1] - iv[0, 0]))))
        box_gens = range(max(2, finest), finest + 9)
    gens, counts = [], []
    for g in box_gens:
        eps = 2.0 ** -g
        lo = np.floor(iv[:, 0] / eps).astype(np.int64)
        hi = np.floor(iv[:, 1] / eps - 1e-12).astype(np.int64)
        boxes = set()
        for a, b in zip(lo, hi):
            boxes.update(range(a, b + 1))
        gens.append(g)
        counts.append(len(boxes))
    gens = np.asarray(gens, dtype=float)
    counts = np.asarray(counts, dtype=float)
    slope = np.polyfit(gens * math.log(2.0), np.log(counts), 1)[0]
    return float(slope)
