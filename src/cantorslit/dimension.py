"""Separated-net hierarchies, a dimension upper-bound estimator, and
measure-density verification.

The estimator builds maximal r-separated nets of the Cantor slit set at
geometric scales and certifies the smallest exponent s for which the
cross-scale ball counts N_j stay below lambda^(-js).  Density checks run
seeded Monte Carlo volume estimates of the slit component attached to a
boundary point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cantor import CantorSpec, cell_endpoints
from .regions import RegionSpec, component_label


def separated_net(candidates: np.ndarray, r: float) -> np.ndarray:
    """Greedy maximal r-separated subset of an ordered candidate set.

    Candidates are visited in the given order and accepted when at least r
    from every accepted point, so the result is deterministic and maximal
    over the candidates: every rejected candidate lies within r of the net.
    Distances are sqrt of the row sums of squares, np.linalg.norm's value
    wherever the difference has one nonzero coordinate (as between
    cantor_candidates' points); with two or more, norm's BLAS dot may fuse
    or reorder the sum and differ in the last bit.
    """
    if r <= 0:
        raise ValueError("separation radius must be positive")
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    net = np.empty_like(candidates)
    k = 0
    for c in candidates:
        d = net[:k] - c
        d *= d
        if (np.sqrt(d.sum(axis=1)) >= r).all():
            net[k] = c
            k += 1
    return net[:k].copy()


def cantor_candidates(spec: CantorSpec, r: float, n: int = 1) -> np.ndarray:
    """Construction-cell endpoints at a depth with cell size < r/4.

    Ascending order; for ambient dimension n >= 2 the points are lifted to
    the hyperplane x_n = 0 (the slit set C x {0} with a 1-D Cantor factor).
    """
    depth = 1
    size = 1.0
    while size >= r / 4.0:
        size *= spec.ratio_at(depth - 1)
        depth += 1
        if depth > spec.depth:
            warnings.warn("candidate set coarser than r/4; maximality "
                          "not certified", stacklevel=2)
            break
    xs = cell_endpoints(spec, min(depth, spec.depth))
    if n == 1:
        return xs[:, None]
    pts = np.zeros((len(xs), n))
    pts[:, 0] = xs
    return pts


@dataclass
class NetHierarchy:
    """Nets of the target set at scales lambda^i, with cross-scale counts.

    The level-i net is 2 lambda^i-separated.
    """

    cantor: CantorSpec
    n: int
    levels: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def lam(self) -> float:
        return self.cantor.lam

    def radius(self, i: int) -> float:
        return 2.0 * self.lam ** i

    def net_counts(self, i: int, k: int, j: int) -> int:
        """Number of level-(i+j) net balls meeting B(x_k^i, lambda^i)."""
        if i not in self.levels or i + j not in self.levels:
            raise KeyError(f"levels {i} and {i + j} must both be built")
        x = self.levels[i][k]
        deep = self.levels[i + j]
        lim = self.lam ** i + self.lam ** (i + j)
        d = np.linalg.norm(deep - x, axis=1)
        return int(np.count_nonzero(d <= lim))


def build_net_hierarchy(cantor: CantorSpec, levels: int,
                        n: int = 2) -> NetHierarchy:
    """2 lambda^i-separated nets of C x {0} at levels i = 1 .. levels."""
    h = NetHierarchy(cantor=cantor, n=n)
    for i in range(1, levels + 1):
        r = h.radius(i)
        cand = cantor_candidates(cantor, r, n=n)
        h.levels[i] = separated_net(cand, r)
    return h


@dataclass
class DimEstimate:
    s: float
    certified: bool
    certificate: dict[tuple[int, int], tuple[int, int]]
    levels: int


def dim_upper_estimate(h: NetHierarchy) -> DimEstimate:
    """Smallest exponent s on the grid 0.01, 0.02, .., 1.50 certified by the
    cross-scale counts.

    s is accepted when every built net point x_k^i (with at least one
    deeper level available) admits some offset j >= 1 with
    N_j^{i,k} < lambda^(-js).  The certificate records the witnessing
    (j, N_j) per (i, k).  If no grid value works, the grid maximum is
    returned uncertified.
    """
    built = sorted(h.levels)
    if len(built) < 3:
        raise ValueError("need at least three built levels")
    lam = h.lam
    counts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in built:
        deeper = [l for l in built if l > i]
        if not deeper:
            continue
        for k in range(len(h.levels[i])):
            counts[(i, k)] = [(l - i, h.net_counts(i, k, l - i))
                              for l in deeper]
    s_grid = np.arange(0.01, 1.51, 0.01)
    for s in s_grid:
        cert: dict[tuple[int, int], tuple[int, int]] = {}
        ok = True
        for key, rows in counts.items():
            hit = next(((j, nj) for j, nj in rows if nj < lam ** (-j * s)),
                       None)
            if hit is None:
                ok = False
                break
            cert[key] = hit
        if ok:
            return DimEstimate(s=float(s), certified=True, certificate=cert,
                               levels=len(built))
    return DimEstimate(s=float(s_grid[-1]), certified=False, certificate={},
                       levels=len(built))


# ---------------------------------------------------------------------------
# measure density


@dataclass
class DensityResult:
    point: np.ndarray
    radii: list[float]
    c_per_radius: list[float]
    halfwidth: list[float]
    c_fit: float
    samples: int
    seed: int


SIDES = ("upper", "lower")

# uniform draws per block of a density estimate: bounds its temporaries
_DRAW_BLOCK = 1 << 16


class NoComponentError(ValueError):
    """No radius found a component on one side of the point."""

    def __init__(self, side: str):
        super().__init__(f"no radius produced a component estimate ({side})")
        self.side = side


def measure_density_check(region: RegionSpec, x, radii: list[float],
                          samples: int = 10 ** 6, seed: int = 0,
                          side: str = "upper") -> DensityResult:
    """Monte Carlo density of the component of region attached to x.

    For each radius the component is resolved by flood fill on a grid of
    spacing r/256, attached through the witness of ComponentMap.side_labels
    on the requested side, and its volume inside B(x, r) is estimated
    from `samples` seeded uniform draws in the bounding box of the ball.
    The draws are streamed in blocks of _DRAW_BLOCK rows of the one
    generator stream, which fills in C order, so the hit count is that of
    one draw of all `samples` rows, bit for bit, and memory does not grow
    with `samples`.
    c_fit is the minimum over radii of volume / r^n, with 95% confidence
    half-widths reported per radius.  Radii with no component on the side
    are skipped with a warning; NoComponentError when all are.
    """
    if side not in SIDES:
        raise ValueError("side must be 'upper' or 'lower'")
    return _measure_density(region, x, radii, samples, seed, (side,))[side]


def measure_density_sides(region: RegionSpec, x, radii: list[float],
                          samples: int = 10 ** 6,
                          seed: int = 0) -> dict[str, DensityResult]:
    """measure_density_check for both sides, labelling each radius once.

    Each side draws from its own generator seeded with seed, so its result
    is that of measure_density_check on that side alone, bit for bit.
    While the two generators are in one state, that is until one side
    skips a radius, one pass of draws serves both sides: each side's label
    is compared on the same cells, and the state is copied to the other
    generator after the pass.  The upper side's skip warnings come first;
    NoComponentError names the first side with no component, after that
    side's warnings.
    """
    return _measure_density(region, x, radii, samples, seed, SIDES)


def _measure_density(region, x, radii, samples, seed, sides):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = np.asarray(x, dtype=float)
    n = region.n
    rng = {s: np.random.default_rng(seed) for s in sides}
    cs = {s: [] for s in sides}
    hw = {s: [] for s in sides}
    skipped = {s: [] for s in sides}
    for r in radii:
        cmap = component_label(region, x, r, r / 256)
        labels = dict(zip(SIDES, cmap.side_labels(x)))
        # sides whose generators are in one state share a pass; they part
        # only after one of them skips a radius
        passes: dict[str, list[str]] = {}
        for s in sides:
            if labels[s] < 0:
                skipped[s].append(r)
                continue
            passes.setdefault(repr(rng[s].bit_generator.state), []).append(s)
        for p in passes.values():
            counts = _hit_counts(cmap, x, r, [labels[s] for s in p],
                                 rng[p[0]], samples)
            for s in p[1:]:
                rng[s].bit_generator.state = rng[p[0]].bit_generator.state
            for s, hits in zip(p, counts):
                phat = float(hits) / samples
                boxvol = (2.0 * r) ** n
                vol = phat * boxvol
                cs[s].append(vol / r ** n)
                hw[s].append(1.96 * math.sqrt(phat * (1.0 - phat) / samples)
                             * boxvol / r ** n)
        del cmap                # before the next radius's labelling
    out = {}
    for s in sides:
        for r in skipped[s]:
            # the caller of the public function
            warnings.warn(f"no component at radius {r}; skipped", stacklevel=3)
        if not cs[s]:
            raise NoComponentError(s)
        out[s] = DensityResult(point=x, radii=list(radii), c_per_radius=cs[s],
                               halfwidth=hw[s], c_fit=min(cs[s]),
                               samples=samples, seed=seed)
    return out


def _hit_counts(cmap, x, r, labels, rng, samples) -> list[int]:
    """Per label, the number of `samples` draws uniform in the box
    x + [-r, r)^n that fall in B(x, r) on a cell carrying that label.

    The draws come in blocks of _DRAW_BLOCK rows, and each block works in
    place in scratch arrays allocated once: random(out=) scaled as
    uniform(-r, r) computes it (-r + 2r U, bit for bit), the squares of
    the ball test added column by column in np.sum's order, and the
    labels gathered by ComponentMap.labels_into.
    """
    n = len(x)
    block = min(_DRAW_BLOCK, samples)
    pts = np.empty((block, n))
    acc, k = np.empty(block), np.empty(block)
    flat = np.empty(block, np.intp)
    lab = np.empty(block, cmap.labels.dtype)
    inside, hit = np.empty(block, bool), np.empty(block, bool)
    counts = [0] * len(labels)
    for a in range(0, samples, block):
        size = min(block, samples - a)
        p, d, t, b = pts[:size], acc[:size], k[:size], inside[:size]
        rng.random(out=p)
        p *= 2.0 * r
        p += -r
        p += x
        cols = p.T
        np.subtract(cols[0], x[0], out=d)
        d *= d
        for c, xi in zip(cols[1:], x[1:]):
            np.subtract(c, xi, out=t)
            t *= t
            d += t
        np.less_equal(d, r * r, out=b)
        cmap.labels_into(cols, lab[:size], d, t, flat[:size])
        for i, label in enumerate(labels):
            h = np.equal(lab[:size], label, out=hit[:size])
            h &= b
            counts[i] += int(np.count_nonzero(h))
    return counts
