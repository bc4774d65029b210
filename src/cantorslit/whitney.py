"""Truncated Whitney decompositions for the slit domains.

A dyadic cube is accepted once a certified two-sided bracket on its distance
to the region boundary proves sqrt(n) l(Q) <= dist(Q, boundary) <= 4 sqrt(n)
l(Q) and the center lies in the region.  The two-sided certificate makes the
standard Whitney properties W1-W4 consequences of the construction instead
of floating-point accidents: for touching accepted cubes Q_i, Q_j and a
point x in the intersection,

    sqrt(n) l_j <= dist(Q_j) <= dist(Q_i) + diam(Q_i) <= 5 sqrt(n) l_i,

so l_j <= 5 l_i, which forces l_j <= 4 l_i dyadically (W4).

The tent region N = {|x_n| <= dist(x', C)} is an intersection of 45-degree
double-cone exteriors with apexes on C x {0}, which yields distance brackets
with ratio 1 + O(tol) away from cone ridges, where tol = 2^-40 is the
oracle's one descent tolerance: the lower bound |g - |x_n||/sqrt2
is exact on each cone, and sliding toward/away from the nearest apex produces
a boundary witness realizing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from .cantor import DEFAULT_TOL, _descend, _product_distance
from .dyadic import (CubeIndex, CubeView, meets_window, order, radix_strides,
                     sides, subdivide)
from .regions import D_BOX, D_NOTCH, Q0_HOLE, RegionSpec, _in_region

# negative sentinels among cube rows: a reflection target or chain node
# that is the reservoir region, and a cube with no reflection candidate
Q0_ID = -1
UNASSIGNED = -2

# the region kinds with a certified distance oracle
ORACLE_KINDS = ("N_lambda", "Omega_lambda")

# cube samples per _bracket_cubes block: bounds the oracle's temporaries
_BLOCK_SAMPLES = 1 << 15


# ---------------------------------------------------------------------------
# distance oracles


def _box_boundary_dist(X: np.ndarray, lo, hi) -> np.ndarray:
    """|signed distance| to the boundary of the box [lo, hi], per row of X."""
    # column by column: reductions over a short last axis are ~40x slower
    q = [np.maximum(a - x, x - b) for x, a, b in zip(X.T, lo, hi)]
    top = reduce(np.maximum, q)
    p = (np.maximum(c, 0.0) for c in q)
    return np.where(top <= 0.0, -top, np.sqrt(reduce(np.add, (c * c for c in p))))


def _d_boundary_dist(X: np.ndarray) -> np.ndarray:
    """Distance to the boundary of D, per row of X.

    Exact in the profile plane, whose boundary is the union of the boundaries
    of D_BOX and D_NOTCH; the lateral faces x_i = 0, 1 (i < n-2) enter
    through a min.
    """
    n = X.shape[1]
    P = X[:, n - 2:]
    d = np.minimum(_box_boundary_dist(P, *D_BOX), _box_boundary_dist(P, *D_NOTCH))
    for i in range(n - 2):
        d = np.minimum(d, np.minimum(np.abs(X[:, i]), np.abs(X[:, i] - 1.0)))
    return d


class RegionOracle:
    """Certified brackets on dist(x, boundary) for N_lambda or Omega_lambda;
    root cubes and membership.

    bracket_many brackets the distance to the tent boundary; for Omega it
    then takes in the distance to the rectilinear boundary of D.  Brackets
    hold to the descent tolerance 2^-40.  Where x' lies outside the column
    [0,1]^{n-1}, the cone bound |g - |x_n|| / sqrt2 sees a surface |x_n| = g
    that is no boundary there, so lo also takes dist(x, B), B = [0,1]^{n-1} x
    [-G, G], G = sqrt(n-1) max_k.  Each axis distance to C is at most max_k,
    so N lies in B and dist(x, boundary of N) >= dist(x, B) for x outside B:
    the max of the two lower bounds is one.  It also returns membership from
    its own descent, member_many's bit for bit: the tent height takes the
    per-axis tolerance and summation order of _product_distance.

    For Omega at n = 2 the bracket is (min(lo_t, d_d), min(hi_t, d_d + tol))
    with (lo_t, hi_t) the tent's and d_d = dist(x, boundary of D), and D's
    boundary settles most rows alone.  A bound b on lo_t read off the
    coordinates, b = dist(x, B) - tol for x' outside the column and b =
    (|x_n| - G - tol) / sqrt2 over it, picks the rows with b >= d_d + 8 tol;
    they take (d_d, d_d + tol) and D's membership with no descent, bit for
    bit the full bracket's:
      - lo_t >= b - ulp >= d_d.  Outside the column b is lo_t's own box term,
        bit for bit.  Over it g <= G (up to tol) bounds the cone term below
        by b, and the lateral-face boxes are the apexes (c, 0), at distance
        at least |x_n| > b.
      - every hi witness is within tol of a point of the boundary of N, which
        lies in B, so hi_t >= dist(x, B) >= b - ulp > d_d + tol.
      - x' lies outside the column or |x_n| > G >= g, so x is not in N, and
        _in_region given a tent height of 0 computes D's membership.
    n >= 3 takes no such rows, as its hi does not take d_d.
    """

    def __init__(self, region: RegionSpec):
        self.region = region
        self.n = region.n
        self.cantor = region.cantor
        self._per_tol = DEFAULT_TOL / math.sqrt(self.n - 1)
        # half of the first-level gap bounds the 1-D distance function on [0,1]
        self._max_k = (1.0 - 2.0 * self.cantor.ratio_at(0)) / 2.0
        # the tent's box B = [0,1]^{n-1} x [-G, G]
        self._G = math.sqrt(self.n - 1) * self._max_k
        self._box = np.zeros(self.n), np.ones(self.n)
        self._box[0][-1], self._box[1][-1] = -self._G, self._G

    def roots(self) -> np.ndarray:
        """Generation-0 index rows of the unit cubes covering the bbox."""
        lo, hi = self.region.bbox
        axes = (range(math.floor(a), math.ceil(b)) for a, b in zip(lo, hi))
        return np.array(list(product(*axes)), dtype=np.int64)

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return _in_region(self.region, list(X.T))

    def bracket_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
        n, tol = self.n, DEFAULT_TOL
        omega = self.region.kind == "Omega_lambda"
        d_d = _d_boundary_dist(X) if omega else None
        rows = slice(None)
        if omega and n == 2:
            # the rows D's boundary does not settle alone (see above)
            out = (X[:, 0] < 0.0) | (X[:, 0] > 1.0)
            b = np.where(out, _box_boundary_dist(X, *self._box) - tol,
                         (np.abs(X[:, 1]) - self._G - tol) / math.sqrt(2.0))
            tent = b < d_d + 8.0 * tol
            if not tent.all():
                rows = np.flatnonzero(tent)
        lo, hi, g = self._tent_bracket(X[rows])
        if not isinstance(rows, slice):
            # settled rows: no tent bound, and a tent height of 0
            full = np.full((3, len(X)), np.inf)
            full[2] = 0.0
            full[:, rows] = lo, hi, g
            lo, hi, g = full
        member = _in_region(self.region, list(X.T), g)
        if not omega:
            return lo, hi, member
        if n == 2:
            hi = np.minimum(hi, d_d + tol)
        # for n >= 3 the min formula can underestimate the distance to the
        # boundary of D from outside, and notch faces may dip into the tent;
        # keep only the always-valid tent witness for the upper bound
        return np.minimum(lo, d_d), hi, member

    def _tent_bracket(self, X: np.ndarray):
        """lo, hi on the distance to the tent boundary, and the tent heights."""
        n, tol = self.n, DEFAULT_TOL
        XP, xn = X[:, :-1], X[:, -1]
        # height, nearest Cantor point and gap midpoint from one descent
        d, near, mids = _descend(XP, self.cantor, self._per_tol, full=True)
        g = np.sqrt(np.sum(d ** 2, axis=1))
        h = np.abs(xn)
        v = np.abs(g - h)
        lo = np.maximum(0.0, v - tol) / math.sqrt(2.0)

        # witnesses: graph points over candidate horizontal positions
        diff = XP - near
        rho = np.linalg.norm(diff, axis=1)
        safe = np.where(rho > 0.0, rho, 1.0)
        direction = diff / safe[:, None]
        inside = h <= g
        slide = np.where(inside, -1.0, 1.0) * (v / 2.0)
        w = XP + slide[:, None] * direction
        # keep the slide on the active cone: inside, the foot stays between
        # the apex and x'; outside, it must not pass the gap peak, beyond
        # which another apex takes over
        bound = np.where(inside[:, None], XP, mids)
        bound = np.where(np.isnan(bound), w, bound)
        w = np.clip(w, np.minimum(near, bound), np.maximum(near, bound))
        peak = np.where(np.isfinite(mids), mids, XP)
        sgn = np.where(xn >= 0.0, 1.0, -1.0)
        # hi is a min of distances to boundary points: the graph over the
        # feet w and peak, then the lateral-face witnesses
        hi = np.inf
        for foot in (w, peak):
            foot = np.clip(foot, 0.0, 1.0)
            gp = _product_distance(list(foot.T), self.cantor)
            dist = np.sum((XP - foot) ** 2, axis=1) + (xn - sgn * gp) ** 2
            hi = np.minimum(hi, np.sqrt(dist))
        # lateral faces x_i = c: exact boxes enclose their part of the tent
        # boundary.  The witness x' clipped to the column with x_i = c has
        # heights d with axis i and out-of-column axes at +0.0 (0, 1 lie in
        # K); a +0.0 term changes no sum of squares, so no descent is needed
        gamma = math.sqrt(max(n - 2, 0)) * self._max_k
        d2 = np.where((XP >= 0.0) & (XP <= 1.0), d ** 2, 0.0)
        for i, c in product(range(n - 1), (0.0, 1.0)):
            blo, bhi = np.zeros(n), np.ones(n)
            blo[i] = bhi[i] = c
            blo[n - 1], bhi[n - 1] = -gamma, gamma
            lo = np.minimum(lo, _box_boundary_dist(X, blo, bhi))
            foot = np.clip(XP, 0.0, 1.0)
            foot[:, i] = c
            gp = np.sqrt(sum(d2[:, j] for j in range(n - 1) if j != i))
            dist = np.sum((XP - foot) ** 2, axis=1) + (xn - sgn * gp) ** 2
            hi = np.minimum(hi, np.sqrt(dist))
        # x' outside the column: the distance to the tent's box B
        np.maximum(lo, _box_boundary_dist(X, *self._box) - tol, out=lo,
                   where=np.any((XP < 0.0) | (XP > 1.0), axis=1))
        return lo, hi + tol, g


def oracle_for(region: RegionSpec) -> RegionOracle:
    if region.kind not in ORACLE_KINDS:
        raise ValueError(f"no certified distance oracle for kind {region.kind!r}")
    return RegionOracle(region)


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class WhitneyDecomposition:
    """Resolved and frontier cubes as (gen, idx) arrays sorted by (gen, idx).

    A resolved cube is named by its row; cubes and frontier are views.
    window is None or a tuple of boxes ((lo), (hi)).
    """

    oracle: object
    n: int
    gen: np.ndarray                    # (m,) resolved, sorted by (gen, idx)
    idx: np.ndarray                    # (m, n)
    lo_q: np.ndarray                   # certified bracket per resolved cube
    hi_q: np.ndarray
    frontier_gen: np.ndarray
    frontier_idx: np.ndarray
    frontier_stranded: np.ndarray      # per frontier cube: never bracketed
    window: tuple | None = None
    _adj: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.index = CubeIndex(self.gen, self.idx)

    def __len__(self) -> int:
        return len(self.gen)

    @property
    def cubes(self) -> CubeView:
        return CubeView(self.gen, self.idx)

    @property
    def frontier(self) -> CubeView:
        return CubeView(self.frontier_gen, self.frontier_idx)

    @property
    def stranded(self) -> int:
        """Frontier cubes never bracketed."""
        return int(np.count_nonzero(self.frontier_stranded))

    def adjacency(self) -> dict[str, np.ndarray]:
        """Touching graph {"u": u, "v": v}, read by key: int64 rows, each
        touching pair once, u < v, sorted by (u, v).  perfbench/spans.py
        counts its edges as the values' summed lengths halved: len(u)."""
        if self._adj is None:
            self._adj = dict(zip("uv", _build_adjacency(self.idx, self.index)))
        return self._adj

    @property
    def frontier_fraction(self) -> float:
        total = len(self.gen) + len(self.frontier_gen)
        return len(self.frontier_gen) / total if total else 0.0


def _window(window, n: int) -> tuple:
    """WhitneyDecomposition.window of a box (lo, hi) or a stack of boxes:
    a tuple of the boxes."""
    boxes = np.asarray(window, dtype=float).reshape(-1, 2, n).tolist()
    return tuple(tuple(map(tuple, b)) for b in boxes)


def _bracket_cubes(oracle, gen, idx: np.ndarray, corners=None):
    """Certified bracket on dist(Q, boundary) and center membership per cube.

    Every point of a cube is within a quarter diagonal of one of its 3^n
    samples (offsets {0, 1/2, 1}^n).  The samples are the points
    Z 2^-(top+1) of one integer lattice, Z = (2 idx + {0,1,2}^n) << (top -
    gen) with top the finest generation, so cubes of any generations share
    their corner and edge samples.  The cubes go in consecutive blocks of at
    most _BLOCK_SAMPLES // 3^n, so the temporaries do not grow with m; each
    distinct point of a block is sent to bracket_many once, and a point
    shared across a block seam once per block.  bracket_many is
    row-independent and every sample is an exact dyadic, so the brackets are
    those of sampling each cube on its own, bit for bit, at any block size.

    corners, when given, holds the (lo, hi) brackets of the 2^n corner
    samples (offsets {0, 2}^n) as a (2, 2^n, m) array, as _child_corners
    hands them down; only the 3^n - 2^n samples with an odd offset are then
    sent.  The brackets of all samples come back as a (2, 3^n, m) array.

    Only the center, the exact dyadic (2 idx + 1) 2^-(gen+1), is tested for
    membership: where lo_q > 0 the closed cube misses the boundary and lies
    wholly inside or outside the region, and every sample, a quarter
    diagonal (far above 2^-40) from the boundary, computes the center's.
    The center is the sample at the odd offset (1, ..., 1), always sent, so
    bracket_many's membership gives it.
    """
    m, n = idx.shape
    offs = np.array(list(product((0, 1, 2), repeat=n)), dtype=np.int64)
    new = np.any(offs % 2 == 1, axis=1) | (corners is None)
    gen = np.broadcast_to(gen, (m,))
    samples = np.empty((2, len(offs), m))
    if corners is not None:
        samples[:, ~new] = corners
    lo_q, hi_q, center = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
    mid = np.count_nonzero(new[: len(offs) // 2])     # the center's column
    step = max(1, _BLOCK_SAMPLES // len(offs))
    for a in range(0, m, step):
        blk = slice(a, a + step)
        g, q, s = gen[blk], idx[blk], samples[..., blk]
        top = int(g.max())
        shift = (top - g)[:, None]
        # lower corners on the block's finest generation's lattice
        base = (2 * q) << shift
        zlo, zhi = base.min(axis=0), (base + (2 << shift)).max(axis=0)
        Z = (base[:, None, :] + (offs[new] << shift[:, None])).reshape(-1, n)
        _, first, inv = np.unique((Z - zlo) @ radix_strides(zlo, zhi),
                                  return_index=True, return_inverse=True)
        lo, hi, inside = oracle.bracket_many(np.ldexp(Z[first], -(top + 1)))
        # samples down the rows: np.min over a short last axis is ~2x slower
        at = inv.reshape(len(q), -1).T
        s[:, new] = np.stack((lo, hi))[:, at]
        lo_q[blk] = np.maximum(0.0, reduce(np.minimum, s[0])
                               - math.sqrt(n) * sides(g) / 4.0)
        hi_q[blk] = reduce(np.minimum, s[1])
        center[blk] = inside[at[mid]]
    return lo_q, hi_q, center, samples


def _child_corners(samples: np.ndarray, n: int) -> np.ndarray:
    """Corner sample columns of subdivide's children from their parents'.

    samples is (..., 3^n, m), one row per offset {0,1,2}^n in product order;
    the result is (..., 2^n, 2^n m), one row per corner offset {0,2}^n and
    one column per child in subdivide's order.  Child b's sample at corner
    offset o is its parent's sample at b + o/2, the same point.
    """
    b = np.array(list(product((0, 1), repeat=n)))
    # row of b + o/2 in base 3; the sum is symmetric in (o/2, b)
    rows = (b[:, None, :] + b[None, :, :]) @ 3 ** np.arange(n - 1, -1, -1)
    out = np.swapaxes(samples[..., rows, :], -1, -2)
    return out.reshape(*samples.shape[:-2], 2 ** n, -1)


def whitney_decompose(region: RegionSpec, max_gen: int,
                      window=None) -> WhitneyDecomposition:
    """Certified truncated Whitney decomposition of N_lambda or Omega_lambda.

    Brackets come from oracle_for(region), to the descent tolerance 2^-40.
    Each round brackets its cubes in blocks of _BLOCK_SAMPLES samples
    (_bracket_cubes), so peak memory follows the block, not the round.
    window, when given, is a box (lo, hi) or a stack of boxes, and prunes
    each cube whose closure misses every box; the result is then a local
    decomposition and tiling checks do not apply.  The cubes of a stacked
    run that meet one box of the stack are those of the run windowed to
    that box alone, bit for bit: a cube meets box exactly when every
    ancestor does, so both runs examine each cube meeting box; its brackets
    come from row-independent oracle calls on its own samples
    (_bracket_cubes), and its L and inherited corner brackets from its
    ancestors only, so each run decides it the same way.

    Each live cube carries L, the largest lo_q of itself and its ancestors.
    A generation-g cube with L - margin > 4 sqrt(n) 2^-g moves to a passive
    set that is only subdivided (and window-pruned) in later rounds, never
    bracketed, and joins the frontier after the max_gen round; margin =
    16 tol covers the +-tol in the oracle's lo and hi.  Bracketing a passive
    cube Q' could change nothing:
      - never accepted: each sample p of Q' has hi(p) >= dist(p, boundary)
        >= dist(ancestor, boundary) >= L, up to tol, so hi_q(Q') > 4 sqrt(n)
        l(Q'), and the bound only grows as l(Q') halves;
      - never dropped: L > 0 means an ancestor with lo_q > 0 was kept, so
        its centre is inside; that closed cube then lies inside the region
        and each descendant's centre computes inside (as in _bracket_cubes).
    The passive cubes that reach the frontier are flagged in
    frontier_stranded and counted in stranded.

    The max_gen round feeds no children, so it brackets only the cubes a
    bracket can still accept or drop.  lo_q = max(0, min over the 3^n
    samples - sqrt(n) l/4) is at most ub, the same over the 2^n inherited
    corners, bit for bit (a min over a superset; rounding is monotone).  A
    cube with ub < sqrt(n) l and ub = 0 or its centre inside (one
    member_many call) joins the frontier unbracketed and not stranded.
    """
    if max_gen < 4:
        raise ValueError("max_gen must be >= 4")
    oracle = oracle_for(region)
    n = oracle.n
    sqrtn = math.sqrt(n)
    margin = 16.0 * DEFAULT_TOL
    if window is not None:
        window = _window(window, n)
        lo, hi = np.swapaxes(window, 0, 1)
    # corners: the brackets of active's corner samples, bracketed the round
    # before as their parents' samples; none for the roots.  L: the
    # inherited certified lower bound per active cube
    active, corners = oracle.roots(), None
    L = np.zeros(len(active))
    passive = fixed = np.zeros((0, n), dtype=np.int64)
    # (gen, idx, lo_q, hi_q) of the accepted cubes, one entry per round
    found = [(np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64),
              np.zeros(0), np.zeros(0))]
    for g in range(max_gen + 1):
        if window is not None:
            meets = meets_window(g, active, lo, hi)
            active, L = active[meets], L[meets]
            if corners is not None:
                corners = corners[..., meets]
            passive = passive[meets_window(g, passive, lo, hi)]
        l = math.ldexp(1.0, -g)
        live = L - margin <= 4.0 * sqrtn * l
        if not live.all():
            passive = np.concatenate([passive, active[~live]])
            active, L = active[live], L[live]
            corners = corners[..., live]
        if g == max_gen and len(active):
            # cubes no bracket can accept or drop (see above)
            ub = np.maximum(0.0, reduce(np.minimum, corners[0]) - sqrtn * l / 4.0)
            ask = ub >= sqrtn * l
            near = ~ask & (ub > 0.0)
            ask[near] = ~oracle.member_many(np.ldexp(2 * active[near] + 1,
                                                     -(g + 1)))
            fixed = active[~ask]
            active, L, corners = active[ask], L[ask], corners[..., ask]
        if len(active):
            lo_q, hi_q, center, samples = _bracket_cubes(oracle, g, active,
                                                         corners)
            accept = (lo_q >= sqrtn * l) & (hi_q <= 4.0 * sqrtn * l) & center
            drop = ~center & (lo_q > 0.0)
            found.append((np.full(int(accept.sum()), g), active[accept],
                          lo_q[accept], hi_q[accept]))
            keep = ~accept & ~drop
            active, L = active[keep], np.maximum(L[keep], lo_q[keep])
            if g < max_gen:
                corners = _child_corners(samples[..., keep], n)
            del samples         # before the next round builds its own
        if g < max_gen:
            active, L = subdivide(active), np.repeat(L, 2 ** n)
            passive = subdivide(passive)
    # what is left after the max_gen round is the frontier
    gen, idx, lo_q, hi_q = (np.concatenate(col) for col in zip(*found))
    perm = order(gen, idx)
    fidx = np.concatenate([active, fixed, passive])
    fgen = np.full(len(fidx), max_gen, dtype=np.int64)
    fperm = order(fgen, fidx)
    stranded = np.arange(len(fidx)) >= len(active) + len(fixed)
    return WhitneyDecomposition(oracle=oracle, n=n, gen=gen[perm],
                                idx=idx[perm], lo_q=lo_q[perm], hi_q=hi_q[perm],
                                frontier_gen=fgen[fperm],
                                frontier_idx=fidx[fperm],
                                frontier_stranded=stranded[fperm],
                                window=window)


def _build_adjacency(idx: np.ndarray, index: CubeIndex) -> tuple:
    """Touching graph over cubes, exact, as (u, v) edge arrays: u < v.

    Neighbors are found from the finer side, one (finer, coarser) generation
    pair at a time: s levels coarser, index j touches ceil(j/2^s) - 1 ..
    floor((j+1)/2^s), within (j >> s) + {-1, 0, 1}.  Same-generation pairs
    are found once, from the smaller cube.
    """
    n = idx.shape[1]
    offs = np.array(list(product((-1, 0, 1), repeat=n)), dtype=np.int64)
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for gf, (a, b) in index.blocks.items():
        fine, rows = idx[a:b], np.arange(a, b)
        for gc in index.blocks:
            if gc > gf:
                break
            s = gf - gc
            lo = ((fine + (1 << s) - 1) >> s) - 1
            hi = (fine + 1) >> s
            for off in offs if s else offs[len(offs) // 2 + 1:]:
                cand = (fine >> s) + off
                ok = np.all((cand >= lo) & (cand <= hi), axis=1)
                hit = index.find(gc, cand[ok])
                src.append(rows[ok][hit >= 0])
                dst.append(hit[hit >= 0])
    src, dst = np.concatenate(src), np.concatenate(dst)
    u, v = np.minimum(src, dst), np.maximum(src, dst)
    perm = np.lexsort((v, u))
    return u[perm], v[perm]


# ---------------------------------------------------------------------------
# verification


@dataclass
class WhitneyReport:
    w1_violations: int
    w2_violations: int
    w3_violations: int
    w4_violations: int
    w6_violations: int
    boundary_crossings: int
    coverage_checked: int
    coverage_misses: int

    @property
    def total_violations(self) -> int:
        return (self.w1_violations + self.w2_violations
                + self.w3_violations + self.w4_violations + self.w6_violations)


def verify_whitney(dec: WhitneyDecomposition, coverage_samples: int = 0,
                   seed: int = 0) -> WhitneyReport:
    """Recompute all Whitney properties from scratch on a decomposition.

    W1/W2/W4 are exact dyadic checks; W3 passes when the recomputed bracket
    intersects [sqrt(n) l, 4 sqrt(n) l].  W6 counts the touching components
    of an unwindowed Omega_lambda decomposition's resolved cubes beyond the
    first: Omega is connected, and so must its certified cubes be (N is not
    checked; its rhombi meet only at the pinch points).  Optional Monte
    Carlo coverage check verifies that random region points land in exactly
    one cube, resolved or frontier (skipped for windowed decompositions).
    """
    if not len(dec):
        return WhitneyReport(0, 0, 0, 0, 0, 0, 0, 0)
    n, side = dec.n, sides(dec.gen)
    sqrtn = math.sqrt(n)
    lo_q, hi_q, center, _ = _bracket_cubes(dec.oracle, dec.gen, dec.idx)
    # W1: center inside and no boundary within the half-diagonal
    w1 = int(np.sum(~(center & (lo_q > sqrtn * side / 2.0))))
    # W3: bracket must intersect the admissible interval
    w3 = int(np.sum((hi_q < sqrtn * side) | (lo_q > 4.0 * sqrtn * side)))

    # W2: no cube, resolved or frontier, has an ancestor among them
    gen = np.concatenate([dec.gen, dec.frontier_gen])
    idx = np.concatenate([dec.idx, dec.frontier_idx])
    perm = order(gen, idx)
    gen, idx = gen[perm], idx[perm]
    union = CubeIndex(gen, idx)
    has_anc = np.zeros(len(gen), dtype=bool)
    for g, (a, b) in union.blocks.items():
        for ga in union.blocks:
            if ga < g:
                has_anc[a:b] |= union.find(ga, idx[a:b] >> (g - ga)) >= 0
    w2 = int(np.sum(has_anc))

    adj = dec.adjacency()
    u, v = adj["u"], adj["v"]
    # W4: side ratio > 4
    w4 = int(np.count_nonzero(np.abs(dec.gen[u] - dec.gen[v]) > 2))
    # W6: Omega's resolved cubes form one touching component
    w6 = 0
    if dec.oracle.region.kind == "Omega_lambda" and dec.window is None:
        # scipy.sparse takes ~0.1 s to import, and only W6 needs it
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        graph = coo_matrix((np.ones(len(u)), (u, v)), shape=(len(dec),) * 2)
        w6 = int(connected_components(graph, directed=False)[0]) - 1

    # exact check: interiors never cross the slab boundary hyperplanes
    # x_i = 0, 1 (i < n-1) and x_n = -1, 1; corners are exact floats, and
    # only cubes coarser than generation 0 can straddle integer planes
    planes = np.array([[0.0, 1.0]] * (n - 1) + [[-1.0, 1.0]])
    s = side[:, None, None]
    crossings = int(np.sum((dec.idx[..., None] * s < planes)
                           & (planes < (dec.idx[..., None] + 1) * s)))

    checked = misses = 0
    if coverage_samples > 0 and dec.window is None:
        rng = np.random.default_rng(seed)
        s = sides(gen)[:, None]
        pts = rng.uniform((idx * s).min(axis=0), ((idx + 1) * s).max(axis=0),
                          size=(coverage_samples, n))
        pts = pts[dec.oracle.member_many(pts)]
        # the generation-g cube holding x is floor(x 2^g), exactly
        hits = sum(union.find(g, np.floor(pts * 2.0 ** g).astype(np.int64)) >= 0
                   for g in union.blocks)
        checked, misses = len(pts), int(np.sum(hits != 1))
    return WhitneyReport(w1_violations=w1, w2_violations=w2, w3_violations=w3,
                         w4_violations=w4, w6_violations=w6,
                         boundary_crossings=crossings,
                         coverage_checked=checked, coverage_misses=misses)


# ---------------------------------------------------------------------------
# central family, reflected cubes, chains


def central_mask(dec: WhitneyDecomposition) -> np.ndarray:
    """Central family: resolved cubes whose closure meets [0,1]^{n-1} x {0}."""
    h = dec.idx[:, :-1]
    scale = np.left_shift(np.int64(1), dec.gen)[:, None]
    return (np.isin(dec.idx[:, -1], (-1, 0))
            & np.all((h + 1 >= 0) & (h <= scale), axis=1))


@dataclass
class ReflectAssignment:
    target: np.ndarray      # per W row: W-tilde row, Q0_ID or UNASSIGNED

    @property
    def unassigned_fraction(self) -> float:
        """Share of the cubes outside the central family with no target."""
        nonv = np.count_nonzero(self.target != Q0_ID)
        bad = np.count_nonzero(self.target == UNASSIGNED)
        return bad / nonv if nonv else 0.0


def reflect_assign(w: WhitneyDecomposition,
                   wt: WhitneyDecomposition) -> ReflectAssignment:
    """Assign to each W-cube its reflected complement cube.

    The central family maps to the reservoir (Q0_ID).  Others map
    to the closest complement cube, center to center, among those in the same
    closed half-space whose drop-axis projection contains the cube's and
    whose side is at most twice the cube's; ties go to the smaller
    (gen, idx).  Containment forces the candidate generation into
    {gen-1, gen}, so candidates are two vertical stacks, each one
    CubeIndex.column run; its cubes below x_n = 0 come first (x_n is the
    key's last axis), and a prefix count of them splits it at the pinch
    plane.  Cubes with no candidate get UNASSIGNED.
    """
    central = central_mask(w)
    cen_w = (w.idx + 0.5) * sides(w.gen)[:, None]
    cen_t = (wt.idx + 0.5) * sides(wt.gen)[:, None]
    # wt rows before each row that lie below x_n = 0
    below = np.concatenate([[0], np.cumsum(wt.idx[:, -1] < 0)])
    # candidate pairs (W row, W-tilde row), one run per W cube and stack
    rows = np.flatnonzero(~central)
    up = w.idx[rows, -1] >= 0
    pw, pt = [], []
    for gshift in (1, 0):              # candidate gen = gen - gshift
        start, stop = wt.index.column(w.gen[rows] - gshift,
                                      w.idx[rows, :-1] >> gshift)
        mid = start + below[stop] - below[start]
        start, stop = np.where(up, mid, start), np.where(up, stop, mid)
        pw.append(np.repeat(rows, stop - start))
        pt.append(_runs(start, stop))
    pw, pt = np.concatenate(pw), np.concatenate(pt)
    # centers are dyadic, so each squared distance is an exact sum and its
    # sqrt is bit-identical to np.linalg.norm of the difference
    diff = cen_t[pt] - cen_w[pw]
    d = np.sqrt(np.sum(diff * diff, axis=1))
    # wt rows are in (gen, idx) order, so the first pair per W cube after
    # sorting by (W row, d, wt row) is the (d, gen, idx) minimum
    perm = np.lexsort((pt, d, pw))
    pw, pt = pw[perm], pt[perm]
    first = np.unique(pw, return_index=True)[1]
    target = np.full(len(w), UNASSIGNED, dtype=np.int64)
    target[pw[first]] = pt[first]
    target[central] = Q0_ID
    return ReflectAssignment(target=target)


def _runs(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The rows start[i] .. stop[i] - 1 of every run i, concatenated."""
    count = stop - start
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count,
                                              count)


def q0_adjacent(gen, idx: np.ndarray) -> np.ndarray:
    """Which cubes' closures meet the reservoir closure facially.

    The reservoir is D minus the closed square Q0_HOLE in the profile plane;
    a complement cube (inside D) meets its closure in an (n-1)-dimensional
    set exactly when the cube is not strictly inside the open square.
    """
    scale = np.left_shift(np.int64(1), np.asarray(gen)).reshape(-1, 1)
    hlo, hhi = np.asarray(Q0_HOLE)
    prof = idx[:, -2:]
    return ~np.all((prof > hlo * scale) & (prof + 1 < hhi * scale), axis=1)


@dataclass
class Chain:
    rows: list[int]         # complement cube rows, then Q0_ID; [] if not found

    @property
    def found(self) -> bool:
        return bool(self.rows)


def chain(wt: WhitneyDecomposition, a: int) -> Chain:
    """Minimal projection-monotone chain from complement cube row a to Q0_ID.

    Members are the cubes no finer than the source whose drop-axis
    projection contains the source's; consecutive members' closures meet,
    and the last meets the reservoir (q0_adjacent).  The projections are
    nested, so the members form one column and touch exactly when their x_n
    intervals share an endpoint: a chain runs straight up or down.  The
    shorter run wins, ties to the smaller first step (the choice of a
    breadth-first search with neighbours in ascending row order).  Each
    generation's part of the column is one CubeIndex.column run of rows,
    all from one call.
    """
    ga, h = int(wt.gen[a]), wt.idx[a, :-1]
    g = np.arange(ga + 1)
    rows = _runs(*wt.index.column(g, h >> (ga - g)[:, None]))
    # x_n intervals in units of the source's side, bottom to top
    s = ga - wt.gen[rows]
    bot = wt.idx[rows, -1] << s
    perm = np.argsort(bot)
    rows, s, bot = rows[perm], s[perm], bot[perm]
    touch = (bot[:-1] + (1 << s[:-1]) == bot[1:]).tolist()  # i meets i + 1
    q0 = q0_adjacent(wt.gen[rows], wt.idx[rows]).tolist()
    rows = rows.tolist()
    i = rows.index(a)
    runs = []
    for step in (-1, 1):
        j = i
        while not q0[j] and 0 <= j + step < len(rows) and touch[min(j, j + step)]:
            j += step
        if q0[j]:
            runs.append(rows[min(i, j):max(i, j) + 1][::step])
    if not runs:
        return Chain(rows=[])
    return Chain(rows=min(runs, key=lambda r: (len(r), r[1:2])) + [Q0_ID])


# ---------------------------------------------------------------------------
# the counting experiment


@dataclass
class ClaimCountResult:
    counts: dict[int, int]             # k -> max over complement cubes
    per_cube: dict[tuple[int, int], int]   # (wt row, k) -> count
    sources: int
    unreachable: int

    def fitted_exponent(self) -> float:
        """Least-squares slope of log2 counts[k] over the populated k."""
        ks = sorted(k for k, c in self.counts.items() if c > 0)
        if len(ks) < 2:
            raise ValueError("need at least two populated k values to fit")
        ys = [math.log2(self.counts[k]) for k in ks]
        return float(np.polyfit(ks, ys, 1)[0])


def claim_count(w: WhitneyDecomposition, wt: WhitneyDecomposition,
                reflect: ReflectAssignment, k_max: int = 4) -> ClaimCountResult:
    """Count, per complement cube and scale gap k, the chain loads.

    For each W-cube outside the central family that touches a central cube,
    walk its reservoir chain from the reflected cube; every chain member
    whose side is 2^k times the source side contributes to the (cube, k)
    count.  The maximum over complement cubes per k is the quantity whose
    growth in k the construction bounds by A 2^{k (n-1) log 2 / |log lambda|},
    with a constant A that the construction leaves unquantified.
    """
    central, adj = central_mask(w), w.adjacency()
    u, v = adj["u"], adj["v"]
    touch = np.zeros(len(w), dtype=bool)
    touch[u[central[v]]] = touch[v[central[u]]] = True
    # target < 0: the central family (Q0_ID) or no reflected cube
    rows = np.flatnonzero(touch & (reflect.target >= 0))
    per_cube: dict[tuple[int, int], int] = {}
    unreachable = 0
    w_gen, wt_gen = w.gen.tolist(), wt.gen.tolist()
    for r, t in zip(rows.tolist(), reflect.target[rows].tolist()):
        ch = chain(wt, t)
        if not ch.found:
            unreachable += 1
            continue
        for s in ch.rows[:-1]:          # the last node is Q0_ID
            k = w_gen[r] - wt_gen[s]
            if 0 <= k <= k_max:
                per_cube[(s, k)] = per_cube.get((s, k), 0) + 1
    counts = {k: 0 for k in range(k_max + 1)}
    for (s, k), c in per_cube.items():
        counts[k] = max(counts[k], c)
    return ClaimCountResult(counts=counts, per_cube=per_cube,
                            sources=len(rows), unreachable=unreachable)
