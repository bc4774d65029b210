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
with ratio 1 + O(tol) away from cone ridges: the lower bound |g - |x_n||/sqrt2
is exact on each cone, and sliding toward/away from the nearest apex produces
a boundary witness realizing it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cantor import CantorSpec, DEFAULT_TOL, _descend
from .dyadic import (DyadicCube, face_adjacent, inside_open_box, meets_box,
                     overlap_lengths, projection_contains, root_cubes_covering)
from .regions import RegionSpec, _in_region, _tent_height

Q0_ID = 0  # sentinel id for the reservoir region in reflect maps and chains


# ---------------------------------------------------------------------------
# distance oracles


def _box_boundary_dist(X: np.ndarray, lo, hi) -> np.ndarray:
    """|signed distance| to the boundary of the box [lo, hi], vectorised."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    q = np.maximum(lo - X, X - hi)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = -np.max(q, axis=-1)
    return np.where(np.all(q <= 0.0, axis=-1), inside, outside)


def _profile_boundary_dist(P: np.ndarray) -> np.ndarray:
    """Exact distance to the boundary of the 2-D profile of D.

    The profile is (-2,1) x (-3/2,3/2) minus the closed notch [-1,0] x [-1,1];
    its boundary is exactly the union of the two rectangle boundaries.
    """
    db = _box_boundary_dist(P, (-2.0, -1.5), (1.0, 1.5))
    dr = _box_boundary_dist(P, (-1.0, -1.0), (0.0, 1.0))
    return np.minimum(db, dr)


class TentOracle:
    """Certified brackets on dist(x, boundary of N_lambda); membership in N."""

    def __init__(self, cantor: CantorSpec, n: int = 2, tol: float = DEFAULT_TOL):
        if n < 2:
            raise ValueError("ambient dimension must be >= 2")
        self.cantor = cantor
        self.n = n
        self.tol = tol
        self._per_tol = tol / math.sqrt(n - 1)
        self._region = RegionSpec(kind="N_lambda", n=n, cantor=cantor, tol=tol)
        # half of the first-level gap bounds the 1-D distance function on [0,1]
        self._max_k = (1.0 - 2.0 * cantor.ratio_at(0)) / 2.0

    def roots(self) -> list[DyadicCube]:
        z = (0,) * (self.n - 1)
        return [DyadicCube(0, z + (-1,)), DyadicCube(0, z + (0,))]

    def _height(self, XP: np.ndarray) -> np.ndarray:
        return _tent_height(self._region, list(XP.T))

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return _in_region(self._region, list(X.T))

    def bracket_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, tol = self.n, self.tol
        XP, xn = X[:, :-1], X[:, -1]
        # height, nearest Cantor point and gap midpoint from one descent
        d, near, mids = _descend(XP, self.cantor, self._per_tol, full=True)
        g = np.sqrt(np.sum(d ** 2, axis=1))
        h = np.abs(xn)
        v = np.abs(g - h)
        lo = np.maximum(0.0, v - tol) / math.sqrt(2.0)

        # lateral face parts of the tent boundary, enclosed in exact boxes
        gamma = math.sqrt(max(n - 2, 0)) * self._max_k
        for i in range(n - 1):
            for c in (0.0, 1.0):
                blo = np.zeros(n)
                bhi = np.ones(n)
                blo[i] = bhi[i] = c
                blo[n - 1], bhi[n - 1] = -gamma, gamma
                q = np.maximum(blo - X, X - bhi)
                lo = np.minimum(lo, np.linalg.norm(np.maximum(q, 0.0), axis=1))

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
        cands = [XP, w, peak]
        for i in range(n - 1):
            for c in (0.0, 1.0):
                cp = XP.copy()
                cp[:, i] = c
                cands.append(cp)
        sgn = np.where(xn >= 0.0, 1.0, -1.0)
        hi = np.full(X.shape[0], np.inf)
        for cp in cands:
            cp = np.clip(cp, 0.0, 1.0)
            gc = self._height(cp)
            d2 = np.sum((XP - cp) ** 2, axis=1) + (xn - sgn * gc) ** 2
            hi = np.minimum(hi, np.sqrt(d2))
        return lo, hi + tol


class SlitOracle:
    """Certified brackets on dist(x, boundary of Omega_lambda); membership.

    The boundary splits into the rectilinear boundary of D (exact in the
    plane) and the tent boundary handled by TentOracle.
    """

    def __init__(self, cantor: CantorSpec, n: int = 2, tol: float = DEFAULT_TOL):
        self.cantor = cantor
        self.n = n
        self.tol = tol
        self.tent = TentOracle(cantor, n, tol)
        self._region = RegionSpec(kind="Omega_lambda", n=n, cantor=cantor,
                                  tol=tol)

    def roots(self) -> list[DyadicCube]:
        n = self.n
        pre = [(0,)] * (n - 2)
        xs = [(-2,), (-1,), (0,)]
        ys = [(-2,), (-1,), (0,), (1,)]
        out = []
        for x in xs:
            for y in ys:
                idx = tuple(0 for _ in range(n - 2)) + x + y
                out.append(DyadicCube(0, idx))
        return out

    def _d_boundary(self, X: np.ndarray) -> np.ndarray:
        n = self.n
        d = _profile_boundary_dist(X[:, n - 2:])
        for i in range(n - 2):
            d = np.minimum(d, np.minimum(np.abs(X[:, i]), np.abs(X[:, i] - 1.0)))
        return d

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return _in_region(self._region, list(X.T))

    def bracket_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo_t, hi_t = self.tent.bracket_many(X)
        d_d = self._d_boundary(X)
        lo = np.minimum(lo_t, d_d)
        if self.n == 2:
            hi = np.minimum(hi_t, d_d + self.tol)
        else:
            # the min formula can underestimate the distance to the boundary
            # of D from outside, and notch faces may dip into the tent; keep
            # only the always-valid tent witness for the upper bound
            hi = hi_t
        return lo, hi


class BoxOracle:
    """Exact oracle for an open axis-aligned box (reference/test regions)."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.n = len(self.lo)

    def roots(self) -> list[DyadicCube]:
        return root_cubes_covering(self.lo, self.hi, self.n)

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return np.all((X > self.lo) & (X < self.hi), axis=1)

    def bracket_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = _box_boundary_dist(X, self.lo, self.hi)
        return d, d


class EmptyOracle:
    """Oracle for an empty region over a given bounding box."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.n = len(self.lo)

    def roots(self) -> list[DyadicCube]:
        return root_cubes_covering(self.lo, self.hi, self.n)

    def member_many(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0], dtype=bool)

    def bracket_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        big = np.full(X.shape[0], np.inf)
        return big, big


def oracle_for(region: RegionSpec, tol: float = DEFAULT_TOL):
    if region.kind == "N_lambda":
        return TentOracle(region.cantor, region.n, tol)
    if region.kind == "Omega_lambda":
        return SlitOracle(region.cantor, region.n, tol)
    raise ValueError(f"no certified distance oracle for kind {region.kind!r}")


# ---------------------------------------------------------------------------
# decomposition


@dataclass
class WhitneyDecomposition:
    oracle: object
    n: int
    max_gen: int
    cubes: list[DyadicCube]            # resolved, sorted by (gen, idx)
    lo_q: np.ndarray                   # certified bracket per resolved cube
    hi_q: np.ndarray
    frontier: list[DyadicCube]
    window: tuple | None = None
    _adj: dict | None = field(default=None, repr=False)
    _ids: dict | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.cubes)

    def cube(self, cid: int) -> DyadicCube:
        return self.cubes[cid - 1]

    def id_of(self, cube: DyadicCube) -> int:
        if self._ids is None:
            self._ids = {(c.gen, c.idx): i + 1 for i, c in enumerate(self.cubes)}
        return self._ids[(cube.gen, cube.idx)]

    def adjacency(self) -> dict[int, list[tuple[int, bool]]]:
        """id -> sorted [(neighbor id, face_adjacent)]; 1-based ids."""
        if self._adj is None:
            self._adj = _build_adjacency(self.cubes)
        return self._adj

    @property
    def frontier_fraction(self) -> float:
        total = len(self.cubes) + len(self.frontier)
        return len(self.frontier) / total if total else 0.0


def _sample_offsets(n: int) -> np.ndarray:
    return np.array(list(product((0.0, 0.5, 1.0), repeat=n)))


def whitney_decompose(region, max_gen: int, window=None,
                      tol: float = DEFAULT_TOL) -> WhitneyDecomposition:
    """Certified truncated Whitney decomposition of a region.

    region: a RegionSpec (N_lambda / Omega_lambda) or any object with the
    oracle protocol (roots, member_many, bracket_many).  window, when given,
    prunes cubes whose closure misses the box (lo, hi); the result is then a
    local decomposition and tiling checks do not apply.
    """
    if max_gen < 4:
        raise ValueError("max_gen must be >= 4")
    oracle = oracle_for(region, tol) if isinstance(region, RegionSpec) else region
    n = oracle.n
    sqrtn = math.sqrt(n)
    offs = _sample_offsets(n)
    ns = offs.shape[0]
    center_pos = (ns - 1) // 2

    active = oracle.roots()
    if window is not None:
        wlo, whi = (np.asarray(w, dtype=float) for w in window)
        active = [c for c in active if meets_box(c, wlo, whi)]
    resolved: list[DyadicCube] = []
    res_lo: list[float] = []
    res_hi: list[float] = []
    frontier: list[DyadicCube] = []

    while active:
        m = len(active)
        sides = np.array([c.side for c in active])
        los = np.array([c.lo for c in active])
        X = (los[:, None, :] + sides[:, None, None] * offs[None, :, :])
        X = X.reshape(m * ns, n)
        lo_s, hi_s = oracle.bracket_many(X)
        mem_s = oracle.member_many(X)
        lo_s = lo_s.reshape(m, ns)
        hi_s = hi_s.reshape(m, ns)
        mem_s = mem_s.reshape(m, ns)

        lo_q = np.maximum(0.0, lo_s.min(axis=1) - sqrtn * sides / 4.0)
        hi_q = hi_s.min(axis=1)
        any_mem = mem_s.any(axis=1)
        center_mem = mem_s[:, center_pos]
        accept = (lo_q >= sqrtn * sides) & (hi_q <= 4.0 * sqrtn * sides) & center_mem
        drop = ~accept & ~any_mem & (lo_q > 0.0)

        nxt: list[DyadicCube] = []
        for i, c in enumerate(active):
            if accept[i]:
                resolved.append(c)
                res_lo.append(float(lo_q[i]))
                res_hi.append(float(hi_q[i]))
            elif drop[i]:
                continue
            elif c.gen >= max_gen:
                frontier.append(c)
            else:
                kids = c.children()
                if window is not None:
                    kids = [k for k in kids if meets_box(k, wlo, whi)]
                nxt.extend(kids)
        active = nxt

    order = sorted(range(len(resolved)), key=lambda i: resolved[i])
    cubes = [resolved[i] for i in order]
    lo_arr = np.array([res_lo[i] for i in order]) if cubes else np.zeros(0)
    hi_arr = np.array([res_hi[i] for i in order]) if cubes else np.zeros(0)
    frontier.sort()
    return WhitneyDecomposition(oracle=oracle, n=n, max_gen=max_gen,
                                cubes=cubes, lo_q=lo_arr, hi_q=hi_arr,
                                frontier=frontier,
                                window=None if window is None else
                                (tuple(wlo), tuple(whi)))


def _build_adjacency(cubes: list[DyadicCube]) -> dict[int, list[tuple[int, bool]]]:
    """Touching graph over cubes with exact face/corner classification.

    Neighbors are discovered from the finer side: for each cube, candidate
    coarser-or-equal indices touching its closure are enumerated (at most 3
    per axis) and looked up.
    """
    lookup = {(c.gen, c.idx): i + 1 for i, c in enumerate(cubes)}
    gens = sorted({c.gen for c in cubes})
    adj: dict[int, set[int]] = {i + 1: set() for i in range(len(cubes))}
    for i, c in enumerate(cubes):
        cid = i + 1
        for g in gens:
            if g > c.gen:
                break
            b = 1 << (c.gen - g)
            axis_ranges = []
            for j in c.idx:
                m_min = -((b - j) // b)          # ceil((j - b)/b)
                m_max = (j + 1) // b
                axis_ranges.append(range(m_min, m_max + 1))
            for idx in product(*axis_ranges):
                if g == c.gen and idx == c.idx:
                    continue
                other = lookup.get((g, idx))
                if other is not None:
                    adj[cid].add(other)
                    adj[other].add(cid)
    out: dict[int, list[tuple[int, bool]]] = {}
    for cid, nbrs in adj.items():
        rows = []
        for nid in sorted(nbrs, key=lambda k: cubes[k - 1]):
            ov = overlap_lengths(cubes[cid - 1], cubes[nid - 1])
            rows.append((nid, sum(1 for w in ov if w == 0) == 1))
        out[cid] = rows
    return out


# ---------------------------------------------------------------------------
# verification


@dataclass
class WhitneyReport:
    w1_violations: int
    w2_violations: int
    w3_violations: int
    w4_violations: int
    boundary_crossings: int
    frontier_fraction: float
    coverage_checked: int
    coverage_misses: int

    @property
    def total_violations(self) -> int:
        return (self.w1_violations + self.w2_violations
                + self.w3_violations + self.w4_violations)


def verify_whitney(dec: WhitneyDecomposition, coverage_samples: int = 0,
                   seed: int = 0) -> WhitneyReport:
    """Recompute all Whitney properties from scratch on a decomposition.

    W1/W2/W4 are exact dyadic checks; W3 passes when the recomputed bracket
    intersects [sqrt(n) l, 4 sqrt(n) l].  Optional Monte Carlo coverage check
    verifies that random region points land in exactly one cube (skipped for
    windowed decompositions).
    """
    n = dec.n
    sqrtn = math.sqrt(n)
    cubes = dec.cubes
    w1 = w2 = w3 = w4 = crossings = 0

    if cubes:
        offs = _sample_offsets(n)
        ns = offs.shape[0]
        sides = np.array([c.side for c in cubes])
        los = np.array([c.lo for c in cubes])
        X = (los[:, None, :] + sides[:, None, None] * offs[None, :, :])
        X = X.reshape(len(cubes) * ns, n)
        lo_s, hi_s = dec.oracle.bracket_many(X)
        mem_c = dec.oracle.member_many(los + 0.5 * sides[:, None])
        lo_q = np.maximum(0.0, lo_s.reshape(-1, ns).min(axis=1)
                          - sqrtn * sides / 4.0)
        hi_q = hi_s.reshape(-1, ns).min(axis=1)

        # W1: center inside and no boundary within the half-diagonal
        w1 = int(np.sum(~(mem_c & (lo_q > sqrtn * sides / 2.0))))
        # W3: bracket must intersect the admissible interval
        w3 = int(np.sum((hi_q < sqrtn * sides) | (lo_q > 4.0 * sqrtn * sides)))

        # W2: no cube contains another (same-gen duplicates impossible by
        # construction; ancestors detected by index shifting)
        keys = {(c.gen, c.idx) for c in cubes + dec.frontier}
        for c in cubes + dec.frontier:
            g, idx = c.gen, c.idx
            while g > 0:
                g -= 1
                idx = tuple(j >> 1 for j in idx)
                if (g, idx) in keys:
                    w2 += 1
                    break

        # W4 over the touching graph
        adj = dec.adjacency()
        for cid, nbrs in adj.items():
            for nid, _ in nbrs:
                if nid <= cid:
                    continue
                dg = abs(cubes[cid - 1].gen - cubes[nid - 1].gen)
                if dg > 2:  # side ratio > 4
                    w4 += 1

        # exact check: interiors never cross the slab boundary hyperplanes
        for c in cubes:
            for axis, vals in ((n - 1, (-1, 1)),) + tuple(
                    (i, (0, 1)) for i in range(n - 1)):
                for v in vals:
                    scaled = v << c.gen if v >= 0 else -((-v) << c.gen)
                    if c.idx[axis] < scaled < c.idx[axis] + 1:
                        crossings += 1

    checked = misses = 0
    if coverage_samples > 0 and dec.window is None and cubes:
        rng = np.random.default_rng(seed)
        all_cubes = cubes + dec.frontier
        lo_all = np.array([c.lo for c in all_cubes])
        hi_all = np.array([c.hi for c in all_cubes])
        blo = lo_all.min(axis=0)
        bhi = hi_all.max(axis=0)
        pts = rng.uniform(blo, bhi, size=(coverage_samples, n))
        mem = dec.oracle.member_many(pts)
        pts = pts[mem]
        checked = len(pts)
        for p in pts:
            hits = np.sum(np.all((lo_all <= p) & (p <= hi_all), axis=1))
            if hits != 1:
                misses += 1
    return WhitneyReport(w1_violations=w1, w2_violations=w2, w3_violations=w3,
                         w4_violations=w4, boundary_crossings=crossings,
                         frontier_fraction=dec.frontier_fraction,
                         coverage_checked=checked, coverage_misses=misses)


# ---------------------------------------------------------------------------
# central family, reflected cubes, chains


def central_family(dec: WhitneyDecomposition) -> list[int]:
    """Ids of resolved cubes whose closure meets [0,1]^{n-1} x {0}."""
    n = dec.n
    out = []
    for i, c in enumerate(dec.cubes):
        if c.idx[n - 1] not in (-1, 0):
            continue
        scale = 1 << c.gen
        if all(c.idx[j] + 1 >= 0 and c.idx[j] <= scale for j in range(n - 1)):
            out.append(i + 1)
    return out


@dataclass
class ReflectAssignment:
    mapping: dict[int, int | None]     # W id -> Q0_ID | W-tilde id | None
    v_ids: list[int]
    unassigned: list[int]

    @property
    def unassigned_fraction(self) -> float:
        nonv = len(self.mapping) - len(self.v_ids)
        return len(self.unassigned) / nonv if nonv else 0.0


def reflect_assign(w: WhitneyDecomposition,
                   wt: WhitneyDecomposition) -> ReflectAssignment:
    """Assign to each W-cube its reflected complement cube.

    Cubes meeting the central patch map to the reservoir (Q0_ID).  Others map
    to the closest complement cube, center to center, among those in the same
    closed half-space whose drop-axis projection contains the cube's and
    whose side is at most twice the cube's.  Containment forces the candidate
    generation into {gen-1, gen}, so candidates are two vertical stacks.
    """
    n = w.n
    v_ids = set(central_family(w))
    stacks: dict[tuple, list[tuple[int, int]]] = {}
    for i, c in enumerate(wt.cubes):
        stacks.setdefault((c.gen, c.idx[: n - 1]), []).append((c.idx[n - 1], i + 1))
    mapping: dict[int, int | None] = {}
    unassigned: list[int] = []
    for i, c in enumerate(w.cubes):
        cid = i + 1
        if cid in v_ids:
            mapping[cid] = Q0_ID
            continue
        positive = c.idx[n - 1] >= 0
        best = None
        cc = c.center
        for gshift in (1, 0):          # candidate gen = c.gen - gshift
            g = c.gen - gshift
            if g < 0:
                continue
            horiz = tuple(j >> gshift for j in c.idx[: n - 1])
            for jn, wid in stacks.get((g, horiz), ()):
                if positive and jn < 0:
                    continue
                if not positive and jn >= 0:
                    continue
                cand = wt.cubes[wid - 1]
                d = float(np.linalg.norm(cand.center - cc))
                key = (d, cand.gen, cand.idx)
                if best is None or key < best[0]:
                    best = (key, wid)
        if best is None:
            mapping[cid] = None
            unassigned.append(cid)
        else:
            mapping[cid] = best[1]
    return ReflectAssignment(mapping=mapping, v_ids=sorted(v_ids),
                             unassigned=unassigned)


def q0_adjacent(cube: DyadicCube, n: int) -> bool:
    """Whether the cube's closure meets the reservoir closure facially.

    The reservoir is D minus the closed square [-1,1]^2 in the profile plane;
    a complement cube (inside D) meets its closure in an (n-1)-dimensional
    set exactly when the cube is not strictly inside the open square.
    """
    for axis in (n - 2, n - 1):
        j = cube.idx[axis]
        scale = 1 << cube.gen
        if not (j > -scale and j + 1 < scale):
            return True
    return False


@dataclass
class Chain:
    ids: list[int]
    constraint: str
    found: bool

    def __len__(self) -> int:
        return len(self.ids)


def chain(wt: WhitneyDecomposition, a: int, b: int,
          constraint: str = "none") -> Chain:
    """Minimal chain between nodes of the complement graph plus reservoir.

    Nodes are complement cube ids and Q0_ID; edges are intersections of
    closures (cube-cube touching, cube-reservoir via q0_adjacent), so
    consecutive chain cubes always meet.  BFS with ascending
    (generation, index) neighbor order gives a deterministic minimal path.
    constraint="projection-monotone" restricts intermediate cubes to those
    whose drop-axis projection contains the source cube's projection.
    """
    if constraint not in ("none", "projection-monotone"):
        raise ValueError(f"unknown constraint {constraint!r}")
    n = wt.n
    if constraint == "projection-monotone":
        if b != Q0_ID:
            raise ValueError("projection-monotone chains must target the reservoir")
        if a == Q0_ID:
            return Chain(ids=[Q0_ID], constraint=constraint, found=True)
        src = wt.cube(a)

        def admissible(nid: int) -> bool:
            if nid == Q0_ID:
                return True
            return projection_contains(wt.cube(nid), src, n - 1)
    else:
        def admissible(nid: int) -> bool:
            return True

    if a == b:
        return Chain(ids=[a], constraint=constraint, found=True)
    adj = wt.adjacency()

    def neighbors(nid: int):
        if nid == Q0_ID:
            out = [i for i in range(1, len(wt.cubes) + 1)
                   if q0_adjacent(wt.cubes[i - 1], n)]
        else:
            out = [m for m, _ in adj[nid]]
            if q0_adjacent(wt.cube(nid), n):
                out = [Q0_ID] + out
        return out

    prev = {a: None}
    dq = deque([a])
    while dq:
        cur = dq.popleft()
        if cur == b:
            ids = []
            while cur is not None:
                ids.append(cur)
                cur = prev[cur]
            return Chain(ids=ids[::-1], constraint=constraint, found=True)
        for nxt in neighbors(cur):
            if nxt not in prev and admissible(nxt):
                prev[nxt] = cur
                dq.append(nxt)
    return Chain(ids=[], constraint=constraint, found=False)


# ---------------------------------------------------------------------------
# the counting experiment


@dataclass
class ClaimCountResult:
    counts: dict[int, int]             # k -> max over complement cubes
    per_cube: dict[tuple[int, int], int]   # (wt id, k) -> count
    sources: int
    unreachable: int

    def fitted_exponent(self, k_max: int | None = None) -> float:
        ks = sorted(k for k, c in self.counts.items()
                    if c > 0 and (k_max is None or k <= k_max))
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
    v_set = set(reflect.v_ids)
    adj = w.adjacency()
    per_cube: dict[tuple[int, int], int] = {}
    sources = unreachable = 0
    for cid in range(1, len(w.cubes) + 1):
        if cid in v_set:
            continue
        if not any(nid in v_set for nid, _ in adj[cid]):
            continue
        rid = reflect.mapping.get(cid)
        if rid is None or rid == Q0_ID:
            continue
        sources += 1
        ch = chain(wt, rid, Q0_ID, constraint="projection-monotone")
        if not ch.found:
            unreachable += 1
            continue
        gen_i = w.cube(cid).gen
        for nid in ch.ids:
            if nid == Q0_ID:
                continue
            k = gen_i - wt.cube(nid).gen
            if 0 <= k <= k_max:
                per_cube[(nid, k)] = per_cube.get((nid, k), 0) + 1
    counts = {k: 0 for k in range(k_max + 1)}
    for (nid, k), c in per_cube.items():
        counts[k] = max(counts[k], c)
    return ClaimCountResult(counts=counts, per_cube=per_cube,
                            sources=sources, unreachable=unreachable)


def v_growth_fit(dec: WhitneyDecomposition, gen_lo: int = 4,
                 gen_hi: int | None = None) -> float:
    """Fitted exponent b in |V at generation g| ~ A 2^{b g}."""
    gen_hi = dec.max_gen if gen_hi is None else gen_hi
    v_ids = central_family(dec)
    counts: dict[int, int] = {}
    for cid in v_ids:
        g = dec.cube(cid).gen
        counts[g] = counts.get(g, 0) + 1
    gs = [g for g in range(gen_lo, gen_hi + 1) if counts.get(g, 0) > 0]
    if len(gs) < 2:
        raise ValueError("not enough populated generations to fit")
    ys = [math.log2(counts[g]) for g in gs]
    return float(np.polyfit(gs, ys, 1)[0])
