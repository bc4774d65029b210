"""Exact dyadic cube geometry.

A dyadic cube of generation k and index j in Z^n is Prod_i [j_i 2^-k,
(j_i+1) 2^-k].  Sets of cubes are int64 arrays gen (m,) and idx (m, n),
sorted by (gen, idx); DyadicCube is a read-only view of one row.  Corners
j 2^-k are exact binary floats, so float comparisons on them are exact.
The scalar predicates (overlap_lengths, cubes_touch, projection_contains)
are the independent reference for the array code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np


@dataclass(frozen=True, order=True)
class DyadicCube:
    gen: int
    idx: tuple[int, ...]

    def __post_init__(self):
        if self.gen < 0:
            raise ValueError("generation must be >= 0")
        if not self.idx:
            raise ValueError("index must be non-empty")

    @property
    def n(self) -> int:
        return len(self.idx)

    @property
    def side(self) -> float:
        return 2.0 ** -self.gen

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.idx, dtype=float) * self.side

    @property
    def hi(self) -> np.ndarray:
        return (np.array(self.idx, dtype=float) + 1.0) * self.side

    @property
    def center(self) -> np.ndarray:
        return (np.array(self.idx, dtype=float) + 0.5) * self.side


def overlap_lengths(a: DyadicCube, b: DyadicCube) -> tuple[int, ...] | None:
    """Per-axis integer overlap of the closures at the finer common scale.

    None when the closures are disjoint; a zero entry means the closures
    touch in a hyperplane along that axis.
    """
    g = max(a.gen, b.gen)
    fa, fb = 1 << (g - a.gen), 1 << (g - b.gen)
    out = []
    for ja, jb in zip(a.idx, b.idx):
        w = min((ja + 1) * fa, (jb + 1) * fb) - max(ja * fa, jb * fb)
        if w < 0:
            return None
        out.append(w)
    return tuple(out)


def cubes_touch(a: DyadicCube, b: DyadicCube) -> bool:
    return overlap_lengths(a, b) is not None


def projection_contains(a: DyadicCube, b: DyadicCube, drop_axis: int) -> bool:
    """Whether the drop_axis projection of a contains that of b (exactly)."""
    if a.gen > b.gen:
        return False
    shift = b.gen - a.gen
    return all(bj >> shift == aj
               for i, (aj, bj) in enumerate(zip(a.idx, b.idx)) if i != drop_axis)


# ---------------------------------------------------------------------------
# cube arrays


class CubeView(Sequence):
    """DyadicCube views of the rows of (gen, idx) arrays, built on access."""

    def __init__(self, gen: np.ndarray, idx: np.ndarray):
        self._gen, self._idx = gen, idx

    def __len__(self) -> int:
        return len(self._gen)

    def __getitem__(self, i: int) -> DyadicCube:
        return DyadicCube(int(self._gen[i]), tuple(self._idx[i].tolist()))

    def __iter__(self):
        for g, row in zip(self._gen.tolist(), self._idx.tolist()):
            yield DyadicCube(g, tuple(row))


def sides(gen) -> np.ndarray:
    """Side lengths 2^-gen (exact)."""
    return np.ldexp(1.0, -np.asarray(gen, dtype=np.int64))


def subdivide(idx: np.ndarray) -> np.ndarray:
    """Children 2 idx + {0,1}^n of same-generation cubes, 2^n per row."""
    offs = np.array(list(product((0, 1), repeat=idx.shape[1])), dtype=np.int64)
    return (2 * idx[:, None, :] + offs).reshape(-1, idx.shape[1])


def order(gen: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Permutation sorting rows by (gen, idx_0, ..., idx_{n-1})."""
    return np.lexsort(tuple(idx.T[::-1]) + (gen,))


def meets_window(gen, idx: np.ndarray, lo, hi) -> np.ndarray:
    """Which closed cubes meet some closed box [lo_k, hi_k]; lo and hi are
    (n,) for one box or (k, n) for a stack of k boxes."""
    s = sides(gen).reshape(-1, 1)
    a, b = idx * s, (idx + 1) * s
    return reduce(np.logical_or,
                  (reduce(np.logical_and, ((a <= h) & (b >= l)).T)
                   for l, h in zip(np.atleast_2d(lo), np.atleast_2d(hi))),
                  np.zeros(len(idx), dtype=bool))


def radix_strides(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mixed-radix strides over the integer box [lo, hi], axis 0 most significant.

    (row - lo) @ strides is an exact key that preserves lexicographic order;
    a box whose keys would not fit in int64 raises instead of wrapping.  An
    axis of span 1 adds 0 to every key, so its stride is 0: in front of 2^63
    keys its full stride would not fit.
    """
    spans = (hi - lo + 1).tolist()
    if math.prod(spans) - 1 > np.iinfo(np.int64).max:
        raise OverflowError("index range needs keys beyond int64")
    return np.array([math.prod(spans[i + 1:]) if spans[i] > 1 else 0
                     for i in range(len(spans))], dtype=np.int64)


class CubeIndex:
    """Exact (gen, idx) -> row lookup over arrays sorted by (gen, idx).

    A row's key is mixed-radix over the box of all rows (gen, idx)
    (radix_strides), the generation most significant, so the sorted rows
    have increasing keys and a key's position is its row.  A lookup takes
    one generation or an array of them that broadcasts against the queries.
    """

    def __init__(self, gen: np.ndarray, idx: np.ndarray):
        # blocks: generation -> (start, stop) rows, in ascending generation
        gens, starts = np.unique(gen, return_index=True)
        stops = np.append(starts[1:], len(gen))
        self.blocks = {g: (a, b) for g, a, b in
                       zip(gens.tolist(), starts.tolist(), stops.tolist())}
        cols = [gen, *idx.T]
        # with no rows the box [0, -1] holds no query
        self._lo = np.array([c.min() if len(c) else 0 for c in cols])
        self._hi = np.array([c.max() if len(c) else -1 for c in cols])
        self._strides = radix_strides(self._lo, self._hi)
        # one generation at a time: whole-array temporaries here raise the
        # claim workload's peak RSS by about 0.6 MiB
        self._keys = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            self._key(g, idx[a:b])[0] for g, (a, b) in self.blocks.items()])
        if np.any(np.diff(self._keys) <= 0):
            raise ValueError("rows must be sorted by (gen, idx) and distinct")

    def _key(self, g, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Key over the leading 1 + j axes of each query (g, x), x (..., j),
        clipped into the box so that it fits int64, and whether the query
        lies in the box; column by column, as a short last axis is slow."""
        k, inside = 0, True
        for v, a, b, s in zip([g, *np.moveaxis(x, -1, 0)], self._lo,
                              self._hi, self._strides):
            c = np.minimum(np.maximum(v, a), b)
            k, inside = k + (c - a) * s, inside & (c == v)
        return k, inside

    def find(self, g, q: np.ndarray) -> np.ndarray:
        """Row of each generation-g query in the full arrays, -1 where absent."""
        if not len(self._keys):
            return np.full(len(q), -1, dtype=np.int64)
        k, inside = self._key(g, q)
        pos = np.minimum(self._keys.searchsorted(k), len(self._keys) - 1)
        return np.where(inside & (self._keys[pos] == k), pos, -1)

    def column(self, g, h: np.ndarray) -> np.ndarray:
        """Start and stop rows, shape (2,) + the shape of g and h.shape[:-1]
        broadcast, of the generation-g cubes over each horizontal index h
        (..., n-1); empty where there is none.  The last axis is the least
        significant in the key, so a column is the one run of keys (g, h,
        lo_n) .. (g, h, hi_n).
        """
        k, inside = self._key(g, h)
        span = self._hi[-1] - self._lo[-1] + 1
        return self._keys.searchsorted(np.stack((k, k + span))) * inside
