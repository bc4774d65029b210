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
    a box whose keys would not fit in int64 raises instead of wrapping.
    """
    spans = (hi - lo + 1).tolist()
    if math.prod(spans) - 1 > np.iinfo(np.int64).max:
        raise OverflowError("index range needs keys beyond int64")
    return np.array([math.prod(spans[i + 1:]) for i in range(len(spans))],
                    dtype=np.int64)


class CubeIndex:
    """Exact (gen, idx) -> row lookup over arrays sorted by (gen, idx).

    Each generation's key is mixed-radix over its index range (radix_strides),
    so its sorted rows have increasing keys.
    """

    def __init__(self, gen: np.ndarray, idx: np.ndarray):
        # blocks: generation -> (start, stop) rows, in ascending generation
        gens, starts = np.unique(gen, return_index=True)
        stops = np.append(starts[1:], len(gen))
        self.blocks = {g: (a, b) for g, a, b in
                       zip(gens.tolist(), starts.tolist(), stops.tolist())}
        self._keys = {}
        for g, (a, b) in self.blocks.items():
            lo, hi = idx[a:b].min(axis=0), idx[a:b].max(axis=0)
            strides = radix_strides(lo, hi)
            keys = (idx[a:b] - lo) @ strides
            if np.any(np.diff(keys) <= 0):
                raise ValueError("rows must be sorted by (gen, idx) and distinct")
            self._keys[g] = (lo, hi, strides, keys)

    def find(self, g: int, q: np.ndarray) -> np.ndarray:
        """Row of each generation-g query in the full arrays, -1 where absent."""
        if g not in self.blocks:
            return np.full(len(q), -1, dtype=np.int64)
        lo, hi, strides, keys = self._keys[g]
        # & of the columns: np.all over a short last axis is ~15x slower
        inside = reduce(np.logical_and, ((q >= lo) & (q <= hi)).T)
        k = (np.where(inside[:, None], q, lo) - lo) @ strides
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return np.where(inside & (keys[pos] == k), pos + self.blocks[g][0], -1)

    def column(self, g: int, h: np.ndarray) -> np.ndarray:
        """Start and stop rows, shape (2,) + h.shape[:-1], of the generation-g
        cubes over each horizontal index h (..., n-1); empty where there is
        none.  The last axis is the least significant in the key, so a
        column is the one run of keys (h, lo_n) .. (h, hi_n).
        """
        if g not in self.blocks:
            return np.zeros((2,) + h.shape[:-1], dtype=np.int64)
        lo, hi, strides, keys = self._keys[g]
        # clipped into the block's range, h keys fit int64; moved h read empty
        c = np.minimum(np.maximum(h, lo[:-1]), hi[:-1])
        k = (c - lo[:-1]) @ strides[:-1]
        ends = keys.searchsorted(np.stack((k, k + hi[-1] - lo[-1] + 1)))
        return self.blocks[g][0] + ends * (c == h).all(axis=-1)
