"""Exact dyadic cube geometry.

A dyadic cube of generation k and integer index j in Z^n is
Prod_i [j_i 2^-k, (j_i+1) 2^-k].  All containment, touching, and projection
tests are carried out on integer ranges at a common scale, so there is no
floating-point ambiguity anywhere in the Whitney machinery.  Side lengths
2^-k and corners j 2^-k are exactly representable as binary floats for the
generations used here, so float output of lo/hi/center is also exact.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def children(self) -> list["DyadicCube"]:
        base = tuple(2 * j for j in self.idx)
        return [DyadicCube(self.gen + 1, tuple(b + o for b, o in zip(base, off)))
                for off in product((0, 1), repeat=self.n)]

    def parent(self) -> "DyadicCube":
        if self.gen == 0:
            raise ValueError("generation-0 cube has no parent here")
        return DyadicCube(self.gen - 1, tuple(j >> 1 for j in self.idx))

    def int_range(self, scale_gen: int) -> tuple[tuple[int, int], ...]:
        """Closed corner range [lo, hi] per axis at scale 2^-scale_gen."""
        if scale_gen < self.gen:
            raise ValueError("common scale must be at least the cube's own")
        f = 1 << (scale_gen - self.gen)
        return tuple((j * f, (j + 1) * f) for j in self.idx)

    def contains_cube(self, other: "DyadicCube") -> bool:
        if other.gen < self.gen:
            return False
        shift = other.gen - self.gen
        return all(oj >> shift == j for j, oj in zip(self.idx, other.idx))

    def contains_point(self, x, closed: bool = True) -> bool:
        x = np.asarray(x, dtype=float)
        lo, hi = self.lo, self.hi
        if closed:
            return bool(np.all((x >= lo) & (x <= hi)))
        return bool(np.all((x > lo) & (x < hi)))


def overlap_lengths(a: DyadicCube, b: DyadicCube) -> tuple[int, ...] | None:
    """Per-axis integer overlap of the closures at the finer common scale.

    None when the closures are disjoint; a zero entry means the closures
    touch in a hyperplane along that axis.
    """
    g = max(a.gen, b.gen)
    ra, rb = a.int_range(g), b.int_range(g)
    out = []
    for (alo, ahi), (blo, bhi) in zip(ra, rb):
        w = min(ahi, bhi) - max(alo, blo)
        if w < 0:
            return None
        out.append(w)
    return tuple(out)


def cubes_touch(a: DyadicCube, b: DyadicCube) -> bool:
    return overlap_lengths(a, b) is not None


def face_adjacent(a: DyadicCube, b: DyadicCube) -> bool:
    """Closures meet in an (n-1)-dimensional set (a common face portion)."""
    ov = overlap_lengths(a, b)
    if ov is None:
        return False
    return sum(1 for w in ov if w == 0) == 1


def projection_contains(a: DyadicCube, b: DyadicCube, drop_axis: int) -> bool:
    """Whether the drop_axis projection of a contains that of b (exactly)."""
    if a.gen > b.gen:
        return False
    shift = b.gen - a.gen
    return all(bj >> shift == aj
               for i, (aj, bj) in enumerate(zip(a.idx, b.idx)) if i != drop_axis)


def meets_box(cube: DyadicCube, lo, hi, closed: bool = True) -> bool:
    """Whether the closed cube meets the box [lo, hi] (float corners)."""
    clo, chi = cube.lo, cube.hi
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if closed:
        return bool(np.all((clo <= hi) & (chi >= lo)))
    return bool(np.all((clo < hi) & (chi > lo)))


def inside_open_box(cube: DyadicCube, lo, hi) -> bool:
    """Whether the closed cube lies inside the open box (lo, hi)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return bool(np.all((cube.lo > lo) & (cube.hi < hi)))


def root_cubes_covering(lo, hi, n: int) -> list[DyadicCube]:
    """Generation-0 integer cubes whose closed union covers the box [lo, hi]."""
    import math
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ranges = [range(int(math.floor(lo[i])), int(math.ceil(hi[i])))
              for i in range(n)]
    return [DyadicCube(0, idx) for idx in product(*ranges)]
