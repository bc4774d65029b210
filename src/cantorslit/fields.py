"""Grid fields, masked gradients and seminorms, and projection measures.

Scalar and vector quantities live on regular cell-centered grids with a
boolean membership mask.  Finite differences never couple cells across the
mask, so the two sides of a slit stay numerically independent.  The module
also measures axis projections of unions of boxes (exactly via interval
unions in the plane, by pixel count above it) and runs the cube-level
energy check that compares masked gradient energy against the scale
delta^((n-p)/n) l^(n-p).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .regions import RegionSpec, membership_grid


@dataclass
class GridField:
    """Cell-centered values over a box, with a region membership mask.

    values has shape grid_shape for scalars and grid_shape + (n,) for
    vectors.  flags, set by extension.extend only, marks its uncovered tent
    cells.  support (int-bounded index slices; default: the whole grid)
    holds every cell whose value may differ from +0.0; passes read only it.
    """

    bbox: np.ndarray            # (2, n): lower and upper corners
    h: float
    values: np.ndarray
    mask: np.ndarray
    kind: str = "scalar"
    flags: np.ndarray | None = None
    region: RegionSpec | None = None
    support: tuple[slice, ...] | None = None

    def __post_init__(self):
        self.support = self.support or tuple(slice(0, m) for m in self.mask.shape)

    @property
    def n(self) -> int:
        return self.bbox.shape[1]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.mask.shape

    def axes(self) -> list[np.ndarray]:
        """Cell-center coordinates along each axis."""
        return _grid_axes(self.bbox, self.h)


def _grid_shape(bbox: np.ndarray, h: float) -> list[int]:
    """Cells per axis of the spacing-h grid on bbox; h must divide each side."""
    shape = []
    for span in bbox[1] - bbox[0]:
        m = span / h
        mi = round(m)
        if abs(m - mi) > 1e-9 * max(1.0, abs(m)):
            raise ValueError(f"h={h} does not divide the bbox side {span}")
        shape.append(mi)
    return shape


def _grid_axes(bbox: np.ndarray, h: float) -> list[np.ndarray]:
    return [lo + (np.arange(m) + 0.5) * h
            for lo, m in zip(bbox[0], _grid_shape(bbox, h))]


def _stack_centers(axes: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _cells_in_box(axes: list[np.ndarray], lo, hi) -> tuple[slice, ...]:
    """Index slices of the cells whose centers lie in the closed box
    [lo, hi], one per axis of a grid's cell-center axes; clipped to the
    grid, possibly empty.  Index the full grid's axes with them for the
    sub-grid's coordinates."""
    return tuple(slice(int(np.searchsorted(a, a_lo, side="left")),
                       int(np.searchsorted(a, a_hi, side="right")))
                 for a, a_lo, a_hi in zip(axes, lo, hi))


def grid_sample(f, region: RegionSpec, h: float,
                bbox: np.ndarray | None = None) -> GridField:
    """Sample a function at cell centers, masked by region membership.

    f takes an (m, n) array of points and returns m values; scalars are
    broadcast.  Non-finite samples on masked-in cells are rejected.

    When f carries a support attribute, a (2, n) box outside which f is
    exactly +0.0, f sees only the centers of the cells within one cell of
    that box; every other cell is +0.0 and is neither evaluated nor
    checked for finiteness.
    """
    if h <= 0:
        raise ValueError("spacing must be positive")
    bbox = np.asarray(region.bbox if bbox is None else bbox, dtype=float)
    axes = _grid_axes(bbox, h)
    mask = membership_grid(region, axes)
    support = getattr(f, "support", None)
    box = (tuple(slice(0, len(a)) for a in axes) if support is None
           else _cells_in_box(axes, support[0] - h, support[1] + h))
    sub = mask[box]
    pts = _stack_centers([a[s] for a, s in zip(axes, box)])
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), (pts.shape[0],))
    vals = vals.reshape(sub.shape)
    if not np.all(np.isfinite(vals) | ~sub):
        raise ValueError("sampled values are not finite on masked-in cells")
    values = np.zeros(mask.shape)
    np.copyto(values[box], vals, where=sub)
    return GridField(bbox=bbox, h=h, values=values, mask=mask, kind="scalar",
                     region=region, support=box)


def _read(u: GridField, box: tuple[slice, ...]) -> np.ndarray:
    """u.values[box] (int-bounded slices), reading no cell off u.support."""
    cut = tuple(slice(lo := max(b.start, s.start), max(lo, min(b.stop, s.stop)))
                for b, s in zip(box, u.support))
    if cut == box:
        return u.values[box]
    out = np.zeros(tuple(b.stop - b.start for b in box) + u.values.shape[u.n:])
    out[tuple(slice(c.start - b.start, c.stop - b.start)
              for c, b in zip(cut, box))] = u.values[cut]
    return out


_STENCIL_PAD = 2     # cells by which gradient widens its nonzero values' box


def gradient(u: GridField) -> GridField:
    """Masked finite-difference gradient.

    Central differences on cells whose two axis neighbours are masked in,
    one-sided where only one is, zero where neither is.  No
    stencil ever reaches across the mask.  When the field carries a region,
    two neighbours are additionally coupled only if the face midpoint
    between their centers is itself in the region, so slits thinner than
    the grid spacing still decouple the two sides.

    The stencil runs only on the index box of the masked-in cells whose
    value is not +0.0 (-0.0 counts, so signed zeros survive), widened by
    two cells: a cell's result reads only masked-in values one cell away,
    so outside that box it is +0.0, and on the box's edge the cut-off
    neighbours and the cell itself are all +0.0 either way.  Face midpoints
    come from slices of the full grid's axes, so every bit matches the
    whole-grid stencil.  The box is the result's support.
    """
    if u.kind != "scalar":
        raise ValueError("gradient expects a scalar field")
    n = u.n
    h = u.h
    out = np.zeros(u.values.shape + (n,))
    v = u.values[u.support]
    nz = u.mask[u.support] & ((v != 0) | np.signbit(v))
    others = [tuple(a for a in range(n) if a != ax) for ax in range(n)]
    hit = [np.flatnonzero(np.any(nz, axis=o)) for o in others]
    box = tuple(slice(max(s.start + int(t[0]) - _STENCIL_PAD, 0),
                      min(s.start + int(t[-1]) + _STENCIL_PAD + 1, m))
                if t.size else slice(0, 0)
                for t, s, m in zip(hit, u.support, u.grid_shape))
    if hit[0].size:
        vals, mask = _read(u, box), u.mask[box]
        axes = ([a[s] for a, s in zip(u.axes(), box)]
                if u.region is not None else None)
        for ax in range(n):
            up = np.zeros_like(vals)
            dn = np.zeros_like(vals)
            m_up = np.zeros_like(mask)
            m_dn = np.zeros_like(mask)
            sl_c = [slice(None)] * n
            sl_p = [slice(None)] * n
            sl_c[ax], sl_p[ax] = slice(None, -1), slice(1, None)
            up[tuple(sl_c)] = vals[tuple(sl_p)]
            m_up[tuple(sl_c)] = mask[tuple(sl_p)]
            dn[tuple(sl_p)] = vals[tuple(sl_c)]
            m_dn[tuple(sl_p)] = mask[tuple(sl_c)]
            if axes is not None:
                mid_axes = list(axes)
                mid_axes[ax] = 0.5 * (axes[ax][:-1] + axes[ax][1:])
                face_ok = membership_grid(u.region, mid_axes)
                m_up[tuple(sl_c)] &= face_ok
                m_dn[tuple(sl_p)] &= face_ok
            both = mask & m_up & m_dn
            only_up = mask & m_up & ~m_dn
            only_dn = mask & m_dn & ~m_up
            comp = out[box + (ax,)]
            comp[both] = (up[both] - dn[both]) / (2.0 * h)
            comp[only_up] = (up[only_up] - vals[only_up]) / h
            comp[only_dn] = (vals[only_dn] - dn[only_dn]) / h
    return GridField(bbox=u.bbox, h=h, values=out, mask=u.mask.copy(),
                     kind="vector", region=u.region, support=box)


def seminorm_p(g: GridField, p: float, submask: np.ndarray | None = None) -> float:
    """(sum |g|^p h^n)^(1/p) over masked-in cells.

    The sum is math.fsum's correctly rounded one, which does not depend on
    the order of the terms; a zero cell adds nothing, so only the selected
    cells of g.support with a nonzero value are gathered.  A sum past the
    float range is inf.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    sel = g.mask if submask is None else (g.mask & submask)
    if not np.any(sel):
        warnings.warn("seminorm over an empty mask", stacklevel=2)
        return 0.0
    sel, vals = sel[g.support], g.values[g.support]
    if g.kind == "vector":
        # component by component, then rows of a (cells, n) view: any()
        # over the short last axis and a boolean mask over the grid's axes
        # are several times slower
        nonzero = vals[..., 0] != 0
        for k in range(1, g.n):
            nonzero |= vals[..., k] != 0
        vals = vals.reshape(-1, g.n)[np.flatnonzero(sel & nonzero)]
        mag = np.sqrt(np.sum(vals ** 2, axis=-1))
    else:
        mag = np.abs(vals[sel & (vals != 0)])
    try:
        total = math.fsum(mag ** p)
    except OverflowError:
        return math.inf
    return (total * g.h ** g.n) ** (1.0 / p)


# ---------------------------------------------------------------------------
# unions of boxes, and their axis projections


@dataclass
class BoxUnion:
    """Finite union of closed axis-aligned boxes in R^n."""

    n: int
    boxes: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def add_box(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (self.n,) or hi.shape != (self.n,) or np.any(lo > hi):
            raise ValueError("box corners must be ordered n-vectors")
        self.boxes.append((lo, hi))

    def is_empty(self) -> bool:
        return not self.boxes


def interval_union_measure(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of closed intervals (exact sweep)."""
    ivs = sorted((a, b) for a, b in intervals if b > a)
    total = 0.0
    cur_a = cur_b = None
    for a, b in ivs:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def projection_measure(F: BoxUnion, axis: int) -> float:
    """(n-1)-measure of the union projected along the given axis (1-based).

    Exact interval-union sweep in the plane; for n >= 3 the pixel count of
    pixel_projection_measure at h = 2^-12 (over-approximation error at most
    perimeter * h per member).
    """
    if not 1 <= axis <= F.n:
        raise ValueError("axis must be between 1 and n")
    if F.n > 2:
        return pixel_projection_measure(F, axis, 2.0 ** -12)
    keep = 2 - axis
    return interval_union_measure([(lo[keep], hi[keep]) for lo, hi in F.boxes])


def pixel_projection_measure(F: BoxUnion, axis: int, h: float) -> float:
    """Pixel count of the union projected along the given axis (1-based):
    the cells of spacing h from the shadow's lower corner whose centers a
    projected closed box contains, times h^(n-1)."""
    if not 1 <= axis <= F.n:
        raise ValueError("axis must be between 1 and n")
    if F.is_empty():
        return 0.0
    keep = [i for i in range(F.n) if i != axis - 1]
    lo = np.min([b[0][keep] for b in F.boxes], axis=0)
    hi = np.max([b[1][keep] for b in F.boxes], axis=0)
    axes = _grid_axes(np.stack([lo, lo + (np.ceil((hi - lo) / h) + 1) * h]), h)
    hit = np.zeros([len(t) for t in axes], dtype=bool)
    for blo, bhi in F.boxes:
        hit[_cells_in_box(axes, blo[keep], bhi[keep])] = True
    return float(np.count_nonzero(hit)) * h ** len(keep)


# ---------------------------------------------------------------------------
# the cube-level energy check


class EnergyHypothesisError(ValueError):
    """Raised when a named hypothesis of the energy check fails."""

    def __init__(self, clause: str, detail: str):
        self.clause = clause
        super().__init__(f"hypothesis clause {clause!r} failed: {detail}")


def poincare_energy_check(Q, F: BoxUnion, f: GridField, delta: float,
                          p: float) -> dict:
    """Masked gradient energy on Q \\ F against delta^((n-p)/n) l(Q)^(n-p).

    Q is a (lo, hi) pair of corner arrays.  Hypotheses
    checked numerically before the energy is formed: every axis projection
    of F is small relative to the projected cube face (clause
    "projection"), and both level sets {f = 0} and {f = 1}, to within 1e-9,
    occupy at least delta l^n / 2^n of the concentric half cube (clause
    "level-set").
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    qlo, qhi = (np.asarray(v, dtype=float) for v in Q)
    n = f.n
    ell = float(qhi[0] - qlo[0])
    if not np.allclose(qhi - qlo, ell):
        raise ValueError("Q must be a cube")

    face = ell ** (n - 1)
    budget = delta / (2 * n * 2 ** n) * face
    for axis in range(1, n + 1):
        mu = projection_measure(F, axis)
        if mu > budget:
            raise EnergyHypothesisError(
                "projection",
                f"axis {axis}: measure {mu:.6g} exceeds budget {budget:.6g}")

    axes = f.axes()
    half = _cells_in_box(axes, qlo + ell / 4, qhi - ell / 4)
    vals = f.values[half][f.mask[half]]
    cellvol = f.h ** n
    m_zero = float(np.count_nonzero(np.abs(vals) <= 1e-9)) * cellvol
    m_one = float(np.count_nonzero(np.abs(vals - 1.0) <= 1e-9)) * cellvol
    need = delta * ell ** n / 2 ** n
    if min(m_zero, m_one) <= need:
        raise EnergyHypothesisError(
            "level-set",
            f"min(m(f=0), m(f=1)) = {min(m_zero, m_one):.6g} <= {need:.6g}")

    in_q = np.zeros(f.grid_shape, dtype=bool)
    in_q[_cells_in_box(axes, qlo, qhi)] = True
    for lo, hi in F.boxes:
        in_q[_cells_in_box(axes, lo, hi)] = False
    g = gradient(f)
    lhs = seminorm_p(g, p, submask=in_q) ** p
    scale = delta ** ((n - p) / n) * ell ** (n - p)
    return {"lhs": lhs, "scale": scale, "ratio": lhs / scale}
