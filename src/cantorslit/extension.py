"""Whitney extension operator over the slit tent, and norm-bound formulas.

The extension of u from the slit domain into the tent is the classical
average-and-blend construction: each resolved tent cube Q_i receives the
mean a_i of u over its reflected complement cube, and these means are
blended by a partition of unity subordinate to the enlarged cubes (9/8)Q_i.
The module also evaluates the closed-form norm factor
1 / (1 - 2^((-n + p + dim)/p)), the empirical operator-norm ratio on test
functions, and the pointwise trace-mismatch refinement study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cantor import CantorSpec, cantor_dim, cell_endpoints
from .fields import (GridField, _grid_axes, _read, _stack_centers,
                     grid_sample, gradient, seminorm_p)
from .regions import (RegionSpec, _cells_in_box, component_label,
                      membership_grid, region_membership_many, region_spec)
from .whitney import (Q0_ID, UNASSIGNED, ReflectAssignment,
                      WhitneyDecomposition, reflect_assign, whitney_decompose)

# half-width of each trace-study window, in units of its scale h
_TRACE_PAD = 3.0


def _bump_profile(x, center, side: float) -> np.ndarray:
    """C^1 falloff along an axis: 1 on the cube, 0 past side/16 outside it."""
    s = np.clip((np.abs(x - center) - side / 2.0) / (side / 16.0), 0.0, 1.0)
    return 1.0 - (3.0 * s * s - 2.0 * s ** 3)


@dataclass
class PartitionOfUnity:
    """Bump weights of the resolved cubes on a regular grid, as a flat table.

    Entry e is the raw bump phi[e] > 0 of cube row rows[e] at the C-order
    cell cells[e]; entries run in (gen, idx) cube order.  total is the
    grid-shaped sum of phi per cell, so covered cells are those with total >
    0 and the normalised weights are phi / total.ravel()[cells].
    """

    cells: np.ndarray
    phi: np.ndarray
    rows: np.ndarray
    total: np.ndarray


def partition_of_unity(dec: WhitneyDecomposition, h: float,
                       bbox: np.ndarray,
                       box: tuple[slice, ...] | None = None) -> PartitionOfUnity:
    """Tabulate the bumps of the resolved cubes on the cell centers of bbox.

    A bump is the product of one _bump_profile per axis, so each generation
    is one array pass: per cube and axis, the profile over the grid indices
    its (9/8)-support meets, then the outer product over the axes, less
    the support's edge cells, where the bump is 0.

    box, index slices of the bbox grid with int bounds (as _cells_in_box
    gives them), restricts the table to the box's cells: cells then numbers
    them in C order within the box and total has the box's shape.  The
    profiles still read the full grid's axes, and the kept entries keep
    their order, so each cell's total is bit for bit the whole grid's.
    Raises when dec is finer than finest_gen(h), the spacing rule's home.
    """
    if len(dec) and int(dec.gen.max()) > finest_gen(h):
        raise ValueError("h must be at most the smallest cube side over 8")
    bbox = np.asarray(bbox, dtype=float)
    axes = _grid_axes(bbox, h)
    if box is None:
        box = tuple(slice(0, len(x)) for x in axes)
    i0 = np.array([s.start for s in box])
    i1 = np.array([s.stop for s in box])
    shape = tuple((i1 - i0).tolist())
    parts = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64))]
    for g, (start, stop) in dec.index.blocks.items():
        side = 2.0 ** -g
        idx = dec.idx[start:stop]
        # support cells [a, b) per cube and axis, clipped to the box
        a = np.floor((idx * side - side / 16.0 - bbox[0]) / h).astype(int)
        b = np.ceil(((idx + 1.0) * side + side / 16.0 - bbox[0]) / h).astype(int)
        a, b = np.maximum(i0, a), np.minimum(i1, b)
        bump, key, ok = 1.0, 0, True
        row = np.arange(start, stop).reshape((-1,) + (1,) * dec.n)
        for ax in range(dec.n):
            j = a[:, ax, None] + np.arange(max(0, int((b - a)[:, ax].max())))
            prof = _bump_profile(axes[ax][np.minimum(j, i1[ax] - 1)],
                                 (idx[:, ax, None] + 0.5) * side, side)
            dims = (len(idx),) + (1,) * ax + (-1,) + (1,) * (dec.n - ax - 1)
            bump = bump * prof.reshape(dims)
            key = key * shape[ax] + (j - i0[ax]).reshape(dims)
            ok = ok & (j < b[:, ax, None]).reshape(dims)
        ok = ok & (bump > 0.0)
        parts.append((key[ok], bump[ok], np.broadcast_to(row, ok.shape)[ok]))
    cells, phi, rows = (np.concatenate(c) for c in zip(*parts))
    total = np.bincount(cells, phi, minlength=math.prod(shape)).reshape(shape)
    return PartitionOfUnity(cells=cells, phi=phi, rows=rows, total=total)


@dataclass
class ExtensionAssembly:
    """Everything needed to extend functions from the slit domain."""

    region_n: RegionSpec
    region_omega: RegionSpec
    w: WhitneyDecomposition
    wt: WhitneyDecomposition
    reflect: ReflectAssignment

    @classmethod
    def of(cls, w: WhitneyDecomposition,
           wt: WhitneyDecomposition) -> ExtensionAssembly:
        """The assembly of a decomposition w of N and wt of Omega."""
        return cls(region_n=w.oracle.region, region_omega=wt.oracle.region,
                   w=w, wt=wt, reflect=reflect_assign(w, wt))


def assemble(lam: float, n: int, max_gen: int) -> ExtensionAssembly:
    """Build the Whitney data backing the extension operator."""
    return ExtensionAssembly.of(
        whitney_decompose(region_spec("N_lambda", lam=lam, n=n), max_gen),
        whitney_decompose(region_spec("Omega_lambda", lam=lam, n=n), max_gen))


def cube_average(u: GridField, Q) -> float:
    """Mean of u over the masked-in cells whose centers lie in the closed
    cube Q (anything with lo, hi); raises if the grid has no such cell.

    Q None means the reservoir Q0_tilde (the box minus the enlarged notch),
    classified by membership_grid.
    Values are read only inside u.support.
    """
    box = _cells_in_box(u.axes(), *(u.bbox if Q is None else (Q.lo, Q.hi)))
    sel = (u.mask & membership_grid(RegionSpec(kind="Q0_tilde", n=u.n),
                                    u.axes())) if Q is None else u.mask[box]
    if not sel.any():
        raise ValueError("cube has no masked-in cells to average over")
    if Q is None and not sel[u.support].any():
        return 0.0          # every reservoir value is +0.0
    vals = _read(u, box)[sel]
    return float(np.sum(vals) / vals.size)


def extend(u: GridField, asm: ExtensionAssembly) -> GridField:
    """Assemble Eu on the box grid of u.

    Eu equals u on slit-domain cells, the partition-of-unity blend of
    reflected-cube averages on tent cells covered by resolved cubes, and 0
    on the remaining (boundary-shell or frontier-gap) cells; the uncovered
    tent cells are flagged.  Each reflected cube is averaged once.

    Blending and flagging run on the index box of the tent's bounding box,
    outside which no cell is in the tent: only the cubes that weigh some
    cell of that box are averaged, and a blended cell's weights are those
    of the whole grid's table.  u is read only on u.support.
    """
    axes = u.axes()
    box = _cells_in_box(axes, *asm.region_n.bbox)
    pou = partition_of_unity(asm.w, u.h, u.bbox, box)
    n_mask = membership_grid(asm.region_n, [a[s] for a, s in zip(axes, box)])
    # the tent cubes that weigh a cell of the box, and their reflected cubes
    tent = np.unique(pou.rows)
    rid = asm.reflect.target[tent]
    missing = tent[rid == UNASSIGNED]
    if len(missing):
        raise ValueError(f"unassigned tent cube {asm.w.cubes[missing[0]]}"
                         " inside the support")
    targets, which = np.unique(rid, return_inverse=True)
    avg = np.array([cube_average(u, None if t == Q0_ID else asm.wt.cubes[t])
                    for t in targets.tolist()])
    a = np.zeros(len(asm.w))
    a[tent] = avg[which]
    num = np.bincount(pou.cells, a[pou.rows] * pou.phi,
                      minlength=pou.total.size).reshape(pou.total.shape)
    covered = pou.total > 0.0
    vals = np.zeros(u.grid_shape)
    np.copyto(vals[u.support], u.values[u.support], where=u.mask[u.support])
    out_mask = u.mask.copy()
    flags = np.zeros(u.grid_shape, dtype=bool)
    tent_out = n_mask & ~u.mask[box]
    blend = tent_out & covered
    vals[box][blend] = num[blend] / pou.total[blend]
    out_mask[box] |= blend
    flags[box] = tent_out & ~covered
    return GridField(bbox=u.bbox.copy(), h=u.h, values=vals, mask=out_mask,
                     kind="scalar", flags=flags, support=tuple(
                         slice(min(s.start, b.start), max(s.stop, b.stop))
                         for s, b in zip(u.support, box)))


# ---------------------------------------------------------------------------
# test functions


def jump_test_function(x0, r: float, region: RegionSpec, witness):
    """Radial cutoff times the indicator of one local component.

    Returns a vectorised callable u with u = 1 on the witness component
    within dist <= 2r of x0, a linear ramp on 2r <= dist <= 3r, and 0
    elsewhere (in particular on the other side of the slit).  The component
    is identified by flood fill of spacing r/64 on a grid window of radius
    3.2 r and must be pinch-side sign-definite there, so the indicator can be
    evaluated exactly as membership on the witness's side of the pinch plane.

    u evaluates every row it is given.  u.support is the (2, n) box
    x0 -+ 3r: u is exactly +0.0 outside it (there d / r > 3), so
    grid_sample passes u only the rows near that box and neither evaluates
    nor checks finiteness on the cells it leaves at +0.0.
    """
    x0 = np.asarray(x0, dtype=float)
    witness = np.asarray(witness, dtype=float)
    if r <= 0:
        raise ValueError("r must be positive")
    cmap = component_label(region, x0, 3.2 * r, r / 64.0)
    label = cmap.label_at(witness)
    if label < 0:
        raise ValueError("witness point matches no component in the window")
    n = region.n
    sgn = 1.0 if witness[n - 1] >= x0[n - 1] else -1.0
    if cmap.label_at(x0 + (witness - x0) * np.array([1.0] * (n - 1) + [-1.0])) \
            == label:
        raise ValueError("witness component is not pinch-side sign-definite; "
                         "pick a witness whose mirror lies in another component")

    def u(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X - x0, axis=1)
        cut = np.clip(3.0 - d / r, 0.0, 1.0)
        # exact indicator: region membership restricted to the witness's
        # side of the pinch plane (the local component is sign-definite)
        ind = region_membership_many(region, X)
        ind &= sgn * (X[:, n - 1] - x0[n - 1]) > 0.0
        return cut * ind

    # a function attribute, so functools.wraps copies it onto wrappers
    u.support = np.stack([x0 - 3.0 * r, x0 + 3.0 * r])
    return u


def origin_jump(lam: float, n: int, r: float):
    """The jump test function of radius r at the origin pinch point.

    Its witness, r/8 along every horizontal axis (0 on x_{n-1} is D's notch
    face) and r/2 above the slit, picks the component over the pinch plane.
    """
    witness = np.append(np.full(n - 1, r / 8.0), r / 2.0)
    return jump_test_function(np.zeros(n), r,
                              region_spec("Omega_lambda", lam=lam, n=n), witness)


# ---------------------------------------------------------------------------
# operator-norm ratios and closed-form bounds


def finest_gen(h: float) -> int:
    """Largest g with h <= 2^-g/8 + 1e-15; the one home of this spacing rule."""
    g = -math.frexp(h)[1] - 2           # 2^-(g+3) <= h < 2^-(g+2)
    return g if h <= 2.0 ** -g / 8.0 + 1e-15 else g - 1


def ratio_p(u_fn, lam: float, n: int, p: float, h: float,
            max_gen: int | None = None) -> float:
    """Empirical extension-energy ratio for one test function.

    seminorm_p of the masked gradient of Eu over the covered tent cells,
    divided by the seminorm of the gradient of u over the slit domain.
    A lower-bound witness for the restricted operator norm; raises when Eu
    blends no tent cell.

    The numerator's gradient runs on the index box of the tent's bounding
    box, which holds every covered tent cell, so its stencils are those of
    the whole grid.
    """
    asm = assemble(lam, n, finest_gen(h) if max_gen is None else max_gen)
    u = grid_sample(u_fn, asm.region_omega, h)
    gu = gradient(u)
    denom = seminorm_p(gu, p)
    if denom == 0.0:
        raise ValueError("test function has zero seminorm on the slit domain")
    eu = extend(u, asm)
    box = _cells_in_box(eu.axes(), *asm.region_n.bbox)
    ends = eu.h * np.array([[s.start for s in box], [s.stop for s in box]])
    tent_only = eu.mask[box] & ~u.mask[box]
    if not tent_only.any():
        raise ValueError(f"Eu blends no tent cell at lambda={lam!r}, n={n},"
                         f" h={h!r}; no ratio")
    geu = gradient(GridField(bbox=eu.bbox[0] + ends, h=eu.h,
                             values=eu.values[box], mask=tent_only,
                             kind="scalar"))
    numer = seminorm_p(geu, p)
    return numer / denom


def norm_factor(lam: float, n: int, p: float) -> float:
    """Closed form 1/(1 - 2^((-n + p + dim)/p)); inf signals divergence."""
    if p <= 1:
        raise ValueError("norm_factor requires p > 1")
    dim = cantor_dim(CantorSpec(lam=lam), n)
    if dim >= n - p:
        return math.inf
    return 1.0 / (1.0 - 2.0 ** ((-n + p + dim) / p))


def d_factor(r: float, p: float) -> float:
    """Helper factor (1 - 2^(-rp/(p-1)))^(1-p) from the cube-wise estimate."""
    if p <= 1 or r <= 0:
        raise ValueError("d_factor needs p > 1 and r > 0")
    return (1.0 - 2.0 ** (-r * p / (p - 1.0))) ** (1.0 - p)


def thm_upper_curve(x: float, n: int, p: float) -> float:
    """Dimension upper bound n - p - 1/(x^n log x) at operator norm x."""
    if x <= 1.0:
        return math.nan
    return n - p - 1.0 / (x ** n * math.log(x))


@dataclass
class BoundReport:
    n: int
    p: float
    rows: list[dict] = field(default_factory=list)

    COLUMNS = ("lambda", "dim", "norm_factor", "empirical_ratio", "C_eff",
               "thm11_upper")


def bound_report(n: int, p: float, lams: list[float],
                 h: float | None = None) -> BoundReport:
    """Closed-form norm factors and effective constants per lambda.

    When h is given, an empirical ratio for the jump test function at the
    origin pinch point is included, and a ratio of 0 (Eu has no gradient
    on its blended tent cells) raises; otherwise that column is NaN.
    """
    rep = BoundReport(n=n, p=p)
    for lam in lams:
        spec = CantorSpec(lam=lam)
        dim = cantor_dim(spec, n)
        nf = norm_factor(lam, n, p)
        c_eff = (n - p - dim) * nf if math.isfinite(nf) else math.nan
        emp = math.nan
        if h is not None:
            emp = jump_ratio(lam, n, p, h)
            if emp == 0.0:
                raise ValueError(f"empirical ratio 0 at lambda={lam!r}, n={n},"
                                 f" h={h!r}; no ratio")
        upper = thm_upper_curve(nf, n, p) if math.isfinite(nf) else math.nan
        rep.rows.append({"lambda": lam, "dim": dim, "norm_factor": nf,
                         "empirical_ratio": emp, "C_eff": c_eff,
                         "thm11_upper": upper})
    return rep


def jump_ratio(lam: float, n: int, p: float, h: float,
               max_gen: int | None = None) -> float:
    """ratio_p for the jump function at the origin pinch point.

    The same base point and radius r = 1/8 are used for every lambda.  At
    max_gen <= 7 the ratios are set by which apex cones inside the jump's
    support are resolved, not by the Cantor dimension: most tent cubes
    reflect to complement cubes outside the support, where u averages 0.
    """
    return ratio_p(origin_jump(lam, n, 1.0 / 8.0), lam, n, p, h,
                   max_gen=max_gen)


# ---------------------------------------------------------------------------
# pointwise evaluation and the trace refinement study


def _point_weights(x: np.ndarray, w: WhitneyDecomposition):
    """Rows and raw bumps of the cubes of w weighted at x: the
    partition_of_unity table of a one-cell grid centred at x, at the
    coarsest spacing w accepts."""
    h = 2.0 ** -(int(w.gen.max(initial=0)) + 3)
    pou = partition_of_unity(w, h, np.stack([x - h / 2.0, x + h / 2.0]))
    return pou.rows, pou.phi


def point_extend(x, asm: ExtensionAssembly, u_fn) -> float:
    """Eu at a single tent point, with analytic averages of u.

    The weights at x are _point_weights'.  Cube averages use a fixed 4 x 4
    midpoint rule on the reflected cube (exact for affine u, O(side^2)
    otherwise).
    """
    x = np.asarray(x, dtype=float)
    rows, phis = _point_weights(x, asm.w)
    if not len(rows):
        raise ValueError(f"no resolved tent cube covers {x}")
    num = den = 0.0
    for row, phi in zip(rows.tolist(), phis.tolist()):
        rid = int(asm.reflect.target[row])
        if rid == UNASSIGNED:
            raise ValueError(f"unassigned tent cube {asm.w.cubes[row]} at {x}")
        if rid == Q0_ID:
            raise ValueError("reservoir averages need a grid; use extend()")
        q = asm.wt.cubes[rid]
        pts = _stack_centers(_grid_axes(np.stack([q.lo, q.hi]), q.side / 4))
        a = float(np.mean(u_fn(pts)))
        num += a * phi
        den += phi
    return num / den


def gap_midpoints(spec: CantorSpec, depth: int) -> np.ndarray:
    """Midpoints (and half-widths) of the construction gaps up to depth.

    Returns an (m, 2) array of (midpoint, distance to the Cantor set).
    """
    cells = cell_endpoints(spec, depth).reshape(-1, 2)
    b0, a1 = cells[:-1, 1], cells[1:, 0]
    return np.column_stack([(b0 + a1) / 2.0, (a1 - b0) / 2.0])


def trace_mismatch(lam: float, hs: list[float]) -> dict:
    """Planar pointwise trace study at the tent surface over gap midpoints.

    For each grid scale h, which must be a power of two, Eu of u(x) = x_1 +
    sin(3 x_2)/2 is evaluated at x = (m, g - 2h) below every depth <= 3 gap
    midpoint (m, g) with g > 8h (a scale without one raises) and compared
    with u at (m, g).  One assembly per h, from N and Omega windowed to the
    stack of boxes B = (m, g) +- P h, P = _TRACE_PAD = 3, gives each point
    its unwindowed value, as the stack keeps exactly the unwindowed cubes
    that meet a box (whitney_decompose):
      - weights: x lies sqrt(2) h from the boundary, under its gap's apex.
        A resolved cube Q of side s whose 9/8 bump reaches x has sqrt(2) s
        <= dist(Q, boundary) <= sqrt(2) h + sqrt(2) s/16, so s <= 16h/15,
        and s <= h as both are powers of two.  Q's closure comes within
        s/16 of x, which lies (P - 2) h inside B, so Q meets B;
      - targets: Q's reflect_assign candidates (side s or 2s, in the closed
        upper half-space, projecting onto a superset of Q's projection) lie
        within m +- (2 + 1/16) h, inside B's horizontal range and the gap,
        which is tent there below height g - 3h.  One that misses B lies
        above B's top face, its centre farther than g + P h - c_2(Q) from
        Q's centre c(Q);
      - certificate, run on every weighted Q: its target's centre lies
        within g + P h - c_2(Q) of c(Q), so no candidate outside the stack
        beats it, not even on a tie; otherwise, or with no target, the
        point raises ValueError instead of returning an unvouched value.
    Returns the per-h mean mismatches and the fitted decay order in h.
    """
    def u_fn(X):
        return X[:, 0] + 0.5 * np.sin(3.0 * X[:, 1])

    rn = region_spec("N_lambda", lam=lam, n=2)
    ro = region_spec("Omega_lambda", lam=lam, n=2)
    mids = gap_midpoints(CantorSpec(lam=lam), 3)
    scales = [(h, [(m, g) for m, g in mids if g > 8.0 * h]) for h in hs]
    for h, pts in scales:
        if not h > 0.0 or math.frexp(h)[0] != 0.5:
            raise ValueError(f"trace scale h={h!r} is not a power of two")
        if not pts:
            raise ValueError(f"trace scale h={h!r} has no gap midpoint g > 8h")
    errs = []
    for h, pts in scales:
        max_gen = int(round(math.log2(1.0 / h))) + 3
        pad = _TRACE_PAD * h
        boxes = [((m - pad, g - pad), (m + pad, g + pad)) for m, g in pts]
        asm = ExtensionAssembly.of(whitney_decompose(rn, max_gen, window=boxes),
                                   whitney_decompose(ro, max_gen, window=boxes))
        mis = []
        for m, g in pts:
            x = np.array([m, g - 2.0 * h])
            for row in _point_weights(x, asm.w)[0].tolist():
                t, c = int(asm.reflect.target[row]), asm.w.cubes[row].center
                if t < 0 or (np.linalg.norm(asm.wt.cubes[t].center - c)
                             > g + pad - c[1]):
                    raise ValueError(f"trace point {x.tolist()} at h={h!r}: "
                                     "a reflected target is not certified")
            mis.append(abs(point_extend(x, asm, u_fn)
                           - float(u_fn(np.array([[m, g]]))[0])))
        errs.append(float(np.mean(mis)))
        del asm                 # before the next scale's decompositions
    order = float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0]) \
        if len(hs) >= 2 else math.nan
    return {"hs": list(hs), "mismatch": errs, "order": order}
