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
from itertools import product

import numpy as np

from .cantor import CantorSpec, cantor_dim, cell_endpoints
from .dyadic import DyadicCube
from .fields import GridField, grid_sample, gradient, seminorm_p
from .regions import (RegionSpec, component_label, membership_grid,
                      region_membership_many, region_spec)
from .whitney import (Q0_ID, ReflectAssignment, WhitneyDecomposition,
                      reflect_assign, whitney_decompose)


def _bump_profile(x, center, side: float) -> np.ndarray:
    """C^1 falloff along an axis: 1 on the cube, 0 past side/16 outside it."""
    s = np.clip((np.abs(x - center) - side / 2.0) / (side / 16.0), 0.0, 1.0)
    return 1.0 - (3.0 * s * s - 2.0 * s ** 3)


@dataclass
class PartitionOfUnity:
    """Per-cube bump weights tabulated on a regular grid.

    contributions maps cube id to (index slices, raw bump values phi_i on
    that sub-grid); total is the grid-wide sum of all phi, and covered marks
    cells with positive total.  Normalised weights are phi_i / total.
    """

    dec: WhitneyDecomposition
    bbox: np.ndarray
    h: float
    contributions: dict[int, tuple[tuple[slice, ...], np.ndarray]]
    total: np.ndarray
    covered: np.ndarray


def _support_slices(cube: DyadicCube, bbox: np.ndarray, h: float,
                    shape: tuple[int, ...]) -> tuple[tuple[slice, ...], list[np.ndarray]]:
    pad = cube.side / 16.0
    a = np.maximum(0, np.floor((cube.lo - pad - bbox[0]) / h).astype(int))
    b = np.minimum(shape, np.ceil((cube.hi + pad - bbox[0]) / h).astype(int))
    sls = tuple(slice(i, j) for i, j in zip(a.tolist(), b.tolist()))
    return sls, [bbox[0, i] + (np.arange(s.start, s.stop) + 0.5) * h
                 for i, s in enumerate(sls)]


def partition_of_unity(dec: WhitneyDecomposition, h: float,
                       bbox: np.ndarray) -> PartitionOfUnity:
    """Tabulate the normalising bump system of the resolved cubes on bbox."""
    if len(dec) and h > 2.0 ** -int(dec.gen.max()) / 8.0 + 1e-15:
        raise ValueError("h must be at most the smallest cube side over 8")
    bbox = np.asarray(bbox, dtype=float)
    shape = tuple(int(round((bbox[1, i] - bbox[0, i]) / h))
                  for i in range(bbox.shape[1]))
    total = np.zeros(shape)
    contributions: dict[int, tuple[tuple[slice, ...], np.ndarray]] = {}
    for i, cube in enumerate(dec.cubes):
        sls, axes = _support_slices(cube, bbox, h, shape)
        if any(s.stop <= s.start for s in sls):
            continue
        phi = np.ones(())
        for ax, coords in enumerate(axes):
            phi = np.multiply.outer(phi, _bump_profile(coords, cube.center[ax],
                                                       cube.side))
        contributions[i + 1] = (sls, phi)
        total[sls] += phi
    return PartitionOfUnity(dec=dec, bbox=bbox, h=h,
                            contributions=contributions, total=total,
                            covered=total > 0.0)


@dataclass
class ExtensionAssembly:
    """Everything needed to extend functions from the slit domain."""

    lam: float
    n: int
    max_gen: int
    region_n: RegionSpec
    region_omega: RegionSpec
    w: WhitneyDecomposition
    wt: WhitneyDecomposition
    reflect: ReflectAssignment


def assemble(lam: float, n: int = 2, max_gen: int = 6) -> ExtensionAssembly:
    """Build the Whitney data backing the extension operator."""
    rn = region_spec("N_lambda", lam=lam, n=n)
    ro = region_spec("Omega_lambda", lam=lam, n=n)
    w = whitney_decompose(rn, max_gen)
    wt = whitney_decompose(ro, max_gen)
    reflect = reflect_assign(w, wt)
    return ExtensionAssembly(lam=lam, n=n, max_gen=max_gen, region_n=rn,
                             region_omega=ro, w=w, wt=wt, reflect=reflect)


def _cells_in_cube(u: GridField, lo: np.ndarray, hi: np.ndarray) -> tuple[slice, ...]:
    """Index slices of the grid cells with centers in (lo, hi], clipped."""
    a = np.floor((lo - u.bbox[0]) / u.h + 0.5).astype(int)
    b = np.floor((hi - u.bbox[0]) / u.h + 0.5).astype(int)
    return tuple(slice(max(0, i), min(m, j))
                 for i, j, m in zip(a.tolist(), b.tolist(), u.grid_shape))


def cube_average(u: GridField, Q) -> float:
    """Mean of u over the masked-in cells of a cube (or of the reservoir).

    Q is a DyadicCube, or the reservoir sentinel Q0_ID / None, in which case
    the average runs over the masked-in cells of the reservoir region (the
    box minus the enlarged notch).
    """
    if Q is None or (isinstance(Q, int) and Q == Q0_ID):
        q0 = membership_grid(RegionSpec(kind="Q0_tilde", n=u.n), u.axes())
        vals = u.values[u.mask & q0]
    else:
        sls = _cells_in_cube(u, Q.lo, Q.hi)
        vals = u.values[sls][u.mask[sls]]
    if vals.size == 0:
        raise ValueError("cube has no masked-in cells to average over")
    return float(np.sum(vals) / vals.size)


def extend(u: GridField, asm: ExtensionAssembly) -> GridField:
    """Assemble Eu on the box grid of u.

    Eu equals u on slit-domain cells, the partition-of-unity blend of
    reflected-cube averages on tent cells covered by resolved cubes, and 0
    on the remaining (boundary-shell or frontier-gap) cells; the uncovered
    tent cells are flagged.
    """
    pou = partition_of_unity(asm.w, u.h, bbox=u.bbox)
    n_mask = membership_grid(asm.region_n, u.axes())
    num = np.zeros(u.grid_shape)
    q0_avg: float | None = None
    for cid, (sls, phi) in pou.contributions.items():
        rid = asm.reflect.mapping.get(cid)
        if rid is None:
            raise ValueError(f"unassigned tent cube id {cid} inside the support")
        if rid == Q0_ID:
            if q0_avg is None:
                q0_avg = cube_average(u, None)
            a = q0_avg
        else:
            a = cube_average(u, asm.wt.cube(rid))
        num[sls] += a * phi
    vals = np.zeros(u.grid_shape)
    vals[u.mask] = u.values[u.mask]
    blend = n_mask & pou.covered & ~u.mask
    vals[blend] = num[blend] / pou.total[blend]
    flags = n_mask & ~pou.covered & ~u.mask
    out_mask = u.mask | blend
    return GridField(bbox=u.bbox.copy(), h=u.h, values=vals, mask=out_mask,
                     kind="scalar", flags=flags)


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
        out = np.zeros(len(X))
        # only rows in the support box |X - x0|_inf <= 3r can be nonzero:
        # elsewhere the computed d >= |X - x0|_inf (sqrt(x*x) rounds to |x|),
        # so d / r > 3 and the cutoff is exactly +0.0
        near = np.flatnonzero(np.all(np.abs(X - x0) / r <= 3.0, axis=1))
        Y = X[near]
        d = np.linalg.norm(Y - x0, axis=1)
        cut = np.clip(3.0 - d / r, 0.0, 1.0)
        # exact indicator: region membership restricted to the witness's
        # side of the pinch plane (the local component is sign-definite)
        ind = region_membership_many(region, Y)
        ind &= sgn * (Y[:, n - 1] - x0[n - 1]) > 0.0
        out[near] = cut * ind
        return out

    u.x0, u.r, u.component = x0, r, label
    return u


# ---------------------------------------------------------------------------
# operator-norm ratios and closed-form bounds


def ratio_p(u_fn, lam: float, n: int, p: float, h: float,
            max_gen: int | None = None) -> float:
    """Empirical extension-energy ratio for one test function.

    seminorm_p of the masked gradient of Eu over the covered tent cells,
    divided by the seminorm of the gradient of u over the slit domain.
    A lower-bound witness for the restricted operator norm.
    """
    if max_gen is None:
        max_gen = int(round(math.log2(1.0 / h))) - 3
    asm = assemble(lam, n=n, max_gen=max_gen)
    u = grid_sample(u_fn, asm.region_omega, h)
    gu = gradient(u)
    denom = seminorm_p(gu, p)
    if denom == 0.0:
        raise ValueError("test function has zero seminorm on the slit domain")
    eu = extend(u, asm)
    tent_only = eu.mask & ~u.mask
    geu = gradient(GridField(bbox=eu.bbox, h=eu.h, values=eu.values,
                             mask=tent_only, kind="scalar"))
    numer = seminorm_p(geu, p)
    return numer / denom


def norm_factor(lam: float, n: int, p: float) -> float:
    """Closed form 1/(1 - 2^((-n + p + dim)/p)); inf signals divergence."""
    if p <= 1:
        raise ValueError("norm_factor requires p > 1")
    dim = cantor_dim(CantorSpec(lam=lam, ambient_codim=n - 1), n)
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
    origin pinch point is included; otherwise that column is NaN.
    """
    rep = BoundReport(n=n, p=p)
    for lam in lams:
        spec = CantorSpec(lam=lam, ambient_codim=n - 1)
        dim = cantor_dim(spec, n)
        nf = norm_factor(lam, n, p)
        c_eff = (n - p - dim) * nf if math.isfinite(nf) else math.nan
        emp = math.nan
        if h is not None:
            emp = jump_ratio(lam, n, p, h)
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
    r = 1.0 / 8.0
    ro = region_spec("Omega_lambda", lam=lam, n=n)
    x0 = np.zeros(n)
    witness = x0.copy()
    witness[n - 2] += r / 8.0
    witness[n - 1] += r / 2.0
    u = jump_test_function(x0, r, ro, witness)
    return ratio_p(u, lam, n, p, h, max_gen=max_gen)


# ---------------------------------------------------------------------------
# pointwise evaluation and the trace refinement study


def _pointwise_weights(dec: WhitneyDecomposition, x: np.ndarray):
    """(cube id, raw bump value) pairs with positive bump at x.

    A cube's bump vanishes outside (9/8) of it, so only the 3^n cubes of
    generation g around floor(x 2^g) can reach x.
    """
    out = []
    offs = np.array(list(product((-1, 0, 1), repeat=dec.n)), dtype=np.int64)
    for g in dec.index.blocks:
        rows = dec.index.find(g, np.floor(x * 2.0 ** g).astype(np.int64) + offs)
        rows = rows[rows >= 0]
        side = 2.0 ** -g
        vals = np.prod(_bump_profile(x, (dec.idx[rows] + 0.5) * side, side), axis=1)
        out += [(r + 1, v) for r, v in zip(rows.tolist(), vals.tolist()) if v > 0.0]
    return out


def point_extend(x, asm: ExtensionAssembly, u_fn) -> float:
    """Eu at a single tent point, with analytic averages of u.

    Cube averages use a fixed 4 x 4 midpoint rule on the reflected cube
    (exact for affine u, O(side^2) otherwise).
    """
    x = np.asarray(x, dtype=float)
    pairs = _pointwise_weights(asm.w, x)
    if not pairs:
        raise ValueError(f"no resolved tent cube covers {x}")
    num = den = 0.0
    for cid, phi in pairs:
        rid = asm.reflect.mapping.get(cid)
        if rid is None:
            raise ValueError(f"unassigned tent cube id {cid} at {x}")
        if rid == Q0_ID:
            raise ValueError("reservoir averages need a grid; use extend()")
        q = asm.wt.cube(rid)
        t = (np.arange(4) + 0.5) / 4
        axes = [q.lo[i] + q.side * t for i in range(q.n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
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

    For each grid scale h, Eu of u(x) = x_1 + sin(3 x_2)/2 is evaluated 2h
    inside the tent above every depth <= 3 gap midpoint and compared with u
    at the surface point; local window decompositions supply cubes at the
    matching scale.  Returns the per-h mean mismatches and the fitted decay
    order in h.
    """
    def u_fn(X):
        return X[:, 0] + 0.5 * np.sin(3.0 * X[:, 1])

    n = 2
    cspec = CantorSpec(lam=lam, ambient_codim=n - 1)
    mids = gap_midpoints(cspec, 3)
    rn = region_spec("N_lambda", lam=lam, n=n)
    ro = region_spec("Omega_lambda", lam=lam, n=n)
    errs = []
    for h in hs:
        max_gen = int(round(math.log2(1.0 / h))) + 3
        vals = []
        for m, g in mids:
            if g <= 8.0 * h:
                continue
            pad = 16.0 * h
            wlo = (m - pad, g - pad)
            whi = (m + pad, g + pad)
            w = whitney_decompose(rn, max_gen, window=(wlo, whi))
            wt = whitney_decompose(ro, max_gen, window=(wlo, whi))
            reflect = reflect_assign(w, wt)
            asm = ExtensionAssembly(lam=lam, n=n, max_gen=max_gen,
                                    region_n=rn, region_omega=ro,
                                    w=w, wt=wt, reflect=reflect)
            q_in = np.array([m, g - 2.0 * h])
            target = float(u_fn(np.array([[m, g]]))[0])
            vals.append(abs(point_extend(q_in, asm, u_fn) - target))
        errs.append(float(np.mean(vals)))
    order = float(np.polyfit(np.log2(hs), np.log2(errs), 1)[0]) \
        if len(hs) >= 2 else math.nan
    return {"hs": list(hs), "mismatch": errs, "order": order}
