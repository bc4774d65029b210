"""The three benchmark workloads: inputs, the timed calls, and result checks.

Each workload calls the package's public functions in the order the
acceptance criteria and the CLI commands use them:

- claim:  the `whitney claim-count` path (criterion 5) at a smaller max_gen;
- extend: the criterion-8 jump ratio, then criterion-6 operator sanity;
- audit:  the criterion-6 trace study, criterion-9 density, criterion-1 nets.

`prepare` builds the inputs from the seed, `run` is the timed region, and
`check` compares the results with frozen values after the timing ends.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import cantorslit.dimension as dimension
import cantorslit.extension as extension
import cantorslit.fields as fields
import cantorslit.regions as regions
import cantorslit.whitney as whitney
from cantorslit.cantor import CantorSpec

NAMES = ("claim", "extend", "audit")

# workload seed used when --seed is not given; frozen values hold at these
DEFAULT_SEEDS = {"claim": 0, "extend": 23, "audit": 7}

# full-size parameters; the self-test passes smaller ones
DEFAULT_PARAMS = {
    "claim": {"max_gen": 9},
    "extend": {"h": 2.0 ** -10},
    "audit": {},
}

CLAIM_LAMS = (0.25, 0.125)
CLAIM_FROZEN = {  # max_gen=9, k_max=4
    0.25: {"counts": {0: 2, 1: 3, 2: 4, 3: 4, 4: 6}, "sources": 276,
           "unreachable": 24},
    0.125: {"counts": {0: 2, 1: 3, 2: 4, 3: 6, 4: 6}, "sources": 228,
            "unreachable": 0},
}
EXTEND_FROZEN_RATIO = 1.1266716472710812      # lambda=1/4, h=2^-10, max_gen=7
AUDIT_TRACE_HS = (2.0 ** -8, 2.0 ** -9, 2.0 ** -10, 2.0 ** -11)
AUDIT_RADII = (0.25, 0.125, 0.0625)
AUDIT_NETS = ((0.25, 5, 0.51), (0.125, 4, 0.34))
AUDIT_FROZEN_ORDER = 0.962844
AUDIT_FROZEN_CFIT = {"upper": 0.655916, "lower": 0.655728}  # seed 7
SIX_DIGITS = 5e-7


def _max_gen(h: float) -> int:
    """Finest level the partition of unity accepts at spacing h (h <= side/8)."""
    return int(round(math.log2(1.0 / h))) - 3


def _sanity_grid(h: float) -> tuple[float, int]:
    """Grid spacing and max_gen of the criterion-6 sanity part, which runs
    on a grid twice as coarse as the ratio grid."""
    return 2.0 * h, _max_gen(2.0 * h)


def prepare(name: str, seed: int, params: dict) -> dict:
    """Inputs generated before the first workload call."""
    if name == "extend":
        hs, _ = _sanity_grid(params["h"])
        span = regions.region_spec("Omega_lambda", lam=0.25).bbox
        shape = tuple(int(round((span[1, i] - span[0, i]) / hs))
                      for i in range(span.shape[1]))
        rng = np.random.default_rng(seed)
        va = rng.normal(size=shape)
        vb = rng.normal(size=shape)
        return {"va": va, "vb": vb}
    if name in ("claim", "audit"):
        return {}
    raise ValueError(f"unknown workload {name!r}")


def run(name: str, inputs: dict, seed: int, params: dict) -> dict:
    """The timed region: one workload, as users run it."""
    if name == "claim":
        return _run_claim(params["max_gen"])
    if name == "extend":
        return _run_extend(inputs, params["h"])
    if name == "audit":
        return _run_audit(seed)
    raise ValueError(f"unknown workload {name!r}")


def _run_claim(max_gen: int) -> dict:
    out = {}
    for lam in CLAIM_LAMS:
        w = whitney.whitney_decompose(
            regions.region_spec("N_lambda", lam=lam), max_gen)
        wt = whitney.whitney_decompose(
            regions.region_spec("Omega_lambda", lam=lam), max_gen)
        reflect = whitney.reflect_assign(w, wt)
        res = whitney.claim_count(w, wt, reflect, k_max=4)
        out[lam] = {"w": w, "wt": wt, "res": res}
    return out


def _run_extend(inputs: dict, h: float) -> dict:
    lam = 0.25
    ratio = extension.jump_ratio(lam, 2, 1.5, h, max_gen=_max_gen(h))
    hs, mg = _sanity_grid(h)
    asm = extension.assemble(lam, n=2, max_gen=mg)
    u1 = fields.grid_sample(lambda X: np.ones(X.shape[0]), asm.region_omega, hs)
    e1 = extension.extend(u1, asm)

    def fld(v):
        return fields.GridField(bbox=u1.bbox, h=u1.h, values=v, mask=u1.mask,
                                kind="scalar")

    va, vb = inputs["va"], inputs["vb"]
    ea = extension.extend(fld(va), asm)
    eb = extension.extend(fld(vb), asm)
    eab = extension.extend(fld(0.6 * va - 1.7 * vb), asm)
    return {"ratio": ratio, "e1": e1, "ea": ea, "eb": eb, "eab": eab}


def _run_audit(seed: int) -> dict:
    tr = extension.trace_mismatch(0.25, list(AUDIT_TRACE_HS))
    ro = regions.region_spec("Omega_lambda", lam=0.25)
    dens = {side: dimension.measure_density_check(
        ro, (0.0, 0.0), list(AUDIT_RADII), samples=10 ** 6, seed=seed,
        side=side) for side in ("upper", "lower")}
    ests = []
    for lam, levels, _ in AUDIT_NETS:
        hier = dimension.build_net_hierarchy(CantorSpec(lam=lam), levels, n=2)
        ests.append(dimension.dim_upper_estimate(hier))
    return {"trace": tr, "density": dens, "dims": ests}


# ---------------------------------------------------------------------------
# results: a comparable summary and the checks


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _cube_digest(cubes) -> str:
    return hashlib.sha256(
        repr([(c.gen, c.idx) for c in cubes]).encode()).hexdigest()


def summary(name: str, res: dict) -> dict:
    """JSON-able record of a workload's results; equal runs give equal records."""
    if name == "claim":
        out = {}
        for lam, r in res.items():
            cc = r["res"]
            out[repr(lam)] = {
                "counts": {str(k): v for k, v in sorted(cc.counts.items())},
                "sources": cc.sources, "unreachable": cc.unreachable,
                "w_cubes": _cube_digest(r["w"].cubes),
                "wt_cubes": _cube_digest(r["wt"].cubes),
                "frontier": [len(r["w"].frontier), len(r["wt"].frontier)],
            }
        return out
    if name == "extend":
        e1, ea, eb, eab = res["e1"], res["ea"], res["eb"], res["eab"]
        const_dev = float(np.max(np.abs(e1.values[e1.mask] - 1.0)))
        lin_dev = float(np.max(np.abs(
            eab.values - (0.6 * ea.values - 1.7 * eb.values))[eab.mask]))
        return {"ratio": repr(res["ratio"]), "const_dev": repr(const_dev),
                "lin_dev": repr(lin_dev),
                "fields": _digest(*(e.values for e in (e1, ea, eb, eab)),
                                  *(e.mask for e in (e1, ea, eb, eab)))}
    if name == "audit":
        return {
            "trace_order": repr(res["trace"]["order"]),
            "trace_mismatch": [repr(v) for v in res["trace"]["mismatch"]],
            "c_fit": {s: repr(d.c_fit) for s, d in res["density"].items()},
            "max_halfwidth": {s: repr(max(d.halfwidth))
                              for s, d in res["density"].items()},
            "dims": [[repr(e.s), e.certified] for e in res["dims"]],
        }
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, summ: dict, seed: int, params: dict) -> list[tuple[str, bool]]:
    """(check name, passed) pairs for one run's summary.

    Frozen values apply only at the full-size parameters, and seed-dependent
    ones only at the default seed; the property checks apply everywhere.
    """
    full = params == DEFAULT_PARAMS[name]
    frozen_seed = full and seed == DEFAULT_SEEDS[name]
    out: list[tuple[str, bool]] = []
    if name == "claim":
        for lam in CLAIM_LAMS:
            s = summ[repr(lam)]
            if full:
                f = CLAIM_FROZEN[lam]
                out.append((f"counts[{lam}]",
                            s["counts"] == {str(k): v
                                            for k, v in f["counts"].items()}))
                out.append((f"sources[{lam}]", s["sources"] == f["sources"]))
                out.append((f"unreachable[{lam}]",
                            s["unreachable"] == f["unreachable"]))
            out.append((f"reachable[{lam}]", s["unreachable"] < s["sources"]))
    elif name == "extend":
        if full:
            out.append(("ratio", float(summ["ratio"]) == EXTEND_FROZEN_RATIO))
        out.append(("const_dev", float(summ["const_dev"]) == 0.0))
        out.append(("lin_dev", float(summ["lin_dev"]) <= 1e-12))
    elif name == "audit":
        order = float(summ["trace_order"])
        out.append(("trace_order>=0.8", order >= 0.8))
        if full:
            out.append(("trace_order", abs(order - AUDIT_FROZEN_ORDER)
                        <= SIX_DIGITS))
        for side, c in summ["c_fit"].items():
            out.append((f"c_fit[{side}]>=0.05", float(c) >= 0.05))
            out.append((f"halfwidth[{side}]<=0.005",
                        float(summ["max_halfwidth"][side]) <= 0.005))
            if frozen_seed:
                out.append((f"c_fit[{side}]", abs(float(c) - AUDIT_FROZEN_CFIT[side])
                            <= SIX_DIGITS))
        for (lam, _, s_frozen), (s, certified) in zip(AUDIT_NETS, summ["dims"]):
            out.append((f"dim[{lam}]", certified
                        and abs(float(s) - s_frozen) <= 1e-9))
    return out
