"""Command-line orchestration: sweeps, audits, and report emission.

Every subcommand is deterministic for a fixed seed and runs serially;
CANTORSLIT_WORKERS is recorded in manifests but never read.  Reports are
CSV/JSON with '.' decimal separators and newline line endings, and each
output file is paired with a manifest recording parameters, seeds,
versions, and timing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

import numpy as np

from . import __version__
from .cantor import CantorSpec, cantor_dim, k_distance
from .dimension import (NoComponentError, build_net_hierarchy,
                        dim_upper_estimate, measure_density_sides)
from .extension import (assemble, bound_report, extend, finest_gen,
                        origin_jump)
from .fields import GridField, _grid_shape, gradient, grid_sample, seminorm_p
from .regions import (REGION_KINDS, component_label, region_membership,
                      region_spec)
from .whitney import (ORACLE_KINDS, claim_count, verify_whitney,
                      whitney_decompose)

WORKERS_ENV = "CANTORSLIT_WORKERS"


def parse_number(text: str) -> float:
    """Exact parsing of fractions like 1/8 and powers like 2^-10.

    A zero denominator or a value beyond the float range raises ValueError,
    which argparse turns into a usage error."""
    text = text.strip()
    try:
        if "^" in text:
            base, _, expo = text.partition("^")
            return float(Fraction(base) ** int(expo))
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None


def parse_number_list(text: str) -> list[float]:
    return [parse_number(t) for t in text.split(",") if t.strip()]


def parse_point(text: str) -> list[float]:
    return [parse_number(t) for t in text.split(",")]


def _checked(parse, ok, what: str):
    """argparse type that parses, then rejects values outside the domain.

    A rejected value makes the parser exit with status 2 and a usage
    message before any command runs.
    """
    def conv(text: str):
        try:
            v = parse(text)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return conv


LAMBDA = _checked(parse_number, lambda v: 0.0 < v < 0.5, "in (0, 1/2)")
LAMBDAS = _checked(parse_number_list,
                   lambda vs: vs and all(0.0 < v < 0.5 for v in vs),
                   "a list of numbers in (0, 1/2)")
DIM = _checked(int, lambda v: v >= 2, "an integer >= 2")
MAX_GEN = _checked(int, lambda v: v >= 4, "an integer >= 4")
K_MAX = _checked(int, lambda v: v >= 1, "an integer >= 1")
LEVELS = _checked(int, lambda v: v >= 3, "an integer >= 3")
SAMPLES = _checked(int, lambda v: v >= 1, "an integer >= 1")
P = _checked(parse_number, lambda v: v > 1, "a number > 1")
P_NORM = _checked(parse_number, lambda v: v >= 1, "a number >= 1")
POSITIVE = _checked(parse_number, lambda v: v > 0, "a number > 0")
RADII = _checked(parse_number_list, lambda vs: vs and all(v > 0 for v in vs),
                 "a list of numbers > 0")
NUMBER = _checked(parse_number, lambda v: True, "a number")
POINT = _checked(parse_point, lambda v: True, "a list of numbers")


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


def _csv(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


class Output(NamedTuple):
    """What a command produced; main writes it and the manifest.

    body is text, or a writer that streams a grid CSV to an open file.
    results are what the manifest records beyond the body.
    """
    body: str | Callable[[TextIO], None]
    results: dict | None = None
    status: int = 0


def write_manifest(args, elapsed: float, results: dict | None = None) -> None:
    """Parameters, versions and timing, plus any results the output omits.

    The command label is the subcommand path, e.g. "field sample".
    """
    manifest = {
        "command": " ".join(getattr(args, k) for k in ("cmd", "sub", "action")
                            if getattr(args, k, None)),
        "params": {k: v for k, v in vars(args).items() if not callable(v)},
        "seed": getattr(args, "seed", None),
        "workers": os.environ.get(WORKERS_ENV, "1"),
        "versions": {
            "cantorslit": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "elapsed_seconds": elapsed,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if results is not None:
        manifest["results"] = results
    with open(args.out + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _region(args) -> "RegionSpec":
    return region_spec(args.region, lam=args.lam, n=args.n)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its Output and writes nothing


def cmd_cantor_dist(args) -> Output:
    spec = CantorSpec(lam=args.lam)
    return Output(_fmt(k_distance(args.x, spec)) + "\n")


def cmd_region_probe(args) -> Output:
    member = region_membership(_region(args), args.point)
    return Output(("member" if member else "not-member") + "\n")


def cmd_region_components(args) -> Output:
    cmap = component_label(_region(args), args.center, args.radius,
                           args.radius / 256.0)
    return Output(f"{cmap.count}\n")


def cmd_whitney_build(args) -> Output:
    dec = whitney_decompose(_region(args), args.max_gen)
    cubes = [{"gen": g, "idx": i, "status": status}
             for gen, idx, status in ((dec.gen, dec.idx, "resolved"),
                                      (dec.frontier_gen, dec.frontier_idx,
                                       "frontier"))
             for g, i in zip(gen.tolist(), idx.tolist())]
    return Output(json.dumps({"region": args.region, "lambda": args.lam,
                              "n": args.n, "max_gen": args.max_gen,
                              "cubes": cubes}) + "\n")


def cmd_whitney_verify(args) -> Output:
    dec = whitney_decompose(_region(args), args.max_gen)
    rep = verify_whitney(dec)
    payload = {
        "w1_violations": rep.w1_violations,
        "w2_violations": rep.w2_violations,
        "w3_violations": rep.w3_violations,
        "w4_violations": rep.w4_violations,
        "w6_violations": rep.w6_violations,
        "boundary_crossings": rep.boundary_crossings,
        "frontier_fraction": dec.frontier_fraction,
        "resolved": len(dec.cubes),
        "frontier": len(dec.frontier),
        "stranded": dec.stranded,
    }
    bad = rep.total_violations + rep.boundary_crossings
    return Output(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                  status=0 if bad == 0 else 1)


def cmd_whitney_claim_count(args) -> Output:
    asm = assemble(args.lam, args.n, args.max_gen)
    res = claim_count(asm.w, asm.wt, asm.reflect, k_max=args.k_max)
    # sources without a projection-monotone chain are left out of the counts
    results = {"sources": res.sources, "unreachable": res.unreachable}
    try:
        expo = res.fitted_exponent()
    except ValueError:              # fewer than two populated k values
        expo = math.nan
        results["fitted_exponent"] = None
    rows = [[k, res.counts.get(k, 0), expo] for k in range(args.k_max + 1)]
    return Output(_csv(["k", "max_count", "fitted_exponent"], rows), results,
                  status=1 if math.isnan(expo) else 0)


def _parse_func(text: str, lam: float, n: int):
    """Test-function specs: const:<v>, coord:<axis>, jump:depth=<d>[,r=<r>].

    Returns a zero-argument builder of the function, so main rejects a bad
    spec (ValueError) before any work.
    """
    kind, _, rest = text.partition(":")
    if kind == "const":
        v = parse_number(rest or "1")
        return lambda: lambda P: np.full(P.shape[0], v)
    if kind == "coord":
        axis = int(rest or "1") - 1
        if not 0 <= axis < n:
            raise ValueError(f"coord axis must be 1..{n} at --n {n}")
        return lambda: lambda P: P[:, axis]
    if kind == "jump":
        opts = dict(kv.partition("=")[::2] for kv in rest.split(",") if kv)
        if set(opts) - {"depth", "r"}:
            raise ValueError("jump takes only depth=<int> and r=<number>")
        depth = int(opts.get("depth", "1"))
        r = parse_number(opts["r"]) if "r" in opts else lam ** depth
        if depth < 1 or r <= 0:
            raise ValueError("jump needs depth >= 1 and r > 0")
        return lambda: origin_jump(lam, n, r)
    raise ValueError(f"unknown kind {kind!r}; use const, coord or jump")


def _dump_grid(f: GridField) -> Callable[[TextIO], None]:
    """Writer of f's CSV: a header comment, then one value,mask line per cell."""
    def write(fh: TextIO) -> None:
        fh.write("# bbox=" + ";".join(_fmt(float(v)) for v in f.bbox.ravel())
                 + f" h={_fmt(f.h)} n={f.n} mask-encoding=01\n")
        fh.write("value,mask\n")
        flat_v = f.values.ravel() if f.kind == "scalar" else \
            np.linalg.norm(f.values.reshape(-1, f.n), axis=1)
        flat_m = f.mask.ravel().astype(int)
        for v, m in zip(flat_v, flat_m):
            fh.write(f"{_fmt(float(v))},{m}\n")
    return write


def cmd_field(args) -> Output:
    u = grid_sample(args.make_func(), _region(args), args.h)
    if args.action == "sample":
        return Output(_dump_grid(u))
    g = gradient(u)
    if args.action == "norm":
        return Output(_fmt(seminorm_p(g, args.p)) + "\n")
    return Output(_dump_grid(g))


def _decomposition_gen(args) -> int:
    """The max_gen that extend and sweep decompose at for their --grid."""
    gen = getattr(args, "max_gen", None)      # sweep has no --max-gen
    return finest_gen(args.grid) if gen is None else gen


def cmd_extend(args) -> Output:
    asm = assemble(args.lam, args.n, _decomposition_gen(args))
    u = grid_sample(args.make_func(), asm.region_omega, args.grid)
    eu = extend(u, asm)
    # tent cells outside the slit domain: blended in, or left uncovered
    return Output(_dump_grid(eu),
                  {"blended_tent_cells": int(eu.mask.sum() - u.mask.sum()),
                   "uncovered_tent_cells": int(eu.flags.sum())})


def cmd_sweep(args) -> Output:
    try:
        rep = bound_report(args.n, args.p, args.lambdas, h=args.grid)
    except ValueError as err:       # e.g. a grid whose Eu blends no tent cell
        raise SystemExit(f"sweep: {err}") from None
    return Output(_csv(list(rep.COLUMNS),
                       [[row[c] for c in rep.COLUMNS] for row in rep.rows]))


def cmd_dim_estimate(args) -> Output:
    spec = CantorSpec(lam=args.lam)
    h = build_net_hierarchy(spec, args.levels, n=2)
    est = dim_upper_estimate(h)
    payload = {
        "set": args.set, "lambda": args.lam, "levels": est.levels,
        "estimate": est.s, "certified": est.certified,
        "closed_form": cantor_dim(spec, 2),
        "certificate": [{"i": i, "k": k, "j": j, "count": c}
                        for (i, k), (j, c) in sorted(est.certificate.items())],
    }
    return Output(json.dumps(payload, indent=2) + "\n")


def cmd_density(args) -> Output:
    spec = region_spec("Omega_lambda", lam=args.lam, n=args.n)
    try:
        results = measure_density_sides(spec, args.point, args.radii,
                                        samples=args.samples, seed=args.seed)
    except NoComponentError as err:     # no radius found one on this side
        raise SystemExit(f"density: no {err.side} component at the point "
                         + ",".join(map(_fmt, args.point))) from None
    out = {side: {"c_fit": res.c_fit,
                  "per_radius": dict(zip(map(_fmt, res.radii),
                                         res.c_per_radius)),
                  "halfwidth": res.halfwidth}
           for side, res in results.items()}
    return Output(json.dumps(out, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config-driven runs


# config kind -> the subcommand that runs it
CONFIG_COMMANDS = {
    "bound-sweep": ["sweep"],
    "claim-count": ["whitney", "claim-count"],
    "dim-estimate": ["dim", "estimate"],
    "density": ["density"],
    "whitney-audit": ["whitney", "verify"],
}


def config_argv(cfg: dict) -> list[str]:
    """The command line a config stands for.

    `out` and each param become long options, `_` written as `-`, except
    `h`, which is `--grid`.  Lists are joined with commas and floats are
    written with repr, which parse_number reads back exactly.
    """
    argv = list(CONFIG_COMMANDS[cfg["kind"]])
    for key, val in [("out", cfg["out"]), *cfg.get("params", {}).items()]:
        opt = "grid" if key == "h" else key.replace("_", "-")
        text = ",".join(map(_fmt, val)) if isinstance(val, list) else _fmt(val)
        argv.append(f"--{opt}={text}")
    return argv


def cmd_run(args) -> int:
    """Run a YAML config through the same parser as the command line."""
    import yaml
    cfg = yaml.safe_load(Path(args.config).read_text()) or {}
    for override in args.set or []:
        key, _, val = override.partition("=")
        cfg.setdefault("params", {})[key] = yaml.safe_load(val)
    problems = [f"unknown key {k!r}"
                for k in sorted(set(cfg) - {"kind", "out", "params"})]
    if cfg.get("kind") not in CONFIG_COMMANDS:
        problems.append(f"'kind' must be one of {', '.join(CONFIG_COMMANDS)}")
    if "out" not in cfg:
        problems.append("'out' is missing")
    if problems:
        build_parser().error(f"config {args.config}: " + "; ".join(problems))
    return main(config_argv(cfg))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cantorslit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, region=(), lam=True, n=True):
        if region:
            p.add_argument("--region", choices=region, default="N_lambda")
        if lam:
            p.add_argument("--lambda", dest="lam", type=LAMBDA, default=0.25)
        if n:
            p.add_argument("--n", type=DIM, default=2)

    c = sub.add_parser("cantor")
    cs = c.add_subparsers(dest="sub", required=True)
    cd = cs.add_parser("dist")
    cd.add_argument("--lambda", dest="lam", type=LAMBDA, required=True)
    cd.add_argument("--x", type=NUMBER, required=True)
    cd.set_defaults(func_handler=cmd_cantor_dist)

    r = sub.add_parser("region")
    rs = r.add_subparsers(dest="sub", required=True)
    rp = rs.add_parser("probe")
    common(rp, region=REGION_KINDS)
    rp.add_argument("--point", type=POINT, required=True)
    rp.set_defaults(func_handler=cmd_region_probe)
    rc = rs.add_parser("components")
    common(rc, region=REGION_KINDS)
    rc.add_argument("--center", type=POINT, required=True)
    rc.add_argument("--radius", type=POSITIVE, default=0.25)
    rc.set_defaults(func_handler=cmd_region_components)

    w = sub.add_parser("whitney")
    ws = w.add_subparsers(dest="sub", required=True)
    wb = ws.add_parser("build")
    common(wb, region=ORACLE_KINDS)
    wb.add_argument("--max-gen", type=MAX_GEN, default=8)
    wb.add_argument("--out", required=True)
    wb.set_defaults(func_handler=cmd_whitney_build)
    wv = ws.add_parser("verify")
    common(wv, region=ORACLE_KINDS)
    wv.add_argument("--max-gen", type=MAX_GEN, default=8)
    wv.add_argument("--out")
    wv.set_defaults(func_handler=cmd_whitney_verify)
    wc = ws.add_parser("claim-count")
    common(wc)
    wc.add_argument("--max-gen", type=MAX_GEN, default=10)
    wc.add_argument("--k-max", type=K_MAX, default=4)
    wc.add_argument("--out", required=True)
    wc.set_defaults(func_handler=cmd_whitney_claim_count)

    f = sub.add_parser("field")
    f.add_argument("action", choices=("sample", "grad", "norm"))
    common(f, region=REGION_KINDS)
    f.add_argument("--func", default="const:1")
    f.add_argument("--h", type=POSITIVE, default=2.0 ** -8)
    f.add_argument("--p", type=P_NORM, default=2.0)
    f.add_argument("--out")
    f.set_defaults(func_handler=cmd_field)

    e = sub.add_parser("extend")
    common(e)
    e.add_argument("--u", default="jump:depth=1")
    e.add_argument("--grid", type=POSITIVE, default=2.0 ** -9)
    e.add_argument("--max-gen", type=MAX_GEN, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func_handler=cmd_extend)

    s = sub.add_parser("sweep")
    s.add_argument("--n", type=DIM, default=2)
    s.add_argument("--p", type=P, default=1.5)
    s.add_argument("--lambdas", type=LAMBDAS, required=True)
    s.add_argument("--grid", type=POSITIVE, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func_handler=cmd_sweep)

    d = sub.add_parser("dim")
    dsub = d.add_subparsers(dest="sub", required=True)
    de = dsub.add_parser("estimate")
    de.add_argument("--set", choices=("cantor-slit",), default="cantor-slit")
    de.add_argument("--lambda", dest="lam", type=LAMBDA, required=True)
    de.add_argument("--levels", type=LEVELS, default=5)
    de.add_argument("--out", required=True)
    de.set_defaults(func_handler=cmd_dim_estimate)

    dn = sub.add_parser("density")
    common(dn)
    dn.add_argument("--point", type=POINT, default=None)
    dn.add_argument("--radii", type=RADII, default=[0.25, 0.125, 0.0625])
    dn.add_argument("--samples", type=SAMPLES, default=10 ** 6)
    dn.add_argument("--seed", type=int, default=0)
    dn.add_argument("--out")
    dn.set_defaults(func_handler=cmd_density)

    rn = sub.add_parser("run")
    rn.add_argument("--config", required=True)
    rn.add_argument("--set", action="append")

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "density" and args.point is None:
        args.point = [0.0] * args.n         # the origin in --n dimensions
    for key in ("point", "center"):
        pt = getattr(args, key, None)
        if pt is not None and len(pt) != args.n:
            parser.error(f"argument --{key}: {len(pt)} coordinates, but "
                         f"--n is {args.n}")
    if getattr(args, "region", None) == "Omega2" and args.n != 2:
        parser.error("argument --region: Omega2 is planar, --n must be 2")
    # grid spacings: field samples its region's box; extend and sweep sample
    # the slit domain's box (D's) and blend with the bumps of max_gen cubes
    key = {"field": "h", "extend": "grid", "sweep": "grid"}.get(args.cmd)
    h = getattr(args, key, None) if key else None
    if h is not None:
        region = _region(args) if key == "h" else region_spec("D", n=args.n)
        try:
            _grid_shape(region.bbox, h)
        except ValueError as e:
            parser.error(f"argument --{key}: {e}")
        if key == "grid":
            gen = _decomposition_gen(args)
            if not 4 <= gen <= finest_gen(h):
                parser.error(f"argument --grid: {h:g} needs max_gen >= 4 and a "
                             f"grid <= 2^-(max_gen+3); max_gen is {gen}")
    for key in ("func", "u"):
        text = getattr(args, key, None)
        if text is not None:
            try:
                args.make_func = _parse_func(text, args.lam, args.n)
            except ValueError as e:
                parser.error(f"argument --{key}: {text!r} is not a test "
                             f"function spec ({e})")
    if args.cmd == "run":           # re-enters main with the config's argv
        return cmd_run(args)
    t0 = time.time()
    body, results, status = args.func_handler(args)
    out = getattr(args, "out", None)
    with (open(out, "w", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as f:
        if callable(body):
            body(f)
        else:
            f.write(body)
    if out:
        write_manifest(args, time.time() - t0, results)
    return status


if __name__ == "__main__":
    sys.exit(main())
