"""Alternating paired runs of perfbench on two revisions, for a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload claim --pairs 10
        --seconds 20 [--seed N] [--label NAME] [--traced LAYER,...]
        --out BENCH_N.json

PARENT and CHANGE are git revisions (a commit of uncommitted work comes
from `git stash create`).  Each is checked out as a detached git worktree
in a temporary directory, and both worktrees are removed at the end.
Pair i runs `perfbench/run.py --workload W --seconds S --trace 0` once on
each side, the parent first in odd pairs and the change first in even
ones.  perfbench writes its per-run files to .perfbench/ inside each
worktree; they are read back (every iteration's result summary) and go
away with the worktree, so nothing is written under perfbench/ here.

The record goes into workloads[NAME] (default NAME: the workload) of the
--out file, which is created or updated in place: each run's metrics, each
side's median and quartiles over its runs, the change's win count per
end-to-end metric, a regression verdict per end-to-end metric, and whether
every iteration's result summary is the same record on both sides.  With
--traced, one `--trace 1` run per side adds the named per-layer metrics
under traced_NAME.  Standard library only.

The verdict reads the metrics, their direction and their bounds from
BENCHMARK.json's end_to_end list.  A metric regressed ("yes") when the
change's median is worse than the parent's median by more than bound x the
parent's median; "no" when it is not, or when every change run beats every
parent run; "unresolved" when neither holds and the parent's quartile
spread is wider than that margin, so the runs cannot tell.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# end-to-end metric -> (lower is better, relative regression bound)
METRICS = {m["name"]: (m["better"] == "lower", m["bound"]) for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def perfbench(tree: Path, workload: str, seconds: float, trace: int,
              seed: int | None) -> tuple[dict, list]:
    """One run.py run: its last-line JSON and its run directory's
    (result.json, iteration summaries)."""
    out = tree / ".perfbench"
    before = set(out.iterdir()) if out.is_dir() else set()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", repr(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py failed in {tree.name}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    (run_dir,) = set(out.iterdir()) - before
    result = json.loads((run_dir / "result.json").read_text())
    iterations = (json.loads(p.read_text())
                  for p in sorted(run_dir.glob("*-trace*.json")))
    return {"last": last, "result": result}, [it["summary"] for it in iterations
                                              if "summary" in it]


def spread(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "quartiles": [xs[0], xs[0]]}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "quartiles": [q1, q3]}


def regressed(parent: list[float], change: list[float], lower: bool,
              bound: float) -> str:
    """Verdict "yes", "no" or "unresolved": is the change's median worse
    than the parent's by more than bound x the parent's median?"""
    sign = 1.0 if lower else -1.0       # flip so that lower is better
    p, c = [sign * x for x in parent], [sign * x for x in change]
    if max(c) < min(p):
        return "no"
    margin = bound * abs(statistics.median(p))
    q1, q3 = spread(p)["quartiles"]
    if q3 - q1 > margin:
        return "unresolved"
    worse = statistics.median(c) - statistics.median(p)
    return "yes" if worse > margin else "no"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--label", default=None)
    ap.add_argument("--traced", default="",
                    help="comma-separated per-layer metrics of one traced "
                         "run per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    label = args.label or args.workload
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if any(doc.get(f"{side}_commit", rev) != rev for side, rev in revs.items()):
        ap.error(f"{args.out} records other revisions")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: tmp / side for side in revs}
    try:
        for side, rev in revs.items():
            git("worktree", "add", "--detach", str(trees[side]), rev)
        runs = {side: [] for side in revs}
        summaries = {side: [] for side in revs}
        for i in range(1, args.pairs + 1):
            sides = ("parent", "change") if i % 2 else ("change", "parent")
            for side in sides:
                res, summ = perfbench(trees[side], args.workload,
                                      args.seconds, 0, args.seed)
                last = res["last"]
                runs[side].append(
                    {"pair": i, "first": side == sides[0],
                     "correct": last["correct"], "failed": last["failed"],
                     "attempted": last["attempted"],
                     **{m: last["metrics"][m]["value"] for m in METRICS},
                     "iterations": res["result"]["facts"]["iterations"]})
                summaries[side] += summ
                print(f"pair {i} {side}: run_s "
                      f"{last['metrics']['run_s']['value']:.4f}",
                      file=sys.stderr)
        wins = {m: sum((c[m] < p[m]) if lower else (c[m] > p[m])
                       for p, c in zip(runs["parent"], runs["change"]))
                for m, (lower, _) in METRICS.items()}
        verdicts = {m: regressed([r[m] for r in runs["parent"]],
                                 [r[m] for r in runs["change"]], lower, bound)
                    for m, (lower, bound) in METRICS.items()}
        distinct = {json.dumps(s, sort_keys=True)
                    for side in revs for s in summaries[side]}
        record = {
            "command": (f"python3 perfbench/run.py --workload {args.workload}"
                        f" --seconds {args.seconds:g} --trace 0"
                        + (f" --seed {args.seed}" if args.seed is not None
                           else "")),
            **{side: {"runs": runs[side],
                      "summary": {m: spread([r[m] for r in runs[side]])
                                  for m in METRICS}}
               for side in revs},
            "change_better_pairs": wins,
            "regressed": verdicts,
            "pairs": args.pairs,
            "results_identical": len(distinct) == 1,
        }
        traced = {name: {} for name in args.traced.split(",") if name}
        for side in revs if traced else ():
            metrics = perfbench(trees[side], args.workload, 5.0, 1,
                                args.seed)[0]["result"]["metrics"]
            for name in traced:
                traced[name][side] = metrics[name]["median"]
        facts = res["result"]["facts"]
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)

    doc.setdefault("parent_commit", revs["parent"])
    doc.setdefault("change_commit", revs["change"])
    doc.setdefault("machine", {k: facts[k] for k in
                               ("nproc", "cpu_model", "python", "numpy",
                                "scipy")})
    doc.setdefault("values", "each run's value is perfbench's median over "
                   "that run's iterations; 'median' and 'quartiles' are over "
                   "runs")
    doc.setdefault("workloads", {})[label] = record
    if traced:
        doc[f"traced_{label}"] = {
            "command": (f"python3 perfbench/run.py --workload "
                        f"{args.workload} --seconds 5 --trace 1, one run "
                        "per side"),
            "layers": traced}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
