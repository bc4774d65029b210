"""cantorslit benchmark launcher.

    python3 perfbench/run.py --workload claim|extend|audit --seed N
        --seconds S --trace 0|1

Closed loop, one client: iterations run one at a time, each in a fresh
interpreter (perfbench/worker.py), until the next one would end after S
seconds; at least one always runs.  A few set-up-only interpreters run
first, so setup_s has several samples even when one iteration fills S.

--trace 0 reports the end-to-end metrics of untraced iterations.  --trace 1
runs (untraced, traced) pairs and reports the per-layer metrics of the
traced ones, plus the tracing overhead measured within each pair; the pair's
results must be identical.  Every line but the last is for people: the
machine facts and one line per metric with median, quartiles, sample count
and unit.  The last line is the JSON result.  Per-run files (iteration
results, span files, result.json) go to .perfbench/ in the checkout; turn
span files into a table with perfbench/report.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 2
DEADLINE_S = 170.0          # the whole run, probes included, ends before this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def pinned_env(nproc: int) -> dict:
    """BLAS/OpenMP pools pinned to at most nproc threads."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


class Launcher:
    def __init__(self, workload: str, seed: int, run_dir: Path, env: dict,
                 started: float):
        self.workload, self.seed = workload, seed
        self.run_dir, self.env, self.started = run_dir, env, started
        self.count = 0

    def launch(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.run_dir / f"{self.count:03d}-trace{trace}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise ChildFailed("no time left before the deadline")
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"iteration passed the {DEADLINE_S:g} s "
                              "deadline") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"worker exited with {proc.returncode}")
        return json.loads(out.read_text())


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: claim 0, extend 23, "
                         "audit 7; frozen values hold there)")
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cantorslit" / "__init__.py").is_file():
        print(f"error: no cantorslit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    seed = (workloads.DEFAULT_SEEDS[args.workload] if args.seed is None
            else args.seed)
    nproc = os.cpu_count() or 1
    env = pinned_env(nproc)
    run_dir = OUT / (f"{args.workload}-seed{seed}-trace{args.trace}-"
                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    lau = Launcher(args.workload, seed, run_dir, env, started)

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    overheads: list[float] = []
    checks: list[tuple[str, bool]] = []
    error = None
    try:
        for _ in range(SETUP_PROBES):
            setups.append(lau.launch(0, setup_only=True)["setup_s"])
        t_start = time.monotonic()
        units = 0
        while True:
            a = lau.launch(0)
            plain.append(a)
            setups.append(a["setup_s"])
            checks += [(name, ok) for name, ok in a["checks"]]
            if args.trace:
                b = lau.launch(1)
                traced.append(b)
                checks += [(name, ok) for name, ok in b["checks"]]
                checks.append(("traced == untraced",
                               b["summary"] == a["summary"]))
                overheads.append((b["wall_s"] - a["wall_s"]) / a["wall_s"])
            units += 1
            now = time.monotonic()
            next_end = now + (now - t_start) / units
            if next_end - started > min(args.seconds, DEADLINE_S):
                break
    except ChildFailed as exc:
        error = str(exc)
        print(f"error: {error}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        return 1

    attempted = len(checks) + (1 if error else 0)
    failed = sum(1 for _, ok in checks if not ok) + (1 if error else 0)
    # reported metrics, then ones only printed and recorded
    samples: dict[str, tuple[str, list[float]]] = {}
    extra = {"wall_run_s": ("s", [a["wall_s"] for a in plain]),
             "host_speed": ("1", [a["speed"] for a in plain])}
    if args.trace:
        from spans import METRICS
        for name, (unit, _) in METRICS.items():
            samples[name] = (unit, [t["layers"][name] for t in traced])
        samples["bench.trace_overhead_frac"] = ("frac", overheads)
        samples["bench.trace_overhead_est_frac"] = (
            "frac", [t["layers"]["bench.trace_overhead_est_frac"]
                     for t in traced])
        samples.update(("bench." + k, v) for k, v in extra.items())
        extra = {}
    else:
        samples = {"run_s": ("s", [a["run_s"] for a in plain]),
                   "setup_s": ("s", setups),
                   "peak_rss_mib": ("MiB", [a["peak_rss_mib"] for a in plain]),
                   "pass_frac": ("frac", [1.0 - failed / attempted])}
    stats = {}
    for name, (unit, xs) in {**samples, **extra}.items():
        q1, med, q3 = quartiles(xs)
        stats[name] = {"q1": q1, "median": med, "q3": q3, "n": len(xs),
                       "unit": unit}
    facts = {
        "workload": args.workload, "seed": seed, "traced": bool(args.trace),
        "seconds": args.seconds, "iterations": len(plain),
        "nproc": nproc, "cpu_model": cpu_model(),
        "python": plain[0]["versions"]["python"],
        "numpy": plain[0]["versions"]["numpy"],
        "scipy": plain[0]["versions"]["scipy"],
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        "cantorslit_workers": os.environ.get("CANTORSLIT_WORKERS"),
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"facts": facts, "metrics": stats, "checks": checks,
         "error": error, "overheads": overheads}, indent=1))
    print("facts " + json.dumps(facts))
    for name, st in stats.items():
        label = name if name in samples else f"({name}, not a metric)"
        print(f"{label:34s} median {st['median']:.6g} {st['unit']} "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}")
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, (unit, _) in samples.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
