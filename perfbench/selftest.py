"""Self-test of the benchmark harness on small instances.

    python3 perfbench/selftest.py

Runs `claim` at max_gen=6 and `extend` at h=2^-8, each untraced and then
traced in this process, and fails (exit 1) unless for each:
- both runs pass their property checks;
- traced and untraced results are identical (cube-list digests, ratio repr);
- span self times are never negative and add up to the traced run_s within
  spans.SELF_TIME_TOL;
- the tracer put back every function it replaced.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cantorslit.whitney  # noqa: E402
import workloads  # noqa: E402
from spans import (ROOT, SELF_TIME_TOL, Tracer, layer_metrics,  # noqa: E402
                   layer_self_times, self_times)
from worker import timed_run  # noqa: E402

CASES = (
    ("claim", {"max_gen": 6},
     ("whitney.decompose_calls", "whitney.chain_calls",
      "whitney.adjacency_edges", "cantor.calls")),
    ("extend", {"h": 2.0 ** -8},
     ("extension.cube_average_calls", "fields.cells",
      "regions.membership_grid_cells", "whitney.decompose_calls")),
)


def run_case(name: str, params: dict, nonzero: tuple[str, ...]) -> list[str]:
    errors = []
    seed = workloads.DEFAULT_SEEDS[name]
    inputs = workloads.prepare(name, seed, params)
    plain = timed_run(name, seed, params, inputs)
    originals = dict(vars(cantorslit.whitney))
    tracer = Tracer(f"selftest-{name}")
    tracer.install()
    try:
        traced = timed_run(name, seed, params, inputs, tracer)
    finally:
        tracer.uninstall()
    if dict(vars(cantorslit.whitney)) != originals:
        errors.append("tracer left patched attributes behind")
    for label, r in (("untraced", plain), ("traced", traced)):
        bad = [c for c, ok in r["checks"] if not ok]
        if bad or not r["checks"]:
            errors.append(f"{label} checks failed: {bad}")
    if traced["summary"] != plain["summary"]:
        errors.append(f"traced results differ: {traced['summary']} != "
                      f"{plain['summary']}")
    spans = tracer.spans
    if [s["name"] for s in spans if s["parent"] is None] != [ROOT]:
        errors.append("spans do not hang off one root span")
    neg = [s["name"] for s, t in zip(spans, self_times(spans)) if t < -1e-9]
    if neg:
        errors.append(f"negative self time in {sorted(set(neg))}")
    total = sum(layer_self_times(spans).values())
    run_s = traced["run_s"]
    if abs(total - run_s) > SELF_TIME_TOL * run_s:
        errors.append(f"self times add to {total!r}, traced run_s {run_s!r}")
    metrics = layer_metrics(spans)
    zero = [k for k in nonzero if not metrics[k] > 0]
    if zero:
        errors.append(f"expected nonzero metrics are zero: {zero}")
    print(f"{name} {params}: untraced wall {plain['wall_s']:.3f} s, traced "
          f"{run_s:.3f} s, {len(spans)} spans, self-time sum {total:.6f} s, "
          f"{'ok' if not errors else 'FAILED'}")
    return errors


def main() -> int:
    errors = []
    for name, params, nonzero in CASES:
        errors += [f"{name}: {e}" for e in run_case(name, params, nonzero)]
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
