"""Per-workload table of layer self times, counts and ratios from span files.

    python3 perfbench/report.py [RUN_DIR ...]

Each RUN_DIR is a directory that `perfbench/run.py --trace 1` left under
.perfbench/; with none given, every traced run there is read.  For each
workload the table gives every layer's self time and its share of the traced
run_s, then every count and ratio with its base, then the tracing overhead.
Values are medians over the traced iterations read.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import (METRICS, RATIO_BASES, ROOT, layer_metrics,  # noqa: E402
                   layer_self_times, read_spans)

LAYERS = ("cantor", "whitney", "regions", "fields", "extension", "dimension",
          "bench")
NOTES = {
    "whitney": "includes dyadic per-cube work, which has no span",
    "bench": "root span: workload glue and untraced package functions",
}


def load(run_dirs: list[Path]) -> dict[str, dict]:
    """workload -> {"iters": [(run_s, layer self times, metrics)],
    "overheads": [per-pair measured], "estimates": [per-iteration estimated]}."""
    out: dict[str, dict] = {}
    for d in run_dirs:
        res = json.loads((d / "result.json").read_text())
        if not res["facts"]["traced"]:
            continue
        w = out.setdefault(res["facts"]["workload"],
                           {"iters": [], "overheads": [], "estimates": []})
        w["overheads"] += res["overheads"]
        for it in sorted(d.glob("*-trace1.json")):
            rec = json.loads(it.read_text())
            w["estimates"].append(rec["layers"]["bench.trace_overhead_est_frac"])
            spans = read_spans(d / rec["spans"])
            run_s = sum(s["end"] - s["start"] for s in spans
                        if s["name"] == ROOT)
            w["iters"].append((run_s, layer_self_times(spans),
                               layer_metrics(spans)))
    return out


def table(workload: str, data: dict) -> list[str]:
    iters = data["iters"]
    med = statistics.median
    run_s = med(r for r, _, _ in iters)
    m = {k: med(ms[k] for _, _, ms in iters) for k in METRICS}
    lines = [f"== {workload}: {len(iters)} traced iteration(s), "
             f"traced run_s median {run_s:.4g} s",
             f"{'layer / metric':32s} {'self_s':>9s} {'share':>7s}"]
    for layer in LAYERS:
        t = med(ls.get(layer, 0.0) for _, ls, _ in iters)
        note = f"  ({NOTES[layer]})" if layer in NOTES else ""
        lines.append(f"{layer:32s} {t:9.4f} {t / run_s:7.1%}{note}")
        for name, (unit, what) in METRICS.items():
            if unit == "s" and name.startswith(layer + "."):
                lines.append(f"  {name:30s} {m[name]:9.4f} "
                             f"{m[name] / run_s:7.1%}  {what}")
    lines.append(f"{'total':32s} "
                 f"{med(sum(ls.values()) for _, ls, _ in iters):9.4f}")
    lines.append("counts and ratios:")
    for name, (unit, what) in METRICS.items():
        if unit == "s":
            continue
        base = ""
        if name in RATIO_BASES:
            num, den = RATIO_BASES[name]
            numv = m[num] if num else m[name] * m[den]
            base = f" = {numv:.6g} / {m[den]:.6g} ({num or 'found'} / {den})"
        lines.append(f"  {name:32s} {m[name]:12.6g} {unit:5s} {what}{base}")
    ov = data["overheads"]
    if ov:
        lines.append(f"  {'bench.trace_overhead_frac':32s} {med(ov):12.4g} "
                     "frac  (traced run_s - untraced run_s) / untraced "
                     f"run_s, median of {len(ov)} pair(s)")
    est = data["estimates"]
    lines.append(f"  {'bench.trace_overhead_est_frac':32s} {med(est):12.4g} "
                 "frac  spans x wrapper cost on a no-op / traced run_s")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    dirs = [Path(a) for a in argv] or sorted(
        (HERE.parent / ".perfbench").glob("*-trace1-*"))
    data = load(dirs)
    if not data:
        print("no traced runs found; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 1
    for workload in sorted(data):
        print("\n".join(table(workload, data[workload])) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
