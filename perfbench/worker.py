"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T --trace 0|1
        --out RESULT.json [--setup-only]

T is the launcher's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import cantorslit` and input generation,
up to the first workload call.  The timed region is the workload alone; the
result checks, digests and span files come after it.

The speed of a shared host drifts by up to 2x over minutes, which swamps
the changes the benchmark is meant to see.  An untraced iteration therefore
also times a small fixed reference chunk every SAMPLE_PERIOD_S inside the
timed region and reports

    run_s = (wall - time spent in chunks) * REF_CHUNK_S / mean chunk time,

the wall time the workload would take at the reference host speed, next to
the uncorrected wall_s.  The chunk runs on the same core, interleaved with
the workload, so it sees the same contention.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (needs the paths above)
from spans import Tracer, layer_metrics, wrapper_cost  # noqa: E402


SAMPLE_PERIOD_S = 0.2
# mean reference chunk time on the 2-core Xeon host of the first baseline
REF_CHUNK_S = 2.5e-3
_REF_ARRAY = numpy.linspace(0.0, 1.0, 20000)


def reference_chunk() -> float:
    """Seconds for a fixed mix of tuple/dict work and small numpy calls."""
    t = time.perf_counter()
    d = {}
    for i in range(2000):
        d[(i & 63, i >> 6)] = i
    x = _REF_ARRAY
    for _ in range(3):
        x = numpy.sort(numpy.abs(numpy.sin(x * 3.0)))
    return time.perf_counter() - t


class SpeedSampler:
    """Times reference_chunk on SIGALRM every SAMPLE_PERIOD_S while active."""

    def __enter__(self):
        self.samples: list[float] = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(reference_chunk())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def timed_run(name: str, seed: int, params: dict, inputs: dict,
              tracer: Tracer | None = None) -> dict:
    """Run one workload, then summarise and check its results.

    Untraced, run_s is speed-corrected (see the module docstring); traced,
    run_s is the plain wall time, which the span self times add up to.
    """
    out = {}
    if tracer is None:
        with SpeedSampler() as sampler:
            t1 = time.perf_counter()
            res = workloads.run(name, inputs, seed, params)
            wall = time.perf_counter() - t1
        chunks = sampler.samples or [reference_chunk() for _ in range(10)]
        out["wall_s"] = wall - sum(sampler.samples)
        out["speed"] = REF_CHUNK_S / statistics.fmean(chunks)
        out["run_s"] = out["wall_s"] * out["speed"]
    else:
        fn = tracer.root(workloads.run)
        t1 = time.perf_counter()
        res = fn(name, inputs, seed, params)
        out["wall_s"] = out["run_s"] = time.perf_counter() - t1
    summ = workloads.summary(name, res)
    out.update(summary=summ, checks=workloads.check(name, summ, seed, params))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    params = workloads.DEFAULT_PARAMS[args.workload]
    inputs = workloads.prepare(args.workload, args.seed, params)
    tracer = None
    if args.trace:
        tracer = Tracer(f"{Path(args.out).stem}-{os.getpid()}")
        tracer.install()
    out: dict = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        out.update(timed_run(args.workload, args.seed, params, inputs, tracer))
        out["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            spans = Path(args.out).with_suffix(".spans.jsonl")
            tracer.write(spans)
            out["spans"] = spans.name
            out["layers"] = layer_metrics(tracer.spans)
            out["layers"]["bench.trace_overhead_est_frac"] = (
                len(tracer.spans) * wrapper_cost() / out["run_s"])
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
