"""The benchmark's span tracer and harness still work on the package.

perfbench/spans.py replaces functions of the package by name; a rename or
deletion in src/ breaks traced benchmark runs.  The first test installs the
tracer on the imported package and takes it off again, without running a
workload; the second runs the harness self-test on small instances.
"""

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import cantorslit
import cantorslit.whitney

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _package_attrs():
    return {name: dict(vars(mod)) for name, mod in vars(cantorslit).items()
            if isinstance(mod, types.ModuleType)}


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _package_attrs()
    adjacency = cantorslit.whitney.WhitneyDecomposition.adjacency
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        for modname, fname, _, _ in spans.FUNCTIONS:
            assert getattr(getattr(cantorslit, modname), fname) \
                is not before[modname][fname], f"{modname}.{fname} not traced"
        assert cantorslit.whitney.oracle_for \
            is not before["whitney"]["oracle_for"]
    finally:
        tracer.uninstall()
    assert _package_attrs() == before
    assert cantorslit.whitney.WhitneyDecomposition.adjacency is adjacency


def test_benchmark_selftest_passes():
    """perfbench/selftest.py: small claim and extend runs, traced and not.

    It fails when a workload check fails, when traced and untraced results
    differ, or when a counter it needs (such as
    extension.cube_average_calls) reads zero.  It writes no files.
    """
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
