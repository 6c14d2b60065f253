"""The benchmark's per-layer tracer still fits the program.

bench/tracing.py wraps lineint's functions from outside and calls each
span's ``useful`` test with the positional arguments of the traced call, so
a signature change can break every ``--trace 1`` run without any other test
noticing.  Here one small job of each workload runs through ``cli.main``
with the tracer installed; its output must satisfy the workload's oracle.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import lineint
import lineint.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench_run():
    """bench/run.py, loaded by path: its name is too generic to import."""
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = bench_run()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_small_job(name):
    job = workloads.WORKLOADS[name].make_small(
        random.Random(f"tracer-guard/{name}"))
    original = lineint.series.TruncatedSeries.__mul__
    tracer = tracing.Tracer()
    tracing.install(tracer, lineint)
    try:
        code, out = RUN.run_job(tracer.wrap("cli", lineint.cli.main), job)
    finally:
        tracer.restore()
    assert lineint.series.TruncatedSeries.__mul__ is original
    assert code == 0, out
    try:
        job.check(out)
    except oracles.Rejected as e:
        pytest.fail(f"{name}: the oracle rejects the traced output: {e}")
    assert (tracer.calls["scheme.substitute_fiber"] > 0) == \
        (name == "integrate")
    # Every workload writes its result through a traced writer.
    assert tracer.calls["parsing.write"] > 0
