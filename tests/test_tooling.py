"""The benchmark's in-process tracer wraps library functions by name; every
name it lists must resolve, or a traced run fails with a KeyError.  Every
benchmark job must still print the output whose digest the benchmark keeps."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_spans_resolve_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    inproc = importlib.import_module("inproc")
    targets = [t for names in inproc.SPANS.values() for t in names]
    assert targets
    for target in targets:
        mod_name, qualname = target.split(":")
        owner = importlib.import_module(f"syzygy.{mod_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer reads the raw attribute from the owner's own namespace
        assert attr in vars(owner), target
        assert callable(getattr(owner, attr)), target


def test_bench_setup_probe_runs(monkeypatch):
    """The benchmark's set-up probe loads the registry, orientability and
    atom tables by name; a renamed loader would fail every probe."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    exec(run.PROBE_CODE, {})


def _bench_module(name):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


@pytest.mark.parametrize(
    "args",
    [args for jobs in _bench_module("workloads").WORKLOADS.values() for args in jobs],
    ids=" ".join,
)
def test_bench_job_output_matches_its_digest(args):
    """Each job, run untraced in this process, exits 0 and prints output
    with the sha256 recorded in bench/digests.json.  (A traced run rebinds
    module globals, so it is left to the benchmark's own processes.)"""
    workloads, inproc = _bench_module("workloads"), _bench_module("inproc")
    record = inproc.run_job(list(args), traced=False)
    assert record["exit"] == 0
    assert record["sha256"] == workloads.load_digests()[workloads.job_key(args)]
