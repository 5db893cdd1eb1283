"""The benchmark's in-process tracer wraps library functions by name; every
name it lists must resolve, or a traced run fails with a KeyError."""

import importlib
from pathlib import Path

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
