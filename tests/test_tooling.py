"""The benchmark's in-process tracer wraps library functions by name; every
name it lists must resolve, or a traced run fails with a KeyError.  Every
benchmark job must still print the output whose digest the benchmark keeps.
The project runs no linter, so two import rules of the library are checked here
on its syntax trees."""

import ast
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


SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"
# the dense Smith cluster: the tests' oracle and the benchmark's traced names
DENSE = {"mat_mul", "zeros", "smith_normal_form", "solve"}


def _library_modules():
    """(name, parsed module) for every library module but the package's
    re-exporting __init__.py."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def test_library_modules_read_every_module_level_import():
    unused = []
    for name, tree in _library_modules():
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in read]
    assert not unused


def test_only_smith_touches_the_dense_cluster():
    users = []
    for name, tree in _library_modules():
        if name == "smith.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                users += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name in DENSE]
            elif isinstance(node, ast.Attribute) and node.attr in DENSE:
                if isinstance(node.value, ast.Name) and node.value.id == "smith":
                    users.append(f"{name}:{node.lineno} smith.{node.attr}")
    assert not users
