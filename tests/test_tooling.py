"""The benchmark's in-process tracer wraps library functions by name; every
name it lists must resolve, or a traced run fails with a KeyError.  Every
benchmark job must still print the output whose digest the benchmark keeps,
traced or not.  The package loads its submodules on first use: each command
executes only the modules it calls, and every exported name still resolves.
Importing the CLI loads nothing outside the standard library and the package,
and no job loads `inspect` or `dataclasses`, whose import costs more than
most jobs compute.  The project runs no linter, so three import rules of the
library are checked here on its syntax trees: every module-level import is
read, only smith touches the dense Smith cluster, and no module imports
`dataclasses`.  One class rule is checked there too: the value contract is
written once, so no class but the value base `_Value` in the package's
`__init__.py` defines `__setattr__`, `__delattr__`, `__reduce__`, `__hash__`
or `__repr__` with a `def`."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import syzygy

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


@pytest.mark.parametrize(
    "args, layer",
    [
        (["graph", "--degree", "3"], "lattice.incidence_graph"),
        (["ruled", "--points", "6", "--e-max", "5", "--r-max", "5"], "surfaces.boundary"),
        (["schur", "--target", "pgl2"], "formal.solve_extension"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_traced_bench_job_prints_its_digest(args, layer):
    """One job per workload, traced in its own process as the benchmark runs
    it: the tracer finds every module it wraps, the output keeps its digest,
    and a layer the job uses is counted."""
    workloads = _bench_module("workloads")
    out = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), "1", *args],
        capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout)
    assert record["exit"] == 0
    assert record["sha256"] == workloads.load_digests()[workloads.job_key(args)]
    assert record["layers"][f"{layer}.calls"] > 0


SRC = Path(__file__).resolve().parent.parent / "src" / "syzygy"
# Runs one command and prints the syzygy modules it left executed.  A module
# that is registered but was never read holds only its spec attributes; the
# namespace is read through object.__getattribute__, which does not load it.
EXECUTED = """
import contextlib, io, sys
import syzygy.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
for name, module in list(sys.modules.items()):
    if name.startswith("syzygy.") and "__builtins__" in object.__getattribute__(module, "__dict__"):
        print(name[len("syzygy."):])
"""


def _executed_modules(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", EXECUTED, *args], capture_output=True,
                         text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


@pytest.mark.parametrize("args", [["lines", "--degree", "3"], ["cubic"], ["graph", "--degree", "3"]],
                         ids=" ".join)
def test_lattice_commands_execute_only_the_lattice(args):
    assert _executed_modules(*args) == {"cli", "lattice"}


@pytest.mark.parametrize(
    "args",
    [["ruled", "--points", "3"], ["cremona"], ["five-term"]],
    ids=" ".join,
)
def test_row_commands_skip_the_lattice(args):
    executed = _executed_modules(*args)
    assert "surfaces" in executed and "lattice" not in executed


def test_sphere_executes_the_lattice():
    assert "lattice" in _executed_modules("syzygy", "bl3")


# Prints the modules that `import syzygy.cli` adds to those the interpreter's
# start-up (site and any .pth file) already loaded.
IMPORTED = """
import sys
before = set(sys.modules)
import syzygy.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_the_standard_library_and_the_package():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", IMPORTED], capture_output=True, text=True,
                         env=env, check=False)
    assert out.returncode == 0, out.stderr
    imported = out.stdout.split()
    assert "syzygy.cli" in imported
    outside = [name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names | {"syzygy"}]
    assert not outside


# Runs one job of each module group in one process and prints the modules
# that `import syzygy.cli` and the jobs added to the interpreter's start-up.
JOBS_IMPORTED = """
import contextlib, io, sys
before = set(sys.modules)
import syzygy.cli as cli
for argv in (["cubic"], ["schur", "--target", "pgl2"], ["cremona"], ["syzygy", "bl3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_jobs_load_neither_inspect_nor_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", JOBS_IMPORTED], capture_output=True, text=True,
                         env=env, check=False)
    assert out.returncode == 0, out.stderr
    imported = set(out.stdout.split())
    assert {"syzygy.lattice", "syzygy.spectral", "syzygy.surfaces"} <= imported
    assert not imported & {"inspect", "dataclasses"}


def test_schur_skips_the_row_complexes():
    assert not _executed_modules("schur", "--target", "pgl2") & {"surfaces", "complexes", "lattice"}


def test_sphere_skips_the_formal_calculus():
    assert not _executed_modules("syzygy", "bl3") & {"formal", "spectral"}


# every name the package exported when it imported its submodules eagerly
EXPORTS = {
    "smith": "FGAbelianGroup SNFResult smith_normal_form",
    "lattice": "BlowupLattice DivisorClass IncidenceGraph cubic_summary",
    "complexes": "Cell IntegerChainComplex RegularCWComplex load_complex_file",
    "surfaces": "BaseCase GeneratorUniverse SurfaceCentralModel boundary elementary_transformation"
    " enumerate_generators row0_complex row0_homology syzygy_sphere_bl3 two_ray_game",
    "formal": "Atom FormalGroup FormalHom check_exact cokernel homology_at kernel solve_extension",
    "spectral": "KnownHomologyRegistry SpectralGrid cremona_assemble default_registry five_term"
    " k2_prime_candidates schur_aut_quadric schur_pgl seven_term",
}


@pytest.mark.parametrize("module", EXPORTS)
def test_package_exports_resolve_to_their_module(module):
    mod = importlib.import_module(f"syzygy.{module}")
    assert getattr(syzygy, module) is mod is sys.modules[f"syzygy.{module}"]
    for name in EXPORTS[module].split():
        scope = {}
        exec(f"from syzygy import {name}", scope)
        assert scope[name] is getattr(syzygy, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        syzygy.no_such_name


# the dense Smith cluster: the tests' oracle and the benchmark's traced names
DENSE = {"mat_mul", "zeros", "smith_normal_form", "solve"}


def _library_modules():
    """(name, parsed module) for every library module, __init__.py included."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
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


def test_no_library_module_imports_dataclasses():
    users = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                users += [f"{name}:{node.lineno}" for a in node.names
                          if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                users.append(f"{name}:{node.lineno}")
    assert not users


VALUE_METHODS = {"__setattr__", "__delattr__", "__reduce__", "__hash__", "__repr__"}


def test_only_the_value_base_defines_the_value_methods():
    defined = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or (name, node.name) == ("__init__.py", "_Value"):
                continue
            defined += [f"{name}:{item.lineno} {node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name in VALUE_METHODS]
    assert not defined
