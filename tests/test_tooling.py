"""The benchmark's in-process tracer wraps library functions by name; every
name it lists must resolve, or a traced run fails with a KeyError.  Every
benchmark job must still print the output whose digest the benchmark keeps,
traced or not.  The lattice layer's work is pinned as counts: a profile hook
counts the nodes of the class search's and the configuration walk's
recursions.  The package loads its submodules on first use: each command
executes only the modules it calls, and every exported name still resolves.
Importing the CLI loads nothing outside the standard library and the package,
and no job loads `inspect` or `dataclasses`, whose import costs more than
most jobs compute.  The project runs no linter, so four import rules of the
library are checked here on its syntax trees: every module-level import is
read, only smith touches the dense Smith cluster, no module imports
`dataclasses`, and no module imports a `_`-prefixed name of a sibling
module.  One class rule is checked there too: the value contract is
written once, so no class but the value base `_Value` in the package's
`__init__.py` defines `__setattr__`, `__delattr__`, `__reduce__`, `__hash__`
or `__repr__` with a `def`, and only `_Value.__init__` names
`object.__setattr__`.  Every value type checks, normalises or computes
something: its `__init__` does more than hand its arguments to `_Value`,
or it defines a method of its own.  One reading rule as well: only
`__init__.py` opens a file, parses JSON or names the data directory.  A
row rule: only `surfaces.row0_complex` calls the boundary builder.  A
resolver rule: only `SpectralGrid._differentials`, the one pass that
decides a page's differentials, calls the grid's zero rule, and only that
rule and `ExactSequence._map` call `formal.forced_zero_reason`.  Every
mutant that tests/mutants.py applies by hand names an old text that occurs
exactly once in its file.  A
name rule: only `surfaces.py` formats a group name, an f-string whose first
literal part starts with `Aut`, so a cell's registry entry is read by the name
its model gives.  A
universe rule: only `cli.py` constructs a `GeneratorUniverse`, so rows 0
and 1 of a command's grid read one truncation.  A
registry rule: only `cli.py` calls `default_registry`, and no function in
`spectral.py` gives its `registry` parameter a default.  A complex rule:
only the clique rule and the file reader construct a `RegularCWComplex`.
A witness rule: tests/test_row0_witness.py imports from the package only
`BaseCase`, `GeneratorUniverse`, `is_orientable` and `row0_complex`, and
nothing from tests/helpers.py.
And the library holds only code that runs: every top-level function and method is
referenced by name somewhere in the library outside its own definition,
unless it is a package export, a dunder, a name the benchmark's own code
reaches (its traced SPANS, its set-up probe, its in-process runner), or on
a short allowlist that gives its reason.  Code only tests call lives in
tests/helpers.py.  No library function only forwards: one whose body is
one `return` of one call to another library function or class, and which
has at most one library caller, is exempt on the same terms (a property
too) or it goes, and its caller makes the call.  Likewise every parameter
of a library function is read in its body, unless the function is a dunder
or the parameter is on an allowlist that gives its reason."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import syzygy
from syzygy.lattice import BlowupLattice
from syzygy.spectral import KnownHomologyRegistry

from helpers import invoke

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


# shipped registry entries that no command reads, with the reason each is kept
UNREAD_ENTRIES = {
    **{("C*", d): "read by tests/helpers.py::h_prime_grid" for d in range(4)},
    **{(group, 2): "kept for the degree-2 row that is to derive E_{0,2}"
       for group in ("Aut(F1)", "Aut(Fe/P1)", "Aut(S_e,1/P1)", "Autf(Fe/P1)")},
}


def test_every_shipped_registry_entry_is_read_or_kept_for_a_reason(monkeypatch):
    """The registry-reading bench jobs and the small ruled and five-term
    jobs read every shipped entry but those listed with a reason."""
    read = set()
    get = KnownHomologyRegistry.get
    monkeypatch.setattr(KnownHomologyRegistry, "get",
                        lambda registry, group, degree: read.add((group, degree))
                        or get(registry, group, degree))
    jobs = [args for jobs in _bench_module("workloads").WORKLOADS.values() for args in jobs
            if args[0] in ("ruled", "five-term", "cremona", "schur")]
    for args in jobs + [["ruled", "--points", "4"], ["five-term", "--points", "4"]]:
        assert invoke(*args).exit_code == 0, args
    shipped = set(KnownHomologyRegistry.load()._entries)
    assert shipped - read == set(UNREAD_ENTRIES)


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


def test_traced_cubic_searches_once_per_class_list():
    """`cubic` searches the lattice once for its lines and once for its
    conic classes, and walks the configurations over the one line list in
    two orders."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), "1", "cubic"],
        capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    layers = json.loads(out.stdout)["layers"]
    assert layers["lattice.search.calls"] == 2
    assert layers["lattice.count_configurations.calls"] == 2


def _recursion_nodes(function, call):
    """Run call() and count the calls of the one nested function of
    `function` that calls itself, the nodes of its recursion, with a
    profile hook."""
    code, = [c for c in function.__code__.co_consts
             if isinstance(c, types.CodeType) and c.co_name in c.co_freevars]
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_lattice_work_is_pinned_as_counts():
    """The Bl8 conic search recurses over one arrangement of multiplicities
    per orbit, so it makes at most 1,000 recursive calls; trying every
    ordering made 43,821.  Passing the walk only the compatible pairs prunes
    no configuration: it visits exactly the nodes that rescanning every
    meeting pair at each node visited, 838 for the cubic and 7,939 for the
    seven-point blowup."""
    lat = BlowupLattice(8)
    assert _recursion_nodes(BlowupLattice._search, lambda: lat._search(0, 2)) <= 1000
    for n, nodes in ((6, 838), (7, 7939)):
        lat = BlowupLattice(n)
        lines = lat.enumerate_lines()
        walk = BlowupLattice.count_fibration_configurations
        assert _recursion_nodes(walk, lambda: lat.count_fibration_configurations(lines)) == nodes


@pytest.mark.parametrize(
    "args, annotated",
    [(["ruled", "--points", "6", "--e-max", "5", "--r-max", "5"], False), (["cremona"], True)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_traced_job_keeps_its_workload_design(args, annotated):
    """bench/selftest.py holds the workloads to their design: the ruled jobs
    make no annotated presented_homology call, the Cremona jobs make some.
    Chain-complex homology reads its degrees without presented_homology, so
    the annotated calls left are the formal calculus's."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), "1", *args],
        capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)["layers"]["smith.presented_homology.annotated_calls"]
    assert calls > 0 if annotated else calls == 0


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


# every name the package exports, pinned apart from _SUBMODULES in its
# __init__.py, so that an export is dropped or added only on purpose
EXPORTS = {
    "smith": "FGAbelianGroup SNFResult smith_normal_form",
    "lattice": "BlowupLattice IncidenceGraph cubic_summary",
    "complexes": "IntegerChainComplex RegularCWComplex load_complex_file",
    "surfaces": "BaseCase GeneratorUniverse SurfaceCentralModel boundary enumerate_generators"
    " row0_complex row0_homology validated_sphere_bl3",
    "formal": "Atom FormalGroup FormalHom cokernel homology_at kernel solve_extension",
    "spectral": "KnownHomologyRegistry SpectralGrid cremona_assemble default_registry five_term"
    " k2_prime_candidates schur_aut_quadric schur_pgl seven_term",
}


@pytest.mark.parametrize("module", EXPORTS)
def test_package_exports_resolve_to_their_module(module):
    mod = importlib.import_module(f"syzygy.{module}")
    assert getattr(syzygy, module) is mod is sys.modules[f"syzygy.{module}"]
    assert syzygy._SUBMODULES[module].split() == EXPORTS[module].split()
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


def test_no_library_module_imports_a_private_name_of_another():
    """A `_`-prefixed name belongs to its own module: no library module
    imports one from a sibling (`from .formal import _name`) or reads one
    off it (`formal._name`).  The package's `__init__.py` is exempt as a
    source, since it holds the shared base `_Value` of the value types."""
    siblings = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    private = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in siblings:
                private += [f"{name}:{node.lineno} {a.name}" for a in node.names
                            if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.endswith("__") \
                    and isinstance(node.value, ast.Name) and node.value.id in siblings:
                private.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not private


def test_only_the_package_init_reads_files():
    """Every JSON input goes through the one reader in __init__.py, which
    also names the data directory: no other module calls open, json.load or
    json.loads, or spells the directory's name."""
    readers = []
    for name, tree in _library_modules():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open" or (
                        isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                        and isinstance(func.value, ast.Name) and func.value.id == "json"):
                    readers.append(f"{name}:{node.lineno} {ast.unparse(func)}")
            elif isinstance(node, ast.Constant) and node.value == "data":
                readers.append(f"{name}:{node.lineno} 'data'")
    assert not readers


def test_only_the_cli_falls_back_to_the_default_registry():
    """A derivation reads the registry it is given: no library module but
    cli.py calls default_registry, and no spectral function lets `registry`
    default to anything."""
    fallbacks = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if name != "cli.py" and isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "default_registry":
                    fallbacks.append(f"{name}:{node.lineno} calls default_registry")
            if name == "spectral.py" and isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if "registry" in [a.arg for a in defaulted]:
                    fallbacks.append(f"{name}:{node.lineno} {node.name} defaults registry")
    assert not fallbacks


def _group_name_builders(tree) -> list:
    """The f-strings of ``tree`` whose first literal part starts with `Aut`,
    and its BinOps (a concatenation or a % format) with a string operand
    that starts with `Aut`."""
    def aut(node):
        return isinstance(node, ast.Constant) and str(node.value).startswith("Aut")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            first = next((v for v in node.values if isinstance(v, ast.Constant)), None)
            if aut(first):
                found.append(node)
        elif isinstance(node, ast.BinOp) and (aut(node.left) or aut(node.right)):
            found.append(node)
    return found


def test_only_surfaces_formats_a_group_name():
    """A cell's stabiliser and its orientation-preserving subgroup are read
    off the registry by the names its model gives (SurfaceCentralModel.group
    and .plus_group), so no library module but surfaces.py builds an `Aut…`
    name, by an f-string or by concatenation.  The rule catches the splice
    that row 1 once used for the partner name."""
    splice = ast.parse('plus = "Aut+" + group[len("Aut"):]')
    assert [ast.unparse(n) for n in _group_name_builders(splice)] == [
        "'Aut+' + group[len('Aut'):]"]
    formatters = [f"{name}:{node.lineno} {ast.unparse(node)}"
                  for name, tree in _library_modules() if name != "surfaces.py"
                  for node in _group_name_builders(tree)]
    assert not formatters


def test_only_row0_complex_builds_boundaries():
    """Row 1 reads its cells and incidences from row 0, so no library
    function but surfaces.row0_complex calls the boundary builder."""
    callers = []
    for name, tree in _library_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{name}:{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and "boundary" in (
                                getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert callers == ["surfaces.py:row0_complex"]


def test_one_pass_resolves_the_spectral_differentials():
    """A spectral page's differentials are decided in one pass, so in the
    library only SpectralGrid._differentials calls the grid's zero rule,
    SpectralGrid._forced_zero_reason, and only that rule and
    ExactSequence._map call formal.forced_zero_reason."""
    callers = {"_forced_zero_reason": set(), "forced_zero_reason": set()}
    for module, owner, fn in _library_defs():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers:
                    callers[name].add(f"{module}:{owner}.{fn.name}" if owner
                                      else f"{module}:{fn.name}")
    assert callers == {
        "_forced_zero_reason": {"spectral.py:SpectralGrid._differentials"},
        "forced_zero_reason": {"spectral.py:SpectralGrid._forced_zero_reason",
                               "spectral.py:ExactSequence._map"},
    }


def test_every_mutant_applies_to_one_place():
    """tests/mutants.py edits each old text of its list in a copy of the
    tree, so each must occur exactly once in its library file."""
    from mutants import MUTANTS

    assert MUTANTS and {verdict for *_, verdict in MUTANTS} <= {"killed", "survived"}
    counts = {(file, old): (SRC / file).read_text(encoding="utf-8").count(old)
              for file, old, _, _ in MUTANTS}
    assert {key: n for key, n in counts.items() if n != 1} == {}


def test_only_the_cli_constructs_a_universe():
    """A command's grid reads its rows off one truncation, so no library
    module but cli.py calls GeneratorUniverse(...), GeneratorUniverse.ruled
    or GeneratorUniverse.cremona; the classmethods' own cls(...) calls are
    not constructions by another module."""
    def universe(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "GeneratorUniverse"

    makers = []
    for name, tree in _library_modules():
        if name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    universe(node.func) or isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("ruled", "cremona") and universe(node.func.value)):
                makers.append(f"{name}:{node.lineno} {ast.unparse(node.func)}")
    assert not makers


def test_the_row0_witness_reads_only_the_complex_it_checks():
    """tests/test_row0_witness.py is the one exact arbiter of row 0's signs,
    so it derives its columns without the tables they are checked against:
    from the package it imports only the universe, the orientability lookup
    and row0_complex, and it imports nothing from tests/helpers.py."""
    tree = ast.parse((Path(__file__).parent / "test_row0_witness.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert not [m for m in imported if m.split(".")[0] == "helpers"]
    assert sorted(m for m in imported if m.split(".")[0] == "syzygy") == [
        "syzygy.surfaces.BaseCase", "syzygy.surfaces.GeneratorUniverse",
        "syzygy.surfaces.is_orientable", "syzygy.surfaces.row0_complex",
    ]


def test_only_the_clique_rule_and_the_file_reader_construct_complexes():
    """Every complex in the library is a clique complex or read from a
    file, so no library function but clique_complex and
    RegularCWComplex.from_json_dict constructs a RegularCWComplex, by name
    or as ``cls`` in one of its methods: a complex listed by hand cannot
    come back."""
    def constructions(tree, cls_is_cw=False):
        names = {"RegularCWComplex", "cls"} if cls_is_cw else {"RegularCWComplex"}
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & names]

    makers = set()
    for name, tree in _library_modules():
        owner = {}
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef):
                    qualname = fn.name if fn is node else f"{node.name}.{fn.name}"
                    cls_is_cw = fn is not node and node.name == "RegularCWComplex"
                    owner.update((line, qualname) for line in constructions(fn, cls_is_cw))
        lines = set(owner) | set(constructions(tree))
        makers |= {f"{name}:{owner.get(line, line)}" for line in lines}
    assert sorted(makers) == ["complexes.py:RegularCWComplex.from_json_dict",
                              "complexes.py:clique_complex"]


VALUE_METHODS = {"__setattr__", "__delattr__", "__reduce__", "__hash__", "__repr__"}


def test_every_value_type_checks_normalises_or_computes():
    """A `_Value` subclass whose `__init__` only hands its arguments to the
    base, and which defines no other method, is its fields and nothing
    more; the library holds such data as it is (a divisor class is its
    coefficient tuple, a complex's cells map ids to dimensions)."""
    wrappers = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or "_Value" not in map(ast.unparse, node.bases):
                continue
            methods = {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}
            init = methods.pop("__init__", None)
            hand_off = init is None or list(map(ast.unparse, init.body)) == [
                "super().__init__(" + ", ".join(a.arg for a in init.args.args[1:]) + ")"]
            if hand_off and not methods:
                wrappers.append(f"{name}:{node.lineno} {node.name}")
    assert not wrappers


def test_only_the_value_base_writes_fields_past_the_refusal():
    """Every value constructor hands its fields to `_Value.__init__`."""
    writers = [name for name, tree in _library_modules() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
               and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert writers == ["__init__.py"]


def test_only_the_value_base_defines_the_value_methods():
    defined = []
    for name, tree in _library_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or (name, node.name) == ("__init__.py", "_Value"):
                continue
            defined += [f"{name}:{item.lineno} {node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name in VALUE_METHODS]
    assert not defined


# library names kept although no library code refers to them, with the reason
UNREFERENCED_ALLOWED = {
    "KnownHomologyRegistry.provenance": "reads an entry's provenance note, which the"
    " planned per-result provenance trace reports",
}


def _bench_reached_names():
    """The library names the benchmark's own code reaches: the last part of
    each traced SPANS target, the names its set-up probe imports from the
    package, and the attributes its set-up probe and in-process runner read
    off `cli`."""
    inproc, run = _bench_module("inproc"), _bench_module("run")
    names = {t.split(":")[1].split(".")[-1] for ts in inproc.SPANS.values() for t in ts}
    for tree in (ast.parse(run.PROBE_CODE), ast.parse((BENCH / "inproc.py").read_text())):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("syzygy"):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "cli":
                    names.add(node.attr)
    return names


def _reads(tree):
    """(attribute names read, plain names read) under a syntax tree."""
    attrs, names = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Name):
            names[node.id] += 1
    return attrs, names


def _global_reads(tree):
    """The plain names read under a syntax tree that can mean a module-level
    name: a read inside a function that binds the name, as a parameter or an
    assignment target, reads the local one."""
    reads = Counter()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            local = local | {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                             a.kwarg) if p} | {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            reads[node.id] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return reads


def _library_defs():
    """(module, owning class or None, def node) for every top-level function
    and method of the library."""
    defs = []
    for module, tree in _library_modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((module, None, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(module, node.name, item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
    return defs


def test_every_library_function_is_referenced_in_the_library():
    """A top-level function counts as referenced when its name is read as a
    name or an attribute elsewhere in the library; a method only as an
    attribute (`obj.method`)."""
    attrs, names = Counter(), Counter()
    for _, tree in _library_modules():
        tree_attrs, tree_names = _reads(tree)
        attrs += tree_attrs
        names += tree_names
    exempt = _bench_reached_names() | {n for ns in syzygy._SUBMODULES.values() for n in ns.split()}
    unreferenced = []
    for module, owner, fn in _library_defs():
        qualname = f"{owner}.{fn.name}" if owner else fn.name
        dunder = fn.name.startswith("__") and fn.name.endswith("__")
        if dunder or fn.name in exempt or qualname in UNREFERENCED_ALLOWED:
            continue
        own_attrs, own_names = _reads(fn)
        reads = attrs[fn.name] - own_attrs[fn.name]
        if owner is None:
            reads += names[fn.name] - own_names[fn.name]
        if not reads:
            unreferenced.append(f"{module}:{fn.lineno} {qualname}")
    assert not unreferenced


# forwarding functions kept although one library caller at most reaches
# them, with the reason
FORWARDERS_ALLOWED = {
    "lines": "a syz command, whose docstring is the command's help text",
    "conics": "a syz command, whose docstring is the command's help text",
    "coinvariants_of_swap": "a named operation of the quadric's grid, with its own test",
}


def test_no_library_function_only_forwards_to_another():
    """A function whose body, after its docstring, is one `return` of one
    call to another library function or class, and which has at most one
    library caller, is that call written twice: its caller can make the
    call itself.  Package exports, names the benchmark reaches, dunders and
    properties are exempt, as are the forwarders allowed above."""
    attrs, names, callables = Counter(), Counter(), set()
    for _, tree in _library_modules():
        attrs += _reads(tree)[0]
        names += _global_reads(tree)
        callables |= {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    defs = _library_defs()
    callables |= {fn.name for _, _, fn in defs}
    exempt = _bench_reached_names() | {n for ns in syzygy._SUBMODULES.values() for n in ns.split()}
    forwarders = []
    for module, owner, fn in defs:
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            continue
        func = body[0].value.func
        callee = getattr(func, "id", getattr(func, "attr", None))
        dunder = fn.name.startswith("__") and fn.name.endswith("__")
        prop = any(ast.unparse(d) == "property" for d in fn.decorator_list)
        if callee not in callables - {fn.name} or dunder or prop or fn.name in exempt \
                or fn.name in FORWARDERS_ALLOWED:
            continue
        callers = attrs[fn.name] - _reads(fn)[0][fn.name]
        if owner is None:
            callers += names[fn.name] - _global_reads(fn)[fn.name]
        if callers <= 1:
            qualname = f"{owner}.{fn.name}" if owner else fn.name
            forwarders.append(f"{module}:{fn.lineno} {qualname} -> {callee}")
    assert not forwarders


# parameters a library function takes but does not read, with the reason
UNREAD_PARAMETERS_ALLOWED = {
    "cubic.args": "every syz command takes the parsed arguments; cubic reads none",
    "presented_homology.n_target": "the tracer reads the relations at positions 4 and 5",
    "_click_shaped_main.standalone_mode": "the in-process runner's call shape",
}


def test_every_library_function_reads_its_parameters():
    """Each parameter of a function, method or lambda is read as a name in
    its body, unless the function is a dunder (its parameters are the
    protocol's) or the parameter is on the allowlist above."""
    unread = []
    for module, tree in _library_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{module}:{fn.lineno} {name}.{p}" for p in params
                       if p not in read and f"{name}.{p}" not in UNREAD_PARAMETERS_ALLOWED]
    assert not unread
