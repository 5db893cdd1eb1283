import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import syzygy
from syzygy import smith
from syzygy.complexes import RegularCWComplex, ValidationReport
from syzygy.surfaces import GeneratorUniverse, row0_complex, syzygy_sphere_bl3

from helpers import build_cycle, build_octahedron, invoke


def test_lines_cubic():
    res = invoke("lines", "--degree", "3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["result"]["count"] == 27
    assert data["schema_version"] == 1
    assert data["provenance"]


def test_lines_by_blowups_and_conflicts():
    res = invoke("lines", "--blowups", "3")
    assert json.loads(res.output)["result"]["count"] == 6
    res = invoke("lines", "--degree", "3", "--blowups", "3")
    assert res.exit_code == 1
    assert "error" in json.loads(res.output)
    res = invoke("lines")
    assert res.exit_code == 1


def test_json_output_is_deterministic():
    out1 = invoke("cubic").output
    out2 = invoke("cubic").output
    assert out1 == out2
    out3 = invoke("cremona", "--e-max", "3").output
    out4 = invoke("cremona", "--e-max", "3").output
    assert out3 == out4


def test_graph_hexagon():
    res = invoke("graph", "--blowups", "3")
    data = json.loads(res.output)["result"]
    assert data["single_cycle"] is True
    assert len(data["vertices"]) == 6


def test_syzygy_command():
    res = invoke("syzygy", "bl3", "--check")
    data = json.loads(res.output)["result"]
    assert data["vertices"] == 9
    assert data["euler_characteristic"] == 2
    assert data["valid"] is True


def test_syzygy_no_check_drops_the_validation_fields():
    res = invoke("syzygy", "bl3", "--no-check")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["parameters"] == {"target": "bl3", "check": False}
    assert not {"valid", "failures"} & data["result"].keys()


def test_syzygy_check_validates_the_sphere_once(monkeypatch):
    calls = []
    validate = RegularCWComplex.validate

    def spy(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(RegularCWComplex, "validate", spy)
    data = json.loads(invoke("syzygy", "bl3", "--check").output)["result"]
    assert data["valid"] is True and data["failures"] == []
    assert len(calls) == 1


@pytest.mark.parametrize("flag", ["--check", "--no-check"])
def test_syzygy_failing_sphere_raises(monkeypatch, flag):
    monkeypatch.setattr(
        RegularCWComplex, "validate",
        lambda self: ValidationReport(structure_ok=False, failures=["broken"]),
    )
    with pytest.raises(RuntimeError, match="broken"):
        invoke("syzygy", "bl3", flag)


def test_cubic_warnings_recorded():
    data = json.loads(invoke("cubic").output)
    assert data["result"]["recorded_vertex_count"] == 243
    assert data["warnings"]  # the 216/243 discrepancy is flagged, not silent


def test_ruled_command():
    res = invoke("ruled", "--points", "3", "--e-max", "3")
    data = json.loads(res.output)["result"]
    assert data["E_{1,0}"] == "Z/2 (+) Z/2"
    assert data["E_{0,1}"] == "0"
    assert data["E_{1,1}"] == "C* (+) C*"
    assert data["boundary_squares_to_zero"] is True


def test_cremona_command():
    res = invoke("cremona", "--points", "4", "--e-max", "4")
    data = json.loads(res.output)
    result = data["result"]
    assert result["E_{1,0}"] == "0"
    assert result["E_{2,0}"] == "0"
    assert result["E_{3,0}"] == "0"
    assert result["E_{0,1}"] == "0"
    assert result["E_{1,1}"] == "0"
    assert len(result["H2_candidates"]) == 2
    assert data["warnings"]  # --points is recorded but unused


@pytest.mark.parametrize("r_max", [3, 4])
def test_cremona_command_below_rank_five(r_max):
    # the row-1 bounds do not depend on r_max, and row 0 is read only where
    # the truncation reaches
    full = json.loads(invoke("cremona", "--r-max", "5").output)["result"]
    for rows in ("0", "0,1"):
        res = invoke("cremona", "--r-max", str(r_max), "--rows", rows)
        assert res.exit_code == 0
        result = json.loads(res.output)["result"]
        assert result["H2_candidates"] == full["H2_candidates"]
        assert sorted(k for k in result if k.endswith(",0}")) == [
            f"E_{{{i},0}}" for i in range(1, r_max - 1)
        ]


def test_schur_commands():
    for target, expected in (
        ("pgl2", "K2(C) (+) Z/2"),
        ("pgl3", "K2(C) (+) Z/3"),
        ("quadric", "K2(C) (+) Z/2"),
    ):
        data = json.loads(invoke("schur", "--target", target).output)
        assert data["result"]["H2"] == expected
    data = json.loads(invoke("schur", "--target", "k2prime").output)
    assert sorted(data["result"]["candidates"]) == [
        "K2(C) (+) Z/2 (+) Z/2",
        "K2(C) (+) Z/4",
    ]


def test_homology_file_cw(tmp_path):
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(build_octahedron().to_json_dict()), encoding="utf-8")
    data = json.loads(invoke("homology", str(path)).output)
    assert data["result"]["homology"] == ["Z", "0", "Z"]


def test_homology_file_of_the_sphere(tmp_path):
    """The sphere's file has tuple cell ids, which JSON stores as lists."""
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(syzygy_sphere_bl3().to_json_dict()), encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["homology"] == ["Z", "0", "Z"]


def test_homology_file_chain(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(
        json.dumps(build_cycle(6).chain_complex().to_json_dict()), encoding="utf-8"
    )
    data = json.loads(invoke("homology", str(path)).output)
    assert data["result"]["homology"] == ["Z", "Z"]


def test_homology_file_corrupt(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ranks": [2, 1], "boundaries": [[[1, 0]], [[9]]]}', encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert "error" in json.loads(res.output)
    path2 = tmp_path / "bad2.json"
    path2.write_text('{"something": 1}', encoding="utf-8")
    res2 = invoke("homology", str(path2))
    assert res2.exit_code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"ranks": [1, 1], "boundaries": [[[2.7]]]}',
        '{"ranks": [1, 1], "boundaries": [[[true]]]}',
        '{"ranks": [1, 1], "boundaries": [[["1"]]]}',
        '{"ranks": [1, 1], "boundaries": [[[0]]], "cyclic": {"7": {"0": 2}}}',
        '{"ranks": [1, 1], "boundaries": [[[0]]], "cyclic": {"0": {"5": 2}}}',
        '{"ranks": [1, 1], "boundaries": [[[0]]], "cyclic": {"0": {"0": 0}}}',
        '{"ranks": [1, 1], "boundaries": [[[0]]], "cyclic": {"0": {"0": 2.5}}}',
    ],
    ids=["float", "bool", "string", "degree", "generator", "modulus-0", "modulus-float"],
)
def test_homology_file_rejects_bad_values(tmp_path, text):
    """Each file used to be read with a guess (2.7 as 2, an annotation out of
    range dropped, modulus 0 as no relation) and gave a wrong answer."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert "error" in json.loads(res.output)


@pytest.mark.parametrize(
    "text",
    [
        '{"ranks": [1, 1], "boundaries": [[5]]}',
        '{"ranks": [1], "boundaries": [], "cyclic": {"0": [2]}}',
        '{"ranks": 2, "boundaries": []}',
        '{"ranks": [1, 1], "boundaries": {"1": [[0]]}}',
        '{"ranks": [1, 1], "boundaries": [5]}',
        '{"ranks": [-1]}',
        '{"ranks": [1], "boundaries": [], "cyclic": [2]}',
        '[{"ranks": [1]}]',
    ],
    ids=["row", "cyclic-degree", "ranks", "boundaries", "matrix", "negative-rank",
         "cyclic", "top-level"],
)
def test_homology_file_rejects_wrong_structure(tmp_path, text):
    """A file of the wrong shape exits 1 with the error JSON, not a
    traceback."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert "error" in json.loads(res.output)


def test_ruled_job_eliminates_each_distinct_matrix_once(monkeypatch):
    """A ruled job reads the boundaries at several degrees, as cycle
    matrices and as lifted images, and in the d o d check; each distinct
    matrix is still eliminated once."""
    smith._memo_factors.cache_clear()
    keys = []
    eliminate = smith._eliminate

    def spy(key):
        keys.append(key)
        return eliminate(key)

    monkeypatch.setattr(smith, "_eliminate", spy)
    res = invoke("ruled", "--points", "5", "--e-max", "4", "--r-max", "5")
    assert res.exit_code == 0
    reads = smith._memo_factors.cache_info()
    assert len(keys) == len(set(keys)) == reads.misses
    assert reads.hits >= 3
    cc, _ = row0_complex(GeneratorUniverse.ruled(5, 4, r_max=5))
    for d in (2, 3, 4):
        assert tuple(tuple(sorted(col.items())) for col in cc.boundaries[d]) in keys


def test_five_term_command():
    data = json.loads(invoke("five-term", "--points", "4").output)
    verdicts = {v["position"]: v["verdict"] for v in data["result"]["verdicts"]}
    assert "fail" not in verdicts.values()
    assert verdicts["E_{0,1}"] == "exact"


@pytest.mark.parametrize(
    "args, error",
    [
        (("ruled", "--points", "-2"), "points must be >= 0, got -2"),
        (("five-term", "--points", "-1"), "points must be >= 0, got -1"),
        (("ruled", "--points", "3", "--rows", "7"), "--rows takes rows 0 and 1 only, got '7'"),
        (("ruled", "--points", "3", "--rows", "0,5"),
         "--rows takes rows 0 and 1 only, got '0,5'"),
        (("cremona", "--rows", "2"), "--rows takes rows 0 and 1 only, got '2'"),
        (("cremona", "--rows", "0,5"), "--rows takes rows 0 and 1 only, got '0,5'"),
        (("ruled", "--points", "3", "--rows", "a"), "--rows takes rows 0 and 1 only, got 'a'"),
    ],
    ids=["ruled-points", "five-term-points", "ruled-rows", "ruled-extra-row",
         "cremona-rows", "cremona-extra-row", "ruled-row-not-a-number"],
)
def test_impossible_parameters_are_refused(args, error):
    """Each request used to print a result for fewer labels or rows than
    asked for and exit 0; a row that is not a number used to be refused in
    the words of Python's int()."""
    res = invoke(*args)
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == error


@pytest.mark.parametrize(
    "args",
    [
        ("ruled", "--points", "3", "--r-max", "2"),
        ("cremona", "--r-max", "2", "--rows", "0"),
    ],
    ids=["ruled", "cremona"],
)
def test_row1_below_rank_three_is_refused_by_name(args):
    """Row 1 needs the rank-3 generators; the refusal says so instead of
    naming an internal rank."""
    res = invoke(*args)
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "the row-1 complex needs r_max >= 3, got 2"


def test_row0_alone_runs_below_rank_three():
    res = invoke("ruled", "--points", "3", "--r-max", "2", "--rows", "0")
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["boundary_squares_to_zero"] is True


def test_empty_rows_are_allowed():
    res = invoke("ruled", "--points", "2", "--rows", "")
    assert res.exit_code == 0
    assert json.loads(res.output)["result"] == {}


def test_negative_points_reach_the_library():
    """`-2` is read as the value of --points, not as an option, so the
    library's own check refuses it."""
    res = invoke("ruled", "--points", "-2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == "points must be >= 0, got -2"


@pytest.mark.parametrize(
    "args",
    [
        ("ruled",),
        ("schur", "--target", "foo"),
        ("graph", "--degree", "3", "--thresh", "1"),
        ("homology", "missing.json"),
        ("homology", "."),
        (),
    ],
    ids=["missing-points", "bad-choice", "option-prefix", "missing-path", "directory-path",
         "no-command"],
)
def test_usage_errors_exit_2_with_nothing_on_stdout(tmp_path, monkeypatch, args):
    """A command line the parser refuses exits 2 before any command runs.
    An option prefix such as --thresh is refused, not expanded."""
    monkeypatch.chdir(tmp_path)
    res = invoke(*args)
    assert res.exit_code == 2
    assert res.output == ""


SRC = Path(syzygy.__file__).resolve().parent.parent


def _child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "SYZ_REGISTRY")}
    return {**env, "PYTHONPATH": str(SRC), **extra}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["-c", "import sys; sys.argv[0] = 'syz'; from syzygy.cli import main; sys.exit(main())"],
         "syz"),
        (["-m", "syzygy.cli"], "python -m syzygy.cli"),
    ],
    ids=["script", "module"],
)
def test_version_names_the_program(argv, name):
    """The console script (argv[0] `syz`, then `sys.exit(main())`) and the
    module run print their own name."""
    out = subprocess.run([sys.executable, *argv, "--version"], capture_output=True, text=True,
                         env=_child_env(), check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{name}, version {syzygy.__version__}\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_stdout_early_ends_without_a_traceback(unbuffered):
    """`conics --blowups 8` prints ~265 kB, more than a pipe holds, in one
    line.  When the reader takes 10 bytes and closes, the rest of the line
    fails with EPIPE, so the job exits 1 with nothing on stderr, whether
    stdout is buffered or not: unbuffered, a short write is followed by
    another for the bytes left, instead of being dropped."""
    env = _child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    proc = subprocess.Popen([sys.executable, "-m", "syzygy.cli", "conics", "--blowups", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        returncode = proc.wait(timeout=60)
    assert err == b""
    assert returncode == 1


def test_table_format():
    res = invoke("--format", "table", "lines", "--degree", "3")
    assert res.exit_code == 0
    assert "count = 27" in res.output


@pytest.mark.parametrize(
    "args, parameters",
    [
        (("lines", "--degree", "3"), {"degree": 3, "blowups": None}),
        (("conics", "--blowups", "2"), {"degree": None, "blowups": 2}),
        (("graph", "--degree", "3"), {"degree": 3, "blowups": None, "threshold": 1}),
        (("syzygy", "bl3"), {"target": "bl3", "check": True}),
        (("cubic",), {}),
        (("ruled", "--points", "2"), {"points": 2, "e_max": 3, "r_max": 4, "rows": "0,1"}),
        (("cremona",), {"points": 0, "e_max": 3, "r_max": 5, "rows": "0,1"}),
        (("schur", "--target", "quadric"), {"target": "quadric"}),
        (("homology", "cycle.json"), {"path": "cycle.json"}),
        (("five-term",), {"points": 4, "e_max": 3}),
    ],
    ids=["lines", "conics", "graph", "syzygy", "cubic", "ruled", "cremona", "schur", "homology",
         "five-term"],
)
def test_report_names_the_command_and_its_own_options(tmp_path, monkeypatch, args, parameters):
    """A report's command is the subcommand's name and its parameters are
    that command's options with their values, defaults included; the global
    options are not among them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle.json").write_text(json.dumps(build_cycle(3).to_json_dict()),
                                         encoding="utf-8")
    res = invoke("--format", "json", *args)
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["command"] == args[0]
    assert data["parameters"] == parameters


@pytest.mark.parametrize(
    "args, head",
    [
        (("ruled", "--points", "3"),
         ["== ruled ==", "  param points = 3", "  param e_max = 3", "  param r_max = 4",
          "  param rows = 0,1"]),
        (("cremona", "--rows", "0", "--e-max", "3"),
         ["== cremona ==", "  param points = 0", "  param e_max = 3", "  param r_max = 5",
          "  param rows = 0"]),
        (("graph", "--blowups", "3", "--threshold", "0"),
         ["== graph ==", "  param degree = None", "  param blowups = 3",
          "  param threshold = 0"]),
        (("syzygy", "bl3", "--no-check"),
         ["== syzygy ==", "  param target = bl3", "  param check = False"]),
    ],
    ids=["ruled", "cremona", "graph", "syzygy"],
)
def test_table_header_lists_the_options_in_parser_order(args, head):
    """The table opens with the command's name, then one param line per
    option in the order the parser declares them, whatever order the
    command line gives them in; it closes with the wall-clock time."""
    res = invoke("--format", "table", *args)
    assert res.exit_code == 0
    out = res.output.splitlines()
    assert out[:len(head)] == head
    assert not out[len(head)].startswith("  param ")
    assert re.fullmatch(r"  \(\d+\.\d{3}s\)", out[-1])


SHIPPED_REGISTRY = Path(syzygy.__file__).parent / "data" / "registry.json"


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        '{"entries": [{"group": "X", "degree": 0, "value": {"free": 1}}]}',
        '[{"group": "X", "degree": 0, "value": {"free": 1}, "provenance": "p"}]',
    ],
    ids=["missing", "not-json", "no-provenance", "top-level-list"],
)
def test_bad_registry_is_reported_as_the_error_json(tmp_path, monkeypatch, text):
    """Each file used to end every command in a traceback, because the
    registry was loaded outside the command's error handler."""
    path = tmp_path / "registry.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    by_option = invoke("--registry", str(path), "schur", "--target", "pgl2")
    monkeypatch.setenv("SYZ_REGISTRY", str(path))
    for res in (by_option, invoke("schur", "--target", "pgl2")):
        assert res.exit_code == 1
        assert "error" in json.loads(res.output)


def test_registry_option_wins_over_the_variable(tmp_path, monkeypatch):
    """SYZ_REGISTRY is read only when --registry is absent, and an empty
    SYZ_REGISTRY names no file."""
    path = tmp_path / "copy.json"
    shutil.copyfile(SHIPPED_REGISTRY, path)
    default = invoke("schur", "--target", "pgl2")
    monkeypatch.setenv("SYZ_REGISTRY", str(tmp_path / "missing.json"))
    assert invoke("--registry", str(path), "schur", "--target", "pgl2") == default
    monkeypatch.setenv("SYZ_REGISTRY", "")
    assert invoke("schur", "--target", "pgl2") == default
    assert default.exit_code == 0


def test_registry_without_the_entry_names_it_in_the_error(tmp_path):
    """The lookup raises KeyError; its message is printed, not its repr."""
    path = tmp_path / "registry.json"
    path.write_text('{"entries": []}', encoding="utf-8")
    res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == (
        "registry has no entry for group 'PGL(2,C)' in degree 1"
    )


@pytest.mark.parametrize(
    "entry",
    [
        '"group": "SL(2,C)", "degree": 2, "value": {"free": "a"}',
        '"group": "SL(2,C)", "degree": 2, "value": {"free": true}',
        '"group": "SL(2,C)", "degree": 2, "value": {"cyclic": 2}',
        '"group": "SL(2,C)", "degree": 2, "value": {"cyclic": ["2"]}',
        '"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [0]}',
        '"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [-2]}',
        '"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [1]}',
        '"group": "SL(2,C)", "degree": 2, "value": {"atoms": 5}',
        '"group": "SL(2,C)", "degree": 2, "value": {"atoms": "K2(C)"}',
        '"group": "SL(2,C)", "degree": 2, "value": {"infinite": [["Z"]]}',
        '"group": "SL(2,C)", "degree": 2, "value": {"infinite": [["Z", {"cyclic": [2.5]}]]}',
        '"group": "SL(2,C)", "degree": 2, "value": [1]',
        '"group": ["SL(2,C)"], "degree": 2, "value": {}',
        '"group": "SL(2,C)", "degree": [2], "value": {}',
        '"group": "SL(2,C)", "degree": 2.5, "value": {}',
        '"degree": 2, "value": {}',
    ],
)
def test_malformed_registry_entry_is_reported_as_the_error_json(tmp_path, entry):
    """The load refuses a value of the wrong shape, a group that is not a
    string and a degree that is not an integer, naming the entry.  These used
    to end in a TypeError traceback, a bare KeyError or a truncated degree;
    a cyclic order below 2 used to be dropped, so Z/0 or Z/1 read as 0."""
    path = tmp_path / "registry.json"
    path.write_text('{"entries": [{%s, "provenance": "p"}]}' % entry, encoding="utf-8")
    res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"].startswith("registry entry ")


def test_commands_without_the_registry_ignore_a_bad_one(tmp_path, monkeypatch):
    monkeypatch.setenv("SYZ_REGISTRY", str(tmp_path / "missing.json"))
    res = invoke("lines", "--degree", "3")
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["count"] == 27


def test_registry_copy_prints_the_default_bytes(tmp_path, monkeypatch):
    path = tmp_path / "copy.json"
    shutil.copyfile(SHIPPED_REGISTRY, path)
    for target in ("pgl2", "quadric", "k2prime"):
        default = invoke("schur", "--target", target)
        by_option = invoke("--registry", str(path), "schur", "--target", target)
        with monkeypatch.context() as env:
            env.setenv("SYZ_REGISTRY", str(path))
            by_variable = invoke("schur", "--target", target)
        assert default.exit_code == 0
        assert by_option.output == by_variable.output == default.output


@pytest.mark.parametrize(
    "text",
    [
        '{"cells": "nope"}',
        '{"cells": [{"id": "a", "dim": "x"}]}',
        '{"cells": [{"id": "a"}]}',
        '{"cells": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1}], "boundary": {"e": [["a"]]}}',
        '{"cells": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1}], "boundary": {"e": [["zz", 1]]}}',
        '{"cells": [{"id": "a", "dim": 0}], "boundary": {"a": [["a", 1]]}}',
        '{"cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}, {"id": "e", "dim": 1},'
        ' {"id": "f", "dim": 2}], "boundary": {"e": [["b", 1], ["a", -1]], "f": [["a", 1]]}}',
        '{"cells": [{"id": 1, "dim": 0}, {"id": "1", "dim": 0}, {"id": "e", "dim": 1}],'
        ' "boundary": {"e": [[1, 1], ["1", -1]]}}',
    ],
    ids=["cells", "dim-string", "dim-missing", "face-no-sign", "face-unknown", "self-face",
         "face-too-low", "same-id-text"],
)
def test_homology_cw_file_rejects_malformed_cells(tmp_path, text):
    """Each file used to end in a traceback, an error that named only a
    key, or homology of a complex the file does not describe; the error now
    names the cell."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert "cell" in error
