import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import syzygy
from syzygy import complexes, smith, surfaces
from syzygy.cli import _dumps, default_registry
from syzygy.complexes import RegularCWComplex, ValidationReport
from syzygy.formal import ChainHomology
from syzygy.spectral import KnownHomologyRegistry
from syzygy.surfaces import GeneratorUniverse, row0_complex, validated_sphere_bl3

from helpers import (
    build_cycle,
    build_octahedron,
    chain_complex_json,
    cw_complex_json,
    invoke,
    labelled,
    registry_items,
)


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


@pytest.mark.parametrize(
    "command, option, value, error",
    [
        ("lines", "--degree", "10", "--degree 10 out of range [1, 9]"),
        ("conics", "--degree", "0", "--degree 0 out of range [1, 9]"),
        ("graph", "--degree", "-3", "--degree -3 out of range [1, 9]"),
        ("lines", "--blowups", "9", "--blowups 9 out of range [0, 8]"),
        ("graph", "--blowups", "-1", "--blowups -1 out of range [0, 8]"),
    ],
    ids=["lines-degree-10", "conics-degree-0", "graph-degree-3", "lines-blowups-9",
         "graph-blowups-1"],
)
def test_lattice_size_out_of_range_names_the_option_given(command, option, value, error):
    """A degree out of range used to be reported as the blowup count 9 - d
    (`--degree 10` as "blowup count -1 out of range [0, 8]"); each option
    is now named with its own range.  The report is json.dumps's text of
    the error JSON, byte for byte."""
    res = invoke(command, option, value)
    assert res.exit_code == 1
    expected = {"schema_version": 1, "command": command, "error": error}
    assert res.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner) | st.lists(st.integers())),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"": [], "a": {}, "b": (), "c": [[], {}, ()]})
@example(["\x00\x1f\"\\/\u00e9\u2028\U0001f600", -0.0, 1e300, 5e-324, True, False, None])
@example({"k\u00e9\n": [2**100, -(2**100), 0, -1], "k": [1, True, 2]})
def test_report_writer_prints_json_dumps_bytes(value):
    """The report writer prints exactly what json.dumps(value,
    sort_keys=True, indent=2) does, for every JSON value built from None,
    bools, ints, finite floats, text, lists, tuples and text-keyed dicts."""
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_error_report_escapes_as_json_dumps_does(tmp_path):
    """An error text with quotes, a tab and non-ASCII characters (here a
    registry path that does not exist) is written as json.dumps writes it."""
    path = tmp_path / 'r\u00e9"g\tistry\u2603.json'
    res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert repr(str(path)) in data["error"]
    assert res.output == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert "\\u00e9" in res.output and "\\u2603" in res.output


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
        lambda self: ValidationReport(["broken"], []),
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
    path.write_text(json.dumps(cw_complex_json(build_octahedron())), encoding="utf-8")
    data = json.loads(invoke("homology", str(path)).output)
    assert data["result"]["homology"] == ["Z", "0", "Z"]


def test_homology_of_a_labelled_cw_file_is_that_of_the_file_without_labels(tmp_path,
                                                                          monkeypatch):
    """Both files are cx.json, so the printed path, and all else, agree."""
    plain = cw_complex_json(validated_sphere_bl3()[0])
    outputs = []
    for name, data in (("plain", plain), ("labelled", labelled(plain))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "cx.json").write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.chdir(tmp_path / name)
        res = invoke("homology", "cx.json")
        assert res.exit_code == 0
        outputs.append(res.output)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["result"]["homology"] == ["Z", "0", "Z"]


def test_homology_file_of_the_sphere(tmp_path):
    """The sphere's file has tuple cell ids, which JSON stores as lists."""
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(cw_complex_json(validated_sphere_bl3()[0])), encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["homology"] == ["Z", "0", "Z"]


def test_homology_file_chain(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(
        json.dumps(chain_complex_json(build_cycle(6).chain_complex())), encoding="utf-8"
    )
    data = json.loads(invoke("homology", str(path)).output)
    assert data["result"]["homology"] == ["Z", "Z"]


def test_homology_file_of_large_coprime_orders_is_prompt(tmp_path):
    """The invariant-factor merge used to factor each order by trial
    division, so this file took about 20 s, growing with the smaller prime."""
    path = tmp_path / "primes.json"
    path.write_text('{"ranks": [3, 3], "boundaries": '
                    '[[[2, 0, 0], [0, 100000007, 0], [0, 2, 100000037]]]}', encoding="utf-8")
    start = time.monotonic()
    res = invoke("homology", str(path))
    assert time.monotonic() - start < 2.0
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["homology"] == ["Z/20000008800000518", "0"]


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
    "cyclic, key",
    [
        ('{"0": {"1": 2, " 1": 3}}', " 1"),
        ('{"0": {"+1": 3}}', "+1"),
        ('{"0": {"01": 3}}', "01"),
        ('{"00": {"1": 3}}', "00"),
        ('{"0": {"x": 2}}', "x"),
    ],
    ids=["space", "plus", "leading-zero", "degree", "letter"],
)
def test_homology_file_refuses_aliased_cyclic_keys(tmp_path, cyclic, key):
    """Keys were read with int(), so " 1", "+1" and "01" also named
    generator 1 and the last of two aliases won: {"1": 2, " 1": 3} read as
    Z (+) Z/3.  Only canonical decimal keys are read, and the error names
    the key; "x" used to report int()'s own message."""
    path = tmp_path / "bad.json"
    path.write_text('{"ranks": [2], "boundaries": [], "cyclic": %s}' % cyclic,
                    encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == (
        f"cyclic key {key!r} is not a canonical decimal integer"
    )


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"ranks": [1, 1], "boundaries": [[5]]}', "boundaries"),
        ('{"ranks": [1], "boundaries": [], "cyclic": {"0": [2]}}', "cyclic"),
        ('{"ranks": 2, "boundaries": []}', "ranks"),
        ('{"ranks": [1, 1], "boundaries": {"1": [[0]]}}', "boundaries"),
        ('{"ranks": [1, 1], "boundaries": [5]}', "boundaries"),
        ('{"ranks": [-1]}', "ranks"),
        ('{"ranks": [1], "boundaries": [], "cyclic": [2]}', "cyclic"),
        ('[{"ranks": [1]}]', "ranks"),
        ('{"ranks": [2], "boundaries": [], "cyclic": {"0": {"1": 2, "1": 3}}}', "'1'"),
        ('{"ranks": [2], "boundaries": [], "cylic": {"0": {"1": 2}}}', "'cylic'"),
        ('{"ranks": [2], "boundaries": [], "cyclic": []}', "'cyclic'"),
        ('{"ranks": [2], "boundaries": [], "cyclic": false}', "'cyclic'"),
        ('{"ranks": [1, 1], "boundaries": [[[0]]], "boundaries": [[[1]]]}', "'boundaries'"),
        ('{"cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}, {"id": "e", "dim": 1}],'
         ' "boundery": {"e": [["b", 1], ["a", -1]]}}', "'boundery'"),
    ],
    ids=["row", "cyclic-degree", "ranks", "boundaries", "matrix", "negative-rank",
         "cyclic", "top-level", "repeated-cyclic-key", "misspelled-cyclic", "cyclic-list",
         "cyclic-false", "repeated-boundaries", "misspelled-boundary"],
)
def test_homology_file_rejects_wrong_structure(tmp_path, text, key):
    """A file of the wrong shape exits 1 with the error JSON naming the key,
    not a traceback.  The last six used to print a wrong answer and exit 0:
    the last copy of a repeated key won (Z (+) Z/3; 0, 0), an unknown key
    was ignored (Z^2; Z^2, Z) and a false or empty cyclic read as none (Z^2)."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert key in json.loads(res.output)["error"]


def test_ruled_job_eliminates_each_degree_once_on_fewer_rows(monkeypatch):
    """A ruled job reads row 0 at degrees 1..3, the sweep's steps at degrees
    0..3, and the d o d check; each degree's lift is eliminated once, and
    from degree 1 on without the rows that the pivots one degree down
    settled, so on fewer rows than its boundary has.  Row 1's sweeps are
    steps too; only row 0's lifts are counted here."""
    steps = []
    step = complexes.homology_step

    def spy(lifted, rank, previous):
        steps.append((lifted, previous[1]))
        return step(lifted, rank, previous)

    monkeypatch.setattr(complexes, "homology_step", spy)
    u = GeneratorUniverse.ruled(5, 4, r_max=5)
    surfaces.row0_complex.cache_clear()  # a complex read by an earlier test keeps its sweep
    res = invoke("ruled", "--points", "5", "--e-max", "4", "--r-max", "5")
    assert res.exit_code == 0
    cc, _ = row0_complex(u)
    row0_lifts = [id(lifted) for lifted in cc._lifts.values()]
    steps = [(lifted, settled) for lifted, settled in steps if id(lifted) in row0_lifts]
    assert len(steps) == 4
    assert all(lifted is cc._lifts[k] for k, (lifted, _) in enumerate(steps))
    for k, (lifted, settled) in enumerate(steps[1:], start=1):
        rows = {i for col in lifted for i in col}
        assert len(rows - set(settled)) < len(rows) <= cc.ranks[k], k


@pytest.mark.parametrize(
    "args, bound",
    [
        (["ruled", "--points", "6", "--e-max", "5", "--r-max", "5"], 6),
        (["five-term", "--points", "6", "--e-max", "5"], 6),
        (["cremona", "--e-max", "60"], 11),
        (["schur", "--target", "quadric"], 2),
        (["schur", "--target", "k2prime"], 8),
        (["syzygy", "bl3", "--check"], 11),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_each_job_reads_each_complex_once(args, bound, monkeypatch):
    """No memo stands between a caller and the elimination, so each
    elimination of a non-empty matrix is counted.  Row 0 is one sweep, each
    row of formal groups one sweep per family, and each CW complex one
    sweep, whose chain complex the d o d check and the homology reads
    share.  Where a bound exceeds the number of distinct matrices, distinct
    computations read equal ones: twisted blocks with the same action,
    equal swap antidiagonals, or links with equal matrices."""
    eliminated = []
    eliminate = smith._eliminate

    def counting(a, *settled):
        if any(a):
            eliminated.append(len(a))
        return eliminate(a, *settled)

    monkeypatch.setattr(smith, "_eliminate", counting)
    surfaces.row0_complex.cache_clear()  # a complex read by an earlier test keeps its sweep
    assert invoke(*args).exit_code == 0
    assert len(eliminated) <= bound


def test_ruled_forms_two_places_of_row_1(monkeypatch):
    """`ruled` prints E_{0,1} and E_{1,1} only, so the third place of row 1
    is never formed."""
    places = []
    at = ChainHomology.at
    monkeypatch.setattr(ChainHomology, "at", lambda chain, p: places.append(p) or at(chain, p))
    assert invoke("ruled", "--points", "4").exit_code == 0
    assert places == [0, 1]


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
        (("cremona", "--points", "-2"), "points must be >= 0, got -2"),
        (("ruled", "--points", "3", "--rows", "7"), "--rows takes rows 0 and 1 only, got '7'"),
        (("ruled", "--points", "3", "--rows", "0,5"),
         "--rows takes rows 0 and 1 only, got '0,5'"),
        (("cremona", "--rows", "2"), "--rows takes rows 0 and 1 only, got '2'"),
        (("cremona", "--rows", "0,5"), "--rows takes rows 0 and 1 only, got '0,5'"),
        (("ruled", "--points", "3", "--rows", "a"), "--rows takes rows 0 and 1 only, got 'a'"),
    ],
    ids=["ruled-points", "five-term-points", "cremona-points", "ruled-rows", "ruled-extra-row",
         "cremona-rows", "cremona-extra-row", "ruled-row-not-a-number"],
)
def test_impossible_parameters_are_refused(args, error):
    """Each request used to print a result for fewer labels or rows than
    asked for and exit 0 (cremona printed its result for a negative label
    count with a warning); a row that is not a number used to be refused in
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
    "args, lines",
    [
        (("conics", "--blowups", "2"),
         ["== conics ==", "  param degree = None", "  param blowups = 2",
          "    count = 2", "    classes:", "      [1, -1, 0]", "      [1, 0, -1]",
          "  note: exhaustive box search over the 2-point lattice"]),
        (("graph", "--degree", "7"),
         ["== graph ==", "  param degree = 7", "  param blowups = None", "  param threshold = 1",
          "    vertices:", "      [0, 0, 1]", "      [0, 1, 0]", "      [1, -1, -1]",
          "    edges:", "      [0, 2]", "      [1, 2]",
          "    degree_sequence = [1, 1, 2]", "    single_cycle = False"]),
    ],
    ids=["conics", "graph"],
)
def test_table_prints_each_class_and_edge_on_one_line(args, lines):
    """A list of scalars inside a list prints on one line, as a dict's flat
    list does; the integers of all classes (or edges) used to print one per
    line, so nothing showed where one ended and the next began."""
    res = invoke("--format", "table", *args)
    assert res.exit_code == 0
    out = res.output.splitlines()
    assert out[:-1] == lines
    assert re.fullmatch(r"  \(\d+\.\d{3}s\)", out[-1])


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
    (tmp_path / "cycle.json").write_text(json.dumps(cw_complex_json(build_cycle(3))),
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


def _decode_error(data):
    """The decoder's own message for bytes that do not decode or parse."""
    with pytest.raises(ValueError) as info:
        json.loads(data.decode("utf-8"))
    return str(info.value)


@pytest.mark.parametrize("source, data, reason", [
    ("option", SHIPPED_REGISTRY.read_bytes()[:300], None),
    ("variable", SHIPPED_REGISTRY.read_bytes()[:300], None),
    ("homology", b'{"ranks": [2, 1], "boundaries": [[[1, 0', None),
    ("homology", b'{"ranks": [1], "boundaries": [], "note": "\xff"}', None),
    ("option", b'{"entries": [], "entries": []}', "key 'entries' is repeated in one object"),
    ("homology", b'{"ranks": [1], "boundaries": [], "ranks": [1]}',
     "key 'ranks' is repeated in one object"),
], ids=["option", "variable", "homology", "homology-not-utf8", "option-repeated-key",
        "homology-repeated-key"])
def test_unreadable_json_file_is_named_in_the_error(tmp_path, monkeypatch, source, data, reason):
    """A file that does not parse, or is not UTF-8, used to be reported by
    the decoder's message alone ("Expecting value: line 1 column 14 (char
    13)"), while every other refusal of the file named it.  A key repeated
    in one object, which json itself accepts, was later reported by the
    reader's reason alone."""
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    if source == "option":
        res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    elif source == "variable":
        monkeypatch.setenv("SYZ_REGISTRY", str(path))
        res = invoke("schur", "--target", "pgl2")
    else:
        res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == (
        f"{path} does not parse as JSON: {reason or _decode_error(data)}")


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
    "entry, named",
    [
        ('"group": "SL(2,C)", "degree": 2, "value": {"free": "a"}', "free"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"free": true}', "free"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"cyclic": 2}', "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"cyclic": ["2"]}', "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [0]}', "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [-2]}', "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [1]}', "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"atoms": 5}', "atoms"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"atoms": "K2(C)"}', "atoms"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"infinite": [["Z"]]}', "infinite"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"infinite": [["Z", {"cyclic": [2.5]}]]}',
         "cyclic"),
        ('"group": "SL(2,C)", "degree": 2, "value": [1]', "value"),
        ('"group": ["SL(2,C)"], "degree": 2, "value": {}', "group"),
        ('"group": "SL(2,C)", "degree": [2], "value": {}', "degree"),
        ('"group": "SL(2,C)", "degree": 2.5, "value": {}', "degree"),
        ('"degree": 2, "value": {}', "group"),
        ('"group": "SL(2,C)", "degree": 2, "value": {"atoms": ["nope"]}', "nope"),
        ('"group": "SL(2,C)", "degree": 2, "vaule": {"atoms": ["K2(C)"]}', "vaule"),
    ],
)
def test_malformed_registry_entry_is_reported_as_the_error_json(tmp_path, entry, named):
    """The load refuses a value of the wrong shape, a group that is not a
    string and a degree that is not an integer, naming the entry and the key
    (or the unknown atom).  These used to end in a TypeError traceback, a
    bare KeyError or a truncated degree; a cyclic order below 2 used to be
    dropped, so Z/0 or Z/1 read as 0.  A misspelled "value" used to read as
    the zero group."""
    path = tmp_path / "registry.json"
    path.write_text('{"entries": [{%s, "provenance": "p"}]}' % entry, encoding="utf-8")
    res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert error.startswith("registry entry ")
    assert repr(named) in error


def test_repeated_registry_entry_is_refused(tmp_path):
    """A second entry for one (group, degree) used to replace the first, so
    an SL(2,C) degree-2 entry of Z/5 appended to the shipped registry made
    H2(PGL(2,C)) read Z/10."""
    data = json.loads(SHIPPED_REGISTRY.read_text(encoding="utf-8"))
    data["entries"].append({"group": "SL(2,C)", "degree": 2, "value": {"cyclic": [5]},
                            "provenance": "p"})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    res = invoke("--registry", str(path), "schur", "--target", "pgl2")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == (
        "registry entry 'SL(2,C)' degree 2: repeats an earlier entry"
    )


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


@pytest.mark.parametrize("group", ["PGL(2,C)", "Aut(P1xP1)"])
def test_registry_entry_for_a_derived_group_goes_unread(tmp_path, group):
    """The derivations used to memoize their H2 values in the registry and
    skip the work when an entry existed.  With a PGL(2,C) degree-2 entry of
    Z/5, `quadric` printed Z/5 and `k2prime` Z/10 while `pgl2` overwrote the
    entry; with an Aut(P1xP1) one, `k2prime` exited 1 for want of an
    Aut+(P1xP1) entry."""
    data = json.loads(SHIPPED_REGISTRY.read_text(encoding="utf-8"))
    data["entries"].append({"group": group, "degree": 2, "value": {"cyclic": [5]},
                            "provenance": "p"})
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for target in ("pgl2", "quadric", "k2prime"):
        res = invoke("--registry", str(path), "schur", "--target", target)
        assert res.exit_code == 0
        assert res.output == invoke("schur", "--target", target).output


def test_commands_leave_the_default_registry_as_loaded():
    """`schur --target k2prime` used to write H2 of PGL(2,C), Aut(P1xP1) and
    Aut+(P1xP1) into the process's shared registry."""
    for args in (("schur", "--target", "k2prime"), ("cremona",)):
        assert invoke(*args).exit_code == 0
    assert registry_items(default_registry()) == registry_items(KnownHomologyRegistry.load())


def _registry_file(tmp_path, edit):
    """A copy of the shipped registry whose entries are edit(entries), as a path."""
    data = json.loads(SHIPPED_REGISTRY.read_text(encoding="utf-8"))
    data["entries"] = edit(data["entries"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("group, commands", [
    ("Aut(P2)", [("cremona",)]),
    ("Autf(P1xP1/P1)", [("ruled", "--points", "4"), ("five-term",)]),
])
def test_row1_reads_every_entry_group_from_the_registry(tmp_path, group, commands):
    """Row 1 used to write the plane's and the quadric's entries in as zero
    groups, so a registry without them still exited 0."""
    path = _registry_file(tmp_path, lambda entries: [e for e in entries if e["group"] != group])
    for args in commands:
        res = invoke("--registry", path, *args)
        assert res.exit_code == 1
        assert json.loads(res.output)["error"] == (
            f"registry has no entry for group {group!r} in degree 1")


def _e02_registry(tmp_path, cyclic):
    """The shipped registry with the cyclic part of E_{0,2}(Cr2) replaced."""
    def edit(entries):
        [e02] = [e for e in entries if e["group"] == "E_{0,2}(Cr2)"]
        e02["value"]["cyclic"] = cyclic
        return entries
    return _registry_file(tmp_path, edit)


@pytest.mark.parametrize("cyclic, middles", [
    ([9], ["Z/9 (+) ", "Z/3 (+) "]),
    ([6], ["Z/6 (+) ", "Z/2 (+) "]),
    ([3], ["Z/3 (+) ", ""]),
])
def test_cremona_candidates_divide_by_the_image(tmp_path, cyclic, middles):
    """The 3-part of E_{2,1}_bound is Z/3, so the second candidate divides
    E_{0,2}'s 3-divisible factor by 3.  It used to drop the factor, so with
    Z/9 or Z/6 the second candidate read K2(C) (+) (+)_{Z}(Z/2).  With the
    shipped Z/3 the output is unchanged."""
    res = invoke("--registry", _e02_registry(tmp_path, cyclic), "cremona")
    assert res.exit_code == 0
    assert json.loads(res.output)["result"]["H2_candidates"] == [
        f"K2(C) (+) {m}(+)_{{Z}}(Z/2)" for m in middles]
    if cyclic == [3]:
        assert res.output == invoke("cremona").output


def test_cremona_candidates_refuse_two_factors_divisible_by_3(tmp_path):
    """With Z/3 + Z/3 the quotient by a Z/3 image is not determined by the
    groups alone; the candidates used to drop both factors."""
    res = invoke("--registry", _e02_registry(tmp_path, [3, 3]), "cremona")
    assert res.exit_code == 1
    assert json.loads(res.output)["error"].startswith("E_{0,2} = ")


def _entry_set_to(group, degree, cyclic):
    """A registry edit giving the (group, degree) entry the value Z/cyclic."""
    def edit(entries):
        [entry] = [e for e in entries if (e["group"], e["degree"]) == (group, degree)]
        entry["value"] = {"cyclic": [cyclic]}
        return entries
    return edit


@pytest.mark.parametrize("group, degree, cyclic, targets, error", [
    ("Aut+(P1xP1)", 1, 2, ["k2prime"], "need the degree-1 comparison map Z/2 -> Z/2"),
    ("SL(2,C)", 1, 2, ["pgl2", "quadric", "k2prime"],
     "surjectivity onto E_{0,1} needs H1 = E_{1,0} = 0"),
    ("SL(2,C)", 2, 4, ["pgl2", "quadric", "k2prime"],
     "extension not unique: ['Z/2 (+) Z/4', 'Z/8']"),
], ids=["comparison-map", "surjectivity", "extension"])
def test_schur_derivations_refuse_a_registry_they_cannot_solve(tmp_path, group, degree, cyclic,
                                                               targets, error):
    """Each refusal of the Schur derivations reaches the error JSON.  The
    quadric and its twisted block derive H2(PGL(2,C)) themselves, so they
    refuse what that derivation refuses; only the twisted block reads the
    degree-1 entry of Aut+(P1xP1)."""
    path = _registry_file(tmp_path, _entry_set_to(group, degree, cyclic))
    for target in targets:
        res = invoke("--registry", path, "schur", "--target", target)
        assert res.exit_code == 1, target
        assert json.loads(res.output)["error"] == error, target


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
        '{"cells": [{"id": "True", "dim": 0}, {"id": "e", "dim": 1}], "boundary": {"e": [[true, 1]]}}',
    ],
    ids=["cells", "dim-string", "dim-missing", "face-no-sign", "face-unknown", "self-face",
         "face-too-low", "same-id-text", "face-boolean"],
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


@pytest.mark.parametrize(
    "cells, message",
    [
        ('[{"id": "a", "dim": 0}, {"id": "a", "dim": 1}]', "duplicate cell id 'a'"),
        ('[{"id": 1, "dim": 0}, {"id": "1", "dim": 0}]', "cells 1 and '1' share the id text '1'"),
    ],
    ids=["repeated-id", "same-id-text"],
)
def test_homology_cw_file_names_a_repeated_id_and_a_shared_id_text(tmp_path, cells, message):
    """A complex maps each cell id to one dimension, and a boundary names a
    cell by the text of its id, so the reader refuses both files."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"cells": {cells}}}', encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == message


@pytest.mark.parametrize(
    "cells, shown",
    [
        ('[{"id": null, "dim": 0}]', "None"),
        ('[{"id": true, "dim": 0}]', "True"),
        ('[{"id": ["a", [true, null]], "dim": 0}]', "['a', [True, None]]"),
        ('[{"id": true, "dim": 0}, {"id": 1, "dim": 0}]', "True"),
    ],
    ids=["null", "boolean", "nested", "boolean-and-one"],
)
def test_homology_cw_file_refuses_null_and_boolean_ids(tmp_path, cells, shown):
    """A null or boolean id, at any depth, used to load; an id true beside
    an id 1 was refused as a duplicate of 1, since True == 1 in Python."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"cells": {cells}}}', encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == f"cell id {shown} is not a string, number or list"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_homology_cw_file_refuses_non_json_constants(tmp_path, token):
    """Python's json reads NaN, Infinity and -Infinity, which JSON has no
    value for: an id NaN was refused as sharing its id text with itself
    (NaN != NaN), and an id Infinity loaded.  The refusal names the file,
    as every other refusal of text that does not parse does."""
    path = tmp_path / "bad.json"
    path.write_text(f'{{"cells": [{{"id": {token}, "dim": 0}}]}}', encoding="utf-8")
    res = invoke("homology", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["error"] == (
        f"{path} does not parse as JSON: {token} is not a JSON value")


@pytest.mark.parametrize(
    "depth, message",
    [(900, "a cell id nests lists more than 32 deep"),
     (100_000, "nests arrays or objects too deeply to read")],
    ids=["id-check", "decoder"],
)
def test_homology_cw_file_refuses_deep_nesting(tmp_path, depth, message):
    """A one-cell file whose id is a list nested 900 deep loaded, then ended
    in a RecursionError traceback in the id check; nested 100,000 deep, it
    ended in one in the decoder.  Both run as processes, so the depth of the
    test's own stack plays no part."""
    path = tmp_path / "deep.json"
    path.write_text(f'{{"cells": [{{"id": {"[" * depth}{"]" * depth}, "dim": 0}}]}}',
                    encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "syzygy.cli", "homology", str(path)],
                         capture_output=True, text=True, env=_child_env(), check=False)
    assert out.returncode == 1
    assert out.stderr == ""
    assert json.loads(out.stdout)["error"].endswith(message)
