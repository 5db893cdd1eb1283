"""The JSON inputs, read by one strict reader: the three shipped tables (the
known-homology registry, the atom table and the orientability table) and the
two complex file formats of `syz homology`.

The shipped tables declare the types of their values, so a rewritten copy
with a string for a bool, an unknown torsion rule, an atom that declares
its divisibility or a registered map without its provenance is refused.
Starting from the shipped tables and from test fixtures, a fuzzer rewrites
each input: a rewrite that keeps the meaning (key order, whitespace,
indentation, an equal value written again: escaped ASCII characters in a
string, -0 for 0) must print byte-identical output, and one that breaks it
(a repeated key, a misspelled key, a value of another JSON type, a dropped
required key) must exit 1 with the error JSON naming the key.  The library
reads a rewritten shipped table from a copy of the data directory, with
every cache of what it read cleared."""

import contextlib
import copy
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import syzygy
from syzygy import formal, spectral, surfaces
from syzygy.complexes import IntegerChainComplex

from helpers import build_cycle, chain_complex_json, columns, cw_complex_json, invoke

SHIPPED = Path(syzygy.__file__).parent / "data"
TABLES = ("registry.json", "atoms.json", "orientability.json")
# each input as first written, and the commands whose output it decides;
# a refused input must fail the first
DOCS = {name: json.loads((SHIPPED / name).read_text(encoding="utf-8")) for name in TABLES}
DOCS["chain"] = chain_complex_json(IntegerChainComplex([1, 1], [[], columns([[2]])], {0: {0: 4}}))
DOCS["cw"] = cw_complex_json(build_cycle(3))
COMMANDS = {
    "registry.json": (("schur", "--target", "pgl2"), ("five-term", "--points", "2")),
    "atoms.json": (("schur", "--target", "pgl2"), ("cremona",)),
    "orientability.json": (("ruled", "--points", "3"), ("cremona",)),
    "chain": (("homology", "complex.json"),),
    "cw": (("homology", "complex.json"),),
}
# the keys each input requires wherever they appear in it
REQUIRED = {
    "registry.json": {"entries", "group", "degree", "value", "provenance"},
    "atoms.json": {"atoms", "registered_maps", "name", "torsion_rule", "provenance", "from",
                   "to"},
    "orientability.json": {"orientable", "provenance"},
    "chain": {"ranks"},
    "cw": {"cells", "id", "dim"},
}
CACHED = (formal._load_atoms, spectral.default_registry, surfaces.orientability_table,
          surfaces.is_orientable, surfaces.row0_complex)


def _clear_caches():
    for cached in CACHED:
        cached.cache_clear()


@contextlib.contextmanager
def reading(name: str, text: str):
    """The library reading ``text`` as the input ``name``: a shipped table in
    a copy of the data directory, or complex.json in the working directory."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for table in TABLES:
            shipped = (SHIPPED / table).read_text(encoding="utf-8")
            Path(tmp, table).write_text(text if table == name else shipped, encoding="utf-8")
        if name not in TABLES:
            Path(tmp, "complex.json").write_text(text, encoding="utf-8")
        for module in (formal, spectral, surfaces):
            mp.setattr(module, "DATA_DIR", Path(tmp))
        mp.chdir(tmp)
        _clear_caches()
        try:
            yield
        finally:
            _clear_caches()


def outputs(name: str, text: str, commands=None) -> list:
    with reading(name, text):
        return [invoke(*args) for args in commands or COMMANDS[name]]


BASELINE = {}


def baseline(name: str) -> list:
    if name not in BASELINE:
        BASELINE[name] = outputs(name, json.dumps(DOCS[name]))
        assert all(res.exit_code == 0 for res in BASELINE[name])
    return BASELINE[name]


@pytest.mark.parametrize(
    "name, edit, key",
    [
        ("orientability.json", lambda t: t["ruled/hirzebruch"].update(orientable="false"),
         "orientable"),
        ("atoms.json", lambda t: t["atoms"][0].update(divisible=True), "divisible"),
        ("atoms.json", lambda t: t["atoms"][0].update(torsion_rule="sometimes"), "torsion_rule"),
        ("atoms.json", lambda t: t["registered_maps"][0].update(kind="surjection"), "kind"),
        ("atoms.json", lambda t: t["registered_maps"][0].update(provenance=""), "provenance"),
        ("atoms.json", lambda t: t["atoms"].append(dict(t["atoms"][0], torsion_rule="none")),
         "C*"),
    ],
    ids=["orientable-string", "atom-with-divisible", "torsion-rule", "map-with-kind",
         "map-without-provenance", "repeated-atom"],
)
def test_shipped_tables_declare_their_value_types(name, edit, key):
    """The string "false" used to read as orientable, and a map's provenance
    went unread.  Every atom is divisible and a map's kind was never read, so
    a key declaring either is unknown.  A second atom of one name used to
    replace the first: a second C* declaring no torsion made `cremona` print
    E_{2,1}_bound Z/2 instead of Z/2 (+) Z/6 and drop an H2 candidate."""
    table = copy.deepcopy(DOCS[name])
    edit(table)
    load = surfaces.orientability_table if name == "orientability.json" else formal.atom_registry
    with reading(name, json.dumps(table)), pytest.raises(ValueError, match=re.escape(repr(key))):
        load()


def test_registry_refuses_a_negative_degree(tmp_path):
    """A degree below 0 used to load, and get(group, -1) then returned a group."""
    table = copy.deepcopy(DOCS["registry.json"])
    table["entries"][0]["degree"] = -1
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    what = f"registry entry {table['entries'][0]['group']!r} degree -1"
    message = f"{what}: 'degree' holds -1, not an integer >= 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        spectral.KnownHomologyRegistry.load(path)


@pytest.mark.parametrize("key", ["ruled/hirzebruchx", "ruled/blowup/k=1 ", "ruled/blowup/k=0",
                                 "cremona/dp7/k=01", "ruled/blowup/k=", "ruled/blowup/k=1/k=2",
                                 "ruled/plane/x", "plane/ruled", "ruled"])
def test_orientability_table_refuses_an_undeclared_key(key):
    """A row key names a base, a family and optionally k >= 1.  A misspelled
    row used to be read as an extra row, and the lookup of the row it
    stood for failed later with a KeyError naming that row."""
    table = dict(DOCS["orientability.json"], **{key: DOCS["orientability.json"]["ruled/hirzebruch"]})
    with reading("orientability.json", json.dumps(table)), \
            pytest.raises(ValueError, match=re.escape(repr(key))):
        surfaces.orientability_table()


def _shuffled(value, rnd):
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {key: _shuffled(value[key], rnd) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rnd) for item in value]
    return value


# a JSON string literal or number, and one character of a string's body
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
_CHAR = re.compile(r'\\u[0-9a-fA-F]{4}|\\.|.')


def _respelled(text: str, rnd) -> str:
    """``text`` with some equal values written again: ASCII characters of
    strings and keys as \\uXXXX escapes ("\\u0043*" for "C*"), and 0 as -0."""
    def char(m):
        c = m.group()
        return f"\\u{ord(c):04x}" if len(c) == 1 and c.isascii() and rnd.random() < 0.5 else c

    def token(m):
        t = m.group()
        if t.startswith('"'):
            return '"' + _CHAR.sub(char, t[1:-1]) + '"'
        return "-0" if t == "0" and rnd.random() < 0.5 else t

    return _TOKEN.sub(token, text)


def test_respelling_keeps_the_value():
    text = json.dumps({"C*": [0, 10, "a\"0"], "\u00e9": -0.5})
    for seed in range(20):
        respelled = _respelled(text, random.Random(seed))
        assert json.loads(respelled) == json.loads(text)
    assert _respelled('["C*", 0]', random.Random(1)) != '["C*", 0]'


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    rnd=st.randoms(use_true_random=False),
    indent=st.sampled_from([None, 0, 1, 4, "\t"]),
    separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")]),
    ensure_ascii=st.booleans(),
    respell=st.booleans(),
)
def test_a_rewrite_that_keeps_the_meaning_keeps_the_output(name, rnd, indent, separators,
                                                          ensure_ascii, respell):
    text = json.dumps(_shuffled(DOCS[name], rnd), indent=indent, separators=separators,
                      ensure_ascii=ensure_ascii)
    if respell:
        text = _respelled(text, rnd)
    assert outputs(name, text) == baseline(name)


def _places(value, path=()):
    """(path, value) for the document and every value inside it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _places(item, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# Each rewrite breaks one place in a copy of a document and returns the new
# text with the keys of which the error must quote one.
_REPEAT = "\x00repeat"


def _repeat(name, doc, draw):
    path = draw(st.sampled_from([p for p, v in _places(doc) if isinstance(v, dict) and v]))
    obj = _at(doc, path)
    key = draw(st.sampled_from(sorted(obj)))
    obj[_REPEAT] = obj[key]
    return json.dumps(doc).replace(json.dumps(_REPEAT), json.dumps(key)), {key}


def _misspell(name, doc, draw):
    path = draw(st.sampled_from([p for p, v in _places(doc) if isinstance(v, dict) and v]))
    obj = _at(doc, path)
    key = draw(st.sampled_from(sorted(obj)))
    typo = key + draw(st.sampled_from(["x", "_", " "]))
    renamed = {(typo if k == key else k): v for k, v in obj.items()}
    obj.clear()
    obj.update(renamed)
    return json.dumps(doc), {key, typo}


def _retype(name, doc, draw):
    # a shipped table declares each string it holds a string, and the atom
    # table holds no number; a complex file's cell id may be any value
    kinds = (int, bool, str) if name in TABLES else (int, bool)
    path = draw(st.sampled_from([p for p, v in _places(doc) if type(v) in kinds]))
    value = _at(doc, path)
    if type(value) is bool:
        other = draw(st.sampled_from([int(value), str(value).lower()]))
    elif type(value) is str:
        other = [value]
    else:
        other = draw(st.sampled_from([value != 0, float(value), str(value)]))
    _at(doc, path[:-1])[path[-1]] = other
    return json.dumps(doc), {key for key in path if isinstance(key, str)}


def _drop(name, doc, draw):
    spots = [(p, k) for p, v in _places(doc) if isinstance(v, dict) for k in v
             if k in REQUIRED[name]]
    path, key = draw(st.sampled_from(spots))
    del _at(doc, path)[key]
    return json.dumps(doc), {key}


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    rewrite=st.sampled_from([_repeat, _misspell, _retype, _drop]),
    data=st.data(),
)
def test_a_rewrite_that_breaks_the_meaning_is_refused(name, rewrite, data):
    text, keys = rewrite(name, copy.deepcopy(DOCS[name]), data.draw)
    [res] = outputs(name, text, COMMANDS[name][:1])
    assert res.exit_code == 1, text
    error = json.loads(res.output)["error"]
    assert any(repr(key) in error for key in keys), (error, keys)
