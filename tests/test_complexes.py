import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from syzygy import complexes
from syzygy.complexes import (
    IntegerChainComplex,
    RegularCWComplex,
    clique_complex,
    load_complex_file,
)
from syzygy.smith import FGAbelianGroup
from syzygy.surfaces import validated_sphere_bl3

from helpers import (
    barycentric_subdivision,
    build_cycle,
    build_interval,
    build_octahedron,
    build_point,
    chain_complex_json,
    columns,
    cw_complex_json,
    cycle_basis_homology,
    dense,
    dual_block_of,
    is_trivial,
    labelled,
    link_of,
)

Z = FGAbelianGroup(1)
ZERO = FGAbelianGroup(0)


def test_validate_hexagon():
    hexagon = build_cycle(6)
    report = hexagon.validate()
    assert report.valid, report.summary()


def test_validate_octahedron():
    octa = build_octahedron()
    report = octa.validate()
    assert report.valid, report.summary()


def test_validate_flags_repeated_face():
    cells = {"a": 0, "b": 0, "e": 1, "f": 2}
    boundary = {"e": [("b", 1), ("a", -1)], "f": [("e", 1), ("e", -1)]}
    report = RegularCWComplex(cells, boundary).validate()
    assert report.failures
    assert any("twice" in msg for msg in report.failures)


def test_validate_flags_dangling_and_dimension():
    report = RegularCWComplex(
        {"v": 0, "e": 1}, {"e": [("v", 1), ("w", -1)]}
    ).validate()
    assert any("dangling" in m for m in report.failures)
    report2 = RegularCWComplex(
        {"v": 0, "f": 2}, {"f": [("v", 1)]}
    ).validate()
    assert any("dim" in m for m in report2.failures)


def test_cells_are_a_copy_of_the_id_to_dimension_dict():
    cells = {"v": 0, "w": 0, "e": 1}
    cx = RegularCWComplex(cells, {"e": [("w", 1), ("v", -1)]})
    cells["f"] = 2
    assert cx.cells == {"v": 0, "w": 0, "e": 1} and cx.dimension == 1


def test_a_cell_without_a_boundary_entry_has_an_empty_boundary():
    cx = RegularCWComplex({"v": 0, "w": 0, "e": 1}, {"e": [("w", 1), ("v", -1)]})
    assert cx.boundary == {"v": (), "w": (), "e": (("w", 1), ("v", -1))}


def test_a_boundary_for_an_unknown_cell_is_refused():
    with pytest.raises(ValueError, match="^boundary given for unknown cell 'x'$"):
        RegularCWComplex({"v": 0}, {"x": [("v", 1)]})


def test_cells_of_dim_sorts_ids_of_mixed_types_by_repr():
    cx = RegularCWComplex({2: 0, "a": 0, (0, 1): 0, 10: 0, "b": 1}, {"b": [(2, 1), (10, -1)]})
    assert cx.cells_of_dim(0) == ["a", (0, 1), 10, 2]  # by repr: quote, paren, digits
    assert cx.cells_of_dim(1) == ["b"] and cx.cells_of_dim(2) == []


def test_the_empty_complex_has_dimension_minus_one():
    empty = RegularCWComplex({}, {})
    assert empty.dimension == -1 and empty.euler_characteristic() == 0
    assert empty.cells_of_dim(0) == []


@pytest.mark.parametrize(
    "builder",
    [build_point, build_interval, lambda: build_cycle(6), build_octahedron,
     lambda: clique_complex("abcd", lambda a, b: True), lambda: validated_sphere_bl3()[0]],
    ids=["point", "interval", "hexagon", "octahedron", "k4", "bl3-sphere"],
)
def test_cells_of_dim_split_the_cells_by_their_dimension(builder):
    """Every id sits in the list of its own dimension exactly once, each
    list in repr order, and the Euler characteristic counts the lists."""
    cx = builder()
    by_dim = [cx.cells_of_dim(d) for d in range(cx.dimension + 1)]
    assert {cid: d for d, ids in enumerate(by_dim) for cid in ids} == cx.cells
    assert sum(map(len, by_dim)) == len(cx.cells)
    assert all(ids == sorted(ids, key=repr) for ids in by_dim)
    assert cx.euler_characteristic() == sum((-1) ** d * len(ids) for d, ids in enumerate(by_dim))


def test_interval_is_manifold_with_boundary_not_closed():
    # structure fine, but endpoint links are points, not 0-spheres
    report = build_interval().validate()
    assert not report.failures
    assert len(report.link_failures) == 2


def test_barycentric_subdivision_interval():
    sd = barycentric_subdivision(build_interval())
    assert len(sd.cells_of_dim(0)) == 3
    assert len(sd.cells_of_dim(1)) == 2
    assert not sd.validate().failures


def test_barycentric_subdivision_hexagon():
    sd = barycentric_subdivision(build_cycle(6))
    assert len(sd.cells_of_dim(0)) == 12
    assert len(sd.cells_of_dim(1)) == 12
    assert sd.homology(0) == Z
    assert sd.homology(1) == Z


@pytest.mark.parametrize(
    "builder", [build_point, build_interval, lambda: build_cycle(5), build_octahedron]
)
def test_subdivision_preserves_homology(builder):
    complex_ = builder()
    sd = barycentric_subdivision(complex_)
    top = max(complex_.dimension, 0)
    for d in range(top + 1):
        assert complex_.homology(d) == sd.homology(d)


def test_links_and_dual_blocks():
    octa = build_octahedron()
    # top cell: dual block is a point, link empty
    face = octa.cells_of_dim(2)[0]
    assert len(dual_block_of(octa, face).cells) == 1
    assert not link_of(octa, face).cells
    # vertex of the hexagon: link is two points
    hexagon = build_cycle(6)
    link = link_of(hexagon, "v0")
    assert len(link.cells_of_dim(0)) == 2 and link.dimension == 0
    # vertex of the octahedron: link has circle homology
    vlink = link_of(octa, "v0")
    assert vlink.homology(0) == Z
    assert vlink.homology(1) == Z
    with pytest.raises(KeyError):
        link_of(octa, "nope")


def test_dual_block_of_vertex_is_cone():
    octa = build_octahedron()
    block = dual_block_of(octa, "v0")
    # a cone over the link: contractible
    assert block.homology(0) == Z
    for d in (1, 2):
        assert block.homology(d) == ZERO


def test_chain_complex_homology():
    hexagon = build_cycle(6)
    assert hexagon.homology(0) == Z and hexagon.homology(1) == Z
    octa = build_octahedron()
    assert [octa.homology(d) for d in range(3)] == [Z, ZERO, Z]
    assert build_point().homology(0) == Z


def test_euler_characteristics():
    assert build_cycle(6).euler_characteristic() == 0
    assert build_octahedron().euler_characteristic() == 2
    assert build_point().euler_characteristic() == 1


def test_chain_complex_round_trip(tmp_path):
    cc = build_octahedron().chain_complex()
    data = chain_complex_json(cc)
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(data)))
    assert [again.homology(d) for d in range(3)] == [Z, ZERO, Z]
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_complex_file(path)
    assert isinstance(loaded, IntegerChainComplex)


def test_cw_json_round_trip(tmp_path):
    hexagon = build_cycle(6)
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(cw_complex_json(hexagon)), encoding="utf-8")
    loaded = load_complex_file(path)
    assert isinstance(loaded, RegularCWComplex)
    assert loaded.homology(1) == Z


def test_cell_labels_in_a_file_are_checked_and_dropped():
    """A cell is its id and dimension; a file may still label its cells."""
    plain = json.loads(json.dumps(cw_complex_json(build_octahedron())))
    a, b = (RegularCWComplex.from_json_dict(d) for d in (labelled(plain), plain))
    assert a.cells == b.cells and a.boundary == b.boundary
    bad = {**plain, "cells": [{**plain["cells"][0], "label": 3}] + plain["cells"][1:]}
    with pytest.raises(ValueError, match="'label' holds 3, not a string$"):
        RegularCWComplex.from_json_dict(bad)


def test_cw_json_round_trip_keeps_tuple_ids():
    """JSON writes the sphere's tuple cell ids as lists; reading the file
    turns them back into the same tuples, for cells and for faces."""
    sphere = validated_sphere_bl3()[0]
    again = RegularCWComplex.from_json_dict(json.loads(json.dumps(cw_complex_json(sphere))))
    assert again.cells == sphere.cells
    assert again.boundary == sphere.boundary
    assert [str(again.homology(d)) for d in range(3)] == ["Z", "0", "Z"]


def test_annotated_homology():
    # one order-2 generator in degree 0, nothing else
    cc = IntegerChainComplex([1], [[]], {0: {0: 2}})
    assert cc.homology(0) == FGAbelianGroup(0, (2,))
    # order-2 generator killed by an order-2 source
    cc2 = IntegerChainComplex([1, 1], [[], columns([[1]])], {0: {0: 2}, 1: {0: 2}})
    assert is_trivial(cc2.homology(0))
    assert is_trivial(cc2.homology(1))


def test_chain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntegerChainComplex.from_json_dict({"ranks": [2, 1], "boundaries": [[[1, 0]], [[1]]]})
    with pytest.raises(ValueError):
        IntegerChainComplex.from_json_dict({"ranks": [2, 1], "boundaries": []})


def test_chain_complex_json_keeps_the_dense_file():
    cc = build_octahedron().chain_complex()
    data = chain_complex_json(cc)
    assert [(len(m), len(m[0])) for m in data["boundaries"]] == [(6, 12), (12, 8)]
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(data)))
    assert again.boundaries[1:] == cc.boundaries[1:]
    assert chain_complex_json(again) == data
    assert [again.homology(d) for d in range(3)] == [cc.homology(d) for d in range(3)]
    annotated = IntegerChainComplex([1, 1], [[], columns([[2]])], {0: {0: 4}})
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(chain_complex_json(annotated))))
    assert chain_complex_json(again) == {"ranks": [1, 1], "boundaries": [[[2]]], "cyclic": {"0": {"0": 4}}}
    assert again.homology(0) == annotated.homology(0) == FGAbelianGroup(0, (2,))
    assert again.homology(1) == annotated.homology(1) == FGAbelianGroup(1)


def test_chain_complex_rejects_a_wrong_column_count():
    with pytest.raises(ValueError, match="columns"):
        IntegerChainComplex([2, 2], [[], [{0: 1}]])
    with pytest.raises(ValueError, match="columns"):
        IntegerChainComplex([2, 1], [[], [{0: 1}, {1: 1}]])


def test_chain_complex_rejects_a_wrong_boundary_count():
    """One boundary list per rank: a missing one used to raise IndexError
    and a surplus one was ignored.  No ranks take the one list [[]] that an
    empty CW complex and an empty chain file build."""
    with pytest.raises(ValueError, match="1 boundary lists for 2 ranks, expected 2"):
        IntegerChainComplex([1, 1], [[]])
    with pytest.raises(ValueError, match="3 boundary lists for 2 ranks, expected 2"):
        IntegerChainComplex([2, 1], [[], [{0: 1}], [{0: 1}]])
    assert IntegerChainComplex([], [[]]).top_degree == -1
    assert RegularCWComplex([], {}).chain_complex().ranks == []
    assert IntegerChainComplex.from_json_dict({"ranks": []}).ranks == []


def test_chain_complex_rejects_a_row_index_out_of_range():
    with pytest.raises(ValueError, match="row index"):
        IntegerChainComplex([2, 1], [[], [{2: 1}]])
    with pytest.raises(ValueError, match="row index"):
        IntegerChainComplex([2, 1], [[], [{-1: 1}]])
    with pytest.raises(ValueError, match="row index"):
        IntegerChainComplex([0, 1], [[], [{0: 1}]])


def test_chain_complex_rejects_bad_annotations():
    for cyclic in ({2: {0: 2}}, {-1: {0: 2}}, {0: {1: 2}}, {1: {-1: 2}}, {0: {0: 0}}, {0: {0: 1}}):
        with pytest.raises(ValueError, match="annotated"):
            IntegerChainComplex([1, 1], [[], [{0: 2}]], cyclic)


def test_non_complex_rejected():
    cc = IntegerChainComplex([1, 1, 1], [[], columns([[1]]), columns([[1]])])
    with pytest.raises(ValueError):
        cc.homology(1)
    assert not cc.check_composition()


def test_check_composition_modulo_annotations():
    # d1 = d2 = [1] into an order-3 generator: d1 d2 = 1 is not a multiple of 3
    cc = IntegerChainComplex([1, 1, 1], [[], columns([[1]]), columns([[1]])], {0: {0: 3}})
    assert not cc.check_composition()
    with pytest.raises(ValueError, match="compose to zero"):
        cc.homology(1)
    # d2 = [3] composes to 3 = 0 in Z/3
    ok = IntegerChainComplex([1, 1, 1], [[], columns([[1]]), columns([[3]])], {0: {0: 3}})
    assert ok.check_composition()
    assert is_trivial(ok.homology(1))
    # an order-2 generator mapping by 1 onto a plain one is no chain map
    bad = IntegerChainComplex([1, 1], [[], columns([[1]])], {1: {0: 2}})
    assert not bad.check_composition()
    assert IntegerChainComplex([1, 1], [[], columns([[1]])], {0: {0: 2}, 1: {0: 2}}).check_composition()


@st.composite
def chain_complexes(draw):
    """A chain complex with d o d = 0: pieces Z --m--> Z and free generators
    under random unimodular changes of basis in every degree, then, in half
    the draws, Z/m annotations, from degree 0 up, on generators whose
    relation m*e_i the boundary sends into the relations below."""
    top = draw(st.integers(1, 3))
    pieces = [draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6]), max_size=3)) for _ in range(top)]
    # degree k: the targets of pieces[k], the sources of pieces[k - 1], free generators
    first = [len(pieces[k]) if k < top else 0 for k in range(top + 1)]
    ranks = [first[k] + (len(pieces[k - 1]) if k else 0) + draw(st.integers(0, 2))
             for k in range(top + 1)]
    d = [None] + [[[0] * ranks[k] for _ in range(ranks[k - 1])] for k in range(1, top + 1)]
    for k in range(1, top + 1):
        for p, m in enumerate(pieces[k - 1]):
            d[k][p][first[k] + p] = m
    for _ in range(draw(st.integers(0, 12))):
        # e_i -> e_i + c e_j in degree k: row i of d_{k+1} gains c times row j,
        # column j of d_k loses c times column i
        k = draw(st.integers(0, top))
        if ranks[k] < 2:
            continue
        i, j = draw(st.permutations(range(ranks[k])))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        if k < top:
            d[k + 1][i] = [x + c * y for x, y in zip(d[k + 1][i], d[k + 1][j])]
        if k:
            for row in d[k]:
                row[j] -= c * row[i]
    boundaries = [[]] + [columns(d[k], width=ranks[k]) for k in range(1, top + 1)]
    cyclic = {}
    for k in range(top + 1) if draw(st.booleans()) else ():
        below = cyclic.get(k - 1, {})
        for i in range(ranks[k]):
            col = boundaries[k][i] if k else {}
            if any(t not in below for t in col) or not draw(st.booleans()):
                continue
            m = 1
            for t, x in col.items():
                r = below[t] // gcd(below[t], x)
                m = m * r // gcd(m, r)
            cyclic.setdefault(k, {})[i] = m * draw(st.sampled_from([2, 3])) if m < 2 else m
    return ranks, boundaries, cyclic


@settings(max_examples=300, deadline=None)
@given(chain_complexes(), st.data())
def test_sweep_matches_the_cycle_basis_oracle(case, data):
    """Every degree of the sweep, read in any order, agrees with the
    cycle-basis oracle (dense Smith forms only) on that degree's window."""
    ranks, boundaries, cyclic = case
    cc = IntegerChainComplex(ranks, boundaries, cyclic)
    assert cc.check_composition()
    top = len(ranks) - 1
    for k in data.draw(st.permutations(range(top + 1))):
        window = (
            dense(boundaries[k], ranks[k - 1]) if k else [],
            dense(boundaries[k + 1], ranks[k]) if k < top else [],
            ranks[k],
            ranks[k - 1] if k else 0,
            cyclic.get(k, {}),
            cyclic.get(k - 1, {}),
        )
        assert cc.homology(k) == cycle_basis_homology(*window), k


def test_lift_is_formed_once_per_degree(monkeypatch):
    """The d o d check and the homology read share one lift per degree."""
    lifted = []
    lift = complexes.lift_to_cycles

    def spy(*window):
        lifted.append(window[2])
        return lift(*window)

    monkeypatch.setattr(complexes, "lift_to_cycles", spy)
    cc = build_octahedron().chain_complex()
    assert cc.check_composition()
    assert [str(cc.homology(d)) for d in range(3)] == ["Z", "0", "Z"]
    assert cc.check_composition()
    assert sorted(lifted) == sorted(cc.ranks)


def test_clique_complex_of_the_4_cycle_and_of_k4():
    """The 4-cycle has no triangle, so its clique complex is a circle; K4
    spans a solid tetrahedron, whose homology is that of a point."""
    square = clique_complex(range(4), lambda a, b: (b - a) % 4 in (1, 3))
    assert [len(square.cells_of_dim(d)) for d in range(2)] == [4, 4]
    assert [square.homology(d) for d in range(2)] == [Z, Z]
    k4 = clique_complex("abcd", lambda a, b: True)
    assert [len(k4.cells_of_dim(d)) for d in range(4)] == [4, 6, 4, 1]
    assert k4.boundary[("a", "b", "c")] == (
        (("b", "c"), 1), (("a", "c"), -1), (("a", "b"), 1))
    assert not k4.validate().failures
    assert [k4.homology(d) for d in range(4)] == [Z, ZERO, ZERO, ZERO]


def test_validate_takes_each_face_closure_once(monkeypatch):
    """validate() takes each cell's face closure once and reads the cells
    above every cell from those closures (on the 44-cell bl3 sphere, 1,936
    closures when every link took them again), and the links and dual
    blocks of the subdivision still hold exactly the chains above the cell."""
    sphere = validated_sphere_bl3()[0]
    closures = []
    faces = RegularCWComplex.faces

    def spy(self, cid):
        closures.append(cid)
        return faces(self, cid)

    monkeypatch.setattr(RegularCWComplex, "faces", spy)
    assert sphere.validate().valid
    assert len(closures) == len(set(closures)) == len(sphere.cells) == 44
    monkeypatch.undo()
    for cid in sphere.cells:
        above = {m for m in sphere.cells if m != cid and cid in sphere.faces(m)}
        assert {m for chain in link_of(sphere, cid).cells for m in chain} == above
        assert {m for chain in dual_block_of(sphere, cid).cells for m in chain} == above | {cid}


@pytest.mark.parametrize("builder", [build_octahedron, lambda: validated_sphere_bl3()[0]],
                         ids=["octahedron", "bl3-sphere"])
def test_validate_links_are_the_subdivision_links(builder, monkeypatch):
    """validate() builds each link as the order complex of the cells above
    the cell, not by filtering the whole barycentric subdivision; the two
    agree chain for chain, dimension and signed faces included."""
    cx = builder()
    links = []
    is_sphere = complexes._is_sphere_homology

    def capture(link, n):
        links.append(link)
        return is_sphere(link, n)

    monkeypatch.setattr(complexes, "_is_sphere_homology", capture)
    assert cx.validate().valid
    cids = sorted(cx.cells, key=repr)
    assert len(links) == len(cids)
    for cid, link in zip(cids, links):
        oracle = link_of(cx, cid)
        assert link.cells == oracle.cells
        assert link.boundary == oracle.boundary
