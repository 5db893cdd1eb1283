import json

import pytest

from syzygy import complexes
from syzygy.complexes import (
    Cell,
    IntegerChainComplex,
    RegularCWComplex,
    load_complex_file,
)
from syzygy.smith import FGAbelianGroup
from syzygy.surfaces import syzygy_sphere_bl3

from helpers import build_cycle, build_interval, build_octahedron, build_point, columns

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
    cells = [Cell("a", 0), Cell("b", 0), Cell("e", 1), Cell("f", 2)]
    boundary = {"e": [("b", 1), ("a", -1)], "f": [("e", 1), ("e", -1)]}
    report = RegularCWComplex(cells, boundary).validate()
    assert not report.structure_ok
    assert any("twice" in msg for msg in report.failures)


def test_validate_flags_dangling_and_dimension():
    report = RegularCWComplex(
        [Cell("v", 0), Cell("e", 1)], {"e": [("v", 1), ("w", -1)]}
    ).validate()
    assert any("dangling" in m for m in report.failures)
    report2 = RegularCWComplex(
        [Cell("v", 0), Cell("f", 2)], {"f": [("v", 1)]}
    ).validate()
    assert any("dim" in m for m in report2.failures)


def test_interval_is_manifold_with_boundary_not_closed():
    # structure fine, but endpoint links are points, not 0-spheres
    report = build_interval().validate()
    assert report.structure_ok
    assert len(report.link_failures) == 2


def test_barycentric_subdivision_interval():
    sd = build_interval().barycentric_subdivision()
    assert len(sd.cells_of_dim(0)) == 3
    assert len(sd.cells_of_dim(1)) == 2
    assert sd.validate().structure_ok


def test_barycentric_subdivision_hexagon():
    sd = build_cycle(6).barycentric_subdivision()
    assert len(sd.cells_of_dim(0)) == 12
    assert len(sd.cells_of_dim(1)) == 12
    assert sd.homology(0) == Z
    assert sd.homology(1) == Z


@pytest.mark.parametrize(
    "builder", [build_point, build_interval, lambda: build_cycle(5), build_octahedron]
)
def test_subdivision_preserves_homology(builder):
    complex_ = builder()
    sd = complex_.barycentric_subdivision()
    top = max(complex_.dimension, 0)
    for d in range(top + 1):
        assert complex_.homology(d) == sd.homology(d)


def test_links_and_dual_blocks():
    octa = build_octahedron()
    # top cell: dual block is a point, link empty
    face = octa.cells_of_dim(2)[0].id
    assert len(octa.dual_block(face).cells) == 1
    assert not octa.link(face).cells
    # vertex of the hexagon: link is two points
    hexagon = build_cycle(6)
    link = hexagon.link("v0")
    assert len(link.cells_of_dim(0)) == 2 and link.dimension == 0
    # vertex of the octahedron: link has circle homology
    vlink = octa.link("v0")
    assert vlink.homology(0) == Z
    assert vlink.homology(1) == Z
    with pytest.raises(KeyError):
        octa.link("nope")


def test_dual_block_of_vertex_is_cone():
    octa = build_octahedron()
    block = octa.dual_block("v0")
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
    data = cc.to_json_dict()
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(data)))
    assert [again.homology(d) for d in range(3)] == [Z, ZERO, Z]
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_complex_file(path)
    assert isinstance(loaded, IntegerChainComplex)


def test_cw_json_round_trip(tmp_path):
    hexagon = build_cycle(6)
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(hexagon.to_json_dict()), encoding="utf-8")
    loaded = load_complex_file(path)
    assert isinstance(loaded, RegularCWComplex)
    assert loaded.homology(1) == Z


def test_cw_json_round_trip_keeps_tuple_ids():
    """JSON writes the sphere's tuple cell ids as lists; reading the file
    turns them back into the same tuples, for cells and for faces."""
    sphere = syzygy_sphere_bl3()
    again = RegularCWComplex.from_json_dict(json.loads(json.dumps(sphere.to_json_dict())))
    assert again.cells == sphere.cells
    assert again.boundary == sphere.boundary
    assert [str(again.homology(d)) for d in range(3)] == ["Z", "0", "Z"]


def test_annotated_homology():
    # one order-2 generator in degree 0, nothing else
    cc = IntegerChainComplex([1], [[]], {0: {0: 2}})
    assert cc.homology(0) == FGAbelianGroup(0, (2,))
    # order-2 generator killed by an order-2 source
    cc2 = IntegerChainComplex([1, 1], [[], columns([[1]])], {0: {0: 2}, 1: {0: 2}})
    assert cc2.homology(0).is_trivial
    assert cc2.homology(1).is_trivial


def test_chain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntegerChainComplex.from_json_dict({"ranks": [2, 1], "boundaries": [[[1, 0]], [[1]]]})
    with pytest.raises(ValueError):
        IntegerChainComplex.from_json_dict({"ranks": [2, 1], "boundaries": []})


def test_chain_complex_json_keeps_the_dense_file():
    cc = build_octahedron().chain_complex()
    data = cc.to_json_dict()
    assert [(len(m), len(m[0])) for m in data["boundaries"]] == [(6, 12), (12, 8)]
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(data)))
    assert again.boundaries[1:] == cc.boundaries[1:]
    assert again.to_json_dict() == data
    assert [again.homology(d) for d in range(3)] == [cc.homology(d) for d in range(3)]
    annotated = IntegerChainComplex([1, 1], [[], columns([[2]])], {0: {0: 4}})
    again = IntegerChainComplex.from_json_dict(json.loads(json.dumps(annotated.to_json_dict())))
    assert again.to_json_dict() == {"ranks": [1, 1], "boundaries": [[[2]]], "cyclic": {"0": {"0": 4}}}
    assert again.homology(0) == annotated.homology(0) == FGAbelianGroup(0, (2,))
    assert again.homology(1) == annotated.homology(1) == FGAbelianGroup(1)


def test_chain_complex_rejects_a_wrong_column_count():
    with pytest.raises(ValueError, match="columns"):
        IntegerChainComplex([2, 2], [[], [{0: 1}]])
    with pytest.raises(ValueError, match="columns"):
        IntegerChainComplex([2, 1], [[], [{0: 1}, {1: 1}]])


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
    assert ok.homology(1).is_trivial
    # an order-2 generator mapping by 1 onto a plain one is no chain map
    bad = IntegerChainComplex([1, 1], [[], columns([[1]])], {1: {0: 2}})
    assert not bad.check_composition()
    assert IntegerChainComplex([1, 1], [[], columns([[1]])], {0: {0: 2}, 1: {0: 2}}).check_composition()


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


def test_validate_takes_each_face_closure_once(monkeypatch):
    """The cells above a cell are read from the subdivision's 2-chains, so
    validate() takes one face closure per cell, in the subdivision (on the
    44-cell bl3 sphere, 1,936 when every link took them again), and the
    links and dual blocks still hold exactly the chains above the cell."""
    sphere = syzygy_sphere_bl3()
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
        assert {m for chain in sphere.link(cid).cells for m in chain} == above
        assert {m for chain in sphere.dual_block(cid).cells for m in chain} == above | {cid}
