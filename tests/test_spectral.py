import pytest

from syzygy.formal import FormalGroup, FormalGroupError, FormalHom
from syzygy.spectral import (
    ExactSequence,
    KnownHomologyRegistry,
    SpectralGrid,
    aut_quadric_grid,
    coinvariants_of_swap,
    cremona_assemble,
    cremona_row1_complex,
    direct_sum_with_layout,
    five_term,
    h_prime_grid,
    k2_prime_candidates,
    nonorientable_block_homology,
    pgl_grid,
    row1_degree2_bound,
    row1_homology,
    ruled_grid,
    ruled_row1_complex,
    schur_aut_quadric,
    schur_pgl,
    seven_term,
)
from syzygy.surfaces import GeneratorUniverse

from helpers import table_cremona_row1_complex, table_ruled_row1_complex

Cs = FormalGroup.atom("C*")
K2 = FormalGroup.atom("K2(C)")


def Zn(n):
    return FormalGroup.cyclic_group(n)


@pytest.fixture()
def registry():
    return KnownHomologyRegistry.load()


def test_registry_audit(registry):
    assert registry.audit()
    for (group, degree), (value, prov) in registry.items():
        assert prov.strip()
    with pytest.raises(KeyError):
        registry.get("no such group", 1)


def test_registry_rejects_missing_provenance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"entries": [{"group": "X", "degree": 0, "value": {"free": 1}, "provenance": ""}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError):
        KnownHomologyRegistry.load(bad)


def test_direct_sum_layout():
    total, layout = direct_sum_with_layout([Cs + Zn(2), K2 + Cs])
    slots = total.slots()
    # layout lists each part's canonical slots (atoms sorted by name first)
    assert [slots[i] for i in layout[0]] == [("atom", "C*"), ("cyclic", 2)]
    assert [slots[i] for i in layout[1]] == [("atom", "C*"), ("atom", "K2(C)")]
    assert sorted(layout[0] + layout[1]) == list(range(4))
    with pytest.raises(FormalGroupError):
        direct_sum_with_layout([Zn(2), Zn(3)])  # would merge to Z/6


def test_coinvariants_of_swap():
    m = K2 + Zn(2)
    assert coinvariants_of_swap(m) == m
    assert coinvariants_of_swap(Cs) == Cs


# -- Schur derivations -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_schur_pgl(n, registry):
    d = schur_pgl(n, registry)
    assert str(d.value) == f"K2(C) (+) Z/{n}"
    assert len(d.candidates) == 1
    assert registry.get(f"PGL({n},C)", 2) == d.value
    assert d.sequence.fully_known_positions_exact()


def test_schur_aut_quadric(registry):
    d = schur_aut_quadric(registry)
    assert str(d.value) == "K2(C) (+) Z/2"
    assert registry.get("Aut+(P1xP1)", 2) == K2 + K2 + Zn(2) + Zn(2)


def test_k2_prime_candidates(registry):
    cands = k2_prime_candidates(registry)
    assert {str(c) for c in cands} == {"K2(C) (+) Z/4", "K2(C) (+) Z/2 (+) Z/2"}


def test_nonorientable_block_degree1(registry):
    # the two-point blowup of the plane: cokernel of the diagonal is C*
    action = FormalHom(
        registry.get("Aut(Bl2P2)", 1), registry.get("Aut+(Bl2P2)", 1), [{0: 1, 1: 1}]
    )
    out = nonorientable_block_homology(1, "Aut(Bl2P2)", "Aut+(Bl2P2)", action, registry)
    assert out == Cs
    # the quadric over a point in degree 1: trivial block
    action = FormalHom(registry.get("Aut(P1xP1)", 1), registry.get("Aut+(P1xP1)", 1))
    out = nonorientable_block_homology(1, "Aut(P1xP1)", "Aut+(P1xP1)", action, registry)
    assert out.is_zero


# -- grids -------------------------------------------------------------------------


def test_pgl_grid_five_term_shape(registry):
    grid = pgl_grid(2, registry)
    seq = five_term(grid)
    labels = [t.label for t in seq.terms]
    assert labels == ["H2", "E_{2,0}", "E_{0,1}", "H1", "E_{1,0}", "0"]
    assert str(seq.terms[0].group) == "K2(C)"
    assert seq.terms[1].group is None  # the unknown being solved


def test_pgl_page_turn_changes_only_the_edge(registry):
    schur_pgl(2, registry)
    grid = pgl_grid(2, registry)
    grid.entries[(2, 0)] = registry.get("PGL(2,C)", 2)
    grid.entries[(3, 0)] = FormalGroup.zero()
    grid.entries[(2, 1)] = FormalGroup.zero()
    grid.entries[(3, 1)] = FormalGroup.zero()
    grid.differentials[(2, 0)] = FormalHom(
        grid.entry(2, 0), grid.entry(0, 1), [{}, {0: 1}]
    )
    page3 = grid.turn_page()
    changed = [
        (p, q)
        for p in range(4)
        for q in range(3)
        if grid.entry(p, q) is not None
        and page3.entry(p, q) is not None
        and grid.entry(p, q) != page3.entry(p, q)
    ]
    assert set(changed) == {(2, 0), (0, 1)}
    assert page3.entry(2, 0) == K2
    assert page3.entry(0, 1).is_zero


def test_turn_page_refuses_unforced_missing_differential(registry):
    # a finite group sitting over another finite group: nothing forces d = 0
    entries = {
        (p, q): FormalGroup.zero() for p in range(3) for q in range(2)
    }
    entries[(2, 0)] = Zn(2)
    entries[(0, 1)] = Zn(2)
    grid = SpectralGrid(page=2, box=(2, 1), entries=entries)
    with pytest.raises(FormalGroupError) as err:
        grid.turn_page()
    assert "(2, 0)" in str(err.value)


def test_turn_page_idempotent_once_stable(registry):
    grid = h_prime_grid(1, registry)
    assert grid.is_stable()
    nxt = grid.turn_page()
    assert all(
        grid.entry(p, q) == nxt.entry(p, q)
        for p in range(4)
        for q in range(4)
    )


def test_h_prime_grid(registry):
    grid = h_prime_grid(3, registry)
    assert all(grid.entry(p, q).is_zero for p in range(4) for q in range(1, 4))
    assert str(grid.entry(2, 0)) == "C*^C*"
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    assert [str(c) for c in page.converged_total(2)] == ["C*^C*"]


def test_row0_concentrated_grid_abutment(registry):
    grid = h_prime_grid(1, registry)
    for n in range(3):
        assert grid.converged_total(n) == [grid.entry(n, 0)]


def test_aut_quadric_grid_structure(registry):
    grid = aut_quadric_grid(registry)
    assert str(grid.entry(0, 2)) == "K2(C) (+) Z/2"
    assert grid.entry(1, 0) == Zn(2)
    assert grid.entry(3, 0) == Zn(2)
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    assert [str(c) for c in page.converged_total(2)] == ["K2(C) (+) Z/2"]


def test_dd_zero_enforced():
    entries = {(p, q): Zn(2) for p in range(5) for q in range(2)}
    g = Zn(2)
    bad_d1 = FormalHom(g, g, [{0: 1}])
    with pytest.raises(FormalGroupError):
        SpectralGrid(
            page=2,
            box=(4, 1),
            entries=entries,
            differentials={(2, 0): bad_d1, (4, 1): FormalHom(g, g, [{0: 1}])},
        )


# -- row-1 instances -----------------------------------------------------------------


@pytest.mark.parametrize("points", [3, 4, 5])
def test_ruled_row1(points, registry):
    u = GeneratorUniverse.ruled(points, 3, r_max=4)
    row = ruled_row1_complex(u, registry)
    assert row1_homology(row, 0).is_zero
    assert row1_homology(row, 1) == FormalGroup.atom("C*", points - 1)


def test_ruled_row1_stable_in_e(registry):
    values = set()
    for e_max in (3, 4, 5):
        u = GeneratorUniverse.ruled(4, e_max, r_max=4)
        values.add(str(row1_homology(ruled_row1_complex(u, registry), 1)))
    assert len(values) == 1


def test_cremona_row1(registry):
    u = GeneratorUniverse.cremona(3, r_max=5)
    row = cremona_row1_complex(u, registry)
    assert row1_homology(row, 0).is_zero
    assert row1_homology(row, 1).is_zero
    bound = row1_degree2_bound(row)
    assert bound == Zn(2) + Zn(6)  # = Z/3 + (Z/2)^2 in invariant factors


def assert_same_row_complex(row, oracle):
    for place, expected in zip(row.places, oracle.places):
        assert place[0] == expected[0]  # labels
        assert place[1] == expected[1]  # entry groups, summed
        assert place[2] == expected[2]  # per-generator slots
    assert len(row.maps) == len(oracle.maps) == 2
    for hom, expected in zip(row.maps, oracle.maps):
        assert (hom.source, hom.target) == (expected.source, expected.target)
        assert hom.columns == expected.columns


def test_ruled_row1_matches_table_oracle(registry):
    for points in range(1, 7):
        for e_max in range(1, 6):
            for r_max in (3, 4, 5):
                u = GeneratorUniverse.ruled(points, e_max, r_max)
                assert_same_row_complex(
                    ruled_row1_complex(u, registry), table_ruled_row1_complex(u, registry)
                )


@pytest.mark.parametrize("e_max", [1, 3, 5, 60])
@pytest.mark.parametrize("r_max", [3, 4, 5])
def test_cremona_row1_matches_table_oracle(e_max, r_max, registry):
    u = GeneratorUniverse.cremona(e_max, r_max)
    assert_same_row_complex(
        cremona_row1_complex(u, registry), table_cremona_row1_complex(u, registry)
    )


def test_row1_builders_refuse_the_other_universe(registry):
    with pytest.raises(ValueError):
        ruled_row1_complex(GeneratorUniverse.cremona(3), registry)
    with pytest.raises(ValueError):
        cremona_row1_complex(GeneratorUniverse.ruled(3, 3), registry)


def test_cremona_assemble(registry):
    res = cremona_assemble(registry)
    assert res["relation"] == "H2(Bir(P2)) = E_{0,2} / Im(E_{2,1} -> E_{0,2})"
    names = [str(c) for c in res["candidates"]]
    assert names == [
        "K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)",
        "K2(C) (+) (+)_{Z}(Z/2)",
    ]
    forced = cremona_assemble(registry, force_e21_zero=True)
    assert [str(c) for c in forced["candidates"]] == [
        "K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)"
    ]


# -- the assembled ruled grid ---------------------------------------------------------


def test_ruled_grid_and_seven_term(registry):
    u = GeneratorUniverse.ruled(4, 3, r_max=5)
    grid = ruled_grid(u, registry)
    assert str(grid.entry(1, 0)) == "Z/2 (+) Z/2 (+) Z/2"
    assert str(grid.entry(1, 1)) == "C* (+) C* (+) C*"
    assert grid.entry(0, 1).is_zero
    seq = seven_term(grid)
    labels = [t.label for t in seq.terms]
    assert labels == [
        "E_{3,0}", "E_{1,1}", "coker(E_{0,2}->H2)", "E_{2,0}",
        "E_{0,1}", "H1", "E_{1,0}", "0",
    ]
    assert seq.fully_known_positions_exact()
    verdicts = dict((lbl, v) for lbl, v, _ in seq.check())
    assert verdicts["E_{0,1}"] == "exact"


def test_five_term_forced_zero_inference():
    zero = FormalGroup.zero()
    entries = {(p, q): zero for p in range(4) for q in range(3)}
    entries[(0, 0)] = FormalGroup.free(1)
    grid = SpectralGrid(page=2, box=(3, 2), entries=entries)
    seq = five_term(grid)
    h1 = next(t for t in seq.terms if t.label == "H1")
    assert h1.group is not None and h1.group.is_zero
    assert seq.fully_known_positions_exact()


def test_exact_sequence_detects_failure():
    z = FormalGroup.free(1)
    seq = ExactSequence(
        [("0", FormalGroup.zero()), ("A", z), ("B", z), ("0", FormalGroup.zero())],
        homs={1: FormalHom(z, z, [{0: 2}])},
    )
    # at B: image 2Z, kernel Z: fails
    verdicts = dict((lbl, v) for lbl, v, _ in seq.check())
    assert verdicts["B"] == "fail"
