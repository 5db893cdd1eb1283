import json
import re
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from syzygy import spectral, surfaces

from syzygy.formal import (
    ZERO, FormalGroup, FormalGroupError, FormalHom, InsufficientAtomData)
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
    k2_prime_candidates,
    nonorientable_block_homology,
    pgl_grid,
    ruled_grid,
    ruled_row1_complex,
    schur_aut_quadric,
    schur_pgl,
    seven_term,
)
from syzygy.surfaces import GeneratorUniverse

from helpers import (
    abelian_groups_of_order,
    cyclic_group,
    fully_known_positions_exact,
    h_prime_grid,
    invoke,
    oracle_exactness,
    registry_audit,
    registry_items,
    table_cremona_row1_complex,
    table_ruled_row1_complex,
)

Cs = FormalGroup.atom("C*")
K2 = FormalGroup.atom("K2(C)")
Z = FormalGroup.free(1)


def Zn(n):
    return cyclic_group(n)


@pytest.fixture()
def registry():
    return KnownHomologyRegistry.load()


def test_registry_audit(registry):
    assert registry_audit(registry)
    for (group, degree), (value, prov) in registry_items(registry):
        assert prov.strip()
    with pytest.raises(KeyError):
        registry.get("no such group", 1)


def test_registry_lookups_name_a_missing_entry(registry):
    """provenance used to raise KeyError(('X', 1)) where get names the entry."""
    assert registry.provenance("C*", 1) == "H1 of an abelian group is the group itself."
    for lookup in (registry.get, registry.provenance):
        with pytest.raises(KeyError) as exc:
            lookup("X", 1)
        assert exc.value.args == ("registry has no entry for group 'X' in degree 1",)


def test_registry_groups_are_named_as_row_1_reads_them(registry):
    """Every automorphism group in the registry is the group a generator of
    the ruled or the plane universe names (SurfaceCentralModel.group), or
    the Aut+ partner a non-orientable generator names (plus_group), so a
    row reads its entries by the rule row 1 uses."""
    gens = [gen for u in (GeneratorUniverse.ruled(4, 3, 3), GeneratorUniverse.cremona(3, 5))
            for rank in range(1, u.r_max + 1) for gen in surfaces.enumerate_generators(u, rank)]
    names = {gen.group for gen in gens} | {gen.plus_group for gen in gens if not gen.orientable}
    groups = {group for (group, _), _ in registry_items(registry) if group.startswith("Aut")}
    assert sorted(groups - names) == []


def test_h1_of_a_non_orientable_cell_has_a_z2_quotient(registry):
    """The law behind a twisted entry, with today's violators pinned.  A
    cell is non-orientable when some element of its stabiliser G reverses
    its orientation.  That sign is a homomorphism from G onto {+1, -1}, and
    it factors through H1(G), so H1(G) must map onto Z/2: it needs an even
    cyclic order or a free rank, since an atom is divisible.  Over the
    plane at ranks 1-3, Aut(P1xP1) = Z/2 and Aut(S_g,2/P1) = (Z/2)^2 pass.
    The stored H1 = C* of Aut(Bl2P2), Aut(S_s,2/P1) and Aut(S_e,2/P1)
    breaks the law, since C* is divisible; this test pins that finding and
    does not mend the registry."""
    def has_z2_quotient(h):
        return any(d % 2 == 0 for d in h.cyclic) or h.free_rank > 0

    u = GeneratorUniverse.cremona(3, 5)
    h1 = {gen.group: registry.get(gen.group, 1) for rank in (1, 2, 3)
          for gen in surfaces.enumerate_generators(u, rank) if not gen.orientable}
    assert {group: str(h) for group, h in h1.items() if has_z2_quotient(h)} == {
        "Aut(P1xP1)": "Z/2", "Aut(S_g,2/P1)": "Z/2 (+) Z/2"}
    assert {group: str(h) for group, h in h1.items() if not has_z2_quotient(h)} == {
        "Aut(Bl2P2)": "C*", "Aut(S_s,2/P1)": "C*", "Aut(S_e,2/P1)": "C*"}


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
    assert d.value == K2 + Zn(n)
    assert fully_known_positions_exact(d.sequence)
    with pytest.raises(KeyError):  # the derivation returns its value, not stores it
        registry.get(f"PGL({n},C)", 2)


def test_schur_aut_quadric(registry):
    d = schur_aut_quadric(registry)
    assert str(d.value) == "K2(C) (+) Z/2"
    h2_pgl2 = schur_pgl(2, registry).value
    assert h2_pgl2 + h2_pgl2 == K2 + K2 + Zn(2) + Zn(2)  # H2(Aut+), by Kunneth
    for group in ("Aut(P1xP1)", "Aut+(P1xP1)"):
        with pytest.raises(KeyError):
            registry.get(group, 2)


def test_k2_prime_candidates(registry):
    cands = k2_prime_candidates(registry)
    assert {str(c) for c in cands} == {"K2(C) (+) Z/4", "K2(C) (+) Z/2 (+) Z/2"}


def test_nonorientable_block_degree1(registry):
    # the two-point blowup of the plane: cokernel of the diagonal is C*
    action = FormalHom(
        registry.get("Aut(Bl2P2)", 1), registry.get("Aut+(Bl2P2)", 1), [{0: 1, 1: 1}]
    )
    h0 = FormalGroup.free(1)
    [out] = nonorientable_block_homology(1, action, h0, h0)
    assert out == Cs
    # the quadric over a point in degree 1: trivial block
    action = FormalHom(registry.get("Aut(P1xP1)", 1), registry.get("Aut+(P1xP1)", 1))
    [out] = nonorientable_block_homology(1, action, h0, h0)
    assert out.is_zero


# -- grids -------------------------------------------------------------------------


def test_pgl_grid_five_term_shape(registry):
    grid = pgl_grid(2, registry)
    seq = five_term(grid)
    labels = [label for label, _ in seq.terms]
    assert labels == ["H2", "E_{2,0}", "E_{0,1}", "H1", "E_{1,0}", "0"]
    assert str(seq.terms[0][1]) == "K2(C)"
    assert seq.terms[1][1] is None  # the unknown being solved


def test_pgl_page_turn_changes_only_the_edge(registry):
    grid = pgl_grid(2, registry)
    grid.entries[(2, 0)] = schur_pgl(2, registry).value
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


def test_turn_page_names_both_missing_differentials_at_a_spot():
    """At E_{2,1} = Z/2 neither d2 out, to E_{0,2} = Z/2, nor d2 in, from the
    unknown E_{4,0}, is decided; the refusal used to name (2, 1) alone."""
    entries = {(p, q): ZERO for p in range(5) for q in range(3)}
    entries[2, 1] = entries[0, 2] = Zn(2)
    del entries[4, 0]
    grid = SpectralGrid(page=2, box=(4, 2), entries=entries)
    with pytest.raises(FormalGroupError, match=r"^cannot turn the page: missing differentials"
                                               r" at \(2, 1\), \(4, 0\)$"):
        grid.turn_page()


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
    grid = aut_quadric_grid(schur_pgl(2, registry).value, registry)
    assert str(grid.entry(0, 2)) == "K2(C) (+) Z/2"
    assert grid.entry(1, 0) == Zn(2)
    assert grid.entry(3, 0) == Zn(2)
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    assert [str(c) for c in page.converged_total(2)] == ["K2(C) (+) Z/2"]


def test_converged_total_at_ruled_row0_sizes():
    """E_{1,1} = (Z/2)^4 below E_{2,0} = (Z/2)^6: the abutment candidates are
    (Z/4)^k (+) (Z/2)^(10-2k), k = 0..4, out of reach of a search over every
    homomorphism (Z/2)^4 -> E."""
    entries = {(p, q): FormalGroup.zero() for p in range(3) for q in range(3)}
    entries[1, 1] = FormalGroup(cyclic=(2,) * 4)
    entries[2, 0] = FormalGroup(cyclic=(2,) * 6)
    grid = SpectralGrid(page=2, box=(2, 2), entries=entries)
    assert sorted(c.cyclic for c in grid.converged_total(2)) == sorted(
        (2,) * (10 - 2 * k) + (4,) * k for k in range(5))


def test_differential_out_of_the_box_has_wrong_endpoints():
    """d2 from (4, 1) lands on (2, 2), outside the box (4, 1), where the
    entry is 0 and not the Z/2 the map names."""
    entries = {(p, q): Zn(2) for p in range(5) for q in range(2)}
    g = Zn(2)
    with pytest.raises(FormalGroupError, match=r"^differential at \(4, 1\) has wrong endpoints$"):
        SpectralGrid(
            page=2,
            box=(4, 1),
            entries=entries,
            differentials={(2, 0): FormalHom(g, g, [{0: 1}]), (4, 1): FormalHom(g, g, [{0: 1}])},
        )


def test_spots_outside_the_box_are_refused():
    """An entry or a differential keyed outside the box would be read as 0
    whatever it holds, so the grid refuses it."""
    box = re.escape("outside the box 0..1 x 0..1")
    with pytest.raises(FormalGroupError, match=r"^spot \(5, 5\) lies " + box + "$"):
        SpectralGrid(2, (1, 1), entries={(0, 0): FormalGroup.free(1), (5, 5): Zn(2)})
    with pytest.raises(FormalGroupError, match=r"^spot \(2, 0\) lies " + box + "$"):
        SpectralGrid(2, (1, 1), entries={(0, 1): FormalGroup.free(1)},
                     differentials={(2, 0): FormalHom(ZERO, FormalGroup.free(1))})


def test_differential_into_an_unknown_entry_is_refused():
    """d2 from (2, 0) lands on (0, 1), a spot in the box that entries lacks."""
    g = Zn(2)
    with pytest.raises(FormalGroupError, match=r"^differential at \(2, 0\) touches an unknown entry$"):
        SpectralGrid(page=2, box=(2, 1), entries={(2, 0): g},
                     differentials={(2, 0): FormalHom(g, g, [{0: 1}])})


DIVISIBLE_RULE = "divisible source, target with no atom summand"


def edge_page(source, target, split=False):
    """A page-2 grid in the box (2, 1) whose only nonzero entries are
    E_{2,0} = source and E_{0,1} = target, so the one differential that no
    zero end decides is d2: E_{2,0} -> E_{0,1}."""
    entries = {(p, q): FormalGroup.zero() for p in range(3) for q in range(2)}
    entries[2, 0], entries[0, 1] = source, target
    return SpectralGrid(page=2, box=(2, 1), entries=entries, zero_from_row0=split)


@pytest.mark.parametrize(
    "forced, unforced, reason",
    [
        ((Zn(2), FormalGroup.free(1), False), (Zn(2), Cs, False),
         "finite source, torsion-free target"),
        ((K2, Zn(2), False), (Z, Zn(2), False), DIVISIBLE_RULE),
        ((Cs, Zn(2), False), (Cs, Cs, False), DIVISIBLE_RULE),
        ((K2, Z, False), (Z, Zn(2), False), DIVISIBLE_RULE),
        ((Cs + K2, Z + Zn(3), False), (Cs, Cs, False), DIVISIBLE_RULE),
        ((Zn(2), Zn(2), True), (Zn(2), Zn(2), False),
         "split extension: bottom-row differentials vanish"),
    ],
    ids=["finite-to-torsion-free", "uniquely-divisible-to-finite", "divisible-with-torsion",
         "divisible-to-free", "divisible-to-mixed", "split-extension"],
)
def test_each_forced_zero_rule_alone_decides_the_page(forced, unforced, reason):
    """On the first page the rule forces d2 to zero, so the page is stable and
    turns into itself; on the second, which breaks only the rule's condition
    (Z is not divisible, C* is an atom summand), nothing forces d2.  The
    divisible rule used to need a uniquely divisible source and a finite
    target, and C* -> Z/2 was pinned as unforced."""
    grid = edge_page(*forced)
    assert grid._forced_zero_reason(forced[0], forced[1], 0) == reason
    assert grid.is_stable()
    nxt = grid.turn_page()
    assert nxt.page == 3
    assert all(nxt.entry(p, q) == grid.entry(p, q) for p in range(3) for q in range(2))
    grid = edge_page(*unforced)
    assert grid._forced_zero_reason(unforced[0], unforced[1], 0) is None
    assert not grid.is_stable()
    with pytest.raises(FormalGroupError, match=r"missing differentials at \(2, 0\)$"):
        grid.turn_page()


def composable_page(middle: int, first: dict, second: dict) -> SpectralGrid:
    """A page-2 grid whose two nonzero differentials compose:
    Z/2 -> Z/middle -> Z/2 from E_{4,0} through E_{2,1} to E_{0,2}."""
    entries = {(4, 0): Zn(2), (2, 1): Zn(middle), (0, 2): Zn(2)}
    return SpectralGrid(page=2, box=(4, 2), entries=entries, differentials={
        (4, 0): FormalHom(Zn(2), Zn(middle), [first]),
        (2, 1): FormalHom(Zn(middle), Zn(2), [second])})


def test_composable_differentials_must_compose_to_zero():
    """Z/2 -> Z/4 -> Z/2 by 2, then by 1, composes to 2 = 0 and is accepted;
    the identity of Z/2 twice composes to 1 and is refused."""
    assert composable_page(4, {0: 2}, {0: 1}).page == 2
    with pytest.raises(FormalGroupError, match=r"^d o d != 0 through \(2, 1\)$"):
        composable_page(2, {0: 1}, {0: 1})


def test_a_differential_with_entries_that_reduce_to_zero_is_stable():
    """d2: Z/2 -> Z/2 given as multiplication by 2 is the zero map, so the
    page is stable; is_stable used to see its entry and call it nonzero."""
    entries = {(p, q): FormalGroup.zero() for p in range(3) for q in range(2)}
    entries[2, 0] = entries[0, 1] = Zn(2)
    grid = SpectralGrid(page=2, box=(2, 1), entries=entries,
                        differentials={(2, 0): FormalHom(Zn(2), Zn(2), [{0: 2}])})
    assert grid.is_stable()


def test_converged_total_waits_for_e_infinity():
    """E_{3,0} = E_{0,2} = Z/2 and zeros elsewhere in the box (3, 2): page 2
    is stable, but nothing decides d3: E_{3,0} -> E_{0,2}, so the page is
    not E-infinity and degree 2 is not assembled from it.  Split, the
    bottom row's d3 vanishes and the one candidate is Z/2."""
    entries = {(p, q): FormalGroup.zero() for p in range(4) for q in range(3)}
    entries[3, 0] = entries[0, 2] = Zn(2)
    grid = SpectralGrid(page=2, box=(3, 2), entries=entries)
    assert grid.is_stable()
    with pytest.raises(FormalGroupError, match=re.escape(
            "cannot assemble degree 2: page 3 is not E-infinity, as differentials at"
            " (0, 2), (3, 0) are not known to be zero")):
        grid.converged_total(2)
    split = SpectralGrid(page=2, box=(3, 2), entries=entries, zero_from_row0=True)
    assert split.converged_total(2) == [Zn(2)]


def test_converged_total_refuses_a_nonzero_differential_on_its_own_page():
    """A nonzero d2: E_{2,0} -> E_{0,1} leaves page 2 short of E-infinity."""
    entries = {(p, q): FormalGroup.zero() for p in range(3) for q in range(2)}
    entries[2, 0] = entries[0, 1] = Zn(2)
    grid = SpectralGrid(page=2, box=(2, 1), entries=entries,
                        differentials={(2, 0): FormalHom(Zn(2), Zn(2), [{0: 1}])})
    with pytest.raises(FormalGroupError, match=r"page 2 is not E-infinity.* \(0, 1\), \(2, 0\) "):
        grid.converged_total(1)
    assert all(grid.turn_page().entry(p, q).is_zero for p in range(3) for q in range(2))


def _total_or_refusal(grid, n):
    try:
        return [str(c) for c in grid.converged_total(n)]
    except FormalGroupError:
        return "refused"


# zero half the time or more, so that about half the grids turn their page
GRID_ENTRIES = st.one_of(st.just(ZERO), st.sampled_from([ZERO, Z, Zn(2), Zn(3), Cs, K2]))


@settings(max_examples=120, deadline=None)
@given(st.lists(GRID_ENTRIES, min_size=12, max_size=12), st.booleans())
def test_one_pass_decides_stability_turning_and_the_abutment(values, split):
    """On a page-2 grid in the box (3, 2) with no explicit differentials,
    is_stable() holds exactly when turn_page() succeeds, and then the next
    page has the same entries; whenever the page turns, converged_total(2)
    agrees on both pages: both refuse, or both give the same candidates."""
    entries = dict(zip([(p, q) for p in range(4) for q in range(3)], values))
    grid = SpectralGrid(page=2, box=(3, 2), entries=entries, zero_from_row0=split)
    try:
        nxt = grid.turn_page()
    except FormalGroupError:
        assert not grid.is_stable()
        return
    assert grid.is_stable()
    assert nxt.entries == grid.entries
    assert _total_or_refusal(nxt, 2) == _total_or_refusal(grid, 2)


# -- row-1 instances -----------------------------------------------------------------


@pytest.mark.parametrize("points", [3, 4, 5])
def test_ruled_row1(points, registry):
    u = GeneratorUniverse.ruled(points, 3, r_max=4)
    row = ruled_row1_complex(u, registry)
    assert row.at(0).is_zero
    assert row.at(1) == FormalGroup.atom("C*", points - 1)


def test_ruled_row1_stable_in_e(registry):
    values = set()
    for e_max in (3, 4, 5):
        u = GeneratorUniverse.ruled(4, e_max, r_max=4)
        values.add(str(ruled_row1_complex(u, registry).at(1)))
    assert len(values) == 1


def test_cremona_row1(registry):
    u = GeneratorUniverse.cremona(3, r_max=5)
    row = cremona_row1_complex(u, registry)
    assert row.at(0).is_zero
    assert row.at(1).is_zero
    bound = row.at(2)  # the closed chains at the third place
    assert bound == Zn(2) + Zn(6)  # = Z/3 + (Z/2)^2 in invariant factors


def assert_same_row_complex(row, oracle, u):
    """The row's maps are the oracle's, and the oracle's places list the
    generators of ranks 1..3 of the universe's own row 0 in row 0's order."""
    _, gens = surfaces.row0_complex(u)
    assert [place[0] for place in oracle.places] == [gens[1], gens[2], gens[3]]
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
                    ruled_row1_complex(u, registry), table_ruled_row1_complex(u, registry), u
                )


@pytest.mark.parametrize("e_max", [1, 3, 5, 60])
@pytest.mark.parametrize("r_max", [3, 4, 5])
def test_cremona_row1_matches_table_oracle(e_max, r_max, registry):
    u = GeneratorUniverse.cremona(e_max, r_max)
    assert_same_row_complex(
        cremona_row1_complex(u, registry), table_cremona_row1_complex(u, registry), u
    )


def test_cremona_row1_oracle_sees_a_faulty_cokernel(monkeypatch, registry):
    """The table oracle computes each twisted block without spectral's
    cokernel, so a cokernel that doubles every cyclic order is caught."""
    solve_block = spectral.cokernel

    def doubled(*args):
        out = solve_block(*args)
        return FormalGroup(out.atoms, tuple(2 * d for d in out.cyclic), out.free_rank)

    monkeypatch.setattr(spectral, "cokernel", doubled)
    u = GeneratorUniverse.cremona(3)
    with pytest.raises(AssertionError):
        assert_same_row_complex(
            cremona_row1_complex(u, registry), table_cremona_row1_complex(u, registry), u
        )


def test_cremona_row1_solves_each_twisted_block_once(monkeypatch, registry):
    """Generators that share a twisted block share its group: at e_max = 60
    the 66 generators with a block need five distinct (full, plus) pairs,
    each solved once, by one cokernel of its 1+sigma action."""
    calls = []
    solve_block = spectral.cokernel

    def counting(*args):
        calls.append(args)
        return solve_block(*args)

    monkeypatch.setattr(spectral, "cokernel", counting)
    u = GeneratorUniverse.cremona(60)
    row = cremona_row1_complex(u, registry)
    assert len(calls) == 5
    assert_same_row_complex(row, table_cremona_row1_complex(u, registry), u)


@pytest.mark.parametrize("args, builds", [
    (("ruled", "--points", "4", "--r-max", "3"), 2),
    (("cremona", "--r-max", "3"), 2),
    (("ruled", "--points", "4", "--r-max", "5"), 4),
    (("cremona",), 4),
    (("five-term", "--points", "4"), 4),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_row1_reads_its_cells_from_row0(args, builds, monkeypatch):
    """Row 1 takes its generators and incidences from the row-0 complex of
    the command's own universe, which row 0 has already built and cached:
    each boundary of ranks 2..r_max is built once.  Row 1 used to truncate
    the universe again at rank 3, which above --r-max 3 built the ranks 2
    and 3 a second time: 6 builds at --r-max 5."""
    built = []
    build = surfaces.boundary

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(surfaces, "boundary", counting)
    surfaces.row0_complex.cache_clear()
    try:
        assert invoke(*args).exit_code == 0
    finally:
        surfaces.row0_complex.cache_clear()
    assert len(built) == builds


@pytest.mark.parametrize("e_max", [1, 3, 5])
@pytest.mark.parametrize("r_max", [3, 4, 5])
def test_points0_row1_has_one_torus_per_rank1_cell_of_row0(e_max, r_max):
    """Over an empty label set the rank-1 cells are F_0..F_n of row 0's
    staircase, and reduced H0 is free on F_1..F_n; row 1 gives each F_e with
    e >= 1 the torus of Autf(Fe/P1) and has no rank-2 cells, so E_{0,1} has
    one C* per generator of reduced H0.  Row 1 used to stop at F_{e_max+2}
    while row 0 ran on to F_{e_max+r_max-1}."""
    result = invoke("ruled", "--points", "0", "--e-max", str(e_max), "--r-max", str(r_max))
    assert result.exit_code == 0
    out = json.loads(result.output)["result"]
    rank = int(re.fullmatch(r"Z\^(\d+)", out["reduced_H0"])[1])
    tori = out["E_{0,1}"].split(" (+) ")
    assert set(tori) == {"C*"} and len(tori) == rank == e_max + r_max - 1


def test_row1_twists_exactly_the_non_orientable_generators(monkeypatch, registry):
    """A generator gets a twisted block exactly when it is not orientable.
    Marked non-orientable, F1 has no known 1+sigma action, so row 1 refuses
    it by its group's name; it used to read F1's plain H1 whatever the
    orientability table said."""
    orientable = surfaces.is_orientable
    monkeypatch.setattr(surfaces, "is_orientable",
                        lambda base, family, k: family != "dp8_blowdown"
                        and orientable(base, family, k))
    surfaces.row0_complex.cache_clear()
    try:
        with pytest.raises(FormalGroupError, match=re.escape("'Aut(F1)'")):
            cremona_row1_complex(GeneratorUniverse.cremona(3), registry)
    finally:
        surfaces.row0_complex.cache_clear()


@pytest.mark.parametrize("bad", [[{0: 2, 1: 1}, {}], [{0: 2, 2: 1}]],
                         ids=["extra-column", "slot-out-of-range"])
def test_cremona_rank3_blocks_must_fit_their_slots(bad, monkeypatch, registry):
    """The hand-written rank-3 blocks are checked against the slots of their
    generator and target: Bl2P2's entry has one slot and S_g,1's two, so a
    second column or a third target slot is refused by name, also by
    `syz cremona`."""
    blocks = spectral._cremona_rank3_blocks
    monkeypatch.setattr(spectral, "_cremona_rank3_blocks", lambda gen: {
        **blocks(gen), ("blowup", 0): bad} if gen.family == "dp7" else blocks(gen))
    message = re.escape(f"row-1 block Bl2P2 -> ('blowup', 0) is {bad}")
    with pytest.raises(FormalGroupError, match=message):
        cremona_row1_complex(GeneratorUniverse.cremona(3), registry)
    res = invoke("cremona")
    assert res.exit_code == 1
    assert re.match(message, json.loads(res.output)["error"])


def test_composition_fixes_each_plane_rank3_block_entry(monkeypatch, registry):
    """d o d = 0 alone fixes every entry of _cremona_rank3_blocks: set on
    its own to any other integer in -8..8, each of the 29 entries at
    e_max = 3, r_max = 5 makes the E_{2,1} bound refuse to compose, and the
    shipped table gives Z/2 (+) Z/6.  The 29 are dp7's three (the -3 to F1
    among them), S_g,2's two, S_s,2's four and four for each S_e,2 with
    e = 1..5.  Joint changes, such as flipping the sign of a whole block,
    are not covered."""
    u = GeneratorUniverse.cremona(3, 5)
    blocks = spectral._cremona_rank3_blocks
    places = [(str(gen), tag, c, a, x) for gen in surfaces.row0_complex(u)[1][3]
              for tag, block in blocks(gen).items()
              for c, column in enumerate(block) for a, x in column.items()]
    assert len(places) == 29
    assert str(cremona_row1_complex(u, registry).at(2)) == "Z/2 (+) Z/6"
    for name, tag, c, a, shipped in places:
        for value in set(range(-8, 9)) - {shipped}:
            def changed(gen, value=value):
                out = blocks(gen)
                if str(gen) == name:
                    out[tag] = [{**col, a: value} if i == c else col
                                for i, col in enumerate(out[tag])]
                return out

            monkeypatch.setattr(spectral, "_cremona_rank3_blocks", changed)
            with pytest.raises(ValueError, match="boundary maps do not compose to zero"):
                cremona_row1_complex(u, registry).at(2)


@pytest.mark.parametrize("e_max,blocks", [(1, 7), (2, 9), (3, 11), (5, 15), (60, 125)])
def test_cremona_rank3_blocks_sit_on_no_row0_entry(e_max, blocks):
    """Row 1 adds each hand-written rank-3 block to the product map of the
    row-0 incidence at the same (generator, target) pair; row 0 gives every
    such pair a zero entry, so no block and incidence add up unseen."""
    cc, gens = surfaces.row0_complex(GeneratorUniverse.cremona(e_max, r_max=3))
    by_tag = {(g.family, g.e): i for i, g in enumerate(gens[2])}
    pairs = [(j, tag) for j, g in enumerate(gens[3]) for tag in spectral._cremona_rank3_blocks(g)]
    assert len(pairs) == blocks
    for j, tag in pairs:
        assert cc.boundaries[2][j].get(by_tag[tag], 0) == 0, (gens[3][j], tag)


def test_row1_builders_refuse_the_other_universe(registry):
    with pytest.raises(ValueError):
        ruled_row1_complex(GeneratorUniverse.cremona(3), registry)
    with pytest.raises(ValueError):
        cremona_row1_complex(GeneratorUniverse.ruled(3, 3), registry)


def test_cremona_assemble(registry):
    u = GeneratorUniverse.cremona(3, r_max=5)
    res = cremona_assemble(registry, u)
    assert res["relation"] == "H2(Bir(P2)) = E_{0,2} / Im(E_{2,1} -> E_{0,2})"
    names = [str(c) for c in res["candidates"]]
    assert names == [
        "K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)",
        "K2(C) (+) (+)_{Z}(Z/2)",
    ]
    forced = cremona_assemble(registry, u, force_e21_zero=True)
    assert [str(c) for c in forced["candidates"]] == [
        "K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)"
    ]


def _bound_row1(monkeypatch, bound, e11=ZERO):
    """Stub the plane's row 1 so that E_{0,1} = 0, E_{1,1} = ``e11`` and the
    E_{2,1} bound is ``bound``."""
    row = SimpleNamespace(at=lambda p: {1: e11, 2: bound}.get(p, ZERO))
    monkeypatch.setattr(spectral, "cremona_row1_complex", lambda u, registry: row)


def _e02_registry(*cyclic):
    return KnownHomologyRegistry({("E_{0,2}(Cr2)", 2): (FormalGroup(cyclic=cyclic), "test datum")})


def test_cremona_assemble_reaches_as_far_as_the_bounds_3_part(monkeypatch, registry):
    """The image of E_{2,1} divides E_{0,2}'s 3-divisible cyclic factor by
    3^j for j up to the 3-part of the bound: 3^0 when E_{2,1} is forced to
    0 or the bound has no 3-part, up to 3^2 for a bound Z/9 against Z/9.
    The candidates used to be tested only at the shipped bound, whose
    3-part is exactly 3, so a reach forced to at least 1 passed."""
    u = GeneratorUniverse.cremona(3, 5)

    def candidates(reg, **kwargs):
        return [str(c) for c in cremona_assemble(reg, u, **kwargs)["candidates"]]

    assert candidates(registry, force_e21_zero=True) == ["K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)"]
    _bound_row1(monkeypatch, Cs + Zn(2) + Zn(2))  # the bound with no dp7 blocks
    assert candidates(registry) == ["K2(C) (+) Z/3 (+) (+)_{Z}(Z/2)"]
    _bound_row1(monkeypatch, Zn(9))
    assert candidates(_e02_registry(9)) == ["Z/9", "Z/3", "0"]
    with pytest.raises(InsufficientAtomData, match="has 2 cyclic factors divisible by 3"):
        cremona_assemble(_e02_registry(3, 9), u)


def test_cremona_assemble_refuses_a_nonzero_e11(monkeypatch, registry):
    """H2 = E_{0,2} / Im(E_{2,1} -> E_{0,2}) holds only when E_{1,1} = 0;
    with E_{1,1} = Z/2 candidates used to be returned all the same."""
    _bound_row1(monkeypatch, ZERO, e11=Zn(2))
    with pytest.raises(FormalGroupError, match=r"^E_\{1,1\} = Z/2 is not zero"):
        cremona_assemble(registry, GeneratorUniverse.cremona(3, 5))


# -- the assembled ruled grid ---------------------------------------------------------


def test_ruled_grid_and_seven_term(registry):
    u = GeneratorUniverse.ruled(4, 3, r_max=5)
    grid = ruled_grid(u, registry)
    assert str(grid.entry(1, 0)) == "Z/2 (+) Z/2 (+) Z/2"
    assert str(grid.entry(1, 1)) == "C* (+) C* (+) C*"
    assert grid.entry(0, 1).is_zero
    seq = seven_term(grid)
    labels = [label for label, _ in seq.terms]
    assert labels == [
        "E_{3,0}", "E_{1,1}", "coker(E_{0,2}->H2)", "E_{2,0}",
        "E_{0,1}", "H1", "E_{1,0}", "0",
    ]
    assert fully_known_positions_exact(seq)
    verdicts = dict((lbl, v) for lbl, v, _ in seq.check())
    assert verdicts["E_{0,1}"] == "exact"


@pytest.mark.parametrize("r_max", [3, 4, 5])
def test_ruled_grid_holds_row0_where_the_truncation_reaches(r_max, registry):
    """The grid holds E_{i,0} exactly for 1 <= i <= r_max - 2, the degrees
    row0_homology computes, and leaves the rest of row 0 in its box
    unknown.  No test used to build a ruled grid below r_max = 5, so a
    grid reaching one degree further went unseen."""
    u = GeneratorUniverse.ruled(4, 3, r_max)
    grid = ruled_grid(u, registry)
    for i in range(1, 4):
        if i <= r_max - 2:
            assert grid.entry(i, 0) == FormalGroup.from_fg(surfaces.row0_homology(u, i)), i
        else:
            assert grid.entry(i, 0) is None, i


def test_five_term_forced_zero_inference():
    zero = FormalGroup.zero()
    entries = {(p, q): zero for p in range(4) for q in range(3)}
    entries[(0, 0)] = FormalGroup.free(1)
    grid = SpectralGrid(page=2, box=(3, 2), entries=entries)
    seq = five_term(grid)
    h1 = dict(seq.terms)["H1"]
    assert h1 is not None and h1.is_zero
    assert fully_known_positions_exact(seq)


def test_exact_sequence_detects_failure():
    z = FormalGroup.free(1)
    seq = ExactSequence(
        [("0", FormalGroup.zero()), ("A", z), ("B", z), ("0", FormalGroup.zero())],
        homs={1: FormalHom(z, z, [{0: 2}])},
    )
    # at B: image 2Z, kernel Z: fails
    verdicts = dict((lbl, v) for lbl, v, _ in seq.check())
    assert verdicts["B"] == "fail"


def test_exact_sequence_reports():
    """0 -> Z -2-> Z -> Z/2 -> 0 is exact at every term; with Z/3 for Z/2
    the map by 2 lands outside the kernel of Z -> Z/3, so the middle Z
    fails; a map between groups that are not its terms is refused."""
    x2 = FormalHom(Z, Z, [{0: 2}])

    def chain(n):
        terms = [("0", ZERO), ("A", Z), ("B", Z), ("C", Zn(n)), ("0", ZERO)]
        return ExactSequence(terms, {1: x2, 2: FormalHom(Z, Zn(n), [{0: 1}])})

    assert [v for _, v, _ in chain(2).check()] == ["exact"] * 3
    assert chain(3).check() == [
        ("A", "exact", ""),
        ("B", "fail", "the image is not contained in the kernel (not a complex here)"),
        ("C", "exact", "")]
    terms = [("A", Z), ("B", Z), ("C", Z), ("D", Z)]
    with pytest.raises(FormalGroupError, match=r"^map 2 is C\* -> C\*, not C\[Z\] -> D\[Z\]$"):
        ExactSequence(terms, {0: x2, 1: x2.compose(x2), 2: FormalHom(Cs, Cs, [{0: 1}])})


def test_exact_sequence_refuses_a_map_between_other_groups():
    """homs[1] runs A -> B = Z/2, but Z -> Z was given: it used to be read
    as that map, and A reported exact against Z."""
    terms = [("0", ZERO), ("A", Z), ("B", Zn(2)), ("C", None), ("0", ZERO)]
    with pytest.raises(FormalGroupError, match=r"^map 1 is Z -> Z, not A\[Z\] -> B\[Z/2\]$"):
        ExactSequence(terms, {1: FormalHom(Z, Z, [{0: 1}])})
    with pytest.raises(FormalGroupError, match="^map 4 is outside the 5 terms$"):
        ExactSequence(terms, {4: FormalHom(ZERO, ZERO)})
    with pytest.raises(FormalGroupError, match=r"not B\[Z/2\] -> C\[None\]$"):
        ExactSequence(terms, {2: FormalHom(Zn(2), Zn(2))})


@pytest.mark.parametrize(
    "a, b", [(Zn(2), Z), (K2, Zn(3)), (Cs, Zn(2)), (K2, Z), (Cs + K2, Z + Zn(3))],
    ids=["finite-to-torsion-free", "uniquely-divisible-to-finite", "divisible-with-torsion",
         "divisible-to-free", "divisible-to-mixed"])
def test_exact_sequence_reads_the_forced_zero_rules(a, b):
    """Every map A -> B is zero, so 0 -> A -> B -> 0 fails at both terms,
    with their own groups as homology; only a zero end used to force a map,
    and both terms read "connecting maps not available"."""
    seq = ExactSequence([("0", ZERO), ("A", a), ("B", b), ("0", ZERO)])
    assert seq.check() == [("A", "fail", f"homology {a}"), ("B", "fail", f"homology {b}")]


# every finite group of order at most 64, as its invariant-factor chain
SMALL_FINITE = [g for n in range(1, 65) for g in abelian_groups_of_order(n)]


@st.composite
def finite_chains(draw):
    """Groups A_0, ..., A_k (k = 3 or 4) of order at most 64 and maps A_i ->
    A_{i+1}: an entry from Z/n to Z/m is a multiple of m / gcd(n, m), the
    well-defined ones, drawn past m and below 0 so that entries reduce."""
    groups = draw(st.lists(st.sampled_from(SMALL_FINITE), min_size=4, max_size=5))
    maps = [[{i: x for i, m in enumerate(b) if (x := draw(st.integers(-3, 3)) * (m // gcd(n, m)))}
             for n in a] for a, b in zip(groups, groups[1:])]
    return groups, maps


@settings(max_examples=200, deadline=None)
@given(finite_chains())
def test_exact_sequence_verdicts_match_the_counting_oracle(chain):
    """A fully known chain of finite groups gets at each interior term the
    verdict, and for a failure the homology, that counting elements gives."""
    groups, maps = chain
    terms = [(f"A{i}", FormalGroup(cyclic=g)) for i, g in enumerate(groups)]
    homs = {i: FormalHom(terms[i][1], terms[i + 1][1], cols) for i, cols in enumerate(maps)}
    seq = ExactSequence(terms, homs)
    assert [(v, d) for _, v, d in seq.check()] == oracle_exactness(groups, maps)
