import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from syzygy.lattice import BlowupLattice

from helpers import (
    canonical_class,
    divisor,
    divisor_multiple,
    divisor_sum,
    exceptional_class,
    hyperplane_class,
    lattice_roots,
    ordered_fibration_configurations,
    ordered_search,
    reducible_fibres,
    weyl_reflect,
)

LINE_COUNTS = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
CONIC_COUNTS = {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 10, 6: 27, 7: 126, 8: 2160}


def test_intersection_form():
    lat = BlowupLattice(3)
    assert lat.intersect(hyperplane_class(lat), hyperplane_class(lat)) == 1
    assert lat.intersect(exceptional_class(lat, 1), exceptional_class(lat, 1)) == -1
    c = divisor(lat, 1, -1, -1, 0)  # H - E1 - E2, expanded by hand: 1 - 1 - 1 = -1
    assert lat.intersect(c, c) == -1


def test_canonical_class():
    assert canonical_class(BlowupLattice(0)) == (-3,)
    for n, kk in ((6, 3), (3, 6)):
        lat = BlowupLattice(n)
        k = canonical_class(lat)
        assert lat.intersect(k, k) == kk


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    st.integers(-4, 4),
)
def test_intersect_symmetric_bilinear(n, xs, ys, zs, scalar):
    lat = BlowupLattice(n)
    a, b, c = tuple(xs[: n + 1]), tuple(ys[: n + 1]), tuple(zs[: n + 1])
    assert lat.intersect(a, b) == lat.intersect(b, a)
    assert lat.intersect(divisor_sum(a, b), c) == lat.intersect(a, c) + lat.intersect(b, c)
    assert lat.intersect(divisor_multiple(a, scalar), b) == scalar * lat.intersect(a, b)


def test_dimension_mismatch_rejected():
    lat = BlowupLattice(2)
    with pytest.raises(ValueError):
        lat.intersect(hyperplane_class(lat), (1, 0))
    with pytest.raises(ValueError):
        BlowupLattice(9)


@pytest.mark.parametrize("n,count", sorted(LINE_COUNTS.items()))
def test_line_counts(n, count):
    lines = BlowupLattice(n).enumerate_lines()
    assert len(lines) == count
    lat = BlowupLattice(n)
    k = canonical_class(lat)
    for c in lines:
        assert lat.intersect(c, c) == -1
        assert lat.intersect(k, c) == -1
    assert lines == sorted(lines)


@pytest.mark.parametrize("n,count", sorted(CONIC_COUNTS.items()))
def test_conic_counts(n, count):
    lat = BlowupLattice(n)
    conics = lat.enumerate_conic_classes()
    assert len(conics) == count
    k = canonical_class(lat)
    for f in conics:
        assert lat.intersect(f, f) == 0
        assert lat.intersect(k, f) == -2


@pytest.mark.parametrize("n", range(9))
def test_classes_are_distinct_sorted_integer_tuples_of_the_lattice_rank(n):
    """A class is its coefficient tuple: the enumerators return plain tuples
    of ints, one entry per basis class, in strictly increasing tuple order;
    fibration classes are primitive and of nonnegative degree."""
    lat = BlowupLattice(n)
    lines, conics = lat.enumerate_lines(), lat.enumerate_conic_classes()
    for classes in (lines, conics):
        for c in classes:
            assert type(c) is tuple and len(c) == lat.rank
            assert all(type(x) is int for x in c)
        assert all(a < b for a, b in zip(classes, classes[1:]))
    assert all(f[0] >= 0 and gcd(*f) == 1 for f in conics)


SEARCHES = [(-1, 1), (0, 2), (-2, 0)]  # lines, fibration classes, roots


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("self_int, anticanonical_degree", SEARCHES,
                         ids=["lines", "fibrations", "roots"])
def test_search_matches_the_ordered_oracle(n, self_int, anticanonical_degree):
    """The orbit search and its expansion into arrangements list exactly the
    classes that trying every ordering of the multiplicities finds."""
    lat = BlowupLattice(n)
    assert lat._search(self_int, anticanonical_degree) == ordered_search(
        lat, self_int, anticanonical_degree)


@pytest.mark.parametrize(
    "box, n, search",
    [((3, -2, 5), 8, (-1, 1)), ((12, -2, 2), 8, (-1, 1)), ((12, -1, 5), 1, (-1, 1)),
     ((12, -1, 5), 8, (-2, 0)), ((2, -2, 5), 6, (0, 2))],
    ids=["degree-wall", "upper-wall", "lower-wall", "roots-lower-wall", "fibrations-degree-wall"],
)
def test_search_refuses_a_box_wall_as_the_oracle_does(box, n, search):
    """A box too small for the classes is refused, never truncated: a
    solution on a wall raises the same RuntimeError, naming the same degree
    and multiplicities, in the orbit search and in the ordered one."""

    class SmallBox(BlowupLattice):
        BOX = box

    lat = SmallBox(n)
    with pytest.raises(RuntimeError) as oracle:
        ordered_search(lat, *search)
    assert str(oracle.value).startswith(f"search box {box} not exhaustive: degree ")
    with pytest.raises(RuntimeError) as got:
        lat._search(*search)
    assert str(got.value) == str(oracle.value)


def test_conics_bl3_explicit():
    lat = BlowupLattice(3)
    got = set(lat.enumerate_conic_classes())
    assert got == {(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)}


def test_hexagon_dual_graph():
    lat = BlowupLattice(3)
    g = lat.incidence_graph(lat.enumerate_lines(), 1)
    assert len(g.vertices) == 6
    assert g.is_single_cycle()


def test_cubic_line_graph_regular():
    lat = BlowupLattice(6)
    g = lat.incidence_graph(lat.enumerate_lines(), 1)
    assert len(g.vertices) == 27
    assert g.is_regular(10)


def test_incidence_graph_canonical_and_empty():
    lat = BlowupLattice(3)
    lines = lat.enumerate_lines()
    g1 = lat.incidence_graph(lines, 1)
    g2 = lat.incidence_graph(list(reversed(lines)), 1)
    assert g1 == g2
    empty = lat.incidence_graph([], 1)
    assert empty.vertices == () and empty.edges == ()


def test_incidence_graph_sorts_and_merges_repeated_classes():
    lat = BlowupLattice(3)
    lines = lat.enumerate_lines()
    g = lat.incidence_graph(lines[::-1] + lines[:2], 1)
    assert g.vertices == tuple(lines)
    assert g == lat.incidence_graph(lines, 1)


def test_incidence_graph_refuses_a_class_of_another_rank():
    lat = BlowupLattice(3)
    with pytest.raises(ValueError, match="^class does not belong to this lattice$"):
        lat.incidence_graph(lat.enumerate_lines() + [(1, -1, 0)], 1)


def test_weyl_reflection_examples():
    lat = BlowupLattice(3)
    root = divisor(lat, 0, 1, -1, 0)  # E1 - E2
    c = divisor(lat, 1, -1, -1, 0)
    assert weyl_reflect(lat, c, root) == c  # orthogonal to the root
    assert weyl_reflect(lat, exceptional_class(lat, 1), root) == exceptional_class(lat, 2)
    with pytest.raises(ValueError):
        weyl_reflect(lat, c, exceptional_class(lat, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_weyl_reflections_preserve_curve_classes(n):
    lat = BlowupLattice(n)
    lines = set(lat.enumerate_lines())
    conics = set(lat.enumerate_conic_classes())
    roots = lattice_roots(lat)
    rng = random.Random(n)
    sample = roots if len(roots) <= 12 else rng.sample(roots, 12)
    for root in sample:
        assert {weyl_reflect(lat, c, root) for c in lines} == lines
        assert {weyl_reflect(lat, c, root) for c in conics} == conics
        for c in list(lines)[:5]:
            assert weyl_reflect(lat, weyl_reflect(lat, c, root), root) == c


def test_fibration_configurations_cubic():
    lat = BlowupLattice(6)
    lines = lat.enumerate_lines()
    res = lat.count_fibration_configurations(lines)
    rev = lat.count_fibration_configurations(lines[::-1])
    assert res["ordered"] == rev["ordered"]
    assert res["unordered"] == rev["unordered"]
    # every unordered configuration is the fibre set of one conic class
    assert res["unordered"] == len(lat.enumerate_conic_classes())
    # true by construction of the count; the ordered oracle below checks it
    assert res["ordered"] == res["unordered"] * 120 * 32  # 5! orderings, 2^5 swaps


def test_fibration_configurations_bl3():
    lat = BlowupLattice(3)
    res = lat.count_fibration_configurations(lat.enumerate_lines())
    assert res["pairs"] == 2
    assert res["unordered"] == 3
    assert res["ordered"] == 3 * 2 * 4
    # cross-check with the two reducible fibres of each conic
    for conic in lat.enumerate_conic_classes():
        fibres = reducible_fibres(lat, conic)
        assert len(fibres) == 2
        for a, b in fibres:
            assert divisor_sum(a, b) == conic
            assert lat.intersect(a, b) == 1


def test_fibration_configurations_reject_bad_pairs():
    lat = BlowupLattice(6)
    with pytest.raises(ValueError, match=">= 0"):
        lat.count_fibration_configurations(lat.enumerate_lines(), -1)
    # P^2 has no conic bundle, so there is no default number of pairs
    with pytest.raises(ValueError, match="no conic bundle"):
        BlowupLattice(0).count_fibration_configurations([])
    assert BlowupLattice(0).count_fibration_configurations([], 0)["unordered"] == 1


ORACLE_CASES = [
    (n, pairs, reverse)
    for n in range(2, 6)
    for pairs in range(n)
    for reverse in (False, True)
] + [(6, 5, False), (6, 2, False), (6, 2, True)]


@pytest.mark.parametrize("n,pairs,reverse", ORACLE_CASES)
def test_fibration_configurations_match_ordered_oracle(n, pairs, reverse):
    lat = BlowupLattice(n)
    lines = lat.enumerate_lines()[::-1] if reverse else lat.enumerate_lines()
    got = lat.count_fibration_configurations(lines, pairs)
    assert got == ordered_fibration_configurations(lat, lines, pairs)


def test_fibration_configurations_cubic_weyl_orbit():
    """W(E6) permutes the 27 configurations transitively: the orbit of one
    under the reflections in every root is the whole set."""
    lat = BlowupLattice(6)
    configurations = lat.count_fibration_configurations(lat.enumerate_lines())["configurations"]

    def as_set(cfg):
        return frozenset(frozenset(pair) for pair in cfg)

    def reflect(cfg, root):
        return frozenset(frozenset(weyl_reflect(lat, c, root) for c in pair) for pair in cfg)

    roots = lattice_roots(lat)
    assert len(roots) == 51  # E_i - E_j both ways, H - E_i - E_j - E_k, 2H - sum E_i
    start = as_set(configurations[0])
    orbit = {start}
    frontier = [start]
    while frontier:
        cfg = frontier.pop()
        for root in roots:
            image = reflect(cfg, root)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    assert orbit == {as_set(cfg) for cfg in configurations}


@pytest.mark.parametrize("n", range(2, 8))
def test_fibration_configurations_are_conic_bundles(n):
    """With the default n - 1 pairs, each configuration is the set of singular
    fibres of one conic bundle: all its pairs sum to the same fibre class, and
    every primitive fibration class arises exactly once."""
    lat = BlowupLattice(n)
    res = lat.count_fibration_configurations(lat.enumerate_lines())
    assert res["pairs"] == n - 1
    sums = []
    for cfg in res["configurations"]:
        fibres = {divisor_sum(a, b) for a, b in cfg}
        assert len(fibres) == 1
        sums.append(fibres.pop())
    assert sorted(sums) == lat.enumerate_conic_classes()
    if n == 7:
        assert res["unordered"] == 126
