import random

import pytest
from hypothesis import given, settings, strategies as st

from syzygy.lattice import BlowupLattice, DivisorClass

from helpers import ordered_fibration_configurations

LINE_COUNTS = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
CONIC_COUNTS = {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 10, 6: 27}


def test_intersection_form():
    lat = BlowupLattice(3)
    assert lat.intersect(lat.h(), lat.h()) == 1
    assert lat.intersect(lat.e(1), lat.e(1)) == -1
    c = lat.cls(1, -1, -1, 0)  # H - E1 - E2, expanded by hand: 1 - 1 - 1 = -1
    assert lat.intersect(c, c) == -1


def test_canonical_class():
    assert BlowupLattice(0).canonical_class() == DivisorClass((-3,))
    for n, kk in ((6, 3), (3, 6)):
        lat = BlowupLattice(n)
        k = lat.canonical_class()
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
    a = DivisorClass(tuple(xs[: n + 1]))
    b = DivisorClass(tuple(ys[: n + 1]))
    c = DivisorClass(tuple(zs[: n + 1]))
    assert lat.intersect(a, b) == lat.intersect(b, a)
    assert lat.intersect(a + b, c) == lat.intersect(a, c) + lat.intersect(b, c)
    assert lat.intersect(a.scale(scalar), b) == scalar * lat.intersect(a, b)


def test_dimension_mismatch_rejected():
    lat = BlowupLattice(2)
    with pytest.raises(ValueError):
        lat.intersect(lat.h(), DivisorClass((1, 0)))
    with pytest.raises(ValueError):
        BlowupLattice(9)


@pytest.mark.parametrize("n,count", sorted(LINE_COUNTS.items()))
def test_line_counts(n, count):
    lines = BlowupLattice(n).enumerate_lines()
    assert len(lines) == count
    lat = BlowupLattice(n)
    k = lat.canonical_class()
    for c in lines:
        assert lat.intersect(c, c) == -1
        assert lat.intersect(k, c) == -1
    assert lines == sorted(lines, key=lambda c: c.coefficients)


@pytest.mark.parametrize("n,count", sorted(CONIC_COUNTS.items()))
def test_conic_counts(n, count):
    lat = BlowupLattice(n)
    conics = lat.enumerate_conic_classes()
    assert len(conics) == count
    k = lat.canonical_class()
    for f in conics:
        assert lat.intersect(f, f) == 0
        assert lat.intersect(k, f) == -2


def test_conics_bl3_explicit():
    lat = BlowupLattice(3)
    got = {c.coefficients for c in lat.enumerate_conic_classes()}
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


def test_weyl_reflection_examples():
    lat = BlowupLattice(3)
    root = lat.cls(0, 1, -1, 0)  # E1 - E2
    c = lat.cls(1, -1, -1, 0)
    assert lat.weyl_reflect(c, root) == c  # orthogonal to the root
    assert lat.weyl_reflect(lat.e(1), root) == lat.e(2)
    with pytest.raises(ValueError):
        lat.weyl_reflect(c, lat.e(1))


@pytest.mark.parametrize("n", range(1, 7))
def test_weyl_reflections_preserve_curve_classes(n):
    lat = BlowupLattice(n)
    lines = set(lat.enumerate_lines())
    conics = set(lat.enumerate_conic_classes())
    roots = lat.roots()
    rng = random.Random(n)
    sample = roots if len(roots) <= 12 else rng.sample(roots, 12)
    for root in sample:
        assert {lat.weyl_reflect(c, root) for c in lines} == lines
        assert {lat.weyl_reflect(c, root) for c in conics} == conics
        for c in list(lines)[:5]:
            assert lat.weyl_reflect(lat.weyl_reflect(c, root), root) == c


def test_fibration_configurations_cubic():
    lat = BlowupLattice(6)
    res = lat.count_fibration_configurations()
    rev = lat.count_fibration_configurations(reverse_order=True)
    assert res["ordered"] == rev["ordered"]
    assert res["unordered"] == rev["unordered"]
    # every unordered configuration is the fibre set of one conic class
    assert res["unordered"] == len(lat.enumerate_conic_classes())
    # true by construction of the count; the ordered oracle below checks it
    assert res["ordered"] == res["unordered"] * 120 * 32  # 5! orderings, 2^5 swaps


def test_fibration_configurations_bl3():
    lat = BlowupLattice(3)
    res = lat.count_fibration_configurations()
    assert res["pairs"] == 2
    assert res["unordered"] == 3
    assert res["ordered"] == 3 * 2 * 4
    # cross-check with the two reducible fibres of each conic
    for conic in lat.enumerate_conic_classes():
        fibres = lat.reducible_fibres(conic)
        assert len(fibres) == 2
        for a, b in fibres:
            assert a + b == conic
            assert lat.intersect(a, b) == 1


def test_fibration_configurations_reject_bad_pairs():
    with pytest.raises(ValueError, match=">= 0"):
        BlowupLattice(6).count_fibration_configurations(-1)
    # P^2 has no conic bundle, so there is no default number of pairs
    with pytest.raises(ValueError, match="no conic bundle"):
        BlowupLattice(0).count_fibration_configurations()
    assert BlowupLattice(0).count_fibration_configurations(0)["unordered"] == 1


ORACLE_CASES = [
    (n, pairs, reverse)
    for n in range(2, 6)
    for pairs in range(n)
    for reverse in (False, True)
] + [(6, 5, False), (6, 2, False), (6, 2, True)]


@pytest.mark.parametrize("n,pairs,reverse", ORACLE_CASES)
def test_fibration_configurations_match_ordered_oracle(n, pairs, reverse):
    lat = BlowupLattice(n)
    got = lat.count_fibration_configurations(pairs, reverse_order=reverse)
    assert got == ordered_fibration_configurations(lat, pairs, reverse_order=reverse)


def test_fibration_configurations_cubic_weyl_orbit():
    """W(E6) permutes the 27 configurations transitively: the orbit of one
    under the reflections in every root is the whole set."""
    lat = BlowupLattice(6)
    configurations = lat.count_fibration_configurations()["configurations"]

    def as_set(cfg):
        return frozenset(frozenset(DivisorClass(c) for c in pair) for pair in cfg)

    def reflect(cfg, root):
        return frozenset(frozenset(lat.weyl_reflect(c, root) for c in pair) for pair in cfg)

    roots = lat.roots()
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
    res = lat.count_fibration_configurations()
    assert res["pairs"] == n - 1
    sums = []
    for cfg in res["configurations"]:
        fibres = {DivisorClass(a) + DivisorClass(b) for a, b in cfg}
        assert len(fibres) == 1
        sums.append(fibres.pop())
    assert sorted(sums) == lat.enumerate_conic_classes()
    if n == 7:
        assert res["unordered"] == 126
