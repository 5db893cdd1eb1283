"""Independent witness for the ruled row-0 boundaries, ranks 2 to 4.

The boundary columns are derived here from the surface geometry alone; no
code is shared with the library's transition tables or with the oracle in
tests/helpers.py, which copies those tables.  From the library this file
imports only BaseCase, GeneratorUniverse, is_orientable and row0_complex,
and nothing from tests/helpers.py (a rule in test_tooling.py), so it is the
one exact arbiter of row 0's signs: the library writes its tables in the
orientation defined below, and every derived column equals the library's.

Cells.  Over the fixed base, a rank-r model with k = r-1 marked points is the
ruled surface F_e blown up at one point in each of k fibres.  Its fibre over
the i-th marked point is the pair of (-1)-curves E_i and f-E_i; contracting
one of the two in every such fibre lands on a rank-1 model.  The cell is
therefore the k-cube {0,1}^k, coordinate i recording which curve over the
i-th point is contracted (0: E_i, 1: f-E_i), and its 2k facets are the
rank-(r-1) models obtained by contracting one curve over one point.

Tags.  Pic is Z<f, s, E_1..E_k> with f.f = 0, f.s = 1, s.s = -e,
E_i.E_i = -1.  Each configuration tag is given by its list of negative
sections, the irreducible curves D with D.f = 1 and D.D < 0.  Contracting a
fibre curve C raises D.D by (D.C)^2, so the negative sections of a facet and
the invariant e at a corner of the cube follow from that list by class
arithmetic.  A facet's tag is the tag with the same self-intersections of
negative sections.

Signs.  A facet carries the cube sign of its face, times +1 or -1 according
as its corner invariants match the target tag's own cube directly or only
after an odd number of coordinate reflections (points are fixed, so
coordinates are never permuted).
"""

from functools import cache
from itertools import combinations, product
from math import comb

import pytest

from syzygy.surfaces import BaseCase, GeneratorUniverse, is_orientable, row0_complex


# -- class arithmetic on F_e blown up at k points --------------------------------------


def intersect(e, x, y):
    """Intersection on Z<f, s, E_1..E_k>; classes are tuples (f, s, E_1..E_k)."""
    fx, sx, *ex = x
    fy, sy, *ey = y
    return fx * sy + sx * fy - e * sx * sy - sum(a * b for a, b in zip(ex, ey))


def section(k, a, through):
    """Strict transform of a section of class s + a*f through the listed points."""
    return (a, 1, *(-1 if i in through else 0 for i in range(k)))


def fibre_curve(k, i, x):
    """The curve over the i-th point contracted at coordinate value x."""
    ex = [0] * k
    ex[i] = 1 if x == 0 else -1
    return (x, 0, *ex)  # E_i, or f - E_i


# -- configuration tags -----------------------------------------------------------------


def tags(k, e_bound):
    """Tags with k marked points: rank 1 is F_e; otherwise the partitions of k
    into points sharing a (0)-section of the quadric, then F_e (e >= 1) blown
    up on its minimal section."""
    if k == 0:
        return [("hirzebruch", e) for e in range(e_bound + 1)]
    out = [("blowup", (1,) * k)]
    if k == 3:
        out.append(("blowup", (2, 1)))
    if k >= 2:
        out.append(("blowup", (k,)))
    return out + [("min_section", e) for e in range(1, e_bound + 1)]


def tag_model(tag, k, pair=(0, 1)):
    """(e, negative sections) of the tag's surface; ``pair`` places the two
    points that share a (0)-section in the (2,1) configuration.

    The lists are complete: besides the minimal section, a section of F_e has
    class s + a*f with a >= e and self-intersection 2a - e >= a, and it can
    only drop below zero by passing through more than 2a - e blown-up points.
    On F_e (e >= 1) such a curve meets the minimal section a - e times, so it
    passes through at most a - e points there.  On the quadric, (0)-sections
    hold one point each unless the configuration joins them; with k <= 3 only
    a = 1 remains, and the unique (s+f)-curve through three points is a
    section only when no two of them share a (0)-section.
    """
    family, data = tag
    if family == "hirzebruch":
        return data, ([section(0, 0, ())] if data else [])
    if family == "min_section":
        return data, [section(k, 0, range(k))]
    if data == (1,) * k:
        negative = [section(k, 0, {i}) for i in range(k)]
        if k == 3:
            negative.append(section(k, 1, range(k)))
        return 0, negative
    if data == (k,):
        return 0, [section(k, 0, range(k))]
    if data == (2, 1):
        (other,) = set(range(3)) - set(pair)
        return 0, [section(k, 0, pair), section(k, 0, {other})]
    raise ValueError(f"no model for {tag}")


def self_intersections(e, negative, contracted):
    """Self-intersections of the images of the negative sections after
    contracting the disjoint fibre curves in ``contracted``."""
    return sorted(
        intersect(e, d, d) + sum(intersect(e, d, c) ** 2 for c in contracted)
        for d in negative
    )


def signature(e, negative, contracted=()):
    return tuple(x for x in self_intersections(e, negative, contracted) if x < 0)


def corner(e, negative, k, x):
    """Invariant of the rank-1 model at corner x of the cube: minus the least
    self-intersection of a section there (0 when none is negative)."""
    contracted = [fibre_curve(k, i, xi) for i, xi in enumerate(x)]
    return max([0] + [-v for v in self_intersections(e, negative, contracted)])


def corners(e, negative, k, fixed=None):
    """Corner invariants of the cube, or of one facet when ``fixed`` = (i, x)."""
    if fixed is None:
        return {y: corner(e, negative, k, y) for y in product((0, 1), repeat=k)}
    i, x = fixed
    return {
        y: corner(e, negative, k, y[:i] + (x,) + y[i:])
        for y in product((0, 1), repeat=k - 1)
    }


def matching_reflections(have, want):
    """Coordinate reflections R (as 0/1 tuples) with have(y + R) = want(y)."""
    dim = len(next(iter(want)))
    return [
        r for r in product((0, 1), repeat=dim)
        if all(have[tuple(a ^ b for a, b in zip(y, r))] == v for y, v in want.items())
    ]


def identify(k, sig, e_bound):
    hits = [t for t in tags(k, e_bound) if signature(*tag_model(t, k)) == sig]
    assert len(hits) == 1, f"negative sections {sig} with {k} points match {hits}"
    return hits[0]


@cache
def facets(tag, k, pair=(0, 1)):
    """(removed point index, contracted side, target tag, sign) per facet."""
    e, negative = tag_model(tag, k, pair)
    out = []
    for i, x in product(range(k), (0, 1)):
        target = identify(k - 1, signature(e, negative, [fibre_curve(k, i, x)]), e + k)
        parities = {
            sum(r) % 2
            for r in matching_reflections(
                corners(e, negative, k, (i, x)), corners(*tag_model(target, k - 1), k - 1)
            )
        }
        assert len(parities) == 1, f"facet {i},{x} of {tag} matches {target} with parities {parities}"
        cube_sign = (-1) ** i * (1 if x == 1 else -1)
        out.append((i, x, target, cube_sign * (-1) ** parities.pop()))
    return tuple(out)


# -- the witness complex ----------------------------------------------------------------


def generators(labels, rank, e_bound):
    k = rank - 1
    return [(pts, t) for pts in combinations(labels, k) for t in tags(k, e_bound)]


def column(gen):
    pts, tag = gen
    col = {}
    for i, _, target, sign in facets(tag, len(pts)):
        key = (pts[:i] + pts[i + 1:], target)
        col[key] = col.get(key, 0) + sign
    return {key: c for key, c in col.items() if c}


def staircase(e_max, r_max):
    return {r: e_max + (r_max - r) for r in range(1, r_max + 1)}


def program_key(m):
    if m.family == "blowup":
        return (m.points, ("blowup", m.partition))
    return (m.points, (m.family, m.e))


def f2_rank(columns):
    """Rank over F2 of columns given as bitmasks of their odd rows."""
    pivots = {}
    for v in columns:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


UNIVERSES = [(p, e) for p in (3, 4, 5) for e in (3, 4, 5)]
R_MAX = 4


# -- tests ------------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_tag_signatures_are_distinct(k):
    sigs = [signature(*tag_model(t, k)) for t in tags(k, 8)]
    assert len(set(sigs)) == len(sigs)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corner_invariants_fix_orientation(k):
    """Every cube symmetry that keeps the corner invariants is an even
    reflection, so the invariants orient each cell and no automorphism of a
    model reverses it: the ruled tags are orientable."""
    for tag in tags(k, 4):
        for pair in ((0, 1), (0, 2), (1, 2)) if tag == ("blowup", (2, 1)) else ((0, 1),):
            c = corners(*tag_model(tag, k, pair), k)
            assert {sum(r) % 2 for r in matching_reflections(c, c)} == {0}, tag
        assert is_orientable(BaseCase.RULED, tag[0], k)


def test_worked_case_general_two_points():
    """S_g,2@{P,Q}: both facets over P are S_g,1@Q with opposite corner
    orders (contracting E_Q gives F0 in one and F1 in the other), so their
    cube signs add up to a coefficient of 2."""
    tag = ("blowup", (1, 1))
    e, negative = tag_model(tag, 2)
    over_p = [f for f in facets(tag, 2) if f[0] == 0]
    assert [f[2] for f in over_p] == [("blowup", (1,))] * 2
    assert corners(e, negative, 2, (0, 0)) == {(0,): 0, (1,): 1}
    assert corners(e, negative, 2, (0, 1)) == {(0,): 1, (1,): 0}
    assert column((("P", "Q"), tag)) == {(("Q",), ("blowup", (1,))): -2,
                                         (("P",), ("blowup", (1,))): 2}


def test_two_one_placements_share_a_column():
    """The three placements of the shared (0)-section in S_(2,1),3 are
    different surfaces over the fixed base, with one and the same boundary."""
    cols = {
        tuple(sorted((i, t, s) for i, _, t, s in facets(("blowup", (2, 1)), 3, pair)))
        for pair in ((0, 1), (0, 2), (1, 2))
    }
    assert len(cols) == 1


@pytest.mark.parametrize("points,e_max", UNIVERSES)
def test_derived_columns_match_program(points, e_max):
    """(a) Each program column is the derived one, sign for sign: the
    library's tables are written in this cube orientation."""
    u = GeneratorUniverse.ruled(points, e_max, r_max=R_MAX)
    cc, gens = row0_complex(u)
    stair = staircase(e_max, R_MAX)
    for rank in range(2, R_MAX + 1):
        keys = [program_key(m) for m in gens[rank]]
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(generators(u.labels, rank, stair[rank]))
        rows = [program_key(m) for m in gens[rank - 1]]
        mat = cc.boundaries[rank - 1]
        for j, key in enumerate(keys):
            program = {rows[i]: x for i, x in mat[j].items()}
            assert column(key) == program, key


@pytest.mark.parametrize("points,e_max", UNIVERSES)
def test_f2_homology_from_facets_alone(points, e_max):
    """(b) With no signs at all, dim H_d(C (x) F2) is 1, |T|-1, C(|T|,2) for
    d = 0, 1, 2.  The 2-rank of E_{1,0} is at most |T|-1, so (Z/2)^C(|T|,2)
    cannot occur for |T| >= 3 under any orientation."""
    labels = tuple(f"P{i}" for i in range(1, points + 1))
    stair = staircase(e_max, R_MAX)
    gens = {r: generators(labels, r, stair[r]) for r in range(1, R_MAX + 1)}
    ranks = {1: 0, R_MAX + 1: 0}
    for rank in range(2, R_MAX + 1):
        row = {g: i for i, g in enumerate(gens[rank - 1])}
        mod2 = []
        for pts, tag in gens[rank]:
            odd = 0
            for i, _, target, _ in facets(tag, len(pts)):
                odd ^= 1 << row[(pts[:i] + pts[i + 1:], target)]
            mod2.append(odd)
        ranks[rank] = f2_rank(mod2)
    dims = [len(gens[d + 1]) - ranks[d + 1] - ranks[d + 2] for d in range(3)]
    assert dims == [1, points - 1, comb(points, 2)]
