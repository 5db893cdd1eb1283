"""Independent witness for the plane's del Pezzo columns of row 0, mod 2.

Cells.  A del Pezzo model Bl_n P2 (n = 1..4) is a cell, and its facets are
the models of one Picard rank less that it dominates: the contraction of a
(-1)-class, or the conic bundle of a conic class.  Two facets share a face
exactly when their classes are orthogonal, so the cell's boundary is the
clique complex of the (-1)- and conic classes under C.D = 0, whose vertices
are the facets.  Only `lattice` is read from the library: it lists the
classes and their pairing, and the sphere and the tags are built here.

Tags.  Contracting a (-1)-class E leaves a surface of Picard rank n whose
(-1)-curves are the (-1)-classes orthogonal to E: the plane at rank 1; at
rank 2 F1 when one such curve is left and P1 x P1 when none is; Bl_(n-1) P2
above.  A conic class C is a conic bundle whose singular fibres are the
pairs of (-1)-classes with sum C.  With none it is F_e over the line, e = 1
when a (-1)-class is a section (C.D = 1) and e = 0 otherwise.  With k of
them it is the general configuration S_g,k (partition 1^k): on a del Pezzo
surface every negative curve is a (-1)-curve, so no section sinks lower.
P1 x P1 is no blowup of the plane; its lattice <f1, f2>, with f1.f2 = 1 and
f1.f1 = f2.f2 = 0, is written out here, and its two rulings are its facets.

Columns.  A del Pezzo column of the coinvariant complex sums its facets'
signs, one +-1 per facet, on the row of the facet's tag.  So, mod 2, the
entry on a row is the number of facets with that tag.
"""

from collections import Counter
from itertools import combinations

import pytest

from syzygy.lattice import BlowupLattice
from syzygy.surfaces import GeneratorUniverse, row0_complex

# the n of each del Pezzo family that is Bl_n P2; "dp8_quadric" is P1 x P1
BLOWUP_POINTS = {"dp8_blowdown": 1, "dp7": 2, "dp6": 3, "dp5": 4}


def blowup_classes(n):
    """(-1)-classes and conic classes of Bl_n P2 as coefficient tuples, with
    the lattice's pairing."""
    lat = BlowupLattice(n)
    return lat.enumerate_lines(), lat.enumerate_conic_classes(), lat.intersect


def quadric_classes():
    """The same for P1 x P1: no (-1)-class, and the two rulings."""
    return [], [(1, 0), (0, 1)], lambda a, b: a[0] * b[1] + a[1] * b[0]


def cliques(vertices, dot):
    """The clique complex under C.D = 0: its simplices by dimension, each a
    sorted tuple of vertex indices."""
    out = [[(i,) for i in range(len(vertices))]]
    while True:
        bigger = [s + (j,) for s in out[-1] for j in range(s[-1] + 1, len(vertices))
                  if all(dot(vertices[i], vertices[j]) == 0 for i in s)]
        if not bigger:
            return out
        out.append(bigger)


def contraction_tag(e, lines, dot, rank):
    """The tag (family, partition, e) of the surface of Picard rank ``rank``
    left by contracting e."""
    if rank == 2:
        left = any(dot(d, e) == 0 for d in lines if d != e)
        return ("dp8_blowdown" if left else "dp8_quadric", (), 0)
    return ({1: "plane", 3: "dp7", 4: "dp6"}[rank], (), 0)


def conic_bundle_tag(c, lines, dot):
    """The tag of the conic bundle of c."""
    k = sum(1 for a, b in combinations(lines, 2) if tuple(x + y for x, y in zip(a, b)) == c)
    if k:
        return ("blowup", (1,) * k, 0)
    return ("hirzebruch", (), 1 if any(dot(c, d) == 1 for d in lines) else 0)


def facet_tags(family):
    """The number of facets of the family's cell with each tag."""
    n = BLOWUP_POINTS.get(family)  # None for P1 x P1, which has no (-1)-class
    lines, conics, dot = quadric_classes() if n is None else blowup_classes(n)
    return Counter([contraction_tag(e, lines, dot, n) for e in lines]
                   + [conic_bundle_tag(c, lines, dot) for c in conics])


@pytest.mark.parametrize("n, counts", [(1, [2]), (2, [5, 5]), (3, [9, 21, 14]),
                                       (4, [15, 60, 90, 45])])
def test_lattice_sphere_is_a_closed_pseudomanifold_of_a_sphere(n, counts):
    """The clique complex has the cells per dimension listed for S^(n-1),
    Euler characteristic 1 + (-1)^(n-1), and each codimension-1 simplex (the
    empty one at n = 1) lies in exactly two top simplices."""
    lines, conics, dot = blowup_classes(n)
    simplices = cliques(lines + conics, dot)
    assert [len(s) for s in simplices] == counts
    assert sum((-1) ** d * len(s) for d, s in enumerate(simplices)) == 1 + (-1) ** (n - 1)
    cofaces = Counter(ridge for top in simplices[-1] for ridge in combinations(top, n - 1))
    assert set(cofaces.values()) == {2}


def test_facet_counts():
    """F1 has the plane and F1 over the line; Bl2 P2 has F1 twice, P1 x P1
    once and S_g,1 twice; and so on."""
    plane, F1, P1xP1 = ("plane", (), 0), ("dp8_blowdown", (), 0), ("dp8_quadric", (), 0)
    assert facet_tags("dp8_blowdown") == {plane: 1, ("hirzebruch", (), 1): 1}
    assert facet_tags("dp8_quadric") == {("hirzebruch", (), 0): 2}
    assert facet_tags("dp7") == {F1: 2, P1xP1: 1, ("blowup", (1,), 0): 2}
    assert facet_tags("dp6") == {("dp7", (), 0): 6, ("blowup", (1, 1), 0): 3}
    assert facet_tags("dp5") == {("dp6", (), 0): 10, ("blowup", (1, 1, 1), 0): 5}


@pytest.mark.parametrize("family", ["dp8_blowdown", "dp8_quadric", "dp7", "dp6", "dp5"])
def test_del_pezzo_column_is_the_facet_count_mod_2(family):
    """P1 x P1 has two rulings, so its column is empty."""
    cc, gens = row0_complex(GeneratorUniverse.cremona(3))
    [(rank, j)] = [(r, j) for r, models in gens.items()
                   for j, m in enumerate(models) if m.family == family]
    rows = gens[rank - 1]
    column = {(rows[i].family, rows[i].partition, rows[i].e): x % 2
              for i, x in cc.boundaries[rank - 1][j].items() if x % 2}
    assert column == {tag: 1 for tag, count in facet_tags(family).items() if count % 2}
