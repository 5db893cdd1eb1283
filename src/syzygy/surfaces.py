"""Combinatorial classification of surface central models and their chain
complexes.

Two universes are supported.  In the *ruled* universe the base curve is fixed
pointwise, so a model of rank r carries a set of r-1 marked base points drawn
from a finite label set T, together with a configuration tag: either the
partition recording how the blown-up points distribute over minimal sections
of the quadric surface, or an invariant e >= 1 marking blowups of the e-th
ruled surface along its minimal section.  In the *cremona* universe base
coordinates can move, the classification collapses to one generator per
configuration tag, and the rank-r del Pezzo surfaces join the list.

Every generator list is the product of the point sets (the (r-1)-subsets of
the sorted labels over the ruled base, the one empty set over the plane) and
the configuration tags (family, partition, modulus, e), point set major.  The
boundary of S x t is the sum over positions p of (-1)^p (S minus s_p) x t'
over the tag's transitions t -> t' (the two blow-downs over each marked
point), so the row of a target is plain index arithmetic: the face's index
times the number of target tags, plus the target tag's index.  Because each
tag's transition multiset does not depend on which point is removed,
d o d = 0 holds identically.  A transition to a tag beyond the target
invariant bound raises instead of being dropped.  Non-orientable generators
contribute order-2 rows, realized through the cyclic annotations of the
chain-complex engine.  Over the plane a cell of the base curve's families
is the class of the ruled cell with its points forgotten: every position's
face is the one empty point set, the positions' terms add up, and an entry on
an order-2 row is kept mod 2 (a cell whose stabiliser reverses its orientation
leaves a Z/2 among the coinvariants).  The families over a point keep one
table, POINT_FAMILIES: each family's rank, model name and faces.  A model names
its cell's stabiliser and that group's orientation-preserving subgroup (group, plus_group).

Orientation, stated once.  A cell with k marked points is the k-cube {0,1}^k
over its sorted points, coordinate i recording which (-1)-curve over the
i-th point, E_i (0) or f-E_i (1), is contracted.  The facet x_i = x has the
sign (-1)^i (2x - 1), times -1 when its corner invariants e match the
target's cube only after an odd number of coordinate reflections; a
transition coefficient sums the two facets with (-1)^i taken out.  A face of
a family over a point has its rank's general blowup sign (over the plane only
the parity of a rank >= 3 entry counts).  tests/test_row0_witness.py derives
ranks 2 to 4 in this orientation, and row 1 reads it unsigned.  Rank 5
(k = 4) follows the same tables, and only d o d = 0 checks it.

Truncation: generators are listed up to the requested e_max; internally the
chain complex keeps rank r up to e_max + (r_max - r), a staircase under which
every boundary formula of every retained generator is fully expressible, so
the truncated object is an honest complex and homology in low degrees agrees
with the untruncated answers on the stabilized range.  Rows 0 and 1 of a grid
read this one staircase: row 1 sits on row 0's cells of ranks 1 to 3.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from itertools import combinations

from . import DATA_DIR, _Value, lattice, read_json, unpack
from .complexes import IntegerChainComplex, clique_complex
from .smith import FGAbelianGroup, partitions


class BaseCase(Enum):
    RULED = "ruled"
    CREMONA = "cremona"


def _tag(family, partition=(), e=0, modulus=None) -> tuple:
    return (family, partition, modulus, e)


# Families over the base curve (both universes):
#   hirzebruch    rank-1 ruled surface with invariant e >= 0 (e = 0: the quadric)
#   blowup        blowup of the quadric at k points, tagged by the partition of
#                 the points into common minimal sections
#   min_section   blowup of the e-th surface (e >= 1) at k points on its
#                 minimal section
# The families over a point (cremona universe only): family -> (rank, model
# name, faces), the faces being the (position, target tag, coefficient)
# terms of its boundary at the empty point set.  The plane's boundary is
# the augmentation.
POINT_FAMILIES = {
    "plane": (1, "P2", []),
    "dp8_blowdown": (2, "F1", [(0, _tag("hirzebruch", e=1), 1), (0, _tag("plane"), -1)]),
    "dp8_quadric": (2, "P1xP1", []),
    "dp7": (3, "Bl2P2", [(0, _tag("dp8_quadric"), -1)]),
    "dp6": (4, "Bl3P2", [(0, _tag("blowup", (1, 1)), -1)]),
    "dp5": (5, "Bl4P2", [(0, _tag("blowup", (1, 1, 1)), -1)]),
}


class SurfaceCentralModel(_Value):
    """One central model: its rank, base case and family, marked points,
    invariant e, partition tag and modulus; its orientability is read from the
    orientability table, and one name rule names it, its group and plus_group.
    An immutable value, used as a generator label and a dict key."""

    __slots__ = ("rank", "base", "family", "points", "e", "partition", "modulus")

    def __init__(self, rank: int, base: BaseCase, family: str, points: tuple = (), e: int = 0,
                 partition: tuple = (), modulus: str | None = None):
        super().__init__(rank, base, family, points, e, partition, modulus)

    @property
    def orientable(self) -> bool:
        return is_orientable(self.base, self.family, self.rank - 1)

    @property
    def group(self) -> str:
        """The registry name of the model's automorphism group."""
        return self._name("")

    @property
    def plus_group(self) -> str:
        """The registry name "Aut+(...)" of the group's orientation-preserving subgroup."""
        return self._name("+")

    def __str__(self) -> str:
        return self._name(None)

    def _name(self, mark: str | None) -> str:
        """The one name rule: the model (mark None) shows e, modulus and points; a
        group (mark "" for Aut, "+" for Aut+) leaves them out: Autf<mark>(...) over the
        ruled base, over the plane Aut<mark>(...), for a conic bundle's pair Aut<mark>(.../P1)."""
        k, e = self.rank - 1, self.e if mark is None else "e"
        if self.family == "hirzebruch":
            name = "P1xP1/P1" if self.e == 0 else f"F{e}/P1"
        elif self.family in POINT_FAMILIES:
            name = POINT_FAMILIES[self.family][1]
        elif self.family == "min_section":
            name = f"S_e={e},{k}" if mark is None else f"S_e,{k}"
        elif self.partition == (1,) * k:  # blowup
            name = f"S_g,{k}" + (f"({self.modulus})" if self.modulus and mark is None else "")
        elif self.partition == (k,):
            name = f"S_s,{k}"
        else:
            name = "S_(" + ",".join(str(b) for b in self.partition) + f"),{k}"
        if mark is None:
            return name + ("@{" + ",".join(self.points) + "}" if self.points else "")
        if self.base is BaseCase.RULED:
            return f"Autf{mark}({name})"
        return f"Aut{mark}({name}{'/P1' if self.family in ('blowup', 'min_section') else ''})"


@cache
def orientability_table() -> dict:
    """Table key -> orientable, each entry read with its provenance note.  A key
    is <base>/<family> or <base>/<family>/k=<n>, n >= 1; others are refused."""
    table = read_json(DATA_DIR / "orientability.json")
    if type(table) is not dict:
        raise ValueError("the orientability table must be an object")
    families = (*POINT_FAMILIES, "hirzebruch", "blowup", "min_section")
    key_form = f"({'|'.join(b.value for b in BaseCase)})/({'|'.join(families)})(/k=[1-9][0-9]*)?"
    for key in table:
        if not re.fullmatch(key_form, key):
            raise ValueError(f"the orientability table has the unknown key {key!r}")
    return {key: unpack(entry, f"orientability entry {key!r}",
                        {"orientable": bool, "provenance": str})[0]
            for key, entry in table.items()}


@cache
def is_orientable(base: BaseCase, family: str, k: int) -> bool:
    table = orientability_table()
    for key in (f"{base.value}/{family}/k={k}", f"{base.value}/{family}"):
        if key in table:
            return table[key]
    raise KeyError(f"no orientability entry for {base.value}/{family} at k={k}")


class GeneratorUniverse(_Value):
    """Finite truncation parameters: label set, invariant bound, rank bound.
    An immutable value; equal universes share row0_complex's cache entry."""

    __slots__ = ("base", "labels", "e_max", "r_max")

    def __init__(self, base: BaseCase, labels: tuple, e_max: int, r_max: int):
        if e_max < 1:
            raise ValueError("e_max must be >= 1")
        if not 1 <= r_max <= 5:
            raise ValueError("r_max must be in [1, 5]")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        super().__init__(base, labels, e_max, r_max)

    @classmethod
    def ruled(cls, points: int, e_max: int, r_max: int = 4):
        if points < 0:
            raise ValueError(f"points must be >= 0, got {points}")
        return cls(BaseCase.RULED, tuple(f"P{i}" for i in range(1, points + 1)), e_max, r_max)

    @classmethod
    def cremona(cls, e_max: int, r_max: int = 5):
        return cls(BaseCase.CREMONA, (), e_max, r_max)


def _point_sets(u: GeneratorUniverse, rank: int) -> list:
    """The marked point sets of the rank's generators: the (rank-1)-subsets
    of the sorted labels over the ruled base, the empty set over the plane."""
    if u.base is BaseCase.RULED:
        return list(combinations(sorted(u.labels), rank - 1))
    return [()]


def _tags(u: GeneratorUniverse, rank: int, e_bound: int) -> list:
    """The configuration tags (family, partition, modulus, e) of the rank's
    generators with e <= e_bound, in generator order: over the plane the del
    Pezzo families first, then the blowups, then the minimal-section family."""
    if not 1 <= rank <= u.r_max:
        raise ValueError(f"rank must be in [1, {u.r_max}], got {rank}")
    k = rank - 1
    ruled = u.base is BaseCase.RULED
    tags = [] if ruled else [_tag(f) for f, (r, _, _) in POINT_FAMILIES.items() if r == rank]
    if rank == 1:
        return tags + [_tag("hirzebruch", e=e) for e in range(e_bound + 1)]
    if rank == 5 and not ruled:
        return tags  # only the del Pezzo is classified here
    for part in partitions(k):
        moduli = ("l0", "l1") if part == (1,) * k and k == 4 else (None,)
        tags += [_tag("blowup", part, modulus=m) for m in moduli]
    return tags + [_tag("min_section", e=e) for e in range(1, e_bound + 1)]


def enumerate_generators(u: GeneratorUniverse, rank: int, e_bound: int | None = None):
    """Canonically ordered generators of the given rank, with e <= e_bound
    (defaulting to the universe's e_max): the point sets times the tags."""
    tags = _tags(u, rank, u.e_max if e_bound is None else e_bound)
    return [
        SurfaceCentralModel(rank, u.base, family, points, e, partition, modulus)
        for points in _point_sets(u, rank)
        for family, partition, modulus, e in tags
    ]


# Per-point transition tables for the ruled families at k >= 2 points, in the
# module docstring's orientation.  In the general configuration both facets
# over a point are the same target with opposite corner orders, hence the -2.
def _blowup_transitions(partition: tuple) -> list[tuple]:
    k = sum(partition)
    if partition == (1,) * k:
        return [(_tag("blowup", (1,) * (k - 1)), -2)]
    if partition == (k,):
        return [(_tag("blowup", (k - 1,)), -1), (_tag("min_section", e=1), 1)]
    if partition == (2, 1):
        return [(_tag("blowup", (1, 1)), -1), (_tag("blowup", (2,)), -1)]
    if partition == (2, 1, 1):
        return [(_tag("blowup", (1, 1, 1)), -1), (_tag("blowup", (2, 1)), -1)]
    if partition == (2, 2):
        return [(_tag("blowup", (2, 1)), -2)]
    if partition == (3, 1):
        return [(_tag("blowup", (3,)), -1), (_tag("blowup", (2, 1)), -1)]
    raise ValueError(f"no transition table for partition {partition}")


class BoundaryMatrix:
    """Boundary matrix: columns are rank-r generators, rows the rank-(r-1)
    generators up to the target invariant bound.  ``matrix`` holds one dict
    per column, row index -> nonzero coefficient (smith's column format)."""

    __slots__ = ("columns", "rows", "matrix")

    def __init__(self, columns: list, rows: list, matrix: list):
        self.columns = columns
        self.rows = rows
        self.matrix = matrix


def _ruled_boundary_targets(rank: int, tag: tuple) -> list:
    """(removed position, target tag, coefficient) for a rank-r tag of the
    base curve's families: each transition once per position p of the sorted
    point set, with the sign (-1)^p.  At rank 2 the one point goes and a
    two-ray game to the rank-1 surfaces e + 1 and e remains."""
    family, partition, _, e = tag
    if rank == 2:
        return [(0, _tag("hirzebruch", e=e + 1), 1), (0, _tag("hirzebruch", e=e), -1)]
    if family == "min_section":
        trans = [(_tag("min_section", e=e), -1), (_tag("min_section", e=e + 1), 1)]
    else:
        trans = _blowup_transitions(partition)
    return [
        (pos, target, (-1) ** pos * coeff)
        for pos in range(rank - 1) for target, coeff in trans
    ]


def boundary(u: GeneratorUniverse, rank: int, e_bound: int | None = None,
             target_e_bound: int | None = None, rows: list | None = None) -> BoundaryMatrix:
    """Boundary matrix from rank to rank-1 generators; ``rows`` reuses the latter's list.

    For rank 1 the result is the augmentation: a single row with every
    coefficient 1.  Above it, the column of S x t (point set S, tag t) is
    the sum of (-1)^p (S minus its p-th point) x t' over the tag's
    transitions; that row is face_index * len(target tags) + tag_index(t').
    Raises RuntimeError when a transition reaches a tag beyond
    target_e_bound (default e_bound + 1).  An entry on an order-2 row (a
    non-orientable generator) is kept mod 2.  An order-2 column has no
    nonzero entry on a plain row, which check_composition enforces.
    """
    e_cols = u.e_max if e_bound is None else e_bound
    cols = enumerate_generators(u, rank, e_cols)  # refuses ranks outside [1, r_max]
    if rank == 1:
        return BoundaryMatrix(cols, ["Z (augmentation)"], [{0: 1} for _ in cols])
    e_rows = (e_cols + 1) if target_e_bound is None else target_e_bound
    rows = enumerate_generators(u, rank - 1, e_rows) if rows is None else rows
    row_tags = _tags(u, rank - 1, e_rows)
    tag_index = {t: j for j, t in enumerate(row_tags)}
    face_offset = {s: i * len(row_tags) for i, s in enumerate(_point_sets(u, rank - 1))}
    order2 = {i for i, m in enumerate(rows) if not m.orientable}
    transitions = []  # per column tag: (position, target tag index, coefficient)
    for tag in _tags(u, rank, e_cols):
        entries = []
        targets = (POINT_FAMILIES[tag[0]][2] if tag[0] in POINT_FAMILIES
                   else _ruled_boundary_targets(rank, tag))
        for pos, target, coeff in targets:
            if target not in tag_index:
                raise RuntimeError(
                    f"the rank-{rank} tag {tag} reaches {target}, beyond target_e_bound={e_rows}"
                )
            entries.append((pos, tag_index[target], coeff))
        transitions.append(entries)
    matrix = []
    for points in _point_sets(u, rank):
        # the face without each position's point; over the plane, the empty set
        offsets = [face_offset[points[:p] + points[p + 1:]] for p in range(rank - 1)]
        for entries in transitions:
            column = {}
            for pos, j, coeff in entries:
                i = offsets[pos] + j
                column[i] = column.get(i, 0) + coeff
            if order2:
                column = {i: x % 2 if i in order2 else x for i, x in column.items()}
            matrix.append({i: x for i, x in column.items() if x})
    return BoundaryMatrix(cols, rows, matrix)


@cache
def row0_complex(u: GeneratorUniverse) -> tuple:
    """The coinvariant chain complex of the truncation (degree d = rank d+1).

    Returns (IntegerChainComplex, generators per rank).  Built once per
    universe (equal universes share the entry) and handed to every caller,
    so callers must not mutate it; the homology and composition checks only
    read it.
    """
    staircase = {r: u.e_max + (u.r_max - r) for r in range(1, u.r_max + 1)}
    gens = {1: enumerate_generators(u, 1, staircase[1])}
    boundaries = [[]]
    for r in range(2, u.r_max + 1):  # each rank's list is built once and handed on
        bm = boundary(u, r, staircase[r], staircase[r - 1], rows=gens[r - 1])
        gens[r] = bm.columns
        boundaries.append(bm.matrix)
    ranks = [len(gens[r]) for r in range(1, u.r_max + 1)]
    cyclic = {}
    for d in range(0, u.r_max):
        orders = {i: 2 for i, m in enumerate(gens[d + 1]) if not m.orientable}
        if orders:
            cyclic[d] = orders
    cc = IntegerChainComplex(ranks, boundaries, cyclic)
    return cc, gens


def row0_reduced_h0(u: GeneratorUniverse) -> FGAbelianGroup:
    """Reduced degree-0 homology of the row-0 complex (augmentation kernel
    modulo rank-2 boundaries); vanishes exactly when the 1-skeleton of the
    truncation is connected.  The augmentation splits one Z off H_0."""
    cc, _ = row0_complex(u)
    if cc.cyclic.get(0):
        raise ValueError("the augmentation is not defined on an order-2 rank-1 generator")
    h0 = cc.homology(0)
    return FGAbelianGroup(h0.free_rank - 1, h0.torsion)


def row0_degrees(u: GeneratorUniverse) -> range:
    """Row 0's reach, the positive degrees 1..r_max - 2 of E_{degree,0}."""
    return range(1, u.r_max - 1)


def row0_homology(u: GeneratorUniverse, degree: int) -> FGAbelianGroup:
    """E_{degree,0}: homology of the coinvariant complex at the given degree.

    A negative degree or one above row0_degrees(u) is refused: the first
    missing boundary would make the kernel spurious there.
    """
    top = row0_degrees(u).stop - 1
    if not 0 <= degree <= top:
        raise ValueError(f"truncation r_max={u.r_max} supports degrees 0..{top}, got {degree}")
    cc, _ = row0_complex(u)
    return cc.homology(degree)


def check_row0_squares_to_zero(u: GeneratorUniverse) -> bool:
    """d o d = 0 on the full staircase complex, exactly and modulo the Z/2
    annotations, at every degree; raises ValueError otherwise."""
    cc, _ = row0_complex(u)
    if not cc.check_composition():
        raise ValueError("row-0 boundaries do not compose to zero modulo the annotations")
    return True


# -- the rank-4 sphere ---------------------------------------------------------


def validated_sphere_bl3() -> tuple:
    """The 2-sphere decomposition attached to the three-point blowup of the
    plane, assembled from Picard-lattice data, and the ValidationReport of its
    one full validation; raises RuntimeError when the sphere fails it.

    A cell is a central model, and its faces are the models it contains, so
    a cell is a set of pairwise orthogonal rank-3 classes: the sphere is the
    clique complex of the six (-1)-classes and the three conic classes under
    C.D = 0, each vertex a coefficient tuple.  Two conic classes meet once,
    so no cell holds two.  The vertices are the nine rank-3 models (curve
    contractions and conic fibrations), the edges the 21 rank-2 models and
    the triangles the 14 Mori models: the plane via three disjoint lines, or
    a conic with one line from each reducible fibre.
    """
    lat = lattice.BlowupLattice(3)
    classes = lat.enumerate_lines() + lat.enumerate_conic_classes()
    sphere = clique_complex(classes, lambda a, b: lat.intersect(a, b) == 0)
    report = sphere.validate()
    if not report.valid:
        raise RuntimeError("sphere construction failed validation: " + report.summary())
    return sphere, report
