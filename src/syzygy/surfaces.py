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
chain-complex engine.

Truncation: generators are listed up to the requested e_max; internally the
chain complex keeps rank r up to e_max + (r_max - r), a staircase under which
every boundary formula of every retained generator is fully expressible, so
the truncated object is an honest complex and homology in low degrees agrees
with the untruncated answers on the stabilized range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from itertools import combinations
from pathlib import Path

from . import lattice
from .complexes import Cell, IntegerChainComplex, RegularCWComplex
from .smith import FGAbelianGroup, partitions, presented_homology

_DATA_DIR = Path(__file__).parent / "data"


class BaseCase(Enum):
    RULED = "ruled"
    CREMONA = "cremona"


# Families over the base curve (both universes):
#   hirzebruch    rank-1 ruled surface with invariant e >= 0 (e = 0: the quadric)
#   blowup        blowup of the quadric at k points, tagged by the partition of
#                 the points into common minimal sections
#   min_section   blowup of the e-th surface (e >= 1) at k points on its
#                 minimal section
# Extra rank-r families over a point (cremona universe only):
#   plane, dp8_blowdown, dp8_quadric, dp7, dp6, dp5
POINT_FAMILIES = ("plane", "dp8_blowdown", "dp8_quadric", "dp7", "dp6", "dp5")
DEL_PEZZO_RANK = {"plane": 1, "dp8_blowdown": 2, "dp8_quadric": 2, "dp7": 3, "dp6": 4, "dp5": 5}


@dataclass(frozen=True)
class SurfaceCentralModel:
    rank: int
    base: BaseCase
    family: str
    points: tuple = ()
    e: int = 0
    partition: tuple = ()
    modulus: str | None = None
    orientable: bool = True

    def display(self) -> str:
        k = len(self.points)
        pts = "{" + ",".join(self.points) + "}" if self.points else ""
        if self.family == "hirzebruch":
            name = "P1xP1/P1" if self.e == 0 else f"F{self.e}/P1"
        elif self.family == "plane":
            name = "P2"
        elif self.family == "dp8_blowdown":
            name = "F1"
        elif self.family == "dp8_quadric":
            name = "P1xP1"
        elif self.family in ("dp7", "dp6", "dp5"):
            name = {"dp7": "Bl2P2", "dp6": "Bl3P2", "dp5": "Bl4P2"}[self.family]
        elif self.family == "min_section":
            name = f"S_e={self.e},{k or self.rank - 1}"
        else:  # blowup
            k = k or self.rank - 1
            if self.partition == (1,) * k:
                name = f"S_g,{k}" + (f"({self.modulus})" if self.modulus else "")
            elif self.partition == (k,):
                name = f"S_s,{k}"
            else:
                name = "S_(" + ",".join(str(b) for b in self.partition) + f"),{k}"
        if self.modulus and self.family != "blowup":
            name += f"[{self.modulus}]"
        return name + (f"@{pts}" if pts else "")

    def __str__(self) -> str:
        return self.display()


@cache
def orientability_table() -> dict:
    with open(_DATA_DIR / "orientability.json", "r", encoding="utf-8") as fh:
        table = json.load(fh)
    for key, entry in table.items():
        if not entry.get("provenance"):
            raise ValueError(f"orientability entry {key!r} lacks a provenance note")
    return table


@cache
def is_orientable(base: BaseCase, family: str, k: int) -> bool:
    table = orientability_table()
    for key in (f"{base.value}/{family}/k={k}", f"{base.value}/{family}"):
        if key in table:
            return bool(table[key]["orientable"])
    raise KeyError(f"no orientability entry for {base.value}/{family} at k={k}")


@dataclass(frozen=True)
class GeneratorUniverse:
    """Finite truncation parameters: label set, invariant bound, rank bound."""

    base: BaseCase
    labels: tuple
    e_max: int
    r_max: int
    moduli: tuple = ("l0", "l1")

    def __post_init__(self):
        if self.e_max < 1:
            raise ValueError("e_max must be >= 1")
        if not 1 <= self.r_max <= 5:
            raise ValueError("r_max must be in [1, 5]")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @classmethod
    def ruled(cls, points: int, e_max: int, r_max: int = 4, moduli=("l0", "l1")):
        if points < 0:
            raise ValueError(f"points must be >= 0, got {points}")
        return cls(BaseCase.RULED, tuple(f"P{i}" for i in range(1, points + 1)), e_max, r_max, tuple(moduli))

    @classmethod
    def cremona(cls, e_max: int, r_max: int = 5):
        return cls(BaseCase.CREMONA, (), e_max, r_max)


def _mk(base, rank, family, points=(), e=0, partition=(), modulus=None):
    return SurfaceCentralModel(
        rank=rank,
        base=base,
        family=family,
        points=tuple(points),
        e=e,
        partition=tuple(partition),
        modulus=modulus,
        orientable=is_orientable(base, family, rank - 1),
    )


def _point_sets(u: GeneratorUniverse, rank: int) -> list:
    """The marked point sets of the rank's generators: the (rank-1)-subsets
    of the sorted labels over the ruled base, the empty set over the plane."""
    if u.base is BaseCase.RULED:
        return list(combinations(sorted(u.labels), rank - 1))
    return [()]


def _tag(family, partition=(), e=0, modulus=None) -> tuple:
    return (family, partition, modulus, e)


def _tags(u: GeneratorUniverse, rank: int, e_bound: int) -> list:
    """The configuration tags (family, partition, modulus, e) of the rank's
    generators with e <= e_bound, in generator order: over the plane the del
    Pezzo families first, then the blowups, then the minimal-section family."""
    if not 1 <= rank <= u.r_max:
        raise ValueError(f"rank must be in [1, {u.r_max}], got {rank}")
    k = rank - 1
    ruled = u.base is BaseCase.RULED
    tags = [] if ruled else [_tag(f) for f in POINT_FAMILIES if DEL_PEZZO_RANK[f] == rank]
    if rank == 1:
        return tags + [_tag("hirzebruch", e=e) for e in range(e_bound + 1)]
    if rank == 5 and not ruled:
        return tags  # only the del Pezzo is classified here
    for part in sorted(partitions(k)) if ruled else partitions(k):
        moduli = sorted(u.moduli) if part == (1,) * k and k == 4 else [None]
        tags += [_tag("blowup", part, modulus=m) for m in moduli]
    return tags + [_tag("min_section", e=e) for e in range(1, e_bound + 1)]


def enumerate_generators(u: GeneratorUniverse, rank: int, e_bound: int | None = None):
    """Canonically ordered generators of the given rank, with e <= e_bound
    (defaulting to the universe's e_max): the point sets times the tags."""
    tags = _tags(u, rank, u.e_max if e_bound is None else e_bound)
    return [
        _mk(u.base, rank, family, points, e, partition, modulus)
        for points in _point_sets(u, rank)
        for family, partition, modulus, e in tags
    ]


# Per-point transition tables for the ruled families.  A model with k marked
# points is a k-cube whose coordinate over a point picks which of the two
# (-1)-curves in its fibre, E or f-E, is contracted; the two facets over a
# point are those contractions and land on the listed targets.  A coefficient
# is the sum over the two facets of the cube sign times +1 or -1, according as
# the facet's corner invariants e run along the target's orientation or
# against it.  For the general configuration both facets over a point are the
# same target with opposite corner orders, hence the 2.  The multiset does not
# depend on which point is removed, which is exactly why the alternating-sign
# boundary squares to zero.  tests/test_row0_witness.py derives these entries
# from the negative sections of each configuration.
def _blowup_transitions(partition: tuple) -> list[tuple]:
    k = sum(partition)
    if partition == (1,) * k:
        return [(_tag("blowup", (1,) * (k - 1)), 2)]
    if partition == (k,):
        return [(_tag("blowup", (k - 1,)), 1), (_tag("min_section", e=1), -1)]
    if partition == (2, 1):
        return [(_tag("blowup", (1, 1)), 1), (_tag("blowup", (2,)), 1)]
    if partition == (2, 1, 1):
        return [(_tag("blowup", (1, 1, 1)), 1), (_tag("blowup", (2, 1)), 1)]
    if partition == (2, 2):
        return [(_tag("blowup", (2, 1)), 2)]
    if partition == (3, 1):
        return [(_tag("blowup", (3,)), 1), (_tag("blowup", (2, 1)), 1)]
    raise ValueError(f"no transition table for partition {partition}")


@dataclass
class BoundaryMatrix:
    """Boundary matrix: columns are rank-r generators, rows the rank-(r-1)
    generators up to the target invariant bound.  ``matrix`` holds one dict
    per column, row index -> nonzero coefficient (smith's column format)."""

    rank: int
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    matrix: list = field(default_factory=list)


def _ruled_boundary_targets(rank: int, tag: tuple) -> list:
    """(removed position, target tag, coefficient) for a rank-r tag over the
    ruled base: each transition once per position p of the sorted point set,
    with the sign (-1)^p.  At rank 2 the one point goes and a two-ray game
    to the rank-1 surfaces e + 1 and e remains."""
    family, partition, _, e = tag
    if rank == 2:
        return [(0, _tag("hirzebruch", e=e + 1), 1), (0, _tag("hirzebruch", e=e), -1)]
    if family == "min_section":
        trans = [(_tag("min_section", e=e), 1), (_tag("min_section", e=e + 1), -1)]
    else:
        trans = _blowup_transitions(partition)
    return [
        (pos, target, (-1) ** pos * coeff)
        for pos in range(rank - 1) for target, coeff in trans
    ]


def _cremona_boundary_targets(rank: int, tag: tuple) -> list:
    """(removed position, target tag, coefficient) for a rank-r tag over the
    plane, where the empty point set is its own one face, at position 0."""
    family, partition, _, e = tag
    if family == "dp8_blowdown":
        trans = [(_tag("hirzebruch", e=1), 1), (_tag("plane"), -1)]
    elif family == "dp8_quadric":
        trans = []
    elif rank == 2:  # S_g,1 and S_e,1: the two-ray games of the ruled base
        return _ruled_boundary_targets(rank, tag)
    elif family == "dp7":
        trans = [(_tag("dp8_quadric"), 1)]
    elif rank == 3:
        trans = []  # S_g,2 / S_s,2 / S_e,2 all have even true boundaries
    elif family == "dp6":
        trans = [(_tag("blowup", (1, 1)), 1)]
    elif partition == (1, 1, 1):
        trans = []
    elif partition == (2, 1):
        trans = [(_tag("blowup", (1, 1)), 1), (_tag("blowup", (2,)), 1)]
    elif partition == (3,):
        trans = [(_tag("min_section", e=1), 1), (_tag("blowup", (2,)), 1)]
    elif family == "min_section" and rank == 4:
        trans = [(_tag("min_section", e=e + 1), 1), (_tag("min_section", e=e), 1)]
    elif family == "dp5":
        trans = [(_tag("blowup", (1, 1, 1)), 1)]
    else:
        raise ValueError(f"no boundary table for {tag} at rank {rank}")
    return [(0, target, coeff) for target, coeff in trans]


def boundary(u: GeneratorUniverse, rank: int, e_bound: int | None = None,
             target_e_bound: int | None = None) -> BoundaryMatrix:
    """Boundary matrix from rank to rank-1 generators.

    For rank 1 the result is the augmentation: a single row with every
    coefficient 1.  Above it, the column of S x t (point set S, tag t) is
    the sum of (-1)^p (S minus its p-th point) x t' over the tag's
    transitions; that row is face_index * len(target tags) + tag_index(t').
    Raises RuntimeError when a transition reaches a tag beyond
    target_e_bound (default e_bound + 1).  Order-2 rows (non-orientable
    generators) take no entries out of plain columns, which the tables
    respect by construction.
    """
    e_cols = u.e_max if e_bound is None else e_bound
    cols = enumerate_generators(u, rank, e_cols)  # refuses ranks outside [1, r_max]
    if rank == 1:
        return BoundaryMatrix(rank=1, columns=cols, rows=["Z (augmentation)"],
                              matrix=[{0: 1} for _ in cols])
    e_rows = (e_cols + 1) if target_e_bound is None else target_e_bound
    rows = enumerate_generators(u, rank - 1, e_rows)
    row_tags = _tags(u, rank - 1, e_rows)
    tag_index = {t: j for j, t in enumerate(row_tags)}
    face_offset = {s: i * len(row_tags) for i, s in enumerate(_point_sets(u, rank - 1))}
    targets = _ruled_boundary_targets if u.base is BaseCase.RULED else _cremona_boundary_targets
    transitions = []  # per column tag: (position, target tag index, coefficient)
    for tag in _tags(u, rank, e_cols):
        entries = []
        for pos, target, coeff in targets(rank, tag):
            if target not in tag_index:
                raise RuntimeError(
                    f"the rank-{rank} tag {tag} reaches {target}, beyond target_e_bound={e_rows}"
                )
            entries.append((pos, tag_index[target], coeff))
        transitions.append(entries)
    matrix = []
    for points in _point_sets(u, rank):
        # the face without the point at each position; over the plane the
        # empty point set is its own one face
        offsets = [face_offset[points[:p] + points[p + 1:]] for p in range(len(points) or 1)]
        for entries in transitions:
            column = {}
            for pos, j, coeff in entries:
                i = offsets[pos] + j
                column[i] = column.get(i, 0) + coeff
            matrix.append({i: x for i, x in column.items() if x})
    return BoundaryMatrix(rank=rank, columns=cols, rows=rows, matrix=matrix)


def displayed_boundary(u: GeneratorUniverse, gen: SurfaceCentralModel) -> dict:
    """The boundary of one generator as a target -> coefficient mapping."""
    rank = gen.rank
    bm = boundary(u, rank, e_bound=max(u.e_max, gen.e), target_e_bound=max(u.e_max, gen.e) + 1)
    column = bm.matrix[bm.columns.index(gen)]
    return {bm.rows[i]: column[i] for i in sorted(column)}


@cache
def row0_complex(u: GeneratorUniverse) -> tuple:
    """The coinvariant chain complex of the truncation (degree d = rank d+1).

    Returns (IntegerChainComplex, generators per rank).  Built once per
    universe (equal universes share the entry) and handed to every caller,
    so callers must not mutate it; the homology and composition checks only
    read it.
    """
    staircase = {r: u.e_max + (u.r_max - r) for r in range(1, u.r_max + 1)}
    bms = [
        boundary(u, r, e_bound=staircase[r], target_e_bound=staircase[r - 1])
        for r in range(2, u.r_max + 1)
    ]
    gens = {1: bms[0].rows if bms else enumerate_generators(u, 1, staircase[1])}
    gens.update((bm.rank, bm.columns) for bm in bms)
    ranks = [len(gens[r]) for r in range(1, u.r_max + 1)]
    boundaries = [[]] + [bm.matrix for bm in bms]
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
    truncation is connected."""
    cc, gens = row0_complex(u)
    aug = [{0: 1} for _ in gens[1]]
    d1 = cc.boundaries[1] if cc.top_degree >= 1 else []
    return presented_homology(
        aug, d1, len(gens[1]), 1,
        relations_mid=cc.cyclic.get(0, {}),
        relations_target={},
    )


def row0_homology(u: GeneratorUniverse, degree: int) -> FGAbelianGroup:
    """E_{degree,0}: homology of the coinvariant complex at the given degree.

    Degrees above r_max - 2 are refused: the first missing boundary would
    make the kernel spurious there.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > u.r_max - 2:
        raise ValueError(
            f"truncation r_max={u.r_max} only supports degrees <= {u.r_max - 2}"
        )
    cc, _ = row0_complex(u)
    return cc.homology(degree)


def check_row0_squares_to_zero(u: GeneratorUniverse) -> bool:
    """d o d = 0 on the full staircase complex, exactly and modulo the Z/2
    annotations, at every degree; raises ValueError otherwise."""
    cc, _ = row0_complex(u)
    if not cc.check_composition():
        raise ValueError("row-0 boundaries do not compose to zero modulo the annotations")
    return True


def two_ray_game(model: SurfaceCentralModel):
    """The two rank-1 models under a rank-2 central model.

    The pair matches the model's boundary column: the two targets appear there
    with opposite signs (and cancel to zero for the quadric over a point,
    whose two rulings are distinct models in the same isomorphism class)."""
    if model.rank != 2:
        raise ValueError("the two-ray game needs a rank-2 central model")
    base = model.base
    if model.family == "dp8_blowdown":
        return (_mk(base, 1, "hirzebruch", e=1), _mk(base, 1, "plane"))
    if model.family == "dp8_quadric":
        a = _mk(base, 1, "hirzebruch", e=0)
        return (a, replace(a, modulus="second ruling"))
    if model.family == "blowup":
        return (_mk(base, 1, "hirzebruch", e=1), _mk(base, 1, "hirzebruch", e=0))
    if model.family == "min_section":
        return (
            _mk(base, 1, "hirzebruch", e=model.e + 1),
            _mk(base, 1, "hirzebruch", e=model.e),
        )
    raise ValueError(f"no two-ray game for {model}")


def elementary_transformation(e: int, on_minimal_section: bool) -> int:
    """Invariant after one elementary transformation of the e-th ruled surface.

    Every point of the quadric lies on a minimal section, so e = 0 always
    climbs to 1; otherwise the invariant moves up on the minimal section and
    down off it.
    """
    if e < 0:
        raise ValueError("invariant must be non-negative")
    if e == 0:
        return 1
    return e + 1 if on_minimal_section else e - 1


# -- the rank-4 sphere ---------------------------------------------------------


def syzygy_sphere_bl3() -> RegularCWComplex:
    """The 2-sphere decomposition attached to the three-point blowup of the
    plane, assembled from Picard-lattice data.

    Vertices are its nine rank-3 models (six curve contractions plus three
    conic fibrations), edges its 21 rank-2 models, faces its 14 Mori models;
    every face is a triangle.
    """
    return validated_sphere_bl3()[0]


def validated_sphere_bl3() -> tuple:
    """syzygy_sphere_bl3's sphere and the ValidationReport of its one full
    validation; raises RuntimeError when the sphere fails it."""
    lat = lattice.BlowupLattice(3)
    lines = lat.enumerate_lines()
    conics = lat.enumerate_conic_classes()

    cells = []
    boundary = {}

    def vid(c):
        return ("v", c.coefficients)

    for c in lines:
        cells.append(Cell(id=vid(c), dim=0, label=f"contract {c}"))
        boundary[vid(c)] = []
    for f in conics:
        cells.append(Cell(id=vid(f), dim=0, label=f"fibration {f}"))
        boundary[vid(f)] = []

    edges = {}

    def add_edge(key, a, b, label):
        ends = sorted((vid(a), vid(b)), key=repr)
        edges[key] = ends
        cells.append(Cell(id=key, dim=1, label=label))
        boundary[key] = [(ends[1], 1), (ends[0], -1)]

    for a, b in combinations(lines, 2):
        if lat.intersect(a, b) == 0:
            key = ("e", tuple(sorted((a.coefficients, b.coefficients))))
            add_edge(key, a, b, f"contract {a},{b}")
    vertical = {}
    for f in conics:
        vertical[f] = [c for c in lines if lat.intersect(c, f) == 0]
        for c in vertical[f]:
            key = ("e", (c.coefficients, ("fib", f.coefficients)))
            add_edge(key, c, f, f"contract {c} over {f}")

    def face(key, vertex_cycle, label):
        cells.append(Cell(id=key, dim=2, label=label))
        sides = []
        n = len(vertex_cycle)
        for i in range(n):
            a, b = vertex_cycle[i], vertex_cycle[(i + 1) % n]
            for ekey, ends in edges.items():
                if set(ends) == {a, b}:
                    sign = 1 if ends == [a, b] else -1
                    sides.append((ekey, sign))
                    break
            else:
                raise RuntimeError(f"missing edge {a} {b} while building {key}")
        boundary[key] = sides

    # Mori models over a point: blow down three pairwise disjoint lines.
    for triple in combinations(lines, 3):
        if all(lat.intersect(a, b) == 0 for a, b in combinations(triple, 2)):
            key = ("f", tuple(sorted(c.coefficients for c in triple)))
            face(key, [vid(c) for c in triple], "plane via " + ",".join(map(str, triple)))
    # Mori models over the line: a conic together with one contracted line
    # from each of its two reducible fibres.
    for f in conics:
        fibres = lat.reducible_fibres(f)
        if len(fibres) != 2:
            raise RuntimeError(f"conic {f} has {len(fibres)} reducible fibres, expected 2")
        (a1, b1), (a2, b2) = fibres
        for c1 in (a1, b1):
            for c2 in (a2, b2):
                key = ("f", (("fib", f.coefficients), c1.coefficients, c2.coefficients))
                face(key, [vid(c1), vid(f), vid(c2)],
                     f"ruled via {f} minus {c1},{c2}")

    sphere = RegularCWComplex(cells, boundary)
    report = sphere.validate()
    if not report.valid:
        raise RuntimeError("sphere construction failed validation: " + report.summary())
    return sphere, report
