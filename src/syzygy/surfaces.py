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

Boundaries are assembled from per-tag transition tables (the two blow-downs
over each marked point) with alternating signs over the sorted point set;
because each tag's transition multiset does not depend on which point is
removed, d o d = 0 holds identically.  Non-orientable generators contribute
order-2 rows, realized through the cyclic annotations of the chain-complex
engine.

Truncation: generators are listed up to the requested e_max; internally the
chain complex keeps rank r up to e_max + (r_max - r), a staircase under which
every boundary formula of every retained generator is fully expressible, so
the truncated object is an honest complex and homology in low degrees agrees
with the untruncated answers on the stabilized range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from pathlib import Path

from .complexes import Cell, IntegerChainComplex, RegularCWComplex
from .lattice import BlowupLattice
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

    def sort_key(self):
        fam_order = {
            "plane": 0, "dp8_blowdown": 1, "dp8_quadric": 2, "dp7": 1, "dp6": 1, "dp5": 1,
            "hirzebruch": 3, "blowup": 4, "min_section": 5,
        }
        return (
            self.points,
            fam_order.get(self.family, 9),
            self.partition,
            self.modulus or "",
            self.e,
        )

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


def _load_orientability() -> dict:
    with open(_DATA_DIR / "orientability.json", "r", encoding="utf-8") as fh:
        table = json.load(fh)
    for key, entry in table.items():
        if not entry.get("provenance"):
            raise ValueError(f"orientability entry {key!r} lacks a provenance note")
    return table


_ORIENTABILITY = None


def orientability_table() -> dict:
    global _ORIENTABILITY
    if _ORIENTABILITY is None:
        _ORIENTABILITY = _load_orientability()
    return _ORIENTABILITY


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


def enumerate_generators(u: GeneratorUniverse, rank: int, e_bound: int | None = None):
    """Canonically ordered generators of the given rank, with e <= e_bound
    (defaulting to the universe's e_max)."""
    if not 1 <= rank <= u.r_max:
        raise ValueError(f"rank must be in [1, {u.r_max}], got {rank}")
    e_bound = u.e_max if e_bound is None else e_bound
    k = rank - 1
    out = []
    if u.base is BaseCase.RULED:
        if rank == 1:
            out = [_mk(u.base, 1, "hirzebruch", e=e) for e in range(0, e_bound + 1)]
        else:
            for pts in combinations(sorted(u.labels), k):
                for part in partitions(k):
                    if part == (1,) * k and k == 4:
                        out.extend(
                            _mk(u.base, rank, "blowup", pts, partition=part, modulus=m)
                            for m in u.moduli
                        )
                    else:
                        out.append(_mk(u.base, rank, "blowup", pts, partition=part))
                out.extend(
                    _mk(u.base, rank, "min_section", pts, e=e)
                    for e in range(1, e_bound + 1)
                )
        out.sort(key=lambda m: m.sort_key())
        return out
    # cremona universe: one generator per configuration tag, no point labels
    if rank == 1:
        out = [_mk(u.base, 1, "plane")]
        out += [_mk(u.base, 1, "hirzebruch", e=e) for e in range(0, e_bound + 1)]
    elif rank == 2:
        out = [_mk(u.base, 2, "dp8_blowdown"), _mk(u.base, 2, "dp8_quadric")]
        out += [_mk(u.base, 2, "blowup", partition=(1,))]
        out += [_mk(u.base, 2, "min_section", e=e) for e in range(1, e_bound + 1)]
    elif rank == 3:
        out = [_mk(u.base, 3, "dp7")]
        out += [_mk(u.base, 3, "blowup", partition=p) for p in partitions(2)]
        out += [_mk(u.base, 3, "min_section", e=e) for e in range(1, e_bound + 1)]
    elif rank == 4:
        out = [_mk(u.base, 4, "dp6")]
        out += [_mk(u.base, 4, "blowup", partition=p) for p in partitions(3)]
        out += [_mk(u.base, 4, "min_section", e=e) for e in range(1, e_bound + 1)]
    else:  # rank 5: only the del Pezzo is classified in this universe
        out = [_mk(u.base, 5, "dp5")]
    return out


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
    general = (1,) * (k - 1)
    if partition == (1,) * k:
        return [(("blowup", general), 2)]
    if partition == (k,):
        down = (k - 1,) if k - 1 >= 1 else ()
        return [(("blowup", down), 1), (("min_section", 1), -1)]
    if partition == (2, 1):
        return [(("blowup", (1, 1)), 1), (("blowup", (2,)), 1)]
    if partition == (2, 1, 1):
        return [(("blowup", (1, 1, 1)), 1), (("blowup", (2, 1)), 1)]
    if partition == (2, 2):
        return [(("blowup", (2, 1)), 2)]
    if partition == (3, 1):
        return [(("blowup", (3,)), 1), (("blowup", (2, 1)), 1)]
    raise ValueError(f"no transition table for partition {partition}")


@dataclass
class BoundaryMatrix:
    """Annotated boundary matrix: columns are rank-r generators, rows are the
    rank-(r-1) generators they can hit (including invariant-(e_max+1) targets,
    so nothing is ever silently clipped)."""

    rank: int
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    matrix: list = field(default_factory=list)
    row_orders: dict = field(default_factory=dict)  # row index -> 2 for Z/2 rows
    clipped: list = field(default_factory=list)

    def column_vector(self, j: int) -> list[int]:
        return [self.matrix[i][j] for i in range(len(self.rows))]


def _ruled_boundary_targets(gen: SurfaceCentralModel):
    """List of (removed-point-position, target-descriptor, coefficient)."""
    out = []
    if gen.rank == 2:
        if gen.family == "blowup":
            out.append((0, ("hirzebruch", 1), 1))
            out.append((0, ("hirzebruch", 0), -1))
        else:
            out.append((0, ("hirzebruch", gen.e + 1), 1))
            out.append((0, ("hirzebruch", gen.e), -1))
        return out
    if gen.family == "min_section":
        trans = [(("min_section", gen.e), 1), (("min_section", gen.e + 1), -1)]
    else:
        trans = _blowup_transitions(gen.partition)
    for pos in range(len(gen.points)):
        sign = (-1) ** pos
        for target, coeff in trans:
            out.append((pos, target, sign * coeff))
    return out


def _cremona_boundary_targets(gen: SurfaceCentralModel):
    e = gen.e
    if gen.family == "dp8_blowdown":
        return [(("hirzebruch", 1), 1), (("plane", None), -1)]
    if gen.family == "dp8_quadric":
        return []
    if gen.family == "blowup" and gen.rank == 2:
        return [(("hirzebruch", 1), 1), (("hirzebruch", 0), -1)]
    if gen.family == "min_section" and gen.rank == 2:
        return [(("hirzebruch", e + 1), 1), (("hirzebruch", e), -1)]
    if gen.family == "dp7":
        return [(("dp8_quadric", None), 1)]
    if gen.rank == 3:
        return []  # S_g,2 / S_s,2 / S_e,2 all have even true boundaries
    if gen.family == "dp6":
        return [(("blowup", (1, 1)), 1)]
    if gen.family == "blowup" and gen.partition == (1, 1, 1):
        return []
    if gen.family == "blowup" and gen.partition == (2, 1):
        return [(("blowup", (1, 1)), 1), (("blowup", (2,)), 1)]
    if gen.family == "blowup" and gen.partition == (3,):
        return [(("min_section", 1), 1), (("blowup", (2,)), 1)]
    if gen.family == "min_section" and gen.rank == 4:
        return [(("min_section", e + 1), 1), (("min_section", e), 1)]
    if gen.family == "dp5":
        return [(("blowup", (1, 1, 1)), 1)]
    raise ValueError(f"no boundary table for {gen}")


def _target_model(u, rank, gen, removed_pos, descriptor):
    fam, data = descriptor
    if u.base is BaseCase.RULED and rank - 1 >= 2:
        rest = gen.points[:removed_pos] + gen.points[removed_pos + 1:]
    else:
        rest = ()
    if fam == "hirzebruch":
        return _mk(u.base, rank - 1, "hirzebruch", e=data)
    if fam == "plane":
        return _mk(u.base, rank - 1, "plane")
    if fam == "dp8_quadric":
        return _mk(u.base, rank - 1, "dp8_quadric")
    if fam == "min_section":
        return _mk(u.base, rank - 1, "min_section", rest, e=data)
    if fam == "blowup":
        return _mk(u.base, rank - 1, "blowup", rest, partition=data)
    raise ValueError(f"unknown target family {fam}")


def boundary(u: GeneratorUniverse, rank: int, e_bound: int | None = None,
             target_e_bound: int | None = None) -> BoundaryMatrix:
    """Boundary matrix from rank to rank-1 generators.

    For rank 1 the result is the augmentation: a single row with every
    coefficient 1.  Row annotations record the order-2 rows contributed by
    non-orientable generators; entries out of an order-2 column into a plain
    row are necessarily zero, which the tables respect by construction.
    """
    if rank < 1 or rank > u.r_max:
        raise ValueError(f"rank must be in [1, {u.r_max}]")
    cols = enumerate_generators(u, rank, e_bound)
    if rank == 1:
        bm = BoundaryMatrix(rank=1, columns=cols, rows=["Z (augmentation)"],
                            matrix=[[1] * len(cols)])
        return bm
    e_cols = u.e_max if e_bound is None else e_bound
    e_rows = (e_cols + 1) if target_e_bound is None else target_e_bound
    rows = enumerate_generators(u, rank - 1, e_rows)
    row_index = {m: i for i, m in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    clipped = []
    for j, gen in enumerate(cols):
        if u.base is BaseCase.RULED:
            targets = _ruled_boundary_targets(gen)
        else:
            targets = [(None, d, c) for d, c in _cremona_boundary_targets(gen)]
        for pos, descriptor, coeff in targets:
            tgt = _target_model(u, rank, gen, pos, descriptor)
            i = row_index.get(tgt)
            if i is None:
                clipped.append((gen, tgt, coeff))
                continue
            matrix[i][j] += coeff
    bm = BoundaryMatrix(rank=rank, columns=cols, rows=rows, matrix=matrix, clipped=clipped)
    bm.row_orders = {i: 2 for i, m in enumerate(rows) if not m.orientable}
    return bm


def displayed_boundary(u: GeneratorUniverse, gen: SurfaceCentralModel) -> dict:
    """The boundary of one generator as a target -> coefficient mapping."""
    rank = gen.rank
    bm = boundary(u, rank, e_bound=max(u.e_max, gen.e), target_e_bound=max(u.e_max, gen.e) + 1)
    j = bm.columns.index(gen)
    return {
        bm.rows[i]: bm.matrix[i][j]
        for i in range(len(bm.rows))
        if bm.matrix[i][j] != 0
    }


def row0_complex(u: GeneratorUniverse) -> tuple:
    """The coinvariant chain complex of the truncation (degree d = rank d+1).

    Returns (IntegerChainComplex, generators per rank).
    """
    staircase = {r: u.e_max + (u.r_max - r) for r in range(1, u.r_max + 1)}
    gens = {r: enumerate_generators(u, r, staircase[r]) for r in range(1, u.r_max + 1)}
    ranks = [len(gens[r]) for r in range(1, u.r_max + 1)]
    boundaries = [[[0] * ranks[0] for _ in range(0)]]
    for d in range(1, u.r_max):
        rank = d + 1
        bm = boundary(u, rank, e_bound=staircase[rank], target_e_bound=staircase[rank - 1])
        if bm.clipped:
            raise RuntimeError(f"staircase truncation clipped a formula at rank {rank}: {bm.clipped}")
        if bm.rows != gens[rank - 1]:
            raise RuntimeError("generator ordering mismatch in row-0 assembly")
        boundaries.append(bm.matrix)
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
    aug = [[1] * len(gens[1])]
    d1 = cc.boundaries[1] if cc.top_degree >= 1 else [[0] * 0 for _ in gens[1]]
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
        from dataclasses import replace
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
    lat = BlowupLattice(3)
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
    return sphere


def cubic_summary() -> dict:
    """Counting report for the cubic surface: lines, conic fibrations,
    configuration counts by the canonical walk over the line order and over
    its reverse, and the recorded source values 216 / 243 with discrepancy
    flags instead of assertions."""
    lat = BlowupLattice(6)
    lines = lat.enumerate_lines()
    conics = lat.enumerate_conic_classes()
    graph = lat.incidence_graph(lines, 1)
    cfg = lat.count_fibration_configurations()
    cfg_rev = lat.count_fibration_configurations(reverse_order=True)
    disjoint_pairs = sum(
        1 for a, b in combinations(lines, 2) if lat.intersect(a, b) == 0
    )
    recorded_fibrations = 216
    recorded_vertices = 243
    report = {
        "line_count": len(lines),
        "divisorial_facet_models": len(lines),
        "conic_class_count": len(conics),
        "line_graph_regular_degree": 10 if graph.is_regular(10) else None,
        "fibration_configurations_ordered": cfg["ordered"],
        "fibration_configurations_unordered": cfg["unordered"],
        "enumeration_order_independent": cfg == cfg_rev,
        "disjoint_line_pairs": disjoint_pairs,
        "recorded_fibration_count": recorded_fibrations,
        "recorded_vertex_count": recorded_vertices,
        "vertex_count_from_unordered": len(lines) + cfg["unordered"],
        "vertex_count_from_recorded": len(lines) + recorded_fibrations,
        "flags": [],
    }
    if cfg["unordered"] != recorded_fibrations:
        report["flags"].append(
            f"recorded fibration count {recorded_fibrations} differs from the "
            f"unordered configuration count {cfg['unordered']} (= the conic class count); "
            f"it coincides with the number of disjoint line pairs {disjoint_pairs}"
        )
    if report["vertex_count_from_unordered"] != recorded_vertices:
        report["flags"].append(
            f"recorded vertex count {recorded_vertices} differs from "
            f"lines + unordered configurations = {report['vertex_count_from_unordered']}"
        )
    return report
