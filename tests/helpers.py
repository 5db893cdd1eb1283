"""Shared complex builders, test oracles, and the library functions that
only the test suite calls."""

import contextlib
import io
from itertools import combinations, product
from math import gcd, prod
from typing import NamedTuple

from syzygy import smith
from syzygy.cli import main
from syzygy.complexes import IntegerChainComplex, RegularCWComplex
from syzygy.formal import (
    ZERO,
    FormalGroup,
    FormalGroupError,
    FormalHom,
    InsufficientAtomData,
    atom_registry,
)
from syzygy.lattice import BlowupLattice
from syzygy.smith import (
    FGAbelianGroup,
    Matrix,
    column_product,
    mat_mul,
    partitions,
    presented_homology,
    prime_factorization,
    smith_normal_form,
    solve,
    zeros,
)
from syzygy.spectral import (
    ExactSequence,
    KnownHomologyRegistry,
    SpectralGrid,
    direct_sum_with_layout,
)
from syzygy.surfaces import (
    BaseCase,
    GeneratorUniverse,
    SurfaceCentralModel,
    boundary,
    enumerate_generators,
)


class CliResult(NamedTuple):
    exit_code: int
    output: str


def invoke(*args) -> CliResult:
    """Run `syz` with `args` in this process; return its exit code and what
    it printed to stdout.  A SystemExit with no code counts as 0 and one with
    a message as 1, as the interpreter would exit; any other exception
    propagates."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue())


def build_point():
    return RegularCWComplex({"p": 0}, {"p": []})


def build_interval():
    cells = {"a": 0, "b": 0, "ab": 1}
    return RegularCWComplex(cells, {"ab": [("b", 1), ("a", -1)]})


def build_cycle(n):
    """Boundary of an n-gon: n vertices, n edges."""
    cells = {f"v{i}": 0 for i in range(n)} | {f"e{i}": 1 for i in range(n)}
    boundary = {f"e{i}": [(f"v{(i + 1) % n}", 1), (f"v{i}", -1)] for i in range(n)}
    return RegularCWComplex(cells, boundary)


def build_octahedron():
    """Surface of the octahedron: 6 vertices, 12 edges, 8 triangles."""
    # vertices 0/1, 2/3, 4/5 are antipodal pairs
    vertices = list(range(6))
    antipodal = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    cells = {f"v{i}": 0 for i in vertices}
    boundary = {f"v{i}": [] for i in vertices}
    edges = {}
    for a, b in combinations(vertices, 2):
        if antipodal[a] != b:
            eid = f"e{a}{b}"
            edges[(a, b)] = eid
            cells[eid] = 1
            boundary[eid] = [(f"v{b}", 1), (f"v{a}", -1)]

    def edge_sign(a, b):
        key = (min(a, b), max(a, b))
        return edges[key], (1 if a < b else -1)

    for x in (0, 1):
        for y in (2, 3):
            for z in (4, 5):
                fid = f"f{x}{y}{z}"
                cells[fid] = 2
                sides = []
                cycle = [x, y, z]
                for i in range(3):
                    a, b = cycle[i], cycle[(i + 1) % 3]
                    eid, sign = edge_sign(a, b)
                    sides.append((eid, sign))
                boundary[fid] = sides
    return RegularCWComplex(cells, boundary)


def barycentric_subdivision(cx: RegularCWComplex) -> RegularCWComplex:
    """Simplicial complex with one vertex per cell and one simplex per
    strict inclusion chain of cells."""
    face_sets = {cid: cx.faces(cid) for cid in cx.cells}
    chains = [(cid,) for cid in cx.cells]
    frontier = list(chains)
    while frontier:
        new = []
        for chain in frontier:
            top = chain[-1]
            for cid in cx.cells:
                if top in face_sets[cid]:
                    new.append(chain + (cid,))
        chains.extend(new)
        frontier = new
    cells = {}
    boundary = {}
    for chain in chains:
        cells[chain] = len(chain) - 1
        faces = []
        if len(chain) > 1:
            for i in range(len(chain)):
                sub = chain[:i] + chain[i + 1:]
                faces.append((sub, (-1) ** i))
        boundary[chain] = faces
    return RegularCWComplex(cells, boundary)


def _chain_subcomplex(sd, cid, include_cell):
    """Cells of the barycentric subdivision ``sd`` whose chains lie (weakly)
    above the cell ``cid``; the cells strictly above it are the tops of its
    2-chains (cid, m), so no face closure is taken again."""
    above = {chain[1] for chain in sd.cells if len(chain) == 2 and chain[0] == cid}
    if include_cell:
        above.add(cid)
    keep = [chain_id for chain_id in sd.cells if above.issuperset(chain_id)]
    keep_set = set(keep)
    cells = {c: sd.cells[c] for c in keep}
    boundary = {
        c: [(f, s) for f, s in sd.boundary[c] if f in keep_set] for c in keep
    }
    return RegularCWComplex(cells, boundary)


def link_of(cx: RegularCWComplex, cid) -> RegularCWComplex:
    """Subcomplex of the subdivision spanned by chains strictly above the cell."""
    if cid not in cx.cells:
        raise KeyError(f"unknown cell {cid!r}")
    return _chain_subcomplex(barycentric_subdivision(cx), cid, include_cell=False)


def dual_block_of(cx: RegularCWComplex, cid) -> RegularCWComplex:
    """Closed dual block: chains whose members all contain the cell."""
    if cid not in cx.cells:
        raise KeyError(f"unknown cell {cid!r}")
    return _chain_subcomplex(barycentric_subdivision(cx), cid, include_cell=True)


# -- registry and display readers ---------------------------------------------------


def registry_items(registry: KnownHomologyRegistry) -> list:
    """The registry's ((group, degree), (value, provenance)) entries, sorted."""
    return sorted(registry._entries.items(), key=lambda kv: (kv[0][0], kv[0][1]))


def registry_audit(registry: KnownHomologyRegistry) -> bool:
    """Does every registry entry carry a provenance note?"""
    return all(prov for _, prov in registry._entries.values())


def infinite_sum(index_label: str, inner: FormalGroup) -> FormalGroup:
    """The display-only infinite sum of copies of ``inner`` over the label."""
    return FormalGroup(infinite=((index_label, inner),))


def displayed_boundary(u: GeneratorUniverse, gen: SurfaceCentralModel) -> dict:
    """The boundary of one generator as a target -> coefficient mapping."""
    bm = boundary(u, gen.rank, e_bound=max(u.e_max, gen.e),
                  target_e_bound=max(u.e_max, gen.e) + 1)
    column = bm.matrix[bm.columns.index(gen)]
    return {bm.rows[i]: column[i] for i in sorted(column)}


# -- divisor arithmetic, group readers and file writers -----------------------------
#
# Plain functions over the library's types for what only the tests need:
# building and combining divisor classes, reading formal and finitely
# generated groups, and writing the complex file formats that
# load_complex_file reads.


def divisor(lat: BlowupLattice, *coefficients: int) -> tuple:
    """The class with the given coefficients in lat's basis (H, E1..En)."""
    if len(coefficients) != lat.rank:
        raise ValueError(f"expected {lat.rank} coefficients, got {len(coefficients)}")
    return tuple(int(c) for c in coefficients)


def hyperplane_class(lat: BlowupLattice) -> tuple:
    return divisor(lat, 1, *([0] * lat.n))


def exceptional_class(lat: BlowupLattice, i: int) -> tuple:
    if not 1 <= i <= lat.n:
        raise ValueError(f"E{i} does not exist in a rank-{lat.rank} lattice")
    return divisor(lat, *(1 if j == i else 0 for j in range(lat.rank)))


def canonical_class(lat: BlowupLattice) -> tuple:
    return (-3,) + (1,) * lat.n


def divisor_sum(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def divisor_multiple(a: tuple, k: int) -> tuple:
    return tuple(k * x for x in a)


def reducible_fibres(lat: BlowupLattice, conic: tuple) -> list:
    """Unordered pairs of (-1)-classes summing to the fibration class, each
    pair in coefficient order."""
    return [(a, b) for a, b in combinations(lat.enumerate_lines(), 2) if divisor_sum(a, b) == conic]


def bl3_sphere_cells() -> list:
    """The cells of the three-point blowup's sphere as sets of coefficient
    tuples, per dimension, listed model by model from the lattice: the six
    lines and three conic classes; the disjoint line pairs and each conic
    with each component of its reducible fibres; the triples of pairwise
    disjoint lines and each conic with one component from each of its two
    reducible fibres."""
    lat = BlowupLattice(3)
    lines, conics = lat.enumerate_lines(), lat.enumerate_conic_classes()
    fibres = {f: reducible_fibres(lat, f) for f in conics}
    assert all(len(pairs) == 2 for pairs in fibres.values())
    edges = [(a, b) for a, b in combinations(lines, 2) if lat.intersect(a, b) == 0]
    edges += [(f, c) for f, pairs in fibres.items() for pair in pairs for c in pair]
    faces = [t for t in combinations(lines, 3)
             if all(lat.intersect(a, b) == 0 for a, b in combinations(t, 2))]
    faces += [(f, c1, c2) for f, (one, two) in fibres.items() for c1 in one for c2 in two]
    return [{frozenset(cell) for cell in cells}
            for cells in ([(v,) for v in lines + conics], edges, faces)]


def cyclic_group(n: int) -> FormalGroup:
    return FormalGroup(cyclic=(n,))


def fg_part(g: FormalGroup) -> FGAbelianGroup:
    """The finitely generated part of a formal group: its free and cyclic
    summands."""
    return FGAbelianGroup(g.free_rank, g.cyclic)


def is_trivial(g: FGAbelianGroup) -> bool:
    return g.free_rank == 0 and not g.torsion


def group_order(g: FGAbelianGroup):
    """The order of g, or None when g is infinite."""
    if g.free_rank:
        return None
    return prod(g.torsion)


def fully_known_positions_exact(seq: ExactSequence) -> bool:
    """No interior term of the sequence fails its exactness check."""
    return all(verdict != "fail" for _, verdict, _ in seq.check())


def cw_complex_json(cx: RegularCWComplex) -> dict:
    """The CW-complex file format: cells by dimension, then boundaries."""
    cells = [
        {"id": cid, "dim": dim}
        for cid, dim in sorted(cx.cells.items(), key=lambda kv: (kv[1], repr(kv[0])))
    ]
    faces_of = {
        str(cid): [[fid, sign] for fid, sign in faces]
        for cid, faces in sorted(cx.boundary.items(), key=lambda kv: repr(kv[0]))
        if faces
    }
    return {"cells": cells, "boundary": faces_of}


def labelled(data: dict) -> dict:
    """A CW-complex file's object with a label on every cell, which the
    reader checks and drops."""
    return {**data, "cells": [{**c, "label": f"cell {c['id']}"} for c in data["cells"]]}


def chain_complex_json(cc: IntegerChainComplex) -> dict:
    """The chain-complex file format: each boundary as a dense list of rows."""
    return {
        "ranks": cc.ranks,
        "boundaries": [
            [[col.get(i, 0) for col in columns] for i in range(cc.ranks[d - 1])]
            for d, columns in enumerate(cc.boundaries[1:len(cc.ranks)], start=1)
        ],
        "cyclic": {str(d): {str(i): m for i, m in v.items()} for d, v in cc.cyclic.items() if v},
    }


# -- two-ray games and elementary transformations -----------------------------------


def two_ray_game(model: SurfaceCentralModel):
    """The two rank-1 models under a rank-2 central model.

    The pair matches the model's boundary column: the two targets appear there
    with opposite signs (and cancel to zero for the quadric over a point,
    whose two rulings are distinct models in the same isomorphism class)."""
    if model.rank != 2:
        raise ValueError("the two-ray game needs a rank-2 central model")
    base = model.base
    if model.family == "dp8_blowdown":
        return (SurfaceCentralModel(1, base, "hirzebruch", e=1),
                SurfaceCentralModel(1, base, "plane"))
    if model.family == "dp8_quadric":
        return (SurfaceCentralModel(1, base, "hirzebruch", e=0),
                SurfaceCentralModel(1, base, "hirzebruch", e=0, modulus="second ruling"))
    if model.family == "blowup":
        return (SurfaceCentralModel(1, base, "hirzebruch", e=1),
                SurfaceCentralModel(1, base, "hirzebruch", e=0))
    if model.family == "min_section":
        return (
            SurfaceCentralModel(1, base, "hirzebruch", e=model.e + 1),
            SurfaceCentralModel(1, base, "hirzebruch", e=model.e),
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


# -- oracle for presented_homology ----------------------------------------------
#
# The cycle-basis route: an explicit basis of the cycles, every boundary and
# relation vector solved for in that basis, then the cokernel of the
# coordinates.  Three Smith forms with full transforms and one solve per image
# column; slow, but it shares nothing with the invariant-factor formula: every
# diagonal it reads comes from the dense smith_normal_form, never from the
# sparse elimination.


def kernel_basis(a: Matrix, cols: int | None = None) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel of ``a``.

    ``cols`` must be supplied when ``a`` has zero rows, since the width cannot
    be recovered from an empty list.
    """
    rows = len(a)
    if cols is None:
        if rows == 0:
            raise ValueError("kernel of a 0-row matrix needs an explicit column count")
        cols = len(a[0]) if a else 0
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    basis = []
    for j in range(cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append([snf.V[i][j] for i in range(cols)])
    return basis


def columns(a, width=0):
    """The dense matrix ``a`` (a list of rows) in the library's column
    format: one dict per column, row index -> nonzero entry.  ``width`` is
    the column count of a matrix without rows."""
    return [
        {i: row[j] for i, row in enumerate(a) if row[j]}
        for j in range(len(a[0]) if a else width)
    ]


def dense(cols, height):
    """The columns ``cols`` as a dense list of ``height`` rows."""
    return [[col.get(i, 0) for col in cols] for i in range(height)]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def determinant(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors(a):
    """The nonzero invariant factors of the columns ``a`` by the sparse elimination."""
    return list(smith._eliminate(a)[0])


def dense_invariant_factors(a):
    """The nonzero entries of the dense Smith diagonal of ``a``."""
    return [d for d in smith_normal_form(a).diagonal() if d]


def prime_power_chain(orders: list[int]) -> list[int]:
    """The divisibility chain of the cyclic orders (each >= 1), built from
    their factorizations: the k-th largest factor collects every prime's k-th
    largest exponent."""
    exponents = {}
    for n in orders:
        for p, e in prime_factorization(n).items():
            exponents.setdefault(p, []).append(e)
    chain = [1] * max(map(len, exponents.values()), default=0)
    for p, es in exponents.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            chain[k] *= p ** e
    return sorted(chain)


def record_dense_shapes(monkeypatch):
    """The list that receives the shape of every matrix reaching
    smith.smith_normal_form from here on."""
    shapes = []
    dense = smith.smith_normal_form

    def record(a):
        shapes.append((len(a), len(a[0]) if a else 0))
        return dense(a)

    monkeypatch.setattr(smith, "smith_normal_form", record)
    return shapes


def dense_cokernel_group(a, ambient_rank):
    """Z^ambient_rank modulo the column span of ``a``, from the dense Smith
    diagonal."""
    nonzero = dense_invariant_factors(a)
    return FGAbelianGroup.from_orders(ambient_rank - len(nonzero), nonzero)


def columns_to_matrix(cols, height):
    out = zeros(height, len(cols))
    for j, col in enumerate(cols):
        for i, x in enumerate(col):
            out[i][j] = x
    return out


def relation_matrix(n, relations):
    """Columns m_i * e_i for each annotated index i (modulus m_i >= 2)."""
    cols = []
    for idx in sorted(relations):
        col = [0] * n
        col[idx] = relations[idx]
        cols.append(col)
    return columns_to_matrix(cols, n)


def cycle_basis_homology(
    boundary_out, boundary_in, n_mid, n_target, relations_mid=None, relations_target=None
):
    """presented_homology by a cycle basis; same arguments, same ValueErrors."""
    relations_mid = relations_mid or {}
    relations_target = relations_target or {}
    a = boundary_out  # n_target x n_mid
    b = boundary_in  # n_mid x k
    k = len(b[0]) if b else 0

    def in_relation_span(col):
        for i, x in enumerate(col):
            m = relations_target.get(i)
            if m is None:
                if x != 0:
                    return False
            elif x % m != 0:
                return False
        return True

    for idx, m in relations_mid.items():
        col = [m * (a[i][idx] if a else 0) for i in range(n_target)]
        if not in_relation_span(col):
            raise ValueError(f"boundary is incompatible with the order-{m} generator {idx}")
    if a and b:
        comp = mat_mul(a, b)
        for j in range(k):
            if not in_relation_span([comp[i][j] for i in range(n_target)]):
                raise ValueError("boundary maps do not compose to zero")

    rel_t = relation_matrix(n_target, relations_target)
    rel_m = relation_matrix(n_mid, relations_mid)

    # cycles: x with a*x in the span of the target relations
    if n_target == 0 or not a:
        cycle_basis = [[1 if i == j else 0 for i in range(n_mid)] for j in range(n_mid)]
    else:
        width_rel = len(rel_t[0]) if rel_t and rel_t[0] else 0
        block = [a[i][:] + [-rel_t[i][j] for j in range(width_rel)] for i in range(n_target)]
        raw = kernel_basis(block, cols=n_mid + width_rel)
        cycle_basis = [vec[:n_mid] for vec in raw]
    p = columns_to_matrix(cycle_basis, n_mid)
    dim_cycles = len(cycle_basis)

    # boundaries plus middle relations, in cycle coordinates
    image_cols = [[b[i][j] for i in range(n_mid)] for j in range(k)] if b else []
    if rel_m and rel_m[0]:
        image_cols += [[rel_m[i][j] for i in range(n_mid)] for j in range(len(rel_m[0]))]
    coords = []
    snf_p = smith_normal_form(p) if image_cols else None
    for col in image_cols:
        c = solve(p, col, cols=dim_cycles, snf=snf_p)
        if c is None:
            raise ValueError("an image or relation vector is not a cycle")
        coords.append(c)
    return dense_cokernel_group(columns_to_matrix(coords, dim_cycles), dim_cycles)


# -- ranks over F_p -------------------------------------------------------------------


def rank_mod_p(cols: list, p: int) -> int:
    """Rank over F_p of an integer matrix in smith's column format, by
    sparse elimination: each column is reduced against the pivots kept so
    far, keyed by their leading row, and becomes one when it survives."""
    pivots = {}  # leading row -> column scaled to a leading 1
    for col in cols:
        v = {i: x % p for i, x in col.items() if x % p}
        while v:
            lead = min(v)
            if lead not in pivots:
                inverse = pow(v[lead], -1, p)
                pivots[lead] = {i: x * inverse % p for i, x in v.items()}
                break
            factor = v[lead]
            for i, x in pivots[lead].items():
                y = (v.get(i, 0) - factor * x) % p
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return len(pivots)


def torsion_count(g: FGAbelianGroup, p: int) -> int:
    """t_p: the number of invariant factors of g that p divides."""
    return sum(1 for d in g.torsion if d % p == 0)


# -- oracle for formal kernel and cokernel ---------------------------------------
#
# One hand-written rule per family: the finitely generated block through
# presented_homology with an empty image or an empty target, each atom block
# through its invariant factors (free rank -> atom copies, factor d -> D[d]
# in a kernel, D/dD in a cokernel).  The blocks come from a row-major scan of
# the dense matrix, so the oracle shares neither the window code of
# formal.homology_at nor the one-pass split of FormalHom._family_blocks.


def dense_family_blocks(h: FormalHom):
    """Split the matrix into per-atom blocks plus one finitely generated
    block, each as (target slots, source slots, columns over the target
    slots); raises when a registered cross-atom block is actually used."""
    src, tgt = h.source.slots(), h.target.slots()

    def family(slot):
        return slot[1] if slot[0] == "atom" else "fg"

    families = sorted(
        {family(s) for s in src} | {family(t) for t in tgt},
        key=str,
    )
    blocks = {}
    m = dense(h.columns, len(tgt))
    for fam in families:
        cols = [j for j, s in enumerate(src) if family(s) == fam]
        rows = [i for i, t in enumerate(tgt) if family(t) == fam]
        blocks[fam] = (
            rows,
            cols,
            [{r: m[i][j] for r, i in enumerate(rows) if m[i][j]} for j in cols],
        )
    for i, trow in enumerate(tgt):
        for j, scol in enumerate(src):
            if family(scol) != family(trow) and m[i][j] != 0:
                raise InsufficientAtomData(
                    f"cross-atom block {scol} -> {trow} has no computable "
                    "kernel/cokernel structure"
                )
    return blocks


def per_family_kernel(h: FormalHom) -> FormalGroup:
    out = FormalGroup.zero()
    src, tgt = h.source.slots(), h.target.slots()
    for fam, (rows, cols, block) in dense_family_blocks(h).items():
        if fam == "fg":
            g = presented_homology(
                block,
                [],
                len(cols),
                len(rows),
                relations_mid={n: src[j][1] for n, j in enumerate(cols)
                               if src[j][0] == "cyclic"},
                relations_target={n: tgt[i][1] for n, i in enumerate(rows)
                                  if tgt[i][0] == "cyclic"},
            )
            out = out + FormalGroup.from_fg(g)
            continue
        atom = atom_registry()[fam]
        factors = invariant_factors(block)
        out = out + FormalGroup.atom(fam, len(cols) - len(factors))
        for d in factors:
            if d >= 2:
                out = out + FormalGroup.from_fg(atom.torsion(d))
    return out


def per_family_cokernel(h: FormalHom) -> FormalGroup:
    out = FormalGroup.zero()
    src, tgt = h.source.slots(), h.target.slots()
    for fam, (rows, cols, block) in dense_family_blocks(h).items():
        if fam == "fg":
            g = presented_homology(
                [{}] * len(rows),
                block,
                len(rows),
                0,
                relations_mid={n: tgt[i][1] for n, i in enumerate(rows)
                               if tgt[i][0] == "cyclic"},
            )
            out = out + FormalGroup.from_fg(g)
            continue
        # the finite pieces of the cokernel die on a divisible atom (D/dD = 0)
        out = out + FormalGroup.atom(fam, len(rows) - len(invariant_factors(block)))
    return out


# -- oracle for the one-sweep chain read ------------------------------------------
#
# The window reads that formal.ChainHomology replaced: a window reads each
# atom family's middle by presented_homology and the torsion of its next
# cokernel by its invariant factors, eliminating the outgoing block twice,
# and a three-place row is read by three windows, its cokernel, its middle
# and its kernel.


def _window_atom_result(atom, mat_out, mat_in, n_mid, n_tgt) -> FormalGroup:
    """ker(mat_out)/im(mat_in) on copies of a divisible atom, via the integer
    homology of the exponent window (universal coefficients)."""
    h_mid = presented_homology(mat_out, mat_in, n_mid, n_tgt)
    out = FormalGroup.atom(atom.name, h_mid.free_rank)  # its torsion dies: D/dD = 0
    for t in (d for d in invariant_factors(mat_out) if d > 1):
        out = out + FormalGroup.from_fg(atom.torsion(t))
    return out


def window_homology_at(f: FormalHom, g: FormalHom) -> FormalGroup:
    """ker(g)/im(f) for a two-step window  f: A -> B,  g: B -> C.  The
    composite is zero when every entry goes into a cyclic slot Z/m and is a
    multiple of m, tested here on the product of the columns."""
    if f.target != g.source:
        raise FormalGroupError("homology window mismatch: target of f must be source of g")
    mid, tgt = g.source.slots(), g.target.slots()
    if not all(tgt[i][0] == "cyclic" and x % tgt[i][1] == 0
               for col in column_product(g.columns, f.columns) for i, x in col.items()):
        raise FormalGroupError("the window does not compose to zero")
    fblocks = dense_family_blocks(f)
    gblocks = dense_family_blocks(g)
    out = FormalGroup.zero()
    for fam in sorted(set(fblocks) | set(gblocks), key=str):
        g_rows, g_cols, g_block = gblocks.get(fam, ([], [], []))
        f_rows, f_cols, f_block = fblocks.get(fam, ([], [], []))
        mid_cols = g_cols or f_rows
        n_mid, n_tgt = len(mid_cols), len(g_rows)
        if fam == "fg":
            out = out + FormalGroup.from_fg(presented_homology(
                g_block, f_block, n_mid, n_tgt,
                relations_mid={n: mid[j][1] for n, j in enumerate(mid_cols)
                               if mid[j][0] == "cyclic"},
                relations_target={n: tgt[i][1] for n, i in enumerate(g_rows)
                                  if tgt[i][0] == "cyclic"},
            ))
            continue
        out = out + _window_atom_result(atom_registry()[fam], g_block, f_block, n_mid, n_tgt)
    return out


def window_row_read(maps: list, place: int) -> FormalGroup:
    """The homology at a place of the three-place row whose ``maps[i]`` maps
    place i+1 to place i, by the window that holds the place."""
    if place == 0:
        return window_homology_at(maps[0], FormalHom(maps[0].target, ZERO))
    if place == 1:
        return window_homology_at(maps[1], maps[0])
    return window_homology_at(FormalHom(ZERO, maps[1].source), maps[1])


# -- oracle for the slot layout of a direct sum -----------------------------------
#
# The counting layout: positions are collected per slot kind and key, and
# each part's slots take the next free position of their key in turn.  It
# shares no code with the stable sort of spectral.direct_sum_with_layout.


def counting_direct_sum_with_layout(parts: list[FormalGroup]):
    """Concatenate formal groups and return (sum, per-part slot indices).

    The sum's canonical slot order regroups atoms by name and rewrites the
    cyclic part in invariant-factor form; this helper tracks where each
    part's slots land.  It refuses layouts in which distinct cyclic orders
    merge (e.g. Z/2 + Z/3), since slots would then lose their identity.
    """
    total = FormalGroup.zero()
    for p in parts:
        total = total + p
    slots = total.slots()
    atom_positions: dict = {}
    cyclic_positions: dict = {}
    free_positions = []
    for i, s in enumerate(slots):
        if s[0] == "atom":
            atom_positions.setdefault(s[1], []).append(i)
        elif s[0] == "cyclic":
            cyclic_positions.setdefault(s[1], []).append(i)
        else:
            free_positions.append(i)
    all_cyclic = sorted(d for p in parts for d in p.cyclic)
    if all_cyclic != sorted(total.cyclic):
        raise FormalGroupError("cyclic parts merge under normalization; layout lost")
    layout = []
    atom_used = {k: 0 for k in atom_positions}
    cyclic_used = {k: 0 for k in cyclic_positions}
    free_used = 0
    for p in parts:
        indices = []
        for s in p.slots():
            if s[0] == "atom":
                indices.append(atom_positions[s[1]][atom_used[s[1]]])
                atom_used[s[1]] += 1
            elif s[0] == "cyclic":
                indices.append(cyclic_positions[s[1]][cyclic_used[s[1]]])
                cyclic_used[s[1]] += 1
            else:
                indices.append(free_positions[free_used])
                free_used += 1
        layout.append(indices)
    return total, layout


# -- oracle for solve_extension ---------------------------------------------------
#
# The brute-force search that formal.solve_extension replaced: every abelian
# group of the right order, and for each every homomorphism from the subgroup,
# with one dense cokernel per homomorphism.  It shares no code with the
# Littlewood-Richardson search: it neither factors orders nor lists
# partitions, and reads its cokernels from the dense Smith form.


def abelian_groups_of_order(n: int, least: int = 1) -> list[tuple]:
    """All abelian groups of order n, as invariant-factor chains whose first
    factor is a multiple of ``least``."""
    if n == 1:
        return [()]
    return [(d,) + rest for d in range(least, n + 1, least) if d > 1 and n % d == 0
            for rest in abelian_groups_of_order(n // d, d)]


def _elements_of_order_dividing(orders: tuple, a: int):
    """All elements x of the group Z/orders with a*x = 0."""
    return product(*(range(0, e, e // gcd(a, e)) for e in orders))


def _has_extension(sub: tuple, total: tuple, quot: tuple) -> bool:
    """Is there an exact sequence 0 -> Z/sub -> Z/total -> Z/quot -> 0?  The
    order of Z/total must be that of Z/sub times that of Z/quot."""
    relations = tuple(tuple(t if i == j else 0 for i in range(len(total)))
                      for j, t in enumerate(total))
    want = FGAbelianGroup.from_orders(0, list(quot))
    for images in product(*(_elements_of_order_dividing(total, a) for a in sub)):
        # the quotient has the order of Z/quot, so the map is injective
        if dense_cokernel_group(columns_to_matrix(images + relations, len(total)),
                                len(total)) == want:
            return True
    return False


def oracle_solve_extension(sub: tuple, quot: tuple) -> list[tuple]:
    """The invariant-factor chains of every middle of 0 -> Z/sub -> E -> Z/quot -> 0
    for finite cyclic orders ``sub`` and ``quot``, sorted."""
    return sorted(total for total in abelian_groups_of_order(prod(sub) * prod(quot))
                  if _has_extension(sub, total, quot))


# -- oracle for ExactSequence.check ------------------------------------------------
#
# Exactness read by enumerating elements: every map is applied to every
# element of its finite source, and a homology group is the abelian group of
# the counted order whose d-torsion has the counted size for every divisor d
# of that order.  It reads the drawn columns, not a FormalHom.


def _apply_columns(cols: list, orders: tuple, x: tuple) -> tuple:
    """The image of x under the columns, in the group Z/orders."""
    return tuple(sum(col.get(i, 0) * c for col, c in zip(cols, x)) % m
                 for i, m in enumerate(orders))


def oracle_exactness(groups: list, maps: list) -> list:
    """(verdict, detail) at each interior group of the chain groups[0] ->
    groups[1] -> ..., worded as ExactSequence.check words them.  Each group
    is a finite invariant-factor chain of cyclic orders, and ``maps[i]``
    takes groups[i] to groups[i+1] in column format."""
    out = []
    for i in range(1, len(groups) - 1):
        here = groups[i]
        if not here:
            out.append(("exact", "zero group"))
            continue
        image = {_apply_columns(maps[i - 1], here, y)
                 for y in product(*map(range, groups[i - 1]))}
        zero = (0,) * len(groups[i + 1])
        kernel = [x for x in product(*map(range, here))
                  if _apply_columns(maps[i], groups[i + 1], x) == zero]
        if not image <= set(kernel):
            out.append(("fail", "the image is not contained in the kernel (not a complex here)"))
            continue
        order = len(kernel) // len(image)
        torsion = {d: sum(tuple(d * c % m for c, m in zip(x, here)) in image for x in kernel)
                   // len(image) for d in range(1, order + 1) if order % d == 0}
        [h] = [g for g in abelian_groups_of_order(order)
               if all(prod(gcd(d, e) for e in g) == n for d, n in torsion.items())]
        out.append(("exact", "") if order == 1 else ("fail", f"homology {FormalGroup(cyclic=h)}"))
    return out


# -- a grid concentrated in row 0 --------------------------------------------------


def h_prime_grid(e: int, registry: KnownHomologyRegistry) -> SpectralGrid:
    """Second page for the extension of the e-th ruled surface's fibrewise
    automorphism group: C^(e+1) -> G -> C*, with the scaling action."""
    entries = {}
    for p in range(4):
        entries[(p, 0)] = registry.get("C*", p)
        entries[(p, 1)] = FormalGroup.zero()
        entries[(p, 2)] = FormalGroup.zero()
        entries[(p, 3)] = FormalGroup.zero()
    return SpectralGrid(
        page=2,
        box=(3, 3),
        entries=entries,
        notes=[
            f"extension C^{e + 1} -> Aut(F{e}/P1) -> C* with scaling action",
            "rows q >= 1 vanish: a central scalar acts on H_q(C^(e+1)) by a"
            " nontrivial unit of a rational vector space, and center-kills"
            " annihilates the homology",
        ],
    )


# -- the Weyl group of the blowup lattice -----------------------------------------

def lattice_roots(lat) -> list:
    """All (-2)-classes orthogonal to K (simple reflections live here)."""
    return lat._search(-2, 0)


def weyl_reflect(lat, c, root):
    if lat.intersect(root, root) != -2 or lat.intersect(canonical_class(lat), root) != 0:
        raise ValueError(f"{root} is not a root (needs r.r = -2 and K.r = 0)")
    return divisor_sum(c, divisor_multiple(root, lat.intersect(c, root)))


# -- oracle for BlowupLattice._search ---------------------------------------------
#
# The ordered search: every sequence of multiplicities in the box, position by
# position, pruned only on the two partial sums.  It reads the lattice's n and
# BOX and nothing else, so it shares neither the orbit recursion nor the
# expansion into arrangements of the library.


def ordered_search(lat, self_int, anticanonical_degree):
    """_search by trying every ordering of the multiplicities."""
    deg_max, lo, hi = lat.BOX
    n = lat.n
    found = []
    mag = max(lo * lo, hi * hi)

    def recurse(mults, s_left, q_left):
        k = n - len(mults)
        if k == 0:
            if s_left == 0 and q_left == 0:
                found.append(mults)
            return
        if q_left < 0 or q_left > k * mag or not k * lo <= s_left <= k * hi:
            return
        if k * q_left < s_left * s_left:  # Cauchy-Schwarz
            return
        for m in range(lo, hi + 1):
            recurse(mults + (m,), s_left - m, q_left - m * m)

    for a0 in range(deg_max + 1):
        recurse((), 3 * a0 - anticanonical_degree, a0 * a0 - self_int)
    out = []
    for mults in found:
        a0 = (sum(mults) + anticanonical_degree) // 3
        if a0 == deg_max or lo in mults or hi in mults:
            raise RuntimeError(
                f"search box {lat.BOX} not exhaustive: degree {a0}, "
                f"multiplicities {mults} touch a box wall"
            )
        out.append((a0,) + tuple(-m for m in mults))
    return sorted(out)


# -- oracle for count_fibration_configurations -----------------------------------
#
# The ordered walker: every ordered tuple of meeting pairs, each pair in both
# orientations, deduplicated into unordered sets at the leaves.  It visits
# unordered * k! * 2^k leaves, so it shares neither the canonical walk nor the
# counting formula of the library.


def ordered_fibration_configurations(lat, lines, pairs):
    """count_fibration_configurations by walking every ordered tuple."""
    nl = len(lines)
    orthogonal = [0] * nl  # bitmask of lines meeting line i in 0
    for i in range(nl):
        for j in range(nl):
            if i != j and lat.intersect(lines[i], lines[j]) == 0:
                orthogonal[i] |= 1 << j
    meet_pairs = [
        (i, j) for i in range(nl) for j in range(nl)
        if i != j and lat.intersect(lines[i], lines[j]) == 1
    ]
    ordered = 0
    unordered = set()

    def extend(chosen, allowed):
        nonlocal ordered
        if len(chosen) == pairs:
            ordered += 1
            unordered.add(frozenset(frozenset(p) for p in chosen))
            return
        for i, j in meet_pairs:
            if (allowed >> i) & 1 and (allowed >> j) & 1:
                extend(chosen + [(i, j)], allowed & orthogonal[i] & orthogonal[j])

    extend([], (1 << nl) - 1)
    return {
        "pairs": pairs,
        "ordered": ordered,
        "unordered": len(unordered),
        "configurations": sorted(
            tuple(sorted(tuple(sorted(lines[i] for i in p)) for p in cfg))
            for cfg in unordered
        ),
    }


# -- oracle for the row-1 complexes ------------------------------------------------
#
# The two hand-written builders: each finds its targets by linear search and
# lists every incidence as a dense block by hand, so they share neither the
# row-0 boundary nor the column assembly of the library.


class TableRow(NamedTuple):
    """A row-1 complex as the oracle builds it: ``places`` holds (labels,
    FormalGroup, layout) per place, ``maps[i]`` maps place i+1 to place i."""
    places: list
    maps: list


def _entry_hom(src_place, tgt_place, blocks):
    """Assemble a FormalHom from per-(source gen, target gen) exponent blocks.

    blocks: dict (src_label, tgt_label) -> matrix (target slots x source
    slots for those generators' entry groups)."""
    src_labels, src_group, src_layout = src_place
    tgt_labels, tgt_group, tgt_layout = tgt_place
    cols = [{} for _ in src_group.slots()]
    src_index = {lbl: k for k, lbl in enumerate(src_labels)}
    tgt_index = {lbl: k for k, lbl in enumerate(tgt_labels)}
    for (sl, tl), block in blocks.items():
        si = src_layout[src_index[sl]]
        ti = tgt_layout[tgt_index[tl]]
        assert len(block) == len(ti) and all(len(row) == len(si) for row in block), (sl, tl)
        for a, row in enumerate(block):
            for b, x in enumerate(row):
                col = cols[si[b]]
                col[ti[a]] = col.get(ti[a], 0) + x
    return FormalHom(src_group, tgt_group, cols)


def _make_place(entries):
    """entries: list of (label, FormalGroup); returns (labels, sum, layout)."""
    labels = [lbl for lbl, _ in entries]
    total, layout = direct_sum_with_layout([g for _, g in entries])
    return (labels, total, layout)


def table_ruled_row1_complex(u: GeneratorUniverse, registry: KnownHomologyRegistry) -> TableRow:
    """The abelianization row for the ruled universe at ranks 1..3, with the
    staircase invariant bounds."""
    if u.base is not BaseCase.RULED:
        raise ValueError("this builder is for the ruled universe")
    bound = {r: u.e_max + (u.r_max - r) for r in (1, 2, 3)}

    def entry(gen):
        if gen.rank == 1:
            return FormalGroup.zero() if gen.e == 0 else registry.get("Autf(Fe/P1)", 1)
        if gen.rank == 2:
            name = "Autf(S_g,1)" if gen.family == "blowup" else "Autf(S_e,1)"
            return registry.get(name, 1)
        if gen.family == "min_section":
            return registry.get("Autf(S_e,2)", 1)
        return registry.get("Autf(S_g,2)" if gen.partition == (1, 1) else "Autf(S_s,2)", 1)

    gens = {r: enumerate_generators(u, r, bound[r]) for r in (1, 2, 3)}
    places = [
        _make_place([(g, entry(g)) for g in gens[r]]) for r in (1, 2, 3)
    ]

    def by(r, **kw):
        for g in gens[r]:
            if all(getattr(g, k) == v for k, v in kw.items()):
                return g
        raise KeyError(kw)

    blocks21 = {}
    for g in gens[2]:
        if g.family == "blowup":
            blocks21[(g, by(1, family="hirzebruch", e=1))] = [[1]]
        else:
            blocks21[(g, by(1, family="hirzebruch", e=g.e + 1))] = [[1]]
            if g.e >= 1:
                tgt = by(1, family="hirzebruch", e=g.e)
                if tgt.e >= 1:  # the quadric's entry is zero
                    blocks21[(g, tgt)] = [[-1]]
    blocks32 = {}
    for g in gens[3]:
        if g.family == "blowup" and g.partition == (1, 1):
            continue  # zero entry
        p, q = g.points
        if g.family == "blowup":  # the special configuration
            blocks32[(g, by(2, family="blowup", points=(p,)))] = [[1]]
            blocks32[(g, by(2, family="blowup", points=(q,)))] = [[-1]]
            blocks32[(g, by(2, family="min_section", points=(p,), e=1))] = [[-1]]
            blocks32[(g, by(2, family="min_section", points=(q,), e=1))] = [[1]]
        else:
            e = g.e
            blocks32[(g, by(2, family="min_section", points=(p,), e=e))] = [[1]]
            blocks32[(g, by(2, family="min_section", points=(q,), e=e))] = [[-1]]
            blocks32[(g, by(2, family="min_section", points=(p,), e=e + 1))] = [[-1]]
            blocks32[(g, by(2, family="min_section", points=(q,), e=e + 1))] = [[1]]
    return TableRow(
        places=places,
        maps=[
            _entry_hom(places[1], places[0], blocks21),
            _entry_hom(places[2], places[1], blocks32),
        ],
    )


def table_cremona_row1_complex(u: GeneratorUniverse,
                               registry: KnownHomologyRegistry) -> TableRow:
    """The abelianization row for the plane's universe at ranks 1..3; the
    non-orientable classes contribute their twisted blocks, the cokernels
    of their 1+sigma actions (1+sigma is 2 on H0 = Z, so the long exact
    sequence leaves the cokernel), read by the window oracle above."""
    if u.base is not BaseCase.CREMONA:
        raise ValueError("this builder is for the cremona universe")
    bound = {r: u.e_max + (u.r_max - r) for r in (1, 2, 3)}

    def block_entry(full, plus, columns):
        action = FormalHom(registry.get(full, 1), registry.get(plus, 1), columns)
        return window_homology_at(action, FormalHom(action.target, ZERO))

    def entry(gen):
        if gen.rank == 1:
            if gen.family == "plane" or gen.e == 0:
                return FormalGroup.zero()
            return registry.get("Aut(Fe/P1)", 1)
        if gen.rank == 2:
            if gen.family == "dp8_blowdown":
                return registry.get("Aut(F1)", 1)
            if gen.family == "dp8_quadric":
                return block_entry("Aut(P1xP1)", "Aut+(P1xP1)", None)
            name = "Aut(S_g,1/P1)" if gen.family == "blowup" else "Aut(S_e,1/P1)"
            return registry.get(name, 1)
        if gen.family == "dp7":
            # 1+sigma is the diagonal on the torus abelianization
            return block_entry("Aut(Bl2P2)", "Aut+(Bl2P2)", [{0: 1, 1: 1}])
        if gen.family == "blowup" and gen.partition == (1, 1):
            return block_entry("Aut(S_g,2/P1)", "Aut+(S_g,2/P1)", [{}, {}])
        if gen.family == "blowup":
            return block_entry("Aut(S_s,2/P1)", "Aut+(S_s,2/P1)", [{0: 2}])
        return block_entry("Aut(S_e,2/P1)", "Aut+(S_e,2/P1)", [{0: 2}])

    gens = {r: enumerate_generators(u, r, bound[r]) for r in (1, 2, 3)}
    places = [
        _make_place([(g, entry(g)) for g in gens[r]]) for r in (1, 2, 3)
    ]

    def by(r, **kw):
        for g in gens[r]:
            if all(getattr(g, k) == v for k, v in kw.items()):
                return g
        raise KeyError(kw)

    blocks21 = {}
    for g in gens[2]:
        if g.family == "dp8_blowdown":
            blocks21[(g, by(1, family="hirzebruch", e=1))] = [[1]]
        elif g.family == "blowup":
            blocks21[(g, by(1, family="hirzebruch", e=1))] = [[1, 1]]
        elif g.family == "min_section":
            blocks21[(g, by(1, family="hirzebruch", e=g.e + 1))] = [[1, 1]]
            if g.e >= 1:
                tgt = by(1, family="hirzebruch", e=g.e)
                if tgt.e >= 1:
                    blocks21[(g, tgt)] = [[-1, -1]]
    sg1 = by(2, family="blowup")
    blocks32 = {}
    for g in gens[3]:
        if g.family == "dp7":
            blocks32[(g, sg1)] = [[2], [1]]
            blocks32[(g, by(2, family="dp8_blowdown"))] = [[-3]]
        elif g.family == "blowup" and g.partition == (1, 1):
            # entry C* + Z/2 in slot order; only the torus maps, by squares
            blocks32[(g, sg1)] = [[-2, 0], [2, 0]]
        elif g.family == "blowup":
            blocks32[(g, sg1)] = [[1], [-1]]
            blocks32[(g, by(2, family="min_section", e=1))] = [[1], [-1]]
        else:
            e = g.e
            blocks32[(g, by(2, family="min_section", e=e))] = [[1], [-1]]
            blocks32[(g, by(2, family="min_section", e=e + 1))] = [[-1], [1]]
    return TableRow(
        places=places,
        maps=[
            _entry_hom(places[1], places[0], blocks21),
            _entry_hom(places[2], places[1], blocks32),
        ],
    )


# -- oracle for the row-0 boundary assembly -----------------------------------------
#
# The model-by-model assembly: every generator list is sorted by a model key,
# every boundary target is built as a fresh model and found in a dict keyed by
# the models.  It shares the library's `partitions`, but neither its
# point-set/tag product nor its transition tables nor its index arithmetic.


def table_sort_key(m):
    fam_order = {
        "plane": 0, "dp8_blowdown": 1, "dp8_quadric": 2, "dp7": 1, "dp6": 1, "dp5": 1,
        "hirzebruch": 3, "blowup": 4, "min_section": 5,
    }
    return (
        m.points,
        fam_order.get(m.family, 9),
        m.partition,
        m.modulus or "",
        m.e,
    )


def table_enumerate_generators(u: GeneratorUniverse, rank: int, e_bound: int | None = None):
    """Canonically ordered generators of the given rank, with e <= e_bound
    (defaulting to the universe's e_max)."""
    if not 1 <= rank <= u.r_max:
        raise ValueError(f"rank must be in [1, {u.r_max}], got {rank}")
    e_bound = u.e_max if e_bound is None else e_bound
    k = rank - 1
    out = []
    if u.base is BaseCase.RULED:
        if rank == 1:
            out = [SurfaceCentralModel(1, u.base, "hirzebruch", e=e) for e in range(0, e_bound + 1)]
        else:
            for pts in combinations(sorted(u.labels), k):
                for part in partitions(k):
                    if part == (1,) * k and k == 4:
                        out.extend(
                            SurfaceCentralModel(rank, u.base, "blowup", pts, partition=part,
                                                modulus=m)
                            for m in ("l0", "l1")
                        )
                    else:
                        out.append(SurfaceCentralModel(rank, u.base, "blowup", pts, partition=part))
                out.extend(
                    SurfaceCentralModel(rank, u.base, "min_section", pts, e=e)
                    for e in range(1, e_bound + 1)
                )
        out.sort(key=table_sort_key)
        return out
    # cremona universe: one generator per configuration tag, no point labels
    if rank == 1:
        out = [SurfaceCentralModel(1, u.base, "plane")]
        out += [SurfaceCentralModel(1, u.base, "hirzebruch", e=e) for e in range(0, e_bound + 1)]
    elif rank == 2:
        out = [SurfaceCentralModel(2, u.base, "dp8_blowdown"),
               SurfaceCentralModel(2, u.base, "dp8_quadric")]
        out += [SurfaceCentralModel(2, u.base, "blowup", partition=(1,))]
        out += [SurfaceCentralModel(2, u.base, "min_section", e=e) for e in range(1, e_bound + 1)]
    elif rank == 3:
        out = [SurfaceCentralModel(3, u.base, "dp7")]
        out += [SurfaceCentralModel(3, u.base, "blowup", partition=p) for p in partitions(2)]
        out += [SurfaceCentralModel(3, u.base, "min_section", e=e) for e in range(1, e_bound + 1)]
    elif rank == 4:
        out = [SurfaceCentralModel(4, u.base, "dp6")]
        out += [SurfaceCentralModel(4, u.base, "blowup", partition=p) for p in partitions(3)]
        out += [SurfaceCentralModel(4, u.base, "min_section", e=e) for e in range(1, e_bound + 1)]
    else:  # rank 5: only the del Pezzo is classified in this universe
        out = [SurfaceCentralModel(5, u.base, "dp5")]
    return out


def _table_blowup_transitions(partition: tuple) -> list[tuple]:
    k = sum(partition)
    general = (1,) * (k - 1)
    if partition == (1,) * k:
        return [(("blowup", general), -2)]
    if partition == (k,):
        down = (k - 1,) if k - 1 >= 1 else ()
        return [(("blowup", down), -1), (("min_section", 1), 1)]
    if partition == (2, 1):
        return [(("blowup", (1, 1)), -1), (("blowup", (2,)), -1)]
    if partition == (2, 1, 1):
        return [(("blowup", (1, 1, 1)), -1), (("blowup", (2, 1)), -1)]
    if partition == (2, 2):
        return [(("blowup", (2, 1)), -2)]
    if partition == (3, 1):
        return [(("blowup", (3,)), -1), (("blowup", (2, 1)), -1)]
    raise ValueError(f"no transition table for partition {partition}")


def _table_ruled_boundary_targets(gen):
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
        trans = [(("min_section", gen.e), -1), (("min_section", gen.e + 1), 1)]
    else:
        trans = _table_blowup_transitions(gen.partition)
    for pos in range(len(gen.points)):
        sign = (-1) ** pos
        for target, coeff in trans:
            out.append((pos, target, sign * coeff))
    return out


def _table_cremona_boundary_targets(gen):
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


def _table_target_model(u, rank, gen, removed_pos, descriptor):
    fam, data = descriptor
    if u.base is BaseCase.RULED and rank - 1 >= 2:
        rest = gen.points[:removed_pos] + gen.points[removed_pos + 1:]
    else:
        rest = ()
    if fam == "hirzebruch":
        return SurfaceCentralModel(rank - 1, u.base, "hirzebruch", e=data)
    if fam == "plane":
        return SurfaceCentralModel(rank - 1, u.base, "plane")
    if fam == "dp8_quadric":
        return SurfaceCentralModel(rank - 1, u.base, "dp8_quadric")
    if fam == "min_section":
        return SurfaceCentralModel(rank - 1, u.base, "min_section", rest, e=data)
    if fam == "blowup":
        return SurfaceCentralModel(rank - 1, u.base, "blowup", rest, partition=data)
    raise ValueError(f"unknown target family {fam}")


def table_boundary(u: GeneratorUniverse, rank: int, e_bound: int | None = None,
                   target_e_bound: int | None = None) -> tuple:
    """(columns, rows, column dicts, clipped targets) of the boundary from
    rank to rank-1 generators; clipped lists (generator, target, coefficient)
    for every target missing from the rows."""
    cols = table_enumerate_generators(u, rank, e_bound)
    if rank == 1:
        return cols, ["Z (augmentation)"], [{0: 1} for _ in cols], []
    e_cols = u.e_max if e_bound is None else e_bound
    e_rows = (e_cols + 1) if target_e_bound is None else target_e_bound
    rows = table_enumerate_generators(u, rank - 1, e_rows)
    row_index = {m: i for i, m in enumerate(rows)}
    matrix = []
    clipped = []
    for gen in cols:
        if u.base is BaseCase.RULED:
            targets = _table_ruled_boundary_targets(gen)
        else:
            targets = [(None, d, c) for d, c in _table_cremona_boundary_targets(gen)]
        column = {}
        for pos, descriptor, coeff in targets:
            tgt = _table_target_model(u, rank, gen, pos, descriptor)
            i = row_index.get(tgt)
            if i is None:
                clipped.append((gen, tgt, coeff))
                continue
            column[i] = column.get(i, 0) + coeff
        matrix.append({i: x for i, x in column.items() if x})
    return cols, rows, matrix, clipped
