"""Shared complex builders and test oracles for the test suite."""

import contextlib
import io
from itertools import combinations
from typing import NamedTuple

from syzygy import smith
from syzygy.cli import main
from syzygy.complexes import Cell, RegularCWComplex
from syzygy.formal import (
    FormalGroup,
    FormalGroupError,
    FormalHom,
    InsufficientAtomData,
    _fg_relations,
    atom_registry,
)
from syzygy.smith import (
    FGAbelianGroup,
    Matrix,
    invariant_factors,
    mat_mul,
    partitions,
    presented_homology,
    smith_normal_form,
    solve,
    zeros,
)
from syzygy.spectral import (
    KnownHomologyRegistry,
    RowComplex,
    SpectralGrid,
    _entry_hom,
    _make_place,
    default_registry,
    nonorientable_block_homology,
)
from syzygy.surfaces import BaseCase, GeneratorUniverse, _mk, enumerate_generators


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
    return RegularCWComplex([Cell("p", 0)], {"p": []})


def build_interval():
    cells = [Cell("a", 0), Cell("b", 0), Cell("ab", 1)]
    return RegularCWComplex(cells, {"ab": [("b", 1), ("a", -1)]})


def build_cycle(n):
    """Boundary of an n-gon: n vertices, n edges."""
    cells = [Cell(f"v{i}", 0) for i in range(n)]
    cells += [Cell(f"e{i}", 1) for i in range(n)]
    boundary = {f"e{i}": [(f"v{(i + 1) % n}", 1), (f"v{i}", -1)] for i in range(n)}
    return RegularCWComplex(cells, boundary)


def build_octahedron():
    """Surface of the octahedron: 6 vertices, 12 edges, 8 triangles."""
    # vertices 0/1, 2/3, 4/5 are antipodal pairs
    vertices = list(range(6))
    antipodal = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    cells = [Cell(f"v{i}", 0) for i in vertices]
    boundary = {f"v{i}": [] for i in vertices}
    edges = {}
    for a, b in combinations(vertices, 2):
        if antipodal[a] != b:
            eid = f"e{a}{b}"
            edges[(a, b)] = eid
            cells.append(Cell(eid, 1))
            boundary[eid] = [(f"v{b}", 1), (f"v{a}", -1)]

    def edge_sign(a, b):
        key = (min(a, b), max(a, b))
        return edges[key], (1 if a < b else -1)

    for x in (0, 1):
        for y in (2, 3):
            for z in (4, 5):
                fid = f"f{x}{y}{z}"
                cells.append(Cell(fid, 2))
                sides = []
                cycle = [x, y, z]
                for i in range(3):
                    a, b = cycle[i], cycle[(i + 1) % 3]
                    eid, sign = edge_sign(a, b)
                    sides.append((eid, sign))
                boundary[fid] = sides
    return RegularCWComplex(cells, boundary)


# -- oracle for presented_homology ----------------------------------------------
#
# The cycle-basis route: an explicit basis of the cycles, every boundary and
# relation vector solved for in that basis, then the cokernel of the
# coordinates.  Three Smith forms with full transforms and one solve per image
# column; slow, but it shares nothing with the invariant-factor formula: every
# diagonal it reads comes from the dense smith_normal_form, never from
# smith.invariant_factors.


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


def dense_invariant_factors(a):
    """The nonzero entries of the dense Smith diagonal of ``a``."""
    return [d for d in smith_normal_form(a).diagonal() if d]


def record_dense_shapes(monkeypatch):
    """The list that receives the shape of every matrix reaching
    smith.smith_normal_form from here on.  The invariant-factor memo is
    cleared first, so a matrix read by an earlier test is eliminated again."""
    smith._memo_factors.cache_clear()
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
                relations_mid=_fg_relations([src[j] for j in cols]),
                relations_target=_fg_relations([tgt[i] for i in rows]),
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
                relations_mid=_fg_relations([tgt[i] for i in rows]),
            )
            out = out + FormalGroup.from_fg(g)
            continue
        atom = atom_registry()[fam]
        factors = invariant_factors(block)
        out = out + FormalGroup.atom(fam, len(rows) - len(factors))
        for d in factors:
            if d >= 2 and not atom.divisible:
                raise InsufficientAtomData(
                    f"{fam}/{d}{fam} is not computable for a non-divisible atom"
                )
    return out


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


# -- a grid concentrated in row 0 --------------------------------------------------


def h_prime_grid(e: int, registry: KnownHomologyRegistry | None = None) -> SpectralGrid:
    """Second page for the extension of the e-th ruled surface's fibrewise
    automorphism group: C^(e+1) -> G -> C*, with the scaling action."""
    reg = registry or default_registry()
    entries = {}
    for p in range(4):
        entries[(p, 0)] = reg.get("C*", p)
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


# -- oracle for count_fibration_configurations -----------------------------------
#
# The ordered walker: every ordered tuple of meeting pairs, each pair in both
# orientations, deduplicated into unordered sets at the leaves.  It visits
# unordered * k! * 2^k leaves, so it shares neither the canonical walk nor the
# counting formula of the library.


def ordered_fibration_configurations(lat, pairs, reverse_order=False):
    """count_fibration_configurations by walking every ordered tuple."""
    lines = lat.enumerate_lines()
    if reverse_order:
        lines = list(reversed(lines))
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
            tuple(sorted(tuple(sorted(lines[i].coefficients for i in p)) for p in cfg))
            for cfg in unordered
        ),
    }


# -- oracle for the row-1 complexes ------------------------------------------------
#
# The two hand-written builders: each finds its targets by linear search and
# lists every incidence block by hand, so they share neither the row-0
# boundary nor the single assembly of the library.


def table_ruled_row1_complex(u: GeneratorUniverse, registry=None) -> RowComplex:
    """The abelianization row for the ruled universe at ranks 1..3, with the
    staircase invariant bounds."""
    if u.base is not BaseCase.RULED:
        raise ValueError("this builder is for the ruled universe")
    reg = registry or default_registry()
    bound = {r: u.e_max + (3 - r) for r in (1, 2, 3)}

    def entry(gen):
        if gen.rank == 1:
            return FormalGroup.zero() if gen.e == 0 else reg.get("Autf(Fe/P1)", 1)
        if gen.rank == 2:
            name = "Autf(S_g,1)" if gen.family == "blowup" else "Autf(S_e,1)"
            return reg.get(name, 1)
        if gen.family == "min_section":
            return reg.get("Autf(S_e,2)", 1)
        return reg.get("Autf(S_g,2)" if gen.partition == (1, 1) else "Autf(S_s,2)", 1)

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
    return RowComplex(
        places=places,
        maps=[
            _entry_hom(places[1], places[0], blocks21),
            _entry_hom(places[2], places[1], blocks32),
        ],
    )


def table_cremona_row1_complex(u: GeneratorUniverse, registry=None) -> RowComplex:
    """The abelianization row for the plane's universe at ranks 1..3; the
    non-orientable classes contribute their twisted blocks, computed through
    the long exact sequence."""
    if u.base is not BaseCase.CREMONA:
        raise ValueError("this builder is for the cremona universe")
    reg = registry or default_registry()
    bound = {r: u.e_max + (3 - r) for r in (1, 2, 3)}

    def block_entry(full, plus, columns):
        action = FormalHom(reg.get(full, 1), reg.get(plus, 1), columns)
        out = nonorientable_block_homology(1, full, plus, action, reg)
        if isinstance(out, list):
            raise FormalGroupError(f"ambiguous degree-1 block for {full}")
        return out

    def entry(gen):
        if gen.rank == 1:
            if gen.family == "plane" or gen.e == 0:
                return FormalGroup.zero()
            return reg.get("Aut(Fe/P1)", 1)
        if gen.rank == 2:
            if gen.family == "dp8_blowdown":
                return reg.get("Aut(F1)", 1)
            if gen.family == "dp8_quadric":
                return block_entry("Aut(P1xP1)", "Aut+(P1xP1)", None)
            name = "Aut(S_g,1/P1)" if gen.family == "blowup" else "Aut(S_e,1/P1)"
            return reg.get(name, 1)
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
    return RowComplex(
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
# the models.  It shares the library's `_mk` and `partitions`, but neither its
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
        out.sort(key=table_sort_key)
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


def _table_blowup_transitions(partition: tuple) -> list[tuple]:
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
        trans = [(("min_section", gen.e), 1), (("min_section", gen.e + 1), -1)]
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
