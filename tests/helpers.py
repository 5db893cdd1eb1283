"""Shared complex builders and test oracles for the test suite."""

from itertools import combinations

from syzygy.complexes import Cell, RegularCWComplex
from syzygy.smith import cokernel_group, kernel_basis, mat_mul, smith_normal_form, solve, zeros


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
# column; slow, but it shares nothing with the invariant-factor formula.


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
    return cokernel_group(columns_to_matrix(coords, dim_cycles), dim_cycles)
