import pytest
from copy import deepcopy
from itertools import combinations, permutations
from math import comb

from syzygy import surfaces
from syzygy.complexes import IntegerChainComplex
from syzygy.lattice import cubic_summary
from syzygy.smith import (
    FGAbelianGroup,
    lift_to_cycles,
    mat_mul,
    presented_homology,
    zeros,
)
from syzygy.surfaces import (
    BaseCase,
    GeneratorUniverse,
    SurfaceCentralModel,
    boundary,
    check_row0_squares_to_zero,
    enumerate_generators,
    row0_complex,
    row0_homology,
    row0_reduced_h0,
    validated_sphere_bl3,
)

from helpers import (
    barycentric_subdivision,
    bl3_sphere_cells,
    columns,
    cycle_basis_homology,
    dense,
    dense_invariant_factors,
    displayed_boundary,
    elementary_transformation,
    invariant_factors,
    is_trivial,
    is_zero_matrix,
    rank_mod_p,
    record_dense_shapes,
    table_boundary,
    torsion_count,
    two_ray_game,
)


def Z2n(n):
    return FGAbelianGroup.from_orders(0, [2] * n)


# -- classification ---------------------------------------------------------------


def test_ruled_rank1_families():
    u = GeneratorUniverse.ruled(2, 2)
    names = [str(m) for m in enumerate_generators(u, 1)]
    assert names == ["P1xP1/P1", "F1/P1", "F2/P1"]


def test_ruled_rank3_families():
    u = GeneratorUniverse.ruled(2, 1)
    names = [str(m) for m in enumerate_generators(u, 3)]
    assert names == ["S_g,2@{P1,P2}", "S_s,2@{P1,P2}", "S_e=1,2@{P1,P2}"]


def test_ruled_rank5_general_family_carries_two_moduli():
    u = GeneratorUniverse.ruled(4, 1, r_max=5)
    gens = enumerate_generators(u, 5)
    general = [m for m in gens if m.partition == (1, 1, 1, 1)]
    assert [m.modulus for m in general] == ["l0", "l1"]
    partitions = {m.partition for m in gens if m.family == "blowup"}
    assert partitions == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}


def test_cremona_classification():
    u = GeneratorUniverse.cremona(1)
    assert [str(m) for m in enumerate_generators(u, 1)] == ["P2", "P1xP1/P1", "F1/P1"]
    assert [str(m) for m in enumerate_generators(u, 2)] == [
        "F1", "P1xP1", "S_g,1", "S_e=1,1"
    ]
    rank3 = {str(m) for m in enumerate_generators(u, 3)}
    assert rank3 == {"Bl2P2", "S_g,2", "S_s,2", "S_e=1,2"}
    assert [str(m) for m in enumerate_generators(u, 5)] == ["Bl4P2"]


def test_every_rank_names_its_groups():
    """A model's group leaves out its points, e and modulus: over the plane
    rank 4 gives the five rank-4 groups a rank-4 place of row 1 reads, and
    over the ruled base both moduli of the general family share Autf(S_g,4)."""
    def groups(u):
        return {r: {g.group for g in enumerate_generators(u, r)} for r in range(1, 6)}

    assert groups(GeneratorUniverse.cremona(2, 5)) == {
        1: {"Aut(P2)", "Aut(P1xP1/P1)", "Aut(Fe/P1)"},
        2: {"Aut(F1)", "Aut(P1xP1)", "Aut(S_g,1/P1)", "Aut(S_e,1/P1)"},
        3: {"Aut(Bl2P2)", "Aut(S_g,2/P1)", "Aut(S_s,2/P1)", "Aut(S_e,2/P1)"},
        4: {"Aut(Bl3P2)", "Aut(S_(2,1),3/P1)", "Aut(S_e,3/P1)", "Aut(S_g,3/P1)",
            "Aut(S_s,3/P1)"},
        5: {"Aut(Bl4P2)"},
    }
    assert groups(GeneratorUniverse.ruled(4, 2, 5)) == {
        1: {"Autf(P1xP1/P1)", "Autf(Fe/P1)"},
        2: {"Autf(S_g,1)", "Autf(S_e,1)"},
        3: {"Autf(S_g,2)", "Autf(S_s,2)", "Autf(S_e,2)"},
        4: {"Autf(S_(2,1),3)", "Autf(S_e,3)", "Autf(S_g,3)", "Autf(S_s,3)"},
        5: {"Autf(S_(2,1,1),4)", "Autf(S_(2,2),4)", "Autf(S_(3,1),4)", "Autf(S_e,4)",
            "Autf(S_g,4)", "Autf(S_s,4)"},
    }


def test_a_model_names_its_groups_orientation_preserving_subgroup():
    """plus_group is the name rule's group with the mark "+": over the plane
    each non-orientable group of ranks 2 and 3 has the Aut+ partner whose H1
    row 1 reads, and over the ruled base the mark follows Autf."""
    u = GeneratorUniverse.cremona(2, 5)
    pairs = {g.group: g.plus_group for r in (2, 3) for g in enumerate_generators(u, r)
             if not g.orientable}
    assert pairs == {
        "Aut(P1xP1)": "Aut+(P1xP1)", "Aut(Bl2P2)": "Aut+(Bl2P2)",
        "Aut(S_g,2/P1)": "Aut+(S_g,2/P1)", "Aut(S_s,2/P1)": "Aut+(S_s,2/P1)",
        "Aut(S_e,2/P1)": "Aut+(S_e,2/P1)"}
    ruled = enumerate_generators(GeneratorUniverse.ruled(2, 2, 3), 2)
    assert {g.plus_group for g in ruled} == {"Autf+(S_g,1)", "Autf+(S_e,1)"}


def test_orientability_flags():
    u = GeneratorUniverse.cremona(2)
    flags = {str(m): m.orientable for m in enumerate_generators(u, 2)}
    assert flags["P1xP1"] is False
    assert flags["F1"] is True
    assert all(not m.orientable for m in enumerate_generators(u, 3))
    ur = GeneratorUniverse.ruled(3, 2)
    for r in (1, 2, 3, 4):
        assert all(m.orientable for m in enumerate_generators(ur, r))


def test_relabeling_bijection():
    u1 = GeneratorUniverse(BaseCase.RULED, ("P1", "P2", "P3"), 2, 4)
    u2 = GeneratorUniverse(BaseCase.RULED, ("A", "B", "C"), 2, 4)
    relabel = {"P1": "A", "P2": "B", "P3": "C"}
    for rank in (1, 2, 3, 4):
        g1 = enumerate_generators(u1, rank)
        g2 = enumerate_generators(u2, rank)
        mapped = sorted(
            (tuple(sorted(relabel[p] for p in m.points)), m.family, m.partition, m.e, m.modulus)
            for m in g1
        )
        direct = sorted(
            (m.points, m.family, m.partition, m.e, m.modulus) for m in g2
        )
        assert mapped == direct


# -- boundary formulas ---------------------------------------------------------------


def test_displayed_boundary_general_two_points():
    u = GeneratorUniverse.ruled(2, 3)
    gen = next(
        m for m in enumerate_generators(u, 3) if m.partition == (1, 1)
    )
    terms = {str(k): v for k, v in displayed_boundary(u, gen).items()}
    assert terms == {"S_g,1@{P2}": -2, "S_g,1@{P1}": 2}


def test_displayed_boundary_special_two_points():
    u = GeneratorUniverse.ruled(2, 3)
    gen = next(m for m in enumerate_generators(u, 3) if m.partition == (2,))
    terms = {str(k): v for k, v in displayed_boundary(u, gen).items()}
    assert terms == {
        "S_g,1@{P2}": -1,
        "S_e=1,1@{P2}": 1,
        "S_e=1,1@{P1}": -1,
        "S_g,1@{P1}": 1,
    }


def test_displayed_boundary_cremona():
    u = GeneratorUniverse.cremona(2)
    gens = {str(m): m for m in enumerate_generators(u, 2)}
    assert {str(k): v for k, v in displayed_boundary(u, gens["F1"]).items()} == {
        "F1/P1": 1, "P2": -1
    }
    assert displayed_boundary(u, gens["P1xP1"]) == {}
    gens3 = {str(m): m for m in enumerate_generators(u, 3)}
    assert {str(k): v for k, v in displayed_boundary(u, gens3["Bl2P2"]).items()} == {
        "P1xP1": 1
    }
    gens4 = {str(m): m for m in enumerate_generators(u, 4)}
    assert {str(k): v for k, v in displayed_boundary(u, gens4["Bl3P2"]).items()} == {
        "S_g,2": 1
    }
    assert {str(k): v for k, v in displayed_boundary(u, gens4["S_(2,1),3"]).items()} == {
        "S_g,2": 1, "S_s,2": 1
    }


def test_boundary_rank1_is_augmentation():
    u = GeneratorUniverse.ruled(2, 2)
    bm = boundary(u, 1)
    assert dense(bm.matrix, 1) == [[1] * len(bm.columns)]


def test_boundary_never_clips():
    """At the default target bound every transition lands on a row; a target
    beyond it would raise."""
    for u in (GeneratorUniverse.ruled(3, 2), GeneratorUniverse.cremona(2)):
        for rank in range(2, u.r_max + 1):
            boundary(u, rank)


@pytest.mark.parametrize(
    "u,rank",
    [(GeneratorUniverse.ruled(3, 2), 3), (GeneratorUniverse.cremona(2), 2),
     (GeneratorUniverse.cremona(2), 3)],
    ids=["ruled", "cremona", "cremona-rank3"],
)
def test_boundary_beyond_the_target_bound_raises(u, rank):
    """S_e=2 blows down to e = 3, which a target bound of 2 leaves out, also
    over the plane at rank 3, where the two positions' terms would cancel."""
    with pytest.raises(RuntimeError, match="beyond target_e_bound=2"):
        boundary(u, rank, e_bound=2, target_e_bound=2)


def _tag_of(m):
    return (m.family, m.partition, m.modulus, m.e)


@pytest.mark.parametrize("e_max", [1, 2, 3, 5])
def test_cremona_columns_are_ruled_columns_with_the_points_forgotten(e_max):
    """Each plane blowup or minimal-section column of rank 2..4 is the ruled
    column of the same tag on rank - 1 points, summed by target tag, with the
    entries on the plane's order-2 rows taken mod 2.  The two sides index
    their rows differently, so both are keyed by tag."""
    plane = GeneratorUniverse.cremona(e_max)
    checked = 0
    for rank in (2, 3, 4):
        ruled = boundary(GeneratorUniverse.ruled(rank - 1, e_max), rank)
        ruled_columns = {_tag_of(m): col for m, col in zip(ruled.columns, ruled.matrix)}
        bm = boundary(plane, rank)
        order2 = {_tag_of(m) for m in bm.rows if not m.orientable}
        for m, col in zip(bm.columns, bm.matrix):
            if m.family not in ("blowup", "min_section"):
                continue
            summed = {}
            for i, x in ruled_columns[_tag_of(m)].items():
                target = _tag_of(ruled.rows[i])
                summed[target] = summed.get(target, 0) + x
            summed = {t: x % 2 if t in order2 else x for t, x in summed.items()}
            assert {t: x for t, x in summed.items() if x} == {
                _tag_of(bm.rows[i]): x for i, x in col.items()
            }, (rank, m)
            checked += 1
    assert checked == 6 + 3 * e_max


@pytest.mark.parametrize("e_max", [1, 2, 3, 4, 5, 60])
def test_cremona_rank3_and_up_entries_lie_on_order2_rows(e_max):
    """Over the plane every nonzero entry of a rank >= 3 column lies on an
    order-2 row, where it is kept mod 2.  So the orientation of the cells of
    rank 3 and up, which the ruled tables fix, leaves the plane's row 0, its
    table oracle and the plane's row 1 as they are: only parities reach
    them."""
    for r_max in (3, 4, 5):
        cc, gens = row0_complex(GeneratorUniverse.cremona(e_max, r_max))
        for rank in range(3, r_max + 1):
            order2 = cc.cyclic.get(rank - 2, {})
            for m, column in zip(gens[rank], cc.boundaries[rank - 1]):
                assert set(column) <= set(order2), (r_max, m)


def test_point_families_face_tags_one_rank_below():
    """The plane is the only rank-1 point family, and every face of a
    rank-r point family is a tag of rank r - 1 over the plane, at the one
    position of the empty point set."""
    families = surfaces.POINT_FAMILIES
    assert [f for f, (rank, _, _) in families.items() if rank == 1] == ["plane"]
    u = GeneratorUniverse.cremona(1)
    for family, (rank, _, faces) in families.items():
        below = surfaces._tags(u, rank - 1, 1) if rank > 1 else []
        assert all(pos == 0 and target in below for pos, target, _ in faces), family
    assert families["dp7"][2] == [(0, surfaces._tag("dp8_quadric"), -1)]
    assert families["dp5"][2] == [(0, surfaces._tag("blowup", (1, 1, 1)), -1)]


def _oracle_universes(points):
    if points is None:
        return [GeneratorUniverse.cremona(e) for e in (1, 2, 3, 4, 5, 60)]
    return [
        GeneratorUniverse.ruled(points, e_max, r_max=r_max)
        for e_max in range(1, 5) for r_max in range(1, 6)
    ]


@pytest.mark.parametrize("points", [*range(7), None],
                         ids=[f"ruled-{p}" for p in range(7)] + ["cremona"])
def test_boundary_matches_the_model_table_assembly(points):
    """Every rank's boundary, at the default bounds and at the row-0
    staircase bounds, has the columns, rows and column dicts of the
    model-by-model assembly, which never clips there."""
    for u in _oracle_universes(points):
        for rank in range(1, u.r_max + 1):
            step = u.e_max + u.r_max - rank
            for bounds in ((None, None), (step, step + 1)):
                bm = boundary(u, rank, *bounds)
                cols, rows, matrix, clipped = table_boundary(u, rank, *bounds)
                assert (bm.columns, bm.rows, bm.matrix, clipped) == (cols, rows, matrix, []), (
                    u, rank, bounds
                )


def _sort_sign(values):
    """The sign of the permutation that sorts the distinct values."""
    inversions = sum(a > b for a, b in combinations(values, 2))
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("sigma", list(permutations(range(4))))
def test_row0_boundaries_commute_with_relabelling(sigma):
    """A relabelling sigma of T maps S x t to sgn(sort) (sorted sigma S) x t,
    and that map commutes with every row-0 boundary (|T| = 4, e_max = 3,
    r_max = 5)."""
    u = GeneratorUniverse.ruled(4, 3, r_max=5)
    relabel = dict(zip(u.labels, (u.labels[i] for i in sigma)))
    cc, gens = row0_complex(u)

    def act(rank):
        """Generator index -> (signed image index) of the relabelling."""
        index = {m: i for i, m in enumerate(gens[rank])}
        out = []
        for m in gens[rank]:
            image = [relabel[p] for p in m.points]
            moved = SurfaceCentralModel(m.rank, m.base, m.family, tuple(sorted(image)), m.e,
                                        m.partition, m.modulus)
            out.append((index[moved], _sort_sign(image)))
        return out

    def apply(perm, column):
        return {perm[i][0]: perm[i][1] * x for i, x in column.items()}

    for rank in range(2, u.r_max + 1):
        src, tgt = act(rank), act(rank - 1)
        d = cc.boundaries[rank - 1]
        for j, column in enumerate(d):
            image, sign = src[j]
            assert apply(tgt, column) == {i: sign * x for i, x in d[image].items()}


@pytest.mark.parametrize("points,e_max", [(3, 3), (4, 4), (5, 3)])
def test_ruled_boundary_squares_to_zero(points, e_max):
    u = GeneratorUniverse.ruled(points, e_max, r_max=4)
    cc, _ = row0_complex(u)
    for d in range(2, cc.top_degree + 1):
        assert is_zero_matrix(mat_mul(
            dense(cc.boundaries[d - 1], cc.ranks[d - 2]), dense(cc.boundaries[d], cc.ranks[d - 1])
        ))


def test_rank5_boundary_squares_to_zero():
    u = GeneratorUniverse.ruled(5, 3, r_max=5)
    assert check_row0_squares_to_zero(u)


# -- oracle for the row-0 homology ---------------------------------------------------
#
# Rebuild the small-instance matrices with code separate from the library's
# assembly and compute the homology with the generic engine.  The oracle copies
# the library's transition tables, so it checks the assembly, not the tables;
# test_row0_witness.py derives the boundaries from the surface geometry.


def oracle_ruled_row0(T, e_max, r_max=4):
    bound = {r: e_max + (r_max - r) for r in range(1, r_max + 1)}
    gens = {1: [("F", e) for e in range(bound[1] + 1)]}
    gens[2] = [(p, "g") for p in T] + [
        (p, "h", e) for p in T for e in range(1, bound[2] + 1)
    ]
    pairs = list(combinations(T, 2))
    gens[3] = [(s, t) for s in pairs for t in ("g", "s")] + [
        (s, "h", e) for s in pairs for e in range(1, bound[3] + 1)
    ]
    triples = list(combinations(T, 3))
    gens[4] = [(s, t) for s in triples for t in ("g", "t21", "s")] + [
        (s, "h", e) for s in triples for e in range(1, bound[4] + 1)
    ]
    idx = {r: {g: i for i, g in enumerate(gens[r])} for r in gens}

    def d(rank):
        m = zeros(len(gens[rank - 1]), len(gens[rank]))
        for j, g in enumerate(gens[rank]):
            if rank == 2:
                e = 0 if g[1] == "g" else g[2]
                m[idx[1][("F", e + 1)]][j] += 1
                m[idx[1][("F", e)]][j] -= 1
                continue
            s = g[0]
            if g[1] == "g":
                trans = [("g", 2)]
            elif g[1] == "s":
                trans = [("g" if rank == 3 else "s", 1), (("h", 1), -1)]
            elif g[1] == "t21":
                trans = [("g", 1), ("s", 1)]
            else:
                trans = [(("h", g[2]), 1), (("h", g[2] + 1), -1)]
            for pos, p in enumerate(s):
                rest = tuple(x for x in s if x != p)
                key = rest if len(rest) > 1 else rest[0]
                for t, c in trans:
                    tgt = (key, t) if isinstance(t, str) else (key, "h", t[1])
                    m[idx[rank - 1][tgt]][j] += (-1) ** pos * c
        return m

    mats = {r: d(r) for r in range(2, r_max + 1)}
    return gens, mats


@pytest.mark.parametrize("points", [3, 4, 5])
@pytest.mark.parametrize("e_max", [3, 4])
def test_row0_matches_independent_oracle(points, e_max):
    T = tuple(f"P{i}" for i in range(1, points + 1))
    gens, mats = oracle_ruled_row0(T, e_max)
    e10 = presented_homology(columns(mats[2]), columns(mats[3]), len(gens[2]), len(gens[1]))
    e20 = presented_homology(columns(mats[3]), columns(mats[4]), len(gens[3]), len(gens[2]))
    u = GeneratorUniverse.ruled(points, e_max, r_max=4)
    assert row0_homology(u, 1) == e10
    assert row0_homology(u, 2) == e20
    # the honest finite-truncation values
    assert e10 == Z2n(points - 1)
    assert e20 == Z2n(comb(points - 1, 2))


ROW0_UNIVERSES = [
    *((points, e_max, 4) for points in (3, 4, 5) for e_max in (3, 4, 5)),
    (6, 3, 4),
    *((points, 3, 5) for points in (4, 5, 6)),
    (6, 5, 5),
]


ROW0_SUITE = pytest.mark.parametrize(
    "u",
    [GeneratorUniverse.ruled(p, e, r_max=r) for p, e, r in ROW0_UNIVERSES]
    + [GeneratorUniverse.cremona(3), GeneratorUniverse.cremona(60)],
    ids=[f"ruled-{p}-{e}-{r}" for p, e, r in ROW0_UNIVERSES] + ["cremona-3", "cremona-60"],
)


@ROW0_SUITE
def test_row0_homology_matches_cycle_basis_oracle(u):
    cc, _ = row0_complex(u)
    assert cc.check_composition()
    for d in range(cc.top_degree + 1):
        a, b, n_mid, n_target, *relations = cc._window(d)
        oracle = cycle_basis_homology(dense(a, n_target), dense(b, n_mid), n_mid, n_target, *relations)
        assert cc.homology(d) == oracle


@ROW0_SUITE
def test_row0_invariant_factors_match_dense_snf(u):
    """Every boundary, every cycle matrix [a | -R_t] and every lifted matrix
    that presented_homology reads has the nonzero dense Smith diagonal as its
    invariant factors."""
    cc, _ = row0_complex(u)
    matrices = []
    for d in range(cc.top_degree + 1):
        window = cc._window(d)
        a, n_mid, n_target, rel_target = window[0], window[2], window[3], window[5]
        cycle_matrix = a + [{t: -rel_target[t]} for t in sorted(rel_target)]
        lifted = lift_to_cycles(*window[:3], *window[4:])
        for m in ((a, n_target), (cycle_matrix, n_target), (lifted, n_mid + len(rel_target))):
            if m not in matrices:
                matrices.append(m)
    for m, height in matrices:
        assert invariant_factors(m) == dense_invariant_factors(dense(m, height))


def test_row0_elimination_leaves_no_residual(monkeypatch):
    """No row-0 boundary at |T| = 6 or 7 (e_max = r_max = 5) reaches the
    dense Smith form.  What the units leave of the 315x385 degree-4 boundary
    at |T| = 7 is 2 times a +-1 matrix, and its +-2 entries are divisor
    pivots."""
    cc, _ = row0_complex(GeneratorUniverse.ruled(7, 5, r_max=5))
    assert (cc.ranks[3], len(cc.boundaries[4])) == (315, 385)
    shapes = record_dense_shapes(monkeypatch)
    assert invariant_factors(cc.boundaries[4]).count(2) == 20
    for points in (6, 7):
        cc, _ = row0_complex(GeneratorUniverse.ruled(points, 5, r_max=5))
        for d in range(1, cc.top_degree + 1):
            invariant_factors(cc.boundaries[d])
    assert shapes == []


@pytest.mark.parametrize("points", range(2, 7))
def test_ruled_row0_is_z2_to_the_binomial(points):
    """At e_max = r_max = 5, E_{d,0} = (Z/2)^C(|T|-1, d) for d = 1, 2, 3,
    with free rank 0."""
    u = GeneratorUniverse.ruled(points, 5, r_max=5)
    assert [row0_homology(u, d) for d in (1, 2, 3)] == [
        Z2n(comb(points - 1, d)) for d in (1, 2, 3)
    ]


@pytest.mark.parametrize("points", range(2, 12))
def test_ruled_row0_agrees_with_its_ranks_mod_p(points):
    """Universal coefficients for a free complex: dim H_d(C (x) F_p) =
    b_d + t_p(H_d) + t_p(H_{d-1}), where t_p counts the invariant factors
    that p divides.  The left side comes from ranks over F_p alone, so this
    checks row0_homology's eliminations, at sizes past the dense oracles,
    against an independent one; the F_p Euler characteristic must equal
    the alternating sum of the ranks.  No ruled complex carries a cyclic
    annotation, which the formula needs."""
    u = GeneratorUniverse.ruled(points, 5, r_max=5)
    cc, _ = row0_complex(u)
    assert not cc.cyclic
    top = cc.top_degree
    for p in (2, 3):
        rank = [0] + [rank_mod_p(cc.boundaries[d], p) for d in range(1, top + 1)] + [0]
        dims = [cc.ranks[d] - rank[d] - rank[d + 1] for d in range(top + 1)]
        homology = [row0_homology(u, d) for d in range(4)]
        for d in (1, 2, 3):
            expected = (homology[d].free_rank + torsion_count(homology[d], p)
                        + torsion_count(homology[d - 1], p))
            assert dims[d] == expected, (p, d)
        assert sum((-1) ** d * x for d, x in enumerate(dims)) == sum(
            (-1) ** d * r for d, r in enumerate(cc.ranks))


def test_row0_complex_is_built_once_per_universe():
    u = GeneratorUniverse.ruled(4, 3, r_max=5)
    assert row0_complex(u) is row0_complex(u)
    twin = GeneratorUniverse.ruled(4, 3, r_max=5)
    assert twin is not u and twin == u
    assert row0_complex(twin) is row0_complex(u)


@pytest.mark.parametrize(
    "u", [GeneratorUniverse.ruled(4, 3, r_max=5), GeneratorUniverse.cremona(3)],
    ids=["ruled-4-3-5", "cremona-3"],
)
def test_row0_complex_reads_leave_the_shared_complex_unchanged(u):
    cc, gens = row0_complex(u)
    before = deepcopy((cc.boundaries, cc.cyclic, gens))
    assert cc.check_composition()
    for d in range(cc.top_degree + 1):
        cc.homology(d)
    assert (cc.boundaries, cc.cyclic, gens) == before


@pytest.mark.parametrize("points", [4, 5])
def test_row0_degree3_with_rank5(points):
    u = GeneratorUniverse.ruled(points, 3, r_max=5)
    assert row0_homology(u, 3) == Z2n(comb(points - 1, 3))


@pytest.mark.parametrize("degree", [1, 2])
def test_row0_stabilizes_in_e(degree):
    values = {
        e_max: row0_homology(GeneratorUniverse.ruled(4, e_max), degree)
        for e_max in (3, 4, 5)
    }
    assert len(set(map(str, values.values()))) == 1


@pytest.mark.parametrize("e_max", [3, 4])
def test_cremona_row0_vanishes(e_max):
    u = GeneratorUniverse.cremona(e_max, r_max=4)
    assert is_trivial(row0_homology(u, 1))
    assert is_trivial(row0_homology(u, 2))
    u5 = GeneratorUniverse.cremona(e_max, r_max=5)
    assert is_trivial(row0_homology(u5, 3))


def test_row0_degree_guard():
    u = GeneratorUniverse.ruled(3, 3, r_max=4)
    with pytest.raises(ValueError):
        row0_homology(u, 3)


def test_reduced_h0_vanishes():
    assert is_trivial(row0_reduced_h0(GeneratorUniverse.ruled(3, 3)))
    assert is_trivial(row0_reduced_h0(GeneratorUniverse.cremona(3)))


@pytest.mark.parametrize(
    "u", [GeneratorUniverse.ruled(3, 3, r_max=1), GeneratorUniverse.ruled(4, 2, r_max=2),
          GeneratorUniverse.ruled(3, 3), GeneratorUniverse.cremona(3, r_max=1),
          GeneratorUniverse.cremona(3)],
    ids=["ruled-3-3-1", "ruled-4-2-2", "ruled-3-3-4", "cremona-3-1", "cremona-3-5"],
)
def test_reduced_h0_is_the_augmentation_kernel_modulo_boundaries(u):
    """H_0 with the one Z that the augmentation splits off removed equals
    ker(augmentation) / im(d_1), read as its own window; without rank-2
    generators nothing divides out, and every rank-1 generator but one is free."""
    cc, gens = row0_complex(u)
    d1 = cc.boundaries[1] if cc.top_degree >= 1 else []
    window = presented_homology([{0: 1} for _ in gens[1]], d1, len(gens[1]), 1)
    assert row0_reduced_h0(u) == window
    if u.r_max == 1:
        assert window == FGAbelianGroup(len(gens[1]) - 1)


def test_reduced_h0_refuses_order_two_rank_one_generators(monkeypatch):
    annotated = IntegerChainComplex([2], [[]], {0: {1: 2}})
    monkeypatch.setattr(surfaces, "row0_complex", lambda u: (annotated, {}))
    with pytest.raises(ValueError, match="augmentation"):
        row0_reduced_h0(GeneratorUniverse.ruled(2, 1))


# -- two-ray games and elementary transformations ---------------------------------------


def test_two_ray_games():
    ur = GeneratorUniverse.ruled(1, 3)
    sg1 = next(m for m in enumerate_generators(ur, 2) if m.family == "blowup")
    assert [str(x) for x in two_ray_game(sg1)] == ["F1/P1", "P1xP1/P1"]
    se1 = next(m for m in enumerate_generators(ur, 2) if m.family == "min_section" and m.e == 2)
    assert [str(x) for x in two_ray_game(se1)] == ["F3/P1", "F2/P1"]
    uc = GeneratorUniverse.cremona(2)
    gens = {str(m): m for m in enumerate_generators(uc, 2)}
    assert [str(x) for x in two_ray_game(gens["F1"])] == ["F1/P1", "P2"]
    a, b = two_ray_game(gens["P1xP1"])
    assert a != b and str(a) == "P1xP1/P1"


def test_two_ray_game_outputs_distinct():
    for u in (GeneratorUniverse.ruled(2, 3), GeneratorUniverse.cremona(3)):
        for m in enumerate_generators(u, 2):
            x, y = two_ray_game(m)
            assert x != y


def test_two_ray_game_needs_rank2():
    u = GeneratorUniverse.ruled(2, 2)
    with pytest.raises(ValueError):
        two_ray_game(enumerate_generators(u, 1)[0])


def oracle_elementary(e, on_minimal):
    """Self-intersection bookkeeping: the new invariant is minus the minimal
    self-intersection among the strict transforms of sections."""
    if e == 0:
        on_minimal = True  # every point of the quadric is on a minimal section
    candidates = []
    # sections of self-intersection -e + 2k; some member passes through a
    # general point for every k >= 1, and through a minimal-section point
    # exactly when k = 0 or k >= 1
    for k in range(0, 4):
        self_int = -e + 2 * k
        through = on_minimal if k == 0 else True
        if through:
            candidates.append(self_int - 1)  # blown up on the section
        else:
            candidates.append(self_int + 1)  # meets the replaced fibre once
    return -min(candidates)


@pytest.mark.parametrize("e,on,expected", [(1, True, 2), (1, False, 0), (0, True, 1)])
def test_elementary_transformation_examples(e, on, expected):
    assert elementary_transformation(e, on) == expected
    assert oracle_elementary(e, on) == expected


def test_elementary_transformation_oracle_sweep():
    for e in range(0, 6):
        for on in (True, False):
            assert elementary_transformation(e, on) == oracle_elementary(e, on)


# -- the rank-4 sphere and the cubic ---------------------------------------------------


def test_syzygy_sphere():
    sphere = validated_sphere_bl3()[0]
    assert len(sphere.cells_of_dim(0)) == 9
    assert len(sphere.cells_of_dim(1)) == 21
    assert len(sphere.cells_of_dim(2)) == 14
    assert sphere.euler_characteristic() == 2
    assert all(len(sphere.boundary[c]) == 3 for c in sphere.cells_of_dim(2))
    report = sphere.validate()
    assert report.valid, report.summary()
    assert [str(sphere.homology(d)) for d in range(3)] == ["Z", "0", "Z"]


def test_syzygy_sphere_cells_are_the_listed_models():
    """Each cell of the clique complex, read as its set of vertex classes,
    is one of the models listed from the lattice alone, and each listed
    model is a cell."""
    sphere = validated_sphere_bl3()[0]
    cells = [{frozenset(c) for c in sphere.cells_of_dim(d)} for d in range(3)]
    assert all(len(set(cid)) == dim + 1 for cid, dim in sphere.cells.items())
    assert cells == bl3_sphere_cells()
    assert [len(s) for s in cells] == [9, 21, 14]


def test_syzygy_sphere_subdivision_invariance():
    sphere = validated_sphere_bl3()[0]
    sd = barycentric_subdivision(sphere)
    for d in range(3):
        assert sphere.homology(d) == sd.homology(d)


def test_cubic_summary():
    report = cubic_summary()
    assert report["line_count"] == 27
    assert report["divisorial_facet_models"] == 27
    assert report["conic_class_count"] == 27
    assert report["line_graph_regular_degree"] == 10
    assert report["enumeration_order_independent"]
    assert report["disjoint_line_pairs"] == 216
    assert report["recorded_fibration_count"] == 216
    assert report["recorded_vertex_count"] == 243
    # the two source values are recorded and flagged, never asserted as counts
    assert len(report["flags"]) == 2
