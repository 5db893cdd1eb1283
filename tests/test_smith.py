import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from syzygy import smith
from syzygy.smith import (
    FGAbelianGroup,
    mat_mul,
    mat_vec,
    presented_homology,
    smith_normal_form,
    solve,
    zeros,
)

from helpers import (
    columns,
    cycle_basis_homology,
    dense_invariant_factors,
    determinant,
    invariant_factors,
    is_trivial,
    kernel_basis,
    prime_power_chain,
    record_dense_shapes,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(a):
    s = smith_normal_form(a)
    assert mat_mul(mat_mul(s.U, a), s.V) == s.D
    assert abs(determinant(s.U)) == 1
    assert abs(determinant(s.V)) == 1
    diag = s.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    for i, row in enumerate(s.D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal() == [1, 6]
    z = smith_normal_form([[0, 0], [0, 0]])
    assert z.diagonal() == [0, 0]
    assert z.U == [[1, 0], [0, 1]] and z.V == [[1, 0], [0, 1]]
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal() == [1, 1]


def test_snf_large_entries_stay_exact():
    a = [[10**20, 1], [1, 10**20]]
    s = smith_normal_form(a)
    assert mat_mul(mat_mul(s.U, a), s.V) == s.D
    assert s.diagonal()[0] == 1
    assert s.diagonal()[1] == 10**40 - 1


@st.composite
def sparse_unit_matrices(draw):
    """Up to 12x12, mostly zeros and +-1 with a few larger entries, so that
    unit elimination, fill-in and a residual without units all occur; the
    shapes include 0 rows, 0 columns and all-zero matrices."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    zero_weight = draw(st.sampled_from([1, 3, 8]))
    entries = st.sampled_from([0] * zero_weight + [1, -1, 1, -1, 2, -2, 3])
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(sparse_unit_matrices())
def test_invariant_factors_match_dense_diagonal(a):
    assert invariant_factors(columns(a)) == dense_invariant_factors(a)


@st.composite
def divisor_pivot_matrices(draw):
    """Matrices whose pivots are not all units: a +-1 matrix scaled by 2 or
    3, a diagonal such as diag(2, 3, 4) mixed with units and permuted, and a
    row of multiples of x = 2 or 3 whose column holds an entry x does not
    divide."""
    kind = draw(st.sampled_from(["scaled", "diagonal", "row-divisor"]))
    if kind == "scaled":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        scale = draw(st.sampled_from([2, 3]))
        entries = st.sampled_from([0, 0, 1, -1])
        return [[scale * draw(entries) for _ in range(cols)] for _ in range(rows)]
    if kind == "diagonal":
        diagonal = draw(st.lists(st.sampled_from([1, -1, 2, 3, 4, -6, 9]), min_size=1, max_size=7))
        n = len(diagonal)
        row_order, col_order = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        a = zeros(n, n)
        for k, d in enumerate(diagonal):
            a[row_order[k]][col_order[k]] = d
        return a
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(1, 7))
    x = draw(st.sampled_from([2, 3]))
    a = [[draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    a[0] = [x] + [x * draw(st.integers(-2, 2)) for _ in range(cols - 1)]
    a[1][0] = x * draw(st.integers(-2, 2)) + 1
    return a


@settings(max_examples=300, deadline=None)
@given(divisor_pivot_matrices())
def test_invariant_factors_with_divisor_pivots_match_dense_diagonal(a):
    assert invariant_factors(columns(a)) == dense_invariant_factors(a)


def test_invariant_factors_split_off_divisor_pivots(monkeypatch):
    """2 times a +-1 matrix and a mixed diagonal leave by divisor pivots,
    and the split-off orders merge into one divisibility chain."""
    shapes = record_dense_shapes(monkeypatch)
    assert invariant_factors(columns([[2, 2, 0], [2, 0, 2], [0, 2, 2]])) == [2, 2, 4]
    assert invariant_factors(columns([[0, 3, 0], [2, 0, 0], [0, 0, 4]])) == [1, 2, 12]
    assert shapes == []
    # 2 divides its row but not the 3 below it; no entry qualifies
    assert invariant_factors(columns([[2, 4], [3, 0]])) == [1, 12]
    assert shapes == [(2, 2)]


@st.composite
def kernel_column_matrices(draw):
    """N with entries in [-2, 2], so that its elimination takes unit and
    divisor pivots, and A whose columns are integer combinations of a kernel
    basis of N."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    width = draw(st.integers(0, 5))
    n = [[draw(st.integers(-2, 2)) for _ in range(n_cols)] for _ in range(n_rows)]
    a = [[0] * width for _ in range(n_cols)]
    for v in kernel_basis(n):
        for j in range(width):
            c = draw(st.integers(-3, 3))
            for i in range(n_cols):
                a[i][j] += c * v[i]
    return n, a


@settings(max_examples=300, deadline=None)
@given(kernel_column_matrices(), st.data())
def test_rows_of_pivots_drop_from_kernel_columns(case, data):
    """The row-drop rule: when the elimination of N takes divisor pivots in
    the columns Q, a matrix A whose columns lie in ker N has the invariant
    factors of A without any subset of the rows Q, by the dense oracle on
    both sides and by the elimination that skips those rows."""
    n, a = case
    pivots = smith._eliminate(columns(n))[1]
    dropped = data.draw(st.frozensets(st.sampled_from(sorted(pivots)))) if pivots else frozenset()
    want = dense_invariant_factors(a)
    assert dense_invariant_factors([row for i, row in enumerate(a) if i not in dropped]) == want
    assert list(smith._eliminate(columns(a), dropped)[0]) == want


def test_pivot_columns_are_reported():
    """The columns of every divisor pivot, unit or not, and none of the
    residual's."""
    assert smith._eliminate(columns([[1, 1, 0], [0, 2, 2]])) == ((1, 2), {0, 1})
    assert smith._eliminate(columns([[2, 0], [0, 3]])) == ((1, 6), {0, 1})
    assert smith._eliminate(columns([[2, 4], [3, 0]])) == ((1, 12), set())
    # ker [1 -1] is spanned by (1, 1): 2 (1, 1) keeps its factor without row 0
    pivots = smith._eliminate(columns([[1, -1]]))[1]
    assert pivots == {0}
    assert smith._eliminate(columns([[2], [2]]), pivots) == ((2,), {0})
    # ker [2 4] is spanned by (-2, 1): its multiples keep their factors without row 0
    pivots = smith._eliminate(columns([[2, 4]]))[1]
    assert pivots == {0}
    assert smith._eliminate(columns([[-6], [3]]), pivots) == ((3,), {0})


def test_elimination_keeps_its_input_and_ignores_entry_order():
    a = columns([[2, 0], [0, 3]])
    assert smith._eliminate(a) == ((1, 6), {0, 1})
    assert a == [{0: 2}, {1: 3}]
    assert smith._eliminate([dict(reversed(col.items())) for col in a]) == ((1, 6), {0, 1})


def test_invariant_factors_edge_shapes():
    assert invariant_factors([]) == []
    assert invariant_factors(columns([[], []])) == []
    assert invariant_factors(columns([], width=3)) == []
    assert invariant_factors(columns(zeros(3, 4))) == []
    assert invariant_factors(columns([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(columns([[-4]])) == [4]
    # every pivot fills in a zero of another row; the determinant is -2
    assert invariant_factors(columns([[1, 1, 0], [1, 0, 1], [0, 1, 1]])) == [1, 1, 2]
    assert invariant_factors(columns([[1, 1, 1], [1, -1, 1], [1, 1, -1]])) == [1, 2, 2]


def test_invariant_factors_pivot_on_least_fill_in(monkeypatch):
    """The unit alone in its row (cost 0) goes first and leaves a unit at
    the bottom left, so nothing reaches the dense form.  Pivoting on the
    first unit found, top right, would leave the residual [[2], [3]]."""
    shapes = record_dense_shapes(monkeypatch)
    assert invariant_factors(columns([[-2, 1], [0, 1], [1, 1]])) == [1, 1]
    assert shapes == []


def test_invariant_factors_match_sympy():
    """A third opinion that shares no code with this package."""
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    @settings(max_examples=60, deadline=None)
    @given(sparse_unit_matrices().filter(lambda a: a and a[0]))
    def check(a):
        expected = normalforms.invariant_factors(Matrix(a), domain=ZZ)
        assert invariant_factors(columns(a)) == [int(d) for d in expected if d]

    check()


def test_invariant_factors_with_divisor_pivots_match_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    @settings(max_examples=60, deadline=None)
    @given(divisor_pivot_matrices())
    def check(a):
        expected = normalforms.invariant_factors(Matrix(a), domain=ZZ)
        assert invariant_factors(columns(a)) == [int(d) for d in expected if d]

    check()


def test_kernel_and_solve():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        for col in kernel_basis(a):
            assert all(x == 0 for x in mat_vec(a, col))
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x)
        y = solve(a, b)
        assert y is not None and mat_vec(a, y) == b


def test_fg_group_normal_form():
    g = FGAbelianGroup.from_orders(1, [4, 6])
    assert g.torsion == (2, 12)
    assert str(g) == "Z (+) Z/2 (+) Z/12"
    assert is_trivial(FGAbelianGroup.from_orders(0, [1, 1]))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 64), st.integers(1, 10**6),
                          st.builds(lambda a, b: 2 ** a * 3 ** b, st.integers(0, 6),
                                    st.integers(0, 3))), max_size=8))
def test_fg_group_merge_matches_the_prime_power_chain(orders):
    """The orders merge by gcd and lcm, without factoring, into the chain
    that collecting each prime's exponents gives."""
    assert FGAbelianGroup.from_orders(0, orders).torsion == tuple(prime_power_chain(orders))


def test_cokernel_is_the_homology_of_a_window_into_zero():
    def cokernel(a, n):
        return presented_homology([{}] * n, a, n, 0)

    assert cokernel(columns([[2]]), 1) == FGAbelianGroup(0, (2,))
    assert is_trivial(cokernel(columns([[1, 0], [0, 1]]), 2))
    assert cokernel(columns(zeros(3, 0)), 3) == FGAbelianGroup(3)


def test_presented_homology_with_relations():
    # Z/2 generator mapping with coefficient 1 onto a Z/2 target generator
    h = presented_homology(
        columns([[1]]), columns(zeros(1, 0)), 1, 1, relations_mid={0: 2}, relations_target={0: 2}
    )
    assert is_trivial(h)
    # an incompatible boundary is rejected: order-2 source onto a free target
    with pytest.raises(ValueError):
        presented_homology(columns([[1]]), columns(zeros(1, 0)), 1, 1, relations_mid={0: 2})


def test_presented_homology_circle_and_torsion():
    a = zeros(6, 6)
    for i in range(6):
        a[(i + 1) % 6][i] += 1
        a[i][i] -= 1
    assert presented_homology(columns(a), columns(zeros(6, 0)), 6, 6) == FGAbelianGroup(1)
    assert presented_homology(columns([], width=6), columns(a), 6, 0) == FGAbelianGroup(1)
    assert presented_homology(columns([], width=1), columns([[2]]), 1, 0) == FGAbelianGroup(0, (2,))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def annotated_windows(draw):
    """Z^k -> Z^n_mid -> Z^n_target with random Z/m annotations; b is built
    from cycles of a so that a fair share of the windows are complexes."""
    n_tgt, n_mid, k = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.integers(-3, 3)
    a = [[draw(entries) for _ in range(n_mid)] for _ in range(n_tgt)]
    moduli = st.sampled_from([2, 3, 4])
    rel_t = {i: draw(moduli) for i in range(n_tgt) if draw(st.booleans())}
    rel_m = {i: draw(moduli) for i in range(n_mid) if draw(st.booleans())}
    if draw(st.booleans()):
        # make the annotated middle generators compatible with a
        for i, m in rel_m.items():
            for t in range(n_tgt):
                a[t][i] = draw(entries) * (rel_t[t] // gcd(rel_t[t], m)) if t in rel_t else 0
    width = len(rel_t)
    block = [row + [-rel_t[t] if t == i else 0 for t in sorted(rel_t)] for i, row in enumerate(a)]
    cycles = [v[:n_mid] for v in kernel_basis(block, cols=n_mid + width)] if n_tgt else [
        [int(i == j) for i in range(n_mid)] for j in range(n_mid)
    ]
    b = [[0] * k for _ in range(n_mid)]
    for j in range(k):
        for v in cycles:
            c = draw(entries)
            for i in range(n_mid):
                b[i][j] += c * v[i]
    if draw(st.booleans()):
        b = [[x + draw(st.integers(-1, 1)) for x in row] for row in b]
    return (a if n_tgt else [], b if n_mid else [], n_mid, n_tgt, rel_m, rel_t)


@settings(max_examples=300, deadline=None)
@given(annotated_windows())
def test_presented_homology_matches_cycle_basis_oracle(window):
    a, b, n_mid, *rest = window
    new = _outcome(presented_homology, columns(a, width=n_mid), columns(b), n_mid, *rest)
    old = _outcome(cycle_basis_homology, *window)
    assert new == old
