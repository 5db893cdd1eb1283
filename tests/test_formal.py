import random
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from syzygy.formal import (
    ZERO,
    ChainHomology,
    FormalGroup,
    FormalGroupError,
    FormalHom,
    InsufficientAtomData,
    atom_registry,
    cokernel,
    forced_zero_reason,
    homology_at,
    kernel,
    registered_cross_maps,
    solve_extension,
)

from syzygy.spectral import direct_sum_with_layout

from helpers import (
    abelian_groups_of_order,
    columns,
    counting_direct_sum_with_layout,
    cyclic_group,
    fg_part,
    group_order,
    infinite_sum,
    oracle_solve_extension,
    per_family_cokernel,
    per_family_kernel,
    window_row_read,
)

Cs = FormalGroup.atom("C*")
K2 = FormalGroup.atom("K2(C)")
Z = FormalGroup.free(1)


def Zn(n):
    return cyclic_group(n)


def test_atom_registry_invariants():
    reg = atom_registry()
    assert all(FormalGroup.atom(name).is_divisible for name in reg)
    assert reg["K2(C)"].torsion_rule == "none"
    assert reg["C*"].torsion_rule == "cyclic"
    assert reg["C*^C*"].torsion_rule == "unknown"


def test_normal_form_idempotent_and_sorted():
    g = FormalGroup(atoms=("K2(C)", "C*"), cyclic=(6, 4), free_rank=2)
    assert g.atoms == ("C*", "K2(C)")
    assert g.cyclic == (2, 12)
    again = FormalGroup(atoms=g.atoms, cyclic=g.cyclic, free_rank=g.free_rank)
    assert again == g
    assert str(g) == "C* (+) K2(C) (+) Z/2 (+) Z/12 (+) Z^2"


def test_infinite_summand_display_only():
    g = infinite_sum("Z", Zn(2))
    assert str(g) == "(+)_{Z}(Z/2)"
    with pytest.raises(FormalGroupError):
        FormalHom(g, g)


# atom -> whether the atom alone is torsion-free; every atom is divisible
ATOM_FACTS = {
    "C*": False,  # torsion rule "cyclic"
    "K2(C)": True,  # "none"
    "C*^C*": False,  # "unknown"
}


@pytest.mark.parametrize("extra", ["nothing", "Z/2", "Z", "infinite"])
@pytest.mark.parametrize("atom", [*ATOM_FACTS, None])
def test_torsion_freeness_and_divisibility_follow_the_declared_structure(atom, extra):
    """A group is torsion-free when it has no cyclic or infinite summand and
    each atom's torsion rule is "none"; divisible when it has only atoms.
    Without atoms the zero group is both and Z only torsion-free."""
    parts = {"nothing": ZERO, "Z/2": Zn(2), "Z": Z, "infinite": infinite_sum("Z", Zn(2))}
    g = (ZERO if atom is None else FormalGroup.atom(atom)) + parts[extra]
    assert g.is_torsion_free == (ATOM_FACTS.get(atom, True) and extra in ("nothing", "Z"))
    assert g.is_divisible == (extra == "nothing")


def test_one_atom_with_torsion_breaks_torsion_freeness_only():
    g = K2 + Cs
    assert not g.is_torsion_free and g.is_divisible
    assert (K2 + K2).is_torsion_free and (K2 + K2).is_divisible


def test_a_display_summand_is_no_atom_summand():
    """A display summand sums copies of one finite group, so a divisible
    source maps into it only by zero, as into Z/2; an atom beside it
    still leaves the map undecided."""
    shown = infinite_sum("Z", Zn(2))
    assert forced_zero_reason(Cs, shown) == "divisible source, target with no atom summand"
    assert forced_zero_reason(Cs, K2 + shown) is None


# the groups a hom is drawn between: each fact of forced_zero_reason is met
# by some of them and missed by others
HOM_ENDS = [ZERO, Z, Zn(2), Zn(3), Zn(4), Cs, K2, Cs + Zn(2), Z + Zn(2), K2 + Zn(3)]


@st.composite
def candidate_homs(draw):
    """Groups A and B from HOM_ENDS and one column per slot of A, with an
    entry in -3..3 at every slot of B."""
    a, b = draw(st.sampled_from(HOM_ENDS)), draw(st.sampled_from(HOM_ENDS))
    cols = [{i: draw(st.integers(-3, 3)) for i in range(len(b.slots()))} for _ in a.slots()]
    return a, b, cols


@settings(max_examples=300, deadline=None)
@given(candidate_homs())
def test_formal_hom_agrees_with_the_forced_zero_rules(hom):
    """Where forced_zero_reason says every map A -> B is zero, FormalHom
    refuses the columns or stores the zero map."""
    a, b, cols = hom
    if forced_zero_reason(a, b) is None:
        return
    try:
        h = FormalHom(a, b, cols)
    except FormalGroupError:
        return
    assert h.is_zero()


def test_hom_validation():
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, K2, [{0: 1}])  # unregistered atom pair
    with pytest.raises(FormalGroupError):
        FormalHom(Zn(2), Z, [{0: 1}])  # finite into free
    with pytest.raises(FormalGroupError):
        FormalHom(Zn(4), Zn(8), [{0: 1}])  # not well defined
    FormalHom(Zn(4), Zn(8), [{0: 2}])  # well defined
    FormalHom(Z, Zn(8), [{0: 3}])
    FormalHom(FormalGroup.atom("C*^C*"), K2, [{0: 1}])  # the registered surjection


def test_hom_refuses_malformed_columns():
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, Cs + Cs, [{0: 1}, {1: 1}])  # two columns, one source slot
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, Cs + Cs, [{2: 1}])  # key outside the two target slots
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, Cs, [{-1: 1}])
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, Cs, [(1,)])  # a column that is not a dict
    with pytest.raises(FormalGroupError):
        FormalHom(Z, Z, [[2]])  # a dense list of rows is no fallback
    with pytest.raises(FormalGroupError):
        FormalHom(Z + Z, Z, [[1, 1]])
    assert FormalHom(Cs, Cs, [{0: 0}]).columns == [{}]  # zeros are not stored
    assert not hasattr(FormalHom(Cs, Cs), "matrix")


def test_entries_into_cyclic_slots_are_stored_mod_the_order():
    """An entry into Z/m is validated as given, then stored mod m, so a map
    whose entries are multiples of m has none and is_zero() says so."""
    assert FormalHom(Z, Zn(3), [{0: 3}]).is_zero()
    assert FormalHom(Zn(4), Zn(8), [{0: -6}]).columns == [{0: 2}]
    # slots run atoms, cyclic, free: C* -> C* keeps its power 7, Z -> Z/5 reduces
    assert FormalHom(Cs + Z, Cs + Zn(5), [{0: 7}, {1: 7}]).columns == [{0: 7}, {1: 2}]
    with pytest.raises(FormalGroupError):
        FormalHom(Cs, Zn(2), [{0: 2}])  # refused before any entry reduces
    with pytest.raises(FormalGroupError):
        FormalHom(Zn(4), Zn(8), [{0: 9}])  # 9 is 1 mod 8, and 1 is not well defined


def test_registered_cross_map_blocks_computations():
    h = FormalHom(FormalGroup.atom("C*^C*"), K2, [{0: 1}])
    with pytest.raises(InsufficientAtomData):
        kernel(h)


def test_kernel_cokernel_examples():
    diag = FormalHom(Cs, Cs + Cs, [{0: 1, 1: 1}])
    assert cokernel(diag) == Cs
    x2 = FormalHom(Z, Z, [{0: 2}])
    assert kernel(x2).is_zero
    assert cokernel(x2) == Zn(2)
    square_graph = FormalHom(Cs, Cs + Cs, [{0: 2, 1: 1}])
    assert kernel(square_graph).is_zero
    p6 = FormalHom(Cs, Cs, [{0: 6}])
    assert kernel(p6) == Zn(6)
    assert cokernel(p6).is_zero  # divisible
    assert kernel(FormalHom(Cs, Cs)) == Cs
    assert cokernel(FormalHom(Cs, Cs)) == Cs


def test_unknown_torsion_fails_loudly():
    w = FormalGroup.atom("C*^C*")
    with pytest.raises(InsufficientAtomData):
        kernel(FormalHom(w, w, [{0: 2}]))
    # unimodular maps never need the torsion rule
    assert kernel(FormalHom(w, w, [{0: 1}])).is_zero
    assert cokernel(FormalHom(w, w, [{0: -1}])).is_zero


def test_cyclic_kernel_cokernel_vs_brute_force():
    for n in range(2, 13):
        for k in range(0, 13):
            h = FormalHom(Zn(n), Zn(n), [{0: k}]) if (k * n) % n == 0 else None
            ker, cok = kernel(h), cokernel(h)
            elements = [x for x in range(n) if (k * x) % n == 0]
            image = {(k * x) % n for x in range(n)}
            assert group_order(fg_part(ker)) == len(elements), (k, n)
            assert group_order(fg_part(cok)) == n // len(image), (k, n)
            expected = gcd(k, n)
            want = Zn(expected) if expected > 1 else FormalGroup.zero()
            assert ker == want and cok == want


unimodular_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
    max_size=6,
)


def _unimodular(n, ops, transpose=False):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i % n != j % n:
            a, b = i % n, j % n
            for col in range(n):
                m[a][col] += c * m[b][col]
    return m


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3),
    unimodular_ops,
    unimodular_ops,
)
def test_kernel_cokernel_invariant_under_unimodular_changes(mat, ops1, ops2):
    from syzygy.smith import mat_mul

    u = _unimodular(3, ops1)
    v = _unimodular(3, ops2)
    for ambient in (Cs + Cs + Cs, Z + Z + Z):
        h = FormalHom(ambient, ambient, columns(mat))
        conj = FormalHom(ambient, ambient, columns(mat_mul(u, mat_mul(mat, v))))
        assert kernel(h) == kernel(conj)
        assert cokernel(h) == cokernel(conj)


SUMMANDS = {
    "C*": Cs,
    "K2(C)": K2,
    "C*^C*": FormalGroup.atom("C*^C*"),
    "Z/2": Zn(2),
    "Z/3": Zn(3),
    "Z/4": Zn(4),
    "Z": Z,
}
summand_lists = st.lists(st.sampled_from(sorted(SUMMANDS)), max_size=4)


def _draw_entry(data, s, t):
    """A random entry from source slot s to target slot t that keeps the
    map well defined: same atom or a registered atom pair, nothing from a
    cyclic group to Z, and k with k*n = 0 mod m from Z/n to Z/m."""
    if s[0] == "atom" or t[0] == "atom":
        if s[0] == t[0] == "atom" and (s[1] == t[1] or (s[1], t[1]) in registered_cross_maps()):
            return data.draw(st.integers(-4, 4))
        return 0
    if s[0] == "cyclic" and t[0] == "free":
        return 0
    if s[0] == "cyclic" and t[0] == "cyclic":
        return t[1] // gcd(s[1], t[1]) * data.draw(st.integers(-3, 3))
    return data.draw(st.integers(-4, 4))


def _outcome(fn, h):
    try:
        return fn(h)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(summand_lists, summand_lists, st.data())
def test_kernel_cokernel_match_the_per_family_oracle(src_names, tgt_names, data):
    source = sum((SUMMANDS[n] for n in src_names), FormalGroup.zero())
    target = sum((SUMMANDS[n] for n in tgt_names), FormalGroup.zero())
    mat = [[_draw_entry(data, s, t) for s in source.slots()] for t in target.slots()]
    h = FormalHom(source, target, columns(mat, width=len(source.slots())))
    assert _outcome(kernel, h) == _outcome(per_family_kernel, h)
    assert _outcome(cokernel, h) == _outcome(per_family_cokernel, h)


@st.composite
def two_step_complexes(draw):
    """g: B -> C and f: A -> B with g o f = 0, each entry drawn as in
    _draw_entry: f lands in a random set of B's slots and g vanishes on
    them, and then both are conjugated by elementary automorphisms of B
    (one slot's multiple added to another, undone by subtracting it)."""
    data = SimpleNamespace(draw=draw)  # what _draw_entry reads of st.data()
    a, b, c = (sum((SUMMANDS[n] for n in draw(summand_lists) + draw(summand_lists)), ZERO)
               for _ in range(3))
    sa, sb, sc = a.slots(), b.slots(), c.slots()
    image = draw(st.sets(st.integers(0, len(sb) - 1), max_size=len(sb) - 1)) if sb else set()
    f = FormalHom(a, b, [{i: x for i, t in enumerate(sb) if i in image
                          and (x := _draw_entry(data, s, t))} for s in sa])
    g = FormalHom(b, c, [{i: x for i, t in enumerate(sc) if j not in image
                          and (x := _draw_entry(data, s, t))} for j, s in enumerate(sb)])
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)):
        if i != j and max(i, j) < len(sb) and (x := _draw_entry(data, sb[j], sb[i])):
            add = [{k: 1} for k in range(len(sb))]
            add[j] = {i: x, j: 1}
            undo = [dict(col) for col in add]
            undo[j][i] = -x
            f = FormalHom(b, b, add).compose(f)
            g = g.compose(FormalHom(b, b, undo))
    return g, f


C2 = FormalGroup.atom("C*^C*")


@settings(max_examples=200, deadline=None)
@given(two_step_complexes())
@example((FormalHom(C2 + Zn(2), ZERO), FormalHom(C2, C2 + Zn(2), [{0: 2}])))
def test_one_sweep_read_matches_the_window_oracle(maps):
    """Every place of the row C <- B <- A, read by one sweep per family,
    is the group or the refusal that its window gives.  The example is a
    C*^C* block beside a Z/2 slot: its cokernel answers (Z/2), and only its
    kernel needs C*^C*[2], which the atom table does not declare, so each
    place is formed only when it is read."""
    chain = ChainHomology(list(maps))
    for place in (0, 1, 2):
        assert _outcome(chain.at, place) == _outcome(lambda p: window_row_read(maps, p), place)


def test_chain_homology_refuses_an_empty_chain():
    """A chain without maps has no place to read; at(0) used to reach
    maps[0] and raise IndexError."""
    with pytest.raises(FormalGroupError, match="at least one map"):
        ChainHomology([])


@settings(max_examples=200, deadline=None)
@given(st.lists(summand_lists, max_size=4))
@example([["Z/2"], ["Z/3"]])
@example([["C*", "Z/4"], ["Z/2", "K2(C)"], ["Z/3", "C*"]])
def test_direct_sum_layout_matches_the_counting_oracle(part_names):
    """The stable sort gives the counting layout, and both refuse the same
    lists, such as [Z/2, Z/3], whose cyclic orders merge."""
    parts = [sum((SUMMANDS[n] for n in names), FormalGroup.zero()) for names in part_names]
    assert _outcome(direct_sum_with_layout, parts) == _outcome(
        counting_direct_sum_with_layout, parts
    )


def test_direct_sum_is_the_sum_of_its_parts():
    parts = [Cs + Zn(2), infinite_sum("P1", Zn(2)), Z + K2, Zn(4) + Cs, infinite_sum("P2", Z)]
    total, layout = direct_sum_with_layout(parts)
    assert total == sum(parts, FormalGroup.zero())
    assert sorted(n for indices in layout for n in indices) == list(range(len(total.slots())))


def test_homology_at_examples():
    # zero maps leave the middle group unchanged
    mid = Cs + Zn(4)
    h = homology_at(FormalHom(FormalGroup.zero(), mid), FormalHom(mid, FormalGroup.zero()))
    assert h == mid
    # exact at the middle of the standard diagonal sequence
    diag = FormalHom(Cs, Cs + Cs, [{0: 1, 1: 1}])
    anti = FormalHom(Cs + Cs, Cs, [{0: 1}, {0: -1}])
    assert homology_at(diag, anti).is_zero
    with pytest.raises(FormalGroupError):
        homology_at(diag, FormalHom(Cs + Cs, Cs, [{0: 1}, {0: 1}]))  # does not compose to zero


def test_homology_at_torsion_correction():
    # On a divisible group the image of a power map is everything, so the
    # middle torsion dies: ker(0)/im(2) on C* is trivial ...
    f = FormalHom(Cs, Cs, [{0: 2}])
    g = FormalHom(Cs, Cs, [{}])
    assert homology_at(f, g).is_zero
    # ... while torsion enters through kernels of power maps: ker(c -> c^3)
    # is the cube roots of unity
    h = homology_at(FormalHom(FormalGroup.zero(), Cs), FormalHom(Cs, Cs, [{0: 3}]))
    assert h == Zn(3)


def test_kernel_and_cokernel_match_presented_homology():
    """For any hom h: 0 -> ker -> A -> B -> coker -> 0 is exact."""
    rng = random.Random(3)
    for _ in range(20):
        mat = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        h = FormalHom(Z + Z, Z + Z, columns(mat))
        ker, cok = kernel(h), cokernel(h)
        # verify with the generic engine on the finitely generated side
        from syzygy.smith import presented_homology, zeros

        k = presented_homology(columns(mat), columns(zeros(2, 0)), 2, 2)
        c = presented_homology(columns([], width=2), columns(mat), 2, 0)
        assert fg_part(ker) == k and fg_part(cok) == c


def test_solve_extension_examples():
    cands = solve_extension(K2 + Zn(2), Zn(2))
    assert {str(c) for c in cands} == {"K2(C) (+) Z/4", "K2(C) (+) Z/2 (+) Z/2"}
    assert [str(c) for c in solve_extension(K2, Zn(5))] == ["K2(C) (+) Z/5"]
    assert solve_extension(FormalGroup.zero(), K2 + Zn(2)) == [K2 + Zn(2)]
    assert solve_extension(K2, FormalGroup.zero()) == [K2]


def test_solve_extension_small_cases():
    # extensions of Z/2 by Z/4: Z/8 and Z/4 + Z/2 but not (Z/2)^3
    cands = {str(c) for c in solve_extension(Zn(4), Zn(2))}
    assert cands == {"Z/8", "Z/2 (+) Z/4"}
    # extensions of Z/p by Z/q for coprime p, q are unique
    cands = solve_extension(Zn(2), Zn(3))
    assert [str(c) for c in cands] == ["Z/6"]
    # subgroups of elementary abelian quotients
    cands = {str(c) for c in solve_extension(Zn(2) + Zn(2), Zn(2))}
    assert cands == {"Z/2 (+) Z/2 (+) Z/2", "Z/2 (+) Z/4"}


def test_solve_extension_matches_the_brute_force_oracle():
    """Every pair of nonzero finite abelian groups of total order at most 31:
    the Littlewood-Richardson search finds exactly the middles that some
    homomorphism realises, listed in the order of their str."""
    pairs = 0
    for a in range(2, 16):
        for b in range(2, 31 // a + 1):
            for sub in abelian_groups_of_order(a):
                for quot in abelian_groups_of_order(b):
                    cands = solve_extension(FormalGroup(cyclic=sub), FormalGroup(cyclic=quot))
                    assert [str(c) for c in cands] == sorted(str(c) for c in cands)
                    assert sorted(c.cyclic for c in cands) == oracle_solve_extension(sub, quot)
                    pairs += 1
    assert pairs == 79


def finite_groups(orders=st.integers(2, 36)):
    return st.lists(orders, min_size=1, max_size=4).map(lambda o: FormalGroup(cyclic=o))


@settings(max_examples=150, deadline=None)
@given(finite_groups(), finite_groups())
def test_solve_extension_is_symmetric_and_keeps_the_order(a, b):
    """c^lam_{mu nu} = c^lam_{nu mu}, so A by B and B by A have the same
    middles, and every middle has order |A| |B|."""
    cands = solve_extension(a, b)
    assert cands and cands == solve_extension(b, a)
    for c in cands:
        assert prod(c.cyclic) == prod(a.cyclic) * prod(b.cyclic)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 6))
def test_elementary_abelian_extensions(p, a, b):
    """(Z/p)^a by (Z/p)^b: exactly (Z/p^2)^k (+) (Z/p)^(a+b-2k), k = 0..min(a, b)."""
    cands = solve_extension(FormalGroup(cyclic=(p,) * a), FormalGroup(cyclic=(p,) * b))
    assert sorted(c.cyclic for c in cands) == sorted(
        (p,) * (a + b - 2 * k) + (p * p,) * k for k in range(min(a, b) + 1))


@settings(max_examples=100, deadline=None)
@given(finite_groups(st.builds(lambda i, j: 2 ** i * 5 ** j, st.integers(0, 4), st.integers(0, 2))),
       finite_groups(st.builds(lambda i, j: 3 ** i * 7 ** j, st.integers(0, 3), st.integers(0, 2))))
def test_coprime_extensions_split(a, b):
    assert solve_extension(a, b) == [a + b]


def test_solve_extension_rejects_unbounded():
    with pytest.raises(FormalGroupError):
        solve_extension(Z, Zn(2))
    with pytest.raises(FormalGroupError):
        solve_extension(Zn(2), Z)
