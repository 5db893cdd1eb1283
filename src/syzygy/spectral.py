"""First-quadrant homological spectral sequences over formal groups, with the
grid assembly, page turning, low-degree exact sequences, and the end-to-end
derivations for the birational automorphism groups of ruled surfaces and of
the plane.

Group homology of matrix groups made discrete is never computed here: it is
axiomatized in a registry whose every entry carries a provenance note citing
the classical fact it imports.  The registry is read-only and every
derivation requires it; a derived H2 is returned, never read from the
registry, so an entry for a derived group goes unread.  Differentials the
source material leaves implicit are defaulted to zero only when a sound rule
forces it (a zero end, a finite source against a torsion-free target, a
uniquely divisible source against a finite target, or a split extension's
bottom row); otherwise page turning refuses and names the offending spot.
"""

from __future__ import annotations

from functools import cache

from .formal import (
    ChainHomology,
    FormalGroup,
    FormalHom,
    FormalGroupError,
    InsufficientAtomData,
    ZERO,
    _zero_modulo_target,
    atom_registry,
    check_exact,
    cokernel,
    homology_at,
    solve_extension,
    zero_hom,
)
from . import DATA_DIR, read_json, surfaces, unpack
from .smith import prime_factorization


def parse_value(data: dict, what: str) -> FormalGroup:
    """A registry value (see KnownHomologyRegistry.load), or ValueError naming ``what``."""
    atoms, cyclic, free, infinite = unpack(data, what, {}, {
        "atoms": [str], "cyclic": [int], "free": int, "infinite": [list]})
    if any(d < 2 for d in cyclic or ()):
        raise ValueError(f"{what}: 'cyclic' holds an order below 2: {cyclic}")
    if any(len(p) != 2 or type(p[0]) is not str for p in infinite or ()):
        raise ValueError(f"{what}: 'infinite' holds a pair other than [label, value]")
    infinite = [(label, parse_value(inner, f"{what} summand {label!r}"))
                for label, inner in infinite or ()]
    try:
        return FormalGroup(tuple(atoms or ()), tuple(cyclic or ()), free or 0, tuple(infinite))
    except FormalGroupError as exc:  # an unknown atom or a negative rank
        raise ValueError(f"{what}: {exc}") from None


class KnownHomologyRegistry:
    """(group name, degree) -> formal group, each entry with provenance: a
    read-only table of imported facts, never written after load.  Groups
    the derivations compute are not looked up here."""

    def __init__(self, entries: dict):
        self._entries = entries

    @classmethod
    def load(cls, path=None) -> "KnownHomologyRegistry":
        """Read a registry file, the shipped one by default: an object whose one
        key "entries" lists entries.  An entry has exactly the keys "group" (a
        non-empty string), "degree" (an integer), "value" and "provenance" (a
        non-empty note), all required; no two share a group and degree.  A
        value has the optional keys "atoms" (atom names), "cyclic" (orders
        >= 2), "free" (a rank) and "infinite" ([label, value] pairs), each a
        list but "free".  No key may repeat in an object."""
        path = path or DATA_DIR / "registry.json"
        [items] = unpack(read_json(path), f"registry {path}", {"entries": [dict]})
        entries = {}
        for item in items:
            what = f"registry entry {item.get('group')!r} degree {item.get('degree')!r}"
            group, degree, value, note = unpack(item, what, {
                "group": str, "degree": int, "value": dict, "provenance": str})
            if (group, degree) in entries:
                raise ValueError(f"{what}: repeats an earlier entry")
            entries[group, degree] = (parse_value(value, f"{what} value"), note)
        return cls(entries)

    def get(self, group: str, degree: int) -> FormalGroup:
        if (group, degree) not in self._entries:
            raise KeyError(f"registry has no entry for group {group!r} in degree {degree}")
        return self._entries[group, degree][0]

    def provenance(self, group: str, degree: int) -> str:
        return self._entries[(group, degree)][1]


@cache
def default_registry() -> KnownHomologyRegistry:
    """The shipped registry, loaded once per process.  It is read-only, so
    every caller sees exactly the shipped entries; derived groups are never
    read from it."""
    return KnownHomologyRegistry.load()


# -- layout helper -------------------------------------------------------------


def direct_sum_with_layout(parts: list[FormalGroup]):
    """Concatenate formal groups and return (sum, per-part slot indices).

    The sum's canonical slot order is a stable sort of the parts'
    concatenated slots: ("atom", name) < ("cyclic", d) < ("free",), atoms by
    name.  The sort's permutation is the layout.  The cyclic part is
    rewritten in invariant-factor form, so when distinct cyclic orders merge
    (e.g. Z/2 + Z/3 = Z/6) the sorted slots differ from the sum's, slots
    lose their identity, and the layout is refused.
    """
    total = FormalGroup(atoms=tuple(a for p in parts for a in p.atoms),
                        cyclic=tuple(d for p in parts for d in p.cyclic),
                        free_rank=sum(p.free_rank for p in parts),
                        infinite=tuple(x for p in parts for x in p.infinite))
    slots = [s for p in parts for s in p.slots()]
    order = sorted(range(len(slots)), key=slots.__getitem__)
    if [slots[n] for n in order] != total.slots():
        raise FormalGroupError("cyclic parts merge under normalization; layout lost")
    position = [0] * len(slots)
    for pos, n in enumerate(order):
        position[n] = pos
    layout, start = [], 0
    for p in parts:
        width = len(p.slots())
        layout.append(position[start:start + width])
        start += width
    return total, layout


def _swap_antidiagonal(m: FormalGroup) -> FormalHom:
    """a -> (a, -a) from M into M + M."""
    total, (first, second) = direct_sum_with_layout([m, m])
    return FormalHom(m, total, [{a: 1, b: -1} for a, b in zip(first, second)])


def coinvariants_of_swap(m: FormalGroup) -> FormalGroup:
    """(M + M) / (a, -a): the coinvariants of the factor swap on M + M."""
    return cokernel(_swap_antidiagonal(m))


# -- spectral grids -------------------------------------------------------------


class SpectralGrid:
    """One page of a first-quadrant spectral sequence in a box.

    ``box`` is (p_max, q_max), inclusive; ``entries`` maps (p, q) to a
    FormalGroup or None (unknown), ``differentials`` maps (p, q) to the
    FormalHom leaving it, and ``abutment`` maps n to the degree-n target.
    ``zero_from_row0`` marks a split extension, whose differentials leaving
    q = 0 vanish.  The differentials are checked on construction.
    """

    __slots__ = ("page", "box", "entries", "differentials", "abutment", "notes",
                 "zero_from_row0")

    def __init__(self, page: int, box: tuple, entries=None, differentials=None,
                 abutment=None, notes=None, zero_from_row0: bool = False):
        self.page = page
        self.box = box
        self.entries = {} if entries is None else entries
        self.differentials = {} if differentials is None else differentials
        self.abutment = {} if abutment is None else abutment
        self.notes = [] if notes is None else notes
        self.zero_from_row0 = zero_from_row0
        for (p, q), hom in self.differentials.items():
            tp, tq = p - self.page, q + self.page - 1
            src, tgt = self.entry(p, q), self.entry(tp, tq)
            if src is None or tgt is None:
                raise FormalGroupError(f"differential at {(p, q)} touches an unknown entry")
            if hom.source != src or hom.target != tgt:
                raise FormalGroupError(f"differential at {(p, q)} has wrong endpoints")
        self._check_dd()

    def _check_dd(self):
        r = self.page
        for (p, q), d in self.differentials.items():
            upstream = self.differentials.get((p + r, q - r + 1))
            if upstream is not None:
                if not _zero_modulo_target(d.compose(upstream)):
                    raise FormalGroupError(f"d o d != 0 through {(p, q)}")

    def entry(self, p: int, q: int):
        if p < 0 or q < 0:
            return FormalGroup.zero()
        if p > self.box[0] or q > self.box[1]:
            return FormalGroup.zero()
        return self.entries.get((p, q))

    def _resolve_differential(self, p, q):
        """The page-r differential out of (p, q): explicit, forced zero, or None."""
        if (p, q) in self.differentials:
            return self.differentials[(p, q)]
        r = self.page
        tp, tq = p - r, q + r - 1
        src, tgt = self.entry(p, q), self.entry(tp, tq)
        if self._forced_zero_reason(src, tgt, q) is None:
            return None
        # an unknown end of a forced-zero map stands in as 0: the map
        # contributes nothing to the homology at its known end
        return zero_hom(ZERO if src is None else src, ZERO if tgt is None else tgt)

    def _forced_zero_reason(self, src, tgt, src_q):
        reg = atom_registry()

        def is_zero(g):
            return g is not None and g.is_zero

        def finite(g):
            return g is not None and g.is_finite and not g.infinite

        def torsion_free(g):
            return (
                g is not None
                and not g.cyclic
                and not g.infinite
                and all(reg[a].torsion_rule == "none" for a in g.atoms)
            )

        def uniquely_divisible(g):
            return (
                g is not None
                and not g.cyclic
                and g.free_rank == 0
                and not g.infinite
                and all(reg[a].uniquely_divisible for a in g.atoms)
            )

        if is_zero(src) or is_zero(tgt):
            return "zero end"
        if self.zero_from_row0 and src_q == 0:
            return "split extension: bottom-row differentials vanish"
        if finite(src) and torsion_free(tgt):
            return "finite source, torsion-free target"
        if uniquely_divisible(src) and finite(tgt):
            return "uniquely divisible source, finite target"
        return None

    def turn_page(self) -> "SpectralGrid":
        """Next page: homology at every spot.  Refuses when a needed
        differential is neither supplied nor forced zero."""
        r = self.page
        missing = []
        new_entries = {}
        for p in range(self.box[0] + 1):
            for q in range(self.box[1] + 1):
                cur = self.entry(p, q)
                if cur is None:
                    new_entries[(p, q)] = None
                    continue
                if cur.is_zero:
                    new_entries[(p, q)] = cur
                    continue
                d_out = self._resolve_differential(p, q)
                d_in = self._resolve_differential(p + r, q - r + 1)
                if d_out is None:
                    missing.append((p, q))
                    continue
                if d_in is None:
                    missing.append((p + r, q - r + 1))
                    continue
                new_entries[(p, q)] = homology_at(d_in, d_out)
        if missing:
            raise FormalGroupError(
                "cannot turn the page: missing differentials at "
                + ", ".join(map(str, sorted(set(missing))))
            )
        return SpectralGrid(
            page=r + 1,
            box=self.box,
            entries=new_entries,
            differentials={},
            abutment=dict(self.abutment),
            notes=self.notes + [f"page {r} -> {r + 1}"],
            zero_from_row0=self.zero_from_row0,
        )

    def is_stable(self) -> bool:
        """All differentials in the box resolve to zero on this page."""
        r = self.page
        for p in range(self.box[0] + 1):
            for q in range(self.box[1] + 1):
                cur = self.entry(p, q)
                if cur is None or cur.is_zero:
                    continue
                for key in ((p, q), (p + r, q - r + 1)):
                    d = self._resolve_differential(*key)
                    if d is None or not d.is_zero():
                        return False
        return True

    def converged_total(self, n: int) -> list[FormalGroup]:
        """Candidates for the degree-n abutment, assembled from the stable
        antidiagonal through iterated extension problems."""
        pieces = []
        for p in range(n + 1):
            g = self.entry(p, n - p)
            if g is None:
                raise FormalGroupError(f"entry {(p, n - p)} unknown; cannot assemble degree {n}")
            pieces.append(g)
        candidates = [FormalGroup.zero()]
        for piece in pieces:  # filtration grows with p
            nxt = []
            for c in candidates:
                nxt.extend(solve_extension(c, piece))
            candidates = nxt
        unique = {str(c): c for c in candidates}
        return [unique[k] for k in sorted(unique)]


# -- low-degree exact sequences ---------------------------------------------------


class SequenceTerm:
    """A labelled term of an exact sequence; ``group`` None is unknown."""

    __slots__ = ("label", "group")

    def __init__(self, label: str, group: FormalGroup | None):
        self.label = label
        self.group = group


class ExactSequence:
    """A chain of terms with optionally known connecting maps; exactness is
    checked at interior terms wherever enough data exists."""

    def __init__(self, terms, homs=None):
        self.terms = [SequenceTerm(l, g) for l, g in terms]
        self.homs = dict(homs or {})

    def solve_forced(self):
        """Unknown terms flanked by known zeros must be zero; fill them in."""
        changed = True
        while changed:
            changed = False
            for i in range(1, len(self.terms) - 1):
                t = self.terms[i]
                left, right = self.terms[i - 1], self.terms[i + 1]
                if (
                    t.group is None
                    and left.group is not None and left.group.is_zero
                    and right.group is not None and right.group.is_zero
                ):
                    t.group = FormalGroup.zero()
                    changed = True
        return self

    def _map(self, i):
        """Map terms[i] -> terms[i+1], explicit or forced zero."""
        if i in self.homs:
            return self.homs[i]
        a, b = self.terms[i].group, self.terms[i + 1].group
        if a is not None and b is not None and (a.is_zero or b.is_zero):
            return zero_hom(a, b)
        return None

    def check(self):
        out = []
        for i in range(1, len(self.terms) - 1):
            t = self.terms[i]
            if t.group is None:
                out.append((t.label, "unknown", "term not computed"))
                continue
            if t.group.is_zero:
                out.append((t.label, "exact", "zero group"))
                continue
            f, g = self._map(i - 1), self._map(i)
            if f is None or g is None:
                out.append((t.label, "unknown", "connecting maps not available"))
                continue
            v = check_exact([f, g])[0]
            out.append((t.label, v.verdict, v.detail))
        return out

    def render(self) -> str:
        return " -> ".join(
            f"{t.label}[{'?' if t.group is None else t.group}]" for t in self.terms
        )


def five_term(grid: SpectralGrid) -> ExactSequence:
    """H2 -> E_{2,0} -> E_{0,1} -> H1 -> E_{1,0} -> 0."""
    terms = [
        ("H2", grid.abutment.get(2)),
        ("E_{2,0}", grid.entry(2, 0)),
        ("E_{0,1}", grid.entry(0, 1)),
        ("H1", grid.abutment.get(1)),
        ("E_{1,0}", grid.entry(1, 0)),
        ("0", FormalGroup.zero()),
    ]
    return ExactSequence(terms).solve_forced()


def seven_term(grid: SpectralGrid) -> ExactSequence:
    """E_{3,0} -> E_{1,1} -> coker(E_{0,2} -> H2) -> E_{2,0} -> E_{0,1}
    -> H1 -> E_{1,0} -> 0."""
    h2 = grid.abutment.get(2)
    e02 = grid.entry(0, 2)
    coker_term = None
    if h2 is not None and e02 is not None and e02.is_zero:
        coker_term = h2
    terms = [
        ("E_{3,0}", grid.entry(3, 0)),
        ("E_{1,1}", grid.entry(1, 1)),
        ("coker(E_{0,2}->H2)", coker_term),
        ("E_{2,0}", grid.entry(2, 0)),
        ("E_{0,1}", grid.entry(0, 1)),
        ("H1", grid.abutment.get(1)),
        ("E_{1,0}", grid.entry(1, 0)),
        ("0", FormalGroup.zero()),
    ]
    return ExactSequence(terms).solve_forced()


# -- the three extension grids -----------------------------------------------------


def pgl_grid(n: int, registry: KnownHomologyRegistry) -> SpectralGrid:
    """Second page for the central extension of the projective linear group by
    its scalar subgroup Z/n (n = 2 or 3): rows are homology of Z/n, column
    p carries homology of the quotient; (2,0) and (3,0) are the unknowns."""
    if n not in (2, 3):
        raise ValueError("only n = 2, 3 are wired up")
    name = f"PGL({n},C)"
    zn = f"Z/{n}"
    entries = {}
    for p in range(4):
        for q in range(3):
            entries[(p, q)] = None
    entries[(0, 0)] = FormalGroup.free(1)
    entries[(1, 0)] = registry.get(name, 1)
    entries[(2, 0)] = None  # the goal
    entries[(3, 0)] = None
    entries[(0, 1)] = registry.get(zn, 1)
    # H1(quotient) = 0 and H0 = Z make E_{1,1} collapse (coefficients are a
    # trivial module; universal coefficients leave H1 tensor + H0 torsion).
    entries[(1, 1)] = FormalGroup.zero()
    entries[(2, 1)] = None
    entries[(3, 1)] = None
    for p in range(4):
        entries[(p, 2)] = FormalGroup.zero()  # H2 of a cyclic group vanishes
    return SpectralGrid(
        page=2,
        box=(3, 2),
        entries=entries,
        abutment={i: registry.get(f"SL({n},C)", i) for i in (0, 1, 2)},
        notes=[
            f"central extension: Z/{n} -> SL({n},C) -> PGL({n},C)",
            "row q=1: E_{1,1} = 0 by universal coefficients from H1(PGL) = 0",
            "row q=2: H2 of a cyclic group vanishes",
        ],
    )


class SchurDerivation:
    """The second homology of one group, with the candidates it was chosen
    from, its exact sequence and the notes of its derivation."""

    __slots__ = ("group", "value", "candidates", "sequence", "notes")

    def __init__(self, group: str, value: FormalGroup, candidates: list,
                 sequence: ExactSequence, notes: list):
        self.group = group
        self.value = value
        self.candidates = candidates
        self.sequence = sequence
        self.notes = notes


def schur_pgl(n: int, registry: KnownHomologyRegistry) -> SchurDerivation:
    """H2 of PGL(n,C) for n = 2, 3, solved from the five-term sequence of the
    central extension: 0 -> K2(C) -> H2 -> Z/n -> 0, split by unique
    divisibility."""
    grid = pgl_grid(n, registry)
    h2_cover = grid.abutment[2]
    e01 = grid.entry(0, 1)
    if not grid.entry(1, 1).is_zero or not grid.entry(0, 2).is_zero:
        raise FormalGroupError("edge injectivity needs E_{1,1} = E_{0,2} = 0")
    if not grid.abutment[1].is_zero or not grid.entry(1, 0).is_zero:
        raise FormalGroupError("surjectivity onto E_{0,1} needs H1 = E_{1,0} = 0")
    candidates = solve_extension(h2_cover, e01)
    if len(candidates) != 1:
        raise FormalGroupError(f"extension not unique: {[str(c) for c in candidates]}")
    value = candidates[0]
    seq = five_term(grid)
    seq.terms[1].group = value
    return SchurDerivation(
        group=f"PGL({n},C)",
        value=value,
        candidates=candidates,
        sequence=seq,
        notes=grid.notes,
    )


def aut_quadric_grid(h2_pgl2: FormalGroup, registry: KnownHomologyRegistry) -> SpectralGrid:
    """Second page for the extension of the quadric's automorphism group by
    the ruling swap: 0 -> PGL2 x PGL2 -> Aut -> Z/2 -> 0 (split), where
    h2_pgl2 is H2(PGL(2,C)) as schur_pgl derives it."""
    entries = {}
    for p in range(4):
        entries[(p, 0)] = registry.get("Z/2", p)
        entries[(p, 1)] = FormalGroup.zero()
        entries[(p, 2)] = FormalGroup.zero()
    entries[(0, 2)] = coinvariants_of_swap(h2_pgl2)
    return SpectralGrid(
        page=2,
        box=(3, 2),
        entries=entries,
        notes=[
            "extension (PGL2 x PGL2) -> Aut(quadric) -> Z/2, split by the swap",
            "row q=1 vanishes: H1 of the normal factor is 0",
            "q=2, p>=1: the swap makes H2(N) an induced Z/2-module, so higher"
            " homology vanishes (Shapiro)",
            "split extension: differentials leaving the bottom row vanish",
        ],
        zero_from_row0=True,
    )


def _schur_aut_quadric(h2_pgl2: FormalGroup, registry: KnownHomologyRegistry) -> SchurDerivation:
    """schur_aut_quadric from an already derived H2(PGL(2,C))."""
    grid = aut_quadric_grid(h2_pgl2, registry)
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    candidates = page.converged_total(2)
    if len(candidates) != 1:
        raise FormalGroupError(f"abutment not unique: {[str(c) for c in candidates]}")
    return SchurDerivation(
        group="Aut(P1xP1)",
        value=candidates[0],
        candidates=candidates,
        sequence=five_term(grid),
        notes=page.notes,
    )


def schur_aut_quadric(registry: KnownHomologyRegistry) -> SchurDerivation:
    """H2 of the quadric's automorphism group: K2(C) + Z/2, the one group
    surviving in total degree 2 on the stable page of the swap extension."""
    return _schur_aut_quadric(schur_pgl(2, registry).value, registry)


def nonorientable_block_homology(i: int, sigma_action: FormalHom, low_full: FormalGroup,
                                 low_plus: FormalGroup):
    """H_i of the twisted block of a non-orientable class, solved from the
    long exact sequence of 0 -> full -> plus -> block -> 0 coefficients:

        H_i(full) --(1+s)--> H_i(plus) -> X -> H_{i-1}(full) -> H_{i-1}(plus)

    ``sigma_action`` is 1+s, from H_i(full) to H_i(plus); ``low_full`` and
    ``low_plus`` are H_{i-1}(full) and H_{i-1}(plus).  Returns the candidate
    list, one group when the extension is determined."""
    sub = cokernel(sigma_action)
    if i - 1 == 0:
        quot = FormalGroup.zero()  # 1+sigma is multiplication by 2 on H0 = Z
    elif low_plus.is_zero:
        quot = low_full
    elif low_full.is_zero:
        quot = FormalGroup.zero()
    else:
        raise InsufficientAtomData(
            f"need the degree-{i - 1} comparison map {low_full} -> {low_plus}"
        )
    return solve_extension(sub, quot)


def k2_prime_candidates(registry: KnownHomologyRegistry) -> list:
    """The two candidates for the degree-2 twisted block of the quadric over a
    point: the extension of Z/2 by K2(C) + Z/2."""
    h2_pgl2 = schur_pgl(2, registry).value
    h2_full = _schur_aut_quadric(h2_pgl2, registry).value
    h2_plus = h2_pgl2 + h2_pgl2  # Kunneth for PGL2 x PGL2 with vanishing H1
    diag = _swap_antidiagonal(h2_full)  # a -> (a, a^{-1}) across the swap
    if diag.target != h2_plus:
        raise FormalGroupError("Kunneth shape mismatch for the quadric")
    return nonorientable_block_homology(
        2, diag, registry.get("Aut(P1xP1)", 1), registry.get("Aut+(P1xP1)", 1))


# -- row-1 complexes -------------------------------------------------------------


class RowComplex:
    """One row of the second page as a three-place complex of formal groups:
    ``places`` holds (labels, FormalGroup, layout) per place, ``maps[i]``
    maps place i+1 to place i, and ``homology`` reads the places."""

    __slots__ = ("places", "maps", "homology")

    def __init__(self, places: list, maps: list):
        self.places = places
        self.maps = maps
        self.homology = ChainHomology(maps)


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
        if len(block) != len(ti) or any(len(row) != len(si) for row in block):
            raise FormalGroupError(
                f"block {sl} -> {tl} has shape {len(block)}x"
                f"{len(block[0]) if block else 0}, expected {len(ti)}x{len(si)}"
            )
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


def _model_group(gen) -> str:
    """The registry name of a generator's automorphism group, the same for
    every point set and e: Autf(...) over the ruled base; over the plane
    Aut(...) for a surface, Aut(.../P1) for a conic bundle's pair."""
    k = gen.rank - 1
    if gen.family in surfaces.POINT_MODEL_NAMES:
        return f"Aut({surfaces.POINT_MODEL_NAMES[gen.family]})"
    if gen.family == "hirzebruch":
        name = "P1xP1/P1" if gen.e == 0 else "Fe/P1"
    elif gen.family == "min_section":
        name = f"S_e,{k}"
    elif gen.partition in ((1,) * k, (k,)):
        name = f"S_{'g' if gen.partition == (1,) * k else 's'},{k}"
    else:
        name = "S_(" + ",".join(map(str, gen.partition)) + f"),{k}"
    if gen.base is surfaces.BaseCase.RULED:
        return f"Autf({name})"
    return f"Aut({name})" if gen.family == "hirzebruch" else f"Aut({name}/P1)"


# 1+sigma from H1 of a non-orientable group to H1 of its orientation-preserving
# subgroup Aut+(...), in smith's column format; None is the zero map
SIGMA_ACTIONS = {
    "Aut(P1xP1)": None,
    "Aut(Bl2P2)": [{0: 1, 1: 1}],  # the diagonal on the torus abelianization
    "Aut(S_g,2/P1)": [{}, {}],
    "Aut(S_s,2/P1)": [{0: 2}],
    "Aut(S_e,2/P1)": [{0: 2}],
}


def _twisted_entry(group: str, registry) -> FormalGroup:
    """The degree-1 twisted block of a non-orientable group, solved through
    the long exact sequence of its 1+sigma action."""
    if group not in SIGMA_ACTIONS:
        raise FormalGroupError(f"no 1+sigma action is known for the non-orientable group {group!r}")
    plus = "Aut+" + group[len("Aut"):]
    action = FormalHom(registry.get(group, 1), registry.get(plus, 1), SIGMA_ACTIONS[group])
    h0 = FormalGroup.free(1)  # H0 of every group, so the block's quotient vanishes
    [block] = nonorientable_block_homology(1, action, h0, h0)
    return block


def _row1_complex(u: surfaces.GeneratorUniverse, registry, extra_rank3=None) -> RowComplex:
    """The row-1 complex at ranks 1..3, on the cells of the rank-3 row 0.

    Place p sums the entries of the rank-(p+1) generators: H1 of the
    generator's group (_model_group) from the registry, or its twisted block
    when the generator is not orientable.  The cells and incidences are those
    of row 0 truncated at rank 3, whose staircase is the row's, so a block
    is the row-0 coefficient times the entry map, the product map (all ones)
    between entry tori; the sign flips at rank 3, where row 0 orients every
    cell against the cube convention (tests/test_row0_witness.py).
    Generators whose entry group has no slots carry no block.
    extra_rank3(gen), keyed by the (family, e) of the rank-2 target, adds
    the blocks that row 0 cannot see."""
    if u.r_max < 3:
        raise ValueError(f"the row-1 complex needs r_max >= 3, got {u.r_max}")
    cc, gens = surfaces.row0_complex(surfaces.GeneratorUniverse(u.base, u.labels, u.e_max, 3))
    entries = {}  # model group -> its entry, so each twisted block is solved once

    def entry(gen):
        group = _model_group(gen)
        if group not in entries:
            entries[group] = (registry.get(group, 1) if gen.orientable
                              else _twisted_entry(group, registry))
        return entries[group]

    places = {r: _make_place([(g, entry(g)) for g in gens[r]]) for r in (1, 2, 3)}
    maps = []
    for r, sign in ((2, 1), (3, -1)):
        src_layout, tgt_layout = places[r][2], places[r - 1][2]
        blocks = {}
        for j, column in enumerate(cc.boundaries[r - 1]):
            for i, c in column.items():
                if src_layout[j] and tgt_layout[i]:
                    block = [[sign * c] * len(src_layout[j]) for _ in tgt_layout[i]]
                    blocks[(gens[r][j], gens[r - 1][i])] = block
        if r == 3 and extra_rank3 is not None:
            by_tag = {(g.family, g.e): g for g in gens[2]}
            for g in gens[3]:
                blocks.update(((g, by_tag[t]), b) for t, b in extra_rank3(g).items())
        maps.append(_entry_hom(places[r], places[r - 1], blocks))
    return RowComplex(places=[places[1], places[2], places[3]], maps=maps)


def ruled_row1_complex(u: surfaces.GeneratorUniverse, registry) -> RowComplex:
    """The abelianization row for the ruled universe at ranks 1..3, with the
    staircase invariant bounds."""
    if u.base is not surfaces.BaseCase.RULED:
        raise ValueError("this builder is for the ruled universe")
    return _row1_complex(u, registry)


def _cremona_rank3_blocks(gen) -> dict:
    """Row-1 blocks out of a Cremona rank-3 generator, keyed by the (family, e)
    of the rank-2 target.  Row 0 gives these no target with a nonzero entry:
    the two positions of S_g,2, S_s,2 and S_e,2 cancel, and the one target of
    Bl2P2, the quadric, has entry zero."""
    if gen.family == "dp7":
        # the twisted torus of Bl2P2 meets the conic bundle S_g,1 and F1
        return {("blowup", 0): [[2], [1]], ("dp8_blowdown", 0): [[-3]]}
    if gen.family == "blowup" and gen.partition == (1, 1):
        # entry C* + Z/2 in slot order; only the torus maps, by squares
        return {("blowup", 0): [[-2, 0], [2, 0]]}
    if gen.family == "blowup":
        # S_s,2: both blow-downs of the shared section, each antidiagonal
        return {("blowup", 0): [[1], [-1]], ("min_section", 1): [[1], [-1]]}
    # S_e,2: the blow-downs to e and e + 1, antidiagonal with opposite signs
    return {("min_section", gen.e): [[1], [-1]], ("min_section", gen.e + 1): [[-1], [1]]}


def cremona_row1_complex(u: surfaces.GeneratorUniverse, registry) -> RowComplex:
    """The abelianization row for the plane's universe at ranks 1..3; the
    non-orientable classes contribute their twisted blocks, computed through
    the long exact sequence."""
    if u.base is not surfaces.BaseCase.CREMONA:
        raise ValueError("this builder is for the cremona universe")
    return _row1_complex(u, registry, _cremona_rank3_blocks)


def row1_homology(row: RowComplex, i: int) -> FormalGroup:
    """E_{i,1} for i = 0, 1 from a three-place row complex."""
    if i not in (0, 1):
        raise ValueError("the three-place row supports degrees 0 and 1")
    return row.homology.at(i)


def row1_degree2_bound(row: RowComplex) -> FormalGroup:
    """The closed chains at the third place; E_{2,1} is a quotient of this."""
    return row.homology.at(2)


# -- assembled applications --------------------------------------------------------


def ruled_grid(u: surfaces.GeneratorUniverse, registry) -> SpectralGrid:
    """Second page for the ruled universe at finite truncation: row 0 from the
    coinvariant complex, row 1 from the abelianization complex, row 2 unknown."""
    row1 = ruled_row1_complex(u, registry)
    entries = {}
    entries[(0, 0)] = FormalGroup.free(1)
    for i in (1, 2, 3):  # None where the truncation does not reach
        entries[(i, 0)] = FormalGroup.from_fg(surfaces.row0_homology(u, i)) if i <= u.r_max - 2 else None
    entries[(0, 1)] = row1_homology(row1, 0)
    entries[(1, 1)] = row1_homology(row1, 1)
    entries[(2, 1)] = None
    entries[(3, 1)] = None
    for p in range(4):
        entries[(p, 2)] = None
    return SpectralGrid(
        page=2,
        box=(3, 2),
        entries=entries,
        notes=[
            f"ruled universe, {len(u.labels)} points, e_max={u.e_max}, r_max={u.r_max}",
            "row 0: coinvariants of the central-model complex",
            "row 1: abelianizations of the fibrewise automorphism groups",
        ],
    )


def prop_s17_sequence(u: surfaces.GeneratorUniverse, registry) -> ExactSequence:
    """The seven-term sequence of the ruled grid (finite instance of the
    low-degree exact sequence for the relative automorphism group)."""
    return seven_term(ruled_grid(u, registry))


def cremona_assemble(
    registry,
    universe: surfaces.GeneratorUniverse | None = None,
    force_e21_zero: bool = False,
) -> dict:
    """Candidates for H2 of the plane's birational automorphism group.

    The governing relation is H2 = E_{0,2} / Im(E_{2,1} -> E_{0,2}); the
    differential is undetermined, so every candidate is reported unless the
    caller forces E_{2,1} = 0.  The infinite 2-torsion sum absorbs any
    2-torsion image, so only the 3-part of E_{2,1} can change the answer:
    with 3^m its largest cyclic 3-power, the image divides E_{0,2}'s one
    3-divisible cyclic factor by 3^j for j = 0..m, as far as that factor
    allows.  Row 0 does not enter."""
    u = universe or surfaces.GeneratorUniverse.cremona(3, r_max=5)
    row1 = cremona_row1_complex(u, registry)
    e01 = row1_homology(row1, 0)
    e11 = row1_homology(row1, 1)
    e21_bound = row1_degree2_bound(row1)
    e02 = registry.get("E_{0,2}(Cr2)", 2)
    reach = 0 if force_e21_zero else max(
        (prime_factorization(d).get(3, 0) for d in e21_bound.cyclic), default=0)
    threes = [d for d in e02.cyclic if d % 3 == 0]
    if reach and len(threes) > 1:
        raise InsufficientAtomData(
            f"E_{{0,2}} = {e02} has {len(threes)} cyclic factors divisible by 3;"
            " the quotient by a 3-torsion image is not determined")
    candidates = [e02]
    if reach and threes:
        [d] = threes
        rest = tuple(c for c in e02.cyclic if c % 3)
        candidates += [
            FormalGroup(e02.atoms, rest + (d // 3 ** j,), e02.free_rank, e02.infinite)
            for j in range(1, min(prime_factorization(d)[3], reach) + 1)
        ]
    return {
        "relation": "H2(Bir(P2)) = E_{0,2} / Im(E_{2,1} -> E_{0,2})",
        "E_{0,1}": e01,
        "E_{1,1}": e11,
        "E_{2,1} bound": e21_bound,
        "E_{0,2}": e02,
        "candidates": candidates,
    }

