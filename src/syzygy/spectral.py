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
forces it: formal.forced_zero_reason (a zero end, a finite source against a
torsion-free target, a divisible source against a target with no atom
summand), which the low-degree exact sequences read too, or a split
extension's bottom row; otherwise page turning refuses and names each
undecided differential's source spot.
One pass, SpectralGrid._differentials, decides a page's differentials for
is_stable, turn_page and converged_total.  An abutment is read off
E-infinity only: converged_total refuses unless the pass finds every
differential zero on the grid's page and on each later page with a
differential inside the box, which then equals it.
A map is zero when FormalHom.is_zero says so, its entries stored mod m.
Row q = 1 is built in smith's column format straight from the grid's own
row 0 and read by formal.ChainHomology, as every other formal chain is.
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
    cokernel,
    forced_zero_reason,
    homology_at,
    solve_extension,
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
        non-empty string), "degree" (an integer >= 0), "value" and "provenance" (a
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
            if degree < 0:
                raise ValueError(f"{what}: 'degree' holds {degree}, not an integer >= 0")
            if (group, degree) in entries:
                raise ValueError(f"{what}: repeats an earlier entry")
            entries[group, degree] = (parse_value(value, f"{what} value"), note)
        return cls(entries)

    def _entry(self, group: str, degree: int) -> tuple:
        """(value, provenance) of an entry, or KeyError naming the group and degree."""
        if (group, degree) not in self._entries:
            raise KeyError(f"registry has no entry for group {group!r} in degree {degree}")
        return self._entries[group, degree]

    def get(self, group: str, degree: int) -> FormalGroup:
        return self._entry(group, degree)[0]

    def provenance(self, group: str, degree: int) -> str:
        return self._entry(group, degree)[1]


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
    FormalGroup, and a spot in the box that it lacks is unknown (entry()
    reads it as None); ``differentials`` maps (p, q) to the
    FormalHom leaving it, and ``abutment`` maps n to the degree-n target.
    An entry or differential keyed outside the box is refused.
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
        for p, q in (*self.entries, *self.differentials):
            if not (0 <= p <= box[0] and 0 <= q <= box[1]):
                raise FormalGroupError(
                    f"spot {(p, q)} lies outside the box 0..{box[0]} x 0..{box[1]}")
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
                if not d.compose(upstream).is_zero():
                    raise FormalGroupError(f"d o d != 0 through {(p, q)}")

    def entry(self, p: int, q: int):
        if p < 0 or q < 0:
            return FormalGroup.zero()
        if p > self.box[0] or q > self.box[1]:
            return FormalGroup.zero()
        return self.entries.get((p, q))

    def _differentials(self, r: int) -> dict:
        """The one pass that decides page r: each spot with a known nonzero
        entry, mapped to (d_out, d_in), its d_r out and in.  Each is explicit
        (on the grid's own page only), forced zero by _forced_zero_reason, or
        None; an unknown end of a forced-zero map stands in as 0, since the
        map contributes nothing to the homology at its known end."""
        def resolve(p, q):
            if r == self.page and (p, q) in self.differentials:
                return self.differentials[p, q]
            src, tgt = self.entry(p, q), self.entry(p - r, q + r - 1)
            if self._forced_zero_reason(src, tgt, q) is None:
                return None
            return FormalHom(ZERO if src is None else src, ZERO if tgt is None else tgt)

        return {(p, q): (resolve(p, q), resolve(p + r, q - r + 1))
                for (p, q), g in sorted(self.entries.items()) if g is not None and not g.is_zero}

    def _forced_zero_reason(self, src, tgt, src_q):
        """Why the differential from ``src`` (in row ``src_q``) to ``tgt`` is
        zero: formal.forced_zero_reason, where an unknown end (None) is
        neither zero, finite nor divisible, or else a split extension's
        bottom row; None when nothing forces it."""
        reason = forced_zero_reason(src, tgt)
        if reason is None and self.zero_from_row0 and src_q == 0:
            return "split extension: bottom-row differentials vanish"
        return reason

    def _live_spots(self, r: int) -> list:
        """The spots whose d_r, out or in, the pass does not find zero."""
        return [spot for spot, ds in self._differentials(r).items()
                if any(d is None or not d.is_zero() for d in ds)]

    def turn_page(self) -> "SpectralGrid":
        """Next page: homology at every spot.  Refuses when a needed
        differential is neither supplied nor forced zero, naming each such
        differential by its source spot."""
        r = self.page
        decided = self._differentials(r)
        missing = sorted({spot for (p, q), (d_out, d_in) in decided.items()
                          for spot, d in (((p, q), d_out), ((p + r, q - r + 1), d_in))
                          if d is None})
        if missing:
            raise FormalGroupError(
                "cannot turn the page: missing differentials at " + ", ".join(map(str, missing)))
        homology = {spot: homology_at(d_in, d_out) for spot, (d_out, d_in) in decided.items()}
        return SpectralGrid(
            page=r + 1,
            box=self.box,
            entries={spot: homology.get(spot, g) for spot, g in sorted(self.entries.items())
                     if g is not None},
            differentials={},
            abutment=dict(self.abutment),
            notes=self.notes + [f"page {r} -> {r + 1}"],
            zero_from_row0=self.zero_from_row0,
        )

    def is_stable(self) -> bool:
        """Every differential in the box is zero on this page: E_{r+1} = E_r.
        E-infinity needs that on every later page too (converged_total)."""
        return not self._live_spots(self.page)

    def converged_total(self, n: int) -> list[FormalGroup]:
        """Candidates for the degree-n abutment, assembled from the
        antidiagonal through iterated extension problems.  It is read off
        E-infinity only: the pass must find every differential zero on this
        page and on each later one up to min(p_max, q_max + 1), the last with
        a differential inside the box, which reuse this page's entries and see
        no explicit maps; otherwise it refuses, naming the page and spots."""
        for r in range(self.page, min(self.box[0], self.box[1] + 1) + 1):
            if live := self._live_spots(r):
                raise FormalGroupError(
                    f"cannot assemble degree {n}: page {r} is not E-infinity, as differentials"
                    " at " + ", ".join(map(str, live)) + " are not known to be zero")
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


class ExactSequence:
    """A chain of (label, group) terms, group None where unknown, with
    optionally known connecting maps, ``homs[i]`` from terms[i] to
    terms[i+1]; a map whose index or endpoints are not its terms' is
    refused.  An unknown term between two known zeros is zero, and is
    filled in when the sequence is built; one pass suffices, since a filled
    term's neighbours are known already."""

    def __init__(self, terms, homs=None):
        zero = [False] + [g is not None and g.is_zero for _, g in terms] + [False]
        self.terms = [(label, ZERO if g is None and zero[i] and zero[i + 2] else g)
                      for i, (label, g) in enumerate(terms)]
        self.homs = dict(homs or {})
        for i, h in self.homs.items():
            if i not in range(len(self.terms) - 1):
                raise FormalGroupError(f"map {i} is outside the {len(self.terms)} terms")
            (a, ga), (b, gb) = self.terms[i], self.terms[i + 1]
            if h.source != ga or h.target != gb:
                raise FormalGroupError(
                    f"map {i} is {h.source} -> {h.target}, not {a}[{ga}] -> {b}[{gb}]")

    def _map(self, i):
        """Map terms[i] -> terms[i+1], explicit or forced zero."""
        if i in self.homs:
            return self.homs[i]
        a, b = self.terms[i][1], self.terms[i + 1][1]
        if a is not None and b is not None and forced_zero_reason(a, b):
            return FormalHom(a, b)
        return None

    def check(self) -> list:
        """(label, verdict, detail) at each interior term, the verdict
        "exact", "fail" or "unknown"."""
        return [(label, *self._verdict(i))
                for i, (label, _) in enumerate(self.terms[1:-1], start=1)]

    def _verdict(self, i) -> tuple:
        """(verdict, detail) at terms[i]: unknown without the term or a map at
        it, or when its homology needs atom torsion that is not declared."""
        group = self.terms[i][1]
        if group is None:
            return "unknown", "term not computed"
        if group.is_zero:
            return "exact", "zero group"
        f, g = self._map(i - 1), self._map(i)
        if f is None or g is None:
            return "unknown", "connecting maps not available"
        if not g.compose(f).is_zero():
            return "fail", "the image is not contained in the kernel (not a complex here)"
        try:
            h = homology_at(f, g)
        except InsufficientAtomData as exc:
            return "unknown", str(exc)
        return ("exact", "") if h.is_zero else ("fail", f"homology {h}")

    def render(self) -> str:
        return " -> ".join(
            f"{label}[{'?' if group is None else group}]" for label, group in self.terms
        )


def _low_degree_tail(grid: SpectralGrid) -> list:
    """The terms E_{2,0} -> E_{0,1} -> H1 -> E_{1,0} -> 0 that end both sequences."""
    return [("E_{2,0}", grid.entry(2, 0)), ("E_{0,1}", grid.entry(0, 1)),
            ("H1", grid.abutment.get(1)), ("E_{1,0}", grid.entry(1, 0)),
            ("0", FormalGroup.zero())]


def five_term(grid: SpectralGrid) -> ExactSequence:
    """H2 -> E_{2,0} -> E_{0,1} -> H1 -> E_{1,0} -> 0."""
    return ExactSequence([("H2", grid.abutment.get(2))] + _low_degree_tail(grid))


def seven_term(grid: SpectralGrid) -> ExactSequence:
    """E_{3,0} -> E_{1,1} -> coker(E_{0,2} -> H2) -> E_{2,0} -> E_{0,1}
    -> H1 -> E_{1,0} -> 0."""
    e02 = grid.entry(0, 2)
    coker_term = grid.abutment.get(2) if e02 is not None and e02.is_zero else None
    terms = [("E_{3,0}", grid.entry(3, 0)), ("E_{1,1}", grid.entry(1, 1)),
             ("coker(E_{0,2}->H2)", coker_term)]
    return ExactSequence(terms + _low_degree_tail(grid))


# -- the three extension grids -----------------------------------------------------


def pgl_grid(n: int, registry: KnownHomologyRegistry) -> SpectralGrid:
    """Second page for the central extension of the projective linear group by
    its scalar subgroup Z/n (n = 2 or 3): rows are homology of Z/n, column
    p carries homology of the quotient; (2,0), the goal, and (3,0), (2,1)
    and (3,1) are left out, so unknown."""
    if n not in (2, 3):
        raise ValueError("only n = 2, 3 are wired up")
    entries = {(p, 2): FormalGroup.zero() for p in range(4)}  # H2 of a cyclic group vanishes
    entries[(0, 0)] = FormalGroup.free(1)
    entries[(1, 0)] = registry.get(f"PGL({n},C)", 1)
    entries[(0, 1)] = registry.get(f"Z/{n}", 1)
    # H1(quotient) = 0 and H0 = Z make E_{1,1} collapse (coefficients are a
    # trivial module; universal coefficients leave H1 tensor + H0 torsion).
    entries[(1, 1)] = FormalGroup.zero()
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
    """The second homology of one group, the one candidate its derivation
    allows, with its exact sequence and the notes of its derivation."""

    __slots__ = ("group", "value", "sequence", "notes")

    def __init__(self, group: str, value: FormalGroup, sequence: ExactSequence, notes: list):
        self.group = group
        self.value = value
        self.sequence = sequence
        self.notes = notes


def schur_pgl(n: int, registry: KnownHomologyRegistry) -> SchurDerivation:
    """H2 of PGL(n,C) for n = 2, 3, solved from the five-term sequence of the
    central extension: 0 -> K2(C) -> H2 -> Z/n -> 0, split since K2(C) is
    divisible."""
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
    grid.entries[(2, 0)] = candidates[0]  # the solved E_{2,0} enters the sequence
    return SchurDerivation(
        group=f"PGL({n},C)",
        value=candidates[0],
        sequence=five_term(grid),
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


def schur_aut_quadric(registry: KnownHomologyRegistry) -> SchurDerivation:
    """H2 of the quadric's automorphism group: K2(C) + Z/2, the one group
    surviving in total degree 2 on the stable page of the swap extension."""
    grid = aut_quadric_grid(schur_pgl(2, registry).value, registry)
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    candidates = page.converged_total(2)
    if len(candidates) != 1:
        raise FormalGroupError(f"abutment not unique: {[str(c) for c in candidates]}")
    return SchurDerivation(
        group="Aut(P1xP1)",
        value=candidates[0],
        sequence=five_term(grid),
        notes=page.notes,
    )


def nonorientable_block_homology(i: int, sigma_action: FormalHom, low_full: FormalGroup,
                                 low_plus: FormalGroup):
    """H_i of the twisted block of a non-orientable class, solved from the
    long exact sequence of 0 -> full -> plus -> block -> 0 coefficients:

        H_i(full) --(1+s)--> H_i(plus) -> X -> H_{i-1}(full) -> H_{i-1}(plus)

    ``sigma_action`` is 1+s, from H_i(full) to H_i(plus); ``low_full`` and
    ``low_plus`` are H_{i-1}(full) and H_{i-1}(plus).  Returns the candidate
    list, one group when the extension is determined.  Row 1 solves its
    twisted entries at i = 1, k2_prime_candidates the quadric's at i = 2."""
    sub = cokernel(sigma_action)
    if i == 1 or low_full.is_zero:  # H_{i-1}(full) injects: at i = 1, 1+sigma is 2 on Z
        quot = FormalGroup.zero()
    elif low_plus.is_zero:
        quot = low_full
    else:
        raise InsufficientAtomData(
            f"need the degree-{i - 1} comparison map {low_full} -> {low_plus}"
        )
    return solve_extension(sub, quot)


def k2_prime_candidates(registry: KnownHomologyRegistry) -> list:
    """The two candidates for the degree-2 twisted block of the quadric over a
    point: the extension of Z/2 by K2(C) + Z/2."""
    h2_pgl2 = schur_pgl(2, registry).value
    h2_full = schur_aut_quadric(registry).value
    h2_plus = h2_pgl2 + h2_pgl2  # Kunneth for PGL2 x PGL2 with vanishing H1
    diag = _swap_antidiagonal(h2_full)  # a -> (a, a^{-1}) across the swap
    if diag.target != h2_plus:
        raise FormalGroupError("Kunneth shape mismatch for the quadric")
    quadric = surfaces.SurfaceCentralModel(2, surfaces.BaseCase.CREMONA, "dp8_quadric")
    return nonorientable_block_homology(
        2, diag, registry.get(quadric.group, 1), registry.get(quadric.plus_group, 1))


# -- row-1 complexes -------------------------------------------------------------


# 1+sigma from H1 of a non-orientable group to H1 of its orientation-preserving
# subgroup (SurfaceCentralModel.plus_group), in smith's column format; None is the zero map
SIGMA_ACTIONS = {
    "Aut(P1xP1)": None,
    "Aut(Bl2P2)": [{0: 1, 1: 1}],  # the diagonal on the torus abelianization
    "Aut(S_g,2/P1)": [{}, {}],
    "Aut(S_s,2/P1)": [{0: 2}],
    "Aut(S_e,2/P1)": [{0: 2}],
}
H0 = FormalGroup.free(1)  # H_0 of every group, with coefficients Z


def _row1_complex(u: surfaces.GeneratorUniverse, registry, base) -> ChainHomology:
    """The row-1 complex over ``base`` at ranks 1..3, FormalHoms in smith's
    column format: maps[0] from place 1 to place 0, maps[1] from place 2 to 1.

    Place p sums the entries of row 0's own rank-(p+1) generators, under the
    universe's one staircase e <= e_max + (r_max - r): H1 of the generator's
    group (SurfaceCentralModel.group) from the registry, or when it is not
    orientable its twisted block, nonorientable_block_homology at degree 1
    of SIGMA_ACTIONS into H1 of the plus_group.  The incidences are row 0's:
    an entry c from generator j to generator i adds c, unsigned, at every pair
    of a slot of j and a slot of i: the all-ones product map between entry tori.
    Over the plane, _cremona_rank3_blocks adds what row 0 cannot see."""
    if u.base is not base:
        raise ValueError(f"this builder is for the {base.value} universe")
    if u.r_max < 3:
        raise ValueError(f"the row-1 complex needs r_max >= 3, got {u.r_max}")
    cc, gens = surfaces.row0_complex(u)
    entries = {}  # model group -> its entry, so each twisted block is solved once

    def entry(gen):
        group = gen.group
        if group not in entries and gen.orientable:
            entries[group] = registry.get(group, 1)
        elif group not in entries and group not in SIGMA_ACTIONS:
            raise FormalGroupError(
                f"no 1+sigma action is known for the non-orientable group {group!r}")
        elif group not in entries:
            sigma = FormalHom(registry.get(group, 1), registry.get(gen.plus_group, 1),
                              SIGMA_ACTIONS[group])
            [entries[group]] = nonorientable_block_homology(1, sigma, H0, H0)
        return entries[group]

    places = {r: direct_sum_with_layout([entry(g) for g in gens[r]]) for r in (1, 2, 3)}
    maps = []
    for r in (2, 3):
        (source, src_slots), (target, tgt_slots) = places[r], places[r - 1]
        cols = [{} for _ in source.slots()]
        for j, column in enumerate(cc.boundaries[r - 1]):
            for i, c in column.items():
                for s in src_slots[j]:
                    for t in tgt_slots[i]:
                        cols[s][t] = cols[s].get(t, 0) + c
        if r == 3 and u.base is surfaces.BaseCase.CREMONA:
            by_tag = {(g.family, g.e): i for i, g in enumerate(gens[2])}
            for j, g in enumerate(gens[3]):
                for tag, block in _cremona_rank3_blocks(g).items():
                    ts = tgt_slots[by_tag[tag]]
                    if len(block) != len(src_slots[j]) or any(
                            a not in range(len(ts)) for col in block for a in col):
                        raise FormalGroupError(
                            f"row-1 block {g} -> {tag} is {block}, expected"
                            f" {len(src_slots[j])} columns over {len(ts)} target slots")
                    for s, col in zip(src_slots[j], block):
                        for a, x in col.items():
                            cols[s][ts[a]] = cols[s].get(ts[a], 0) + x
        maps.append(FormalHom(source, target, cols))
    return ChainHomology(maps)


def ruled_row1_complex(u: surfaces.GeneratorUniverse, registry) -> ChainHomology:
    """The abelianization row for the ruled universe (see _row1_complex)."""
    return _row1_complex(u, registry, surfaces.BaseCase.RULED)


def _cremona_rank3_blocks(gen) -> dict:
    """Row-1 blocks out of a Cremona rank-3 generator, keyed by the (family, e)
    of the rank-2 target: one column per slot of the generator's entry, each
    a dict from the target's slot index to an int.  Row 0 gives these pairs
    no nonzero entry: the two positions of S_g,2, S_s,2 and S_e,2 cancel, and
    the one target of Bl2P2, the quadric, has entry zero."""
    if gen.family == "dp7":
        # the twisted torus of Bl2P2 meets the conic bundle S_g,1 and F1
        return {("blowup", 0): [{0: 2, 1: 1}], ("dp8_blowdown", 0): [{0: -3}]}
    if gen.family == "blowup" and gen.partition == (1, 1):
        # entry C* + Z/2 in slot order; only the torus maps, by squares
        return {("blowup", 0): [{0: -2, 1: 2}, {}]}
    if gen.family == "blowup":
        # S_s,2: both blow-downs of the shared section, each antidiagonal
        return {("blowup", 0): [{0: 1, 1: -1}], ("min_section", 1): [{0: 1, 1: -1}]}
    # S_e,2: the blow-downs to e and e + 1, antidiagonal with opposite signs
    return {("min_section", gen.e): [{0: 1, 1: -1}], ("min_section", gen.e + 1): [{0: -1, 1: 1}]}


def cremona_row1_complex(u: surfaces.GeneratorUniverse, registry) -> ChainHomology:
    """The abelianization row for the plane's universe (see _row1_complex)."""
    return _row1_complex(u, registry, surfaces.BaseCase.CREMONA)


# -- assembled applications --------------------------------------------------------


def ruled_grid(u: surfaces.GeneratorUniverse, registry) -> SpectralGrid:
    """Second page for the ruled universe at finite truncation: row 0 from the
    coinvariant complex, row 1 from the abelianization complex, row 2 unknown."""
    row1 = ruled_row1_complex(u, registry)
    entries = {(i, 0): FormalGroup.from_fg(surfaces.row0_homology(u, i))
               for i in surfaces.row0_degrees(u) if i <= 3}  # the degrees in the box
    entries[(0, 0)] = H0
    entries[(0, 1)] = row1.at(0)
    entries[(1, 1)] = row1.at(1)
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


def cremona_assemble(registry, u: surfaces.GeneratorUniverse,
                     force_e21_zero: bool = False) -> dict:
    """Candidates for H2 of the plane's birational automorphism group.

    The governing relation is H2 = E_{0,2} / Im(E_{2,1} -> E_{0,2}), which
    holds only when E_{1,1} = 0; otherwise FormalGroupError names E_{1,1}.
    The differential is undetermined, so every candidate is reported unless
    the caller forces E_{2,1} = 0.  The infinite 2-torsion sum absorbs any
    2-torsion image, so only the 3-part of E_{2,1} can change the answer:
    with 3^m its largest cyclic 3-power, the image divides E_{0,2}'s one
    3-divisible cyclic factor by 3^j for j = 0..m, as far as that factor
    allows.  Row 0 does not enter: E_{2,0} is row 0's entry, printed beside
    the relation."""
    row1 = cremona_row1_complex(u, registry)
    e01, e11, e21_bound = row1.at(0), row1.at(1), row1.at(2)
    if not e11.is_zero:
        raise FormalGroupError(f"E_{{1,1}} = {e11} is not zero, so H2 is not"
                               " E_{0,2} / Im(E_{2,1} -> E_{0,2})")
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

