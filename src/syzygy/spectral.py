"""First-quadrant homological spectral sequences over formal groups, with the
grid assembly, page turning, low-degree exact sequences, and the end-to-end
derivations for the birational automorphism groups of ruled surfaces and of
the plane.

Group homology of matrix groups made discrete is never computed here: it is
axiomatized in a registry whose every entry carries a provenance note citing
the classical fact it imports.  Differentials the source material leaves
implicit are defaulted to zero only when a sound rule forces it (a zero end,
a finite source against a torsion-free target, a uniquely divisible source
against a finite target, or a split extension's bottom row); otherwise page
turning refuses and names the offending spot.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

from .formal import (
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
    kernel,
    solve_extension,
    zero_hom,
)
from . import surfaces

_DATA_DIR = Path(__file__).parent / "data"


_VALUE_SHAPES = {  # key of a registry value -> (default, test of a well-formed entry)
    "atoms": ([], lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v)),
    "cyclic": ([], lambda v: isinstance(v, list) and all(type(d) is int and d >= 2 for d in v)),
    "free": (0, lambda v: type(v) is int),
    "infinite": ([], lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) for p in v)),
}


def parse_value(data: dict) -> FormalGroup:
    """A registry value: an object with the optional keys "atoms" (a list of
    names), "cyclic" (a list of orders >= 2), "free" (a rank) and "infinite" (a
    list of [label, value] pairs).  Any other shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"value {data!r} is not an object")
    fields = {}
    for key, (default, well_formed) in _VALUE_SHAPES.items():
        fields[key] = data.get(key, default)
        if not well_formed(fields[key]):
            raise ValueError(f"malformed {key!r}: {fields[key]!r}")
    return FormalGroup(
        atoms=tuple(fields["atoms"]),
        cyclic=tuple(fields["cyclic"]),
        free_rank=fields["free"],
        infinite=tuple((label, parse_value(inner)) for label, inner in fields["infinite"]),
    )


class KnownHomologyRegistry:
    """(group name, degree) -> formal group, each entry with provenance."""

    def __init__(self, entries: dict):
        self._entries = entries

    @classmethod
    def load(cls, path=None) -> "KnownHomologyRegistry":
        path = Path(path) if path else _DATA_DIR / "registry.json"
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        items = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
            raise ValueError(f"registry {path} must hold an object with a list of entry objects")
        entries = {}
        for item in items:
            key = (item.get("group"), item.get("degree"))
            try:
                if not isinstance(key[0], str) or type(key[1]) is not int:
                    raise ValueError("the group must be a string and the degree an integer")
                if not item.get("provenance"):
                    raise ValueError("lacks a provenance note")
                entries[key] = (parse_value(item.get("value", {})), item["provenance"])
            except ValueError as exc:
                raise ValueError(f"registry entry {key[0]!r} degree {key[1]!r}: {exc}") from None
        return cls(entries)

    def get(self, group: str, degree: int) -> FormalGroup:
        try:
            return self._entries[(group, degree)][0]
        except KeyError:
            raise KeyError(
                f"registry has no entry for group {group!r} in degree {degree}"
            ) from None

    def provenance(self, group: str, degree: int) -> str:
        return self._entries[(group, degree)][1]

    def has(self, group: str, degree: int) -> bool:
        return (group, degree) in self._entries

    def add_derived(self, group: str, degree: int, value: FormalGroup, provenance: str):
        if not provenance:
            raise ValueError("derived entries need a provenance note")
        self._entries[(group, degree)] = (value, "derived: " + provenance)


@cache
def default_registry() -> KnownHomologyRegistry:
    """The shared registry loaded from the package data; derived entries
    added to it are seen by every later caller."""
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
    total = sum(parts, FormalGroup.zero())
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

    def fully_known_positions_exact(self) -> bool:
        return all(v != "fail" for _, v, _ in self.check())

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


def pgl_grid(n: int, registry: KnownHomologyRegistry | None = None) -> SpectralGrid:
    """Second page for the central extension of the projective linear group by
    its scalar subgroup Z/n (n = 2 or 3): rows are homology of Z/n, column
    p carries homology of the quotient; (2,0) and (3,0) are the unknowns."""
    if n not in (2, 3):
        raise ValueError("only n = 2, 3 are wired up")
    reg = registry or default_registry()
    name = f"PGL({n},C)"
    zn = f"Z/{n}"
    entries = {}
    for p in range(4):
        for q in range(3):
            entries[(p, q)] = None
    entries[(0, 0)] = FormalGroup.free(1)
    entries[(1, 0)] = reg.get(name, 1)
    entries[(2, 0)] = None  # the goal
    entries[(3, 0)] = None
    entries[(0, 1)] = reg.get(zn, 1)
    # H1(quotient) = 0 and H0 = Z make E_{1,1} collapse (coefficients are a
    # trivial module; universal coefficients leave H1 tensor + H0 torsion).
    entries[(1, 1)] = FormalGroup.zero()
    entries[(2, 1)] = None
    entries[(3, 1)] = None
    for p in range(4):
        entries[(p, 2)] = FormalGroup.zero()  # H2 of a cyclic group vanishes
    grid = SpectralGrid(
        page=2,
        box=(3, 2),
        entries=entries,
        abutment={i: reg.get(f"SL({n},C)", i) for i in (0, 1, 2)},
        notes=[
            f"central extension: Z/{n} -> SL({n},C) -> PGL({n},C)",
            "row q=1: E_{1,1} = 0 by universal coefficients from H1(PGL) = 0",
            "row q=2: H2 of a cyclic group vanishes",
        ],
    )
    return grid


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


def schur_pgl(n: int, registry: KnownHomologyRegistry | None = None) -> SchurDerivation:
    """H2 of PGL(n,C) for n = 2, 3, solved from the five-term sequence of the
    central extension: 0 -> K2(C) -> H2 -> Z/n -> 0, split by unique
    divisibility."""
    reg = registry or default_registry()
    grid = pgl_grid(n, reg)
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
    name = f"PGL({n},C)"
    reg.add_derived(
        name, 2, value,
        f"five-term sequence of the central extension by Z/{n}; "
        "the kernel is uniquely divisible so the extension splits",
    )
    return SchurDerivation(
        group=name,
        value=value,
        candidates=candidates,
        sequence=seq,
        notes=grid.notes,
    )


def aut_quadric_grid(registry: KnownHomologyRegistry | None = None) -> SpectralGrid:
    """Second page for the extension of the quadric's automorphism group by
    the ruling swap: 0 -> PGL2 x PGL2 -> Aut -> Z/2 -> 0 (split)."""
    reg = registry or default_registry()
    if not reg.has("PGL(2,C)", 2):
        schur_pgl(2, reg)
    h2_pgl2 = reg.get("PGL(2,C)", 2)
    swap_coinv = coinvariants_of_swap(h2_pgl2)
    entries = {}
    for p in range(4):
        entries[(p, 0)] = reg.get("Z/2", p)
        entries[(p, 1)] = FormalGroup.zero()
        entries[(p, 2)] = FormalGroup.zero()
    entries[(0, 2)] = swap_coinv
    grid = SpectralGrid(
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
    return grid


def schur_aut_quadric(registry: KnownHomologyRegistry | None = None) -> SchurDerivation:
    """H2 of the quadric's automorphism group: K2(C) + Z/2."""
    reg = registry or default_registry()
    grid = aut_quadric_grid(reg)
    page = grid
    while not page.is_stable():
        page = page.turn_page()
    candidates = page.converged_total(2)
    if len(candidates) != 1:
        raise FormalGroupError(f"abutment not unique: {[str(c) for c in candidates]}")
    value = candidates[0]
    reg.add_derived(
        "Aut(P1xP1)", 2, value,
        "stable page of the split swap extension; only E_{0,2} survives in total degree 2",
    )
    h2 = reg.get("PGL(2,C)", 2)
    reg.add_derived(
        "Aut+(P1xP1)", 2, h2 + h2,
        "Kunneth for PGL2 x PGL2 with vanishing H1",
    )
    seq = five_term(grid)
    return SchurDerivation(
        group="Aut(P1xP1)",
        value=value,
        candidates=candidates,
        sequence=seq,
        notes=page.notes,
    )


def nonorientable_block_homology(
    i: int,
    aut_full: str,
    aut_plus: str,
    sigma_action: FormalHom,
    registry: KnownHomologyRegistry | None = None,
):
    """H_i of the twisted block of a non-orientable class, solved from the
    long exact sequence of 0 -> full -> plus -> block -> 0 coefficients:

        H_i(full) --(1+s)--> H_i(plus) -> X -> H_{i-1}(full) -> H_{i-1}(plus)

    Returns the unique group when the extension is determined, else the
    candidate list."""
    reg = registry or default_registry()
    hi_full = reg.get(aut_full, i)
    hi_plus = reg.get(aut_plus, i)
    if sigma_action.source != hi_full or sigma_action.target != hi_plus:
        raise FormalGroupError(
            f"sigma action must map H_{i}({aut_full}) = {hi_full} to "
            f"H_{i}({aut_plus}) = {hi_plus}"
        )
    sub = cokernel(sigma_action)
    if i - 1 == 0:
        quot = FormalGroup.zero()  # 1+sigma is multiplication by 2 on H0 = Z
    else:
        low_full = reg.get(aut_full, i - 1)
        low_plus = reg.get(aut_plus, i - 1)
        if low_plus.is_zero:
            quot = low_full
        elif low_full.is_zero:
            quot = FormalGroup.zero()
        else:
            raise InsufficientAtomData(
                f"need the degree-{i - 1} comparison map for {aut_full}"
            )
    candidates = solve_extension(sub, quot)
    if len(candidates) == 1:
        return candidates[0]
    return candidates


def k2_prime_candidates(registry: KnownHomologyRegistry | None = None) -> list:
    """The two candidates for the degree-2 twisted block of the quadric over a
    point: the extension of Z/2 by K2(C) + Z/2."""
    reg = registry or default_registry()
    if not reg.has("Aut(P1xP1)", 2):
        schur_aut_quadric(reg)
    h2_full = reg.get("Aut(P1xP1)", 2)
    h2_plus = reg.get("Aut+(P1xP1)", 2)
    diag = _swap_antidiagonal(h2_full)  # a -> (a, a^{-1}) across the swap
    if diag.target != h2_plus:
        raise FormalGroupError("Kunneth shape mismatch for the quadric")
    result = nonorientable_block_homology(2, "Aut(P1xP1)", "Aut+(P1xP1)", diag, reg)
    return result if isinstance(result, list) else [result]


# -- row-1 complexes -------------------------------------------------------------


class RowComplex:
    """One row of the second page as a three-place complex of formal groups:
    ``places`` holds (labels, FormalGroup, layout) per place, and ``maps[i]``
    maps place i+1 to place i."""

    __slots__ = ("places", "maps")

    def __init__(self, places: list, maps: list):
        self.places = places
        self.maps = maps


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


def _row1_complex(u: surfaces.GeneratorUniverse, entry, extra_rank3=None) -> RowComplex:
    """The row-1 complex at ranks 1..3, with the staircase invariant bounds.

    Place p sums entry(gen) over the rank-(p+1) generators.  The cells and
    their incidences are those of row 0, so a block is the row-0 coefficient
    times the entry map, the product map (all ones) between entry tori; the
    sign flips at rank 3, where row 0 orients every cell against the cube
    convention (tests/test_row0_witness.py).  Generators whose entry group
    has no slots carry no block.  extra_rank3(gen), keyed by the (family, e)
    of the rank-2 target, adds the blocks that row 0 cannot see."""
    if u.r_max < 3:
        raise ValueError(f"the row-1 complex needs r_max >= 3, got {u.r_max}")
    bound = {r: u.e_max + (3 - r) for r in (1, 2, 3)}
    bms = {
        r: surfaces.boundary(u, r, e_bound=bound[r], target_e_bound=bound[r - 1])
        for r in (2, 3)
    }
    gens = {1: bms[2].rows, 2: bms[2].columns, 3: bms[3].columns}
    places = {r: _make_place([(g, entry(g)) for g in gens[r]]) for r in (1, 2, 3)}
    maps = []
    for r, sign in ((2, 1), (3, -1)):
        bm = bms[r]
        src_layout, tgt_layout = places[r][2], places[r - 1][2]
        blocks = {}
        for j, column in enumerate(bm.matrix):
            for i, c in column.items():
                if src_layout[j] and tgt_layout[i]:
                    block = [[sign * c] * len(src_layout[j]) for _ in tgt_layout[i]]
                    blocks[(bm.columns[j], bm.rows[i])] = block
        if r == 3 and extra_rank3 is not None:
            by_tag = {(g.family, g.e): g for g in gens[2]}
            for g in gens[3]:
                blocks.update(((g, by_tag[t]), b) for t, b in extra_rank3(g).items())
        maps.append(_entry_hom(places[r], places[r - 1], blocks))
    return RowComplex(places=[places[1], places[2], places[3]], maps=maps)


def ruled_row1_complex(u: surfaces.GeneratorUniverse, registry=None) -> RowComplex:
    """The abelianization row for the ruled universe at ranks 1..3, with the
    staircase invariant bounds."""
    if u.base is not surfaces.BaseCase.RULED:
        raise ValueError("this builder is for the ruled universe")
    reg = registry or default_registry()

    def entry(gen):
        if gen.rank == 1:
            return FormalGroup.zero() if gen.e == 0 else reg.get("Autf(Fe/P1)", 1)
        if gen.rank == 2:
            name = "Autf(S_g,1)" if gen.family == "blowup" else "Autf(S_e,1)"
            return reg.get(name, 1)
        if gen.family == "min_section":
            return reg.get("Autf(S_e,2)", 1)
        return reg.get("Autf(S_g,2)" if gen.partition == (1, 1) else "Autf(S_s,2)", 1)

    return _row1_complex(u, entry)


def _cremona_rank3_blocks(gen) -> dict:
    """Row-1 blocks out of a Cremona rank-3 generator, keyed by the (family, e)
    of the rank-2 target.  The row-0 table gives these generators no target
    with a nonzero entry: the true boundaries of S_g,2, S_s,2 and S_e,2 are
    even, and the one target of Bl2P2, the quadric, has entry zero."""
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


def cremona_row1_complex(u: surfaces.GeneratorUniverse, registry=None) -> RowComplex:
    """The abelianization row for the plane's universe at ranks 1..3; the
    non-orientable classes contribute their twisted blocks, computed through
    the long exact sequence."""
    if u.base is not surfaces.BaseCase.CREMONA:
        raise ValueError("this builder is for the cremona universe")
    reg = registry or default_registry()

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

    return _row1_complex(u, entry, _cremona_rank3_blocks)


def row1_homology(row: RowComplex, i: int) -> FormalGroup:
    """E_{i,1} for i = 0, 1 from a three-place row complex."""
    if i == 0:
        return cokernel(row.maps[0])
    if i == 1:
        return homology_at(row.maps[1], row.maps[0])
    raise ValueError("the three-place row supports degrees 0 and 1")


def row1_degree2_bound(row: RowComplex) -> FormalGroup:
    """The closed chains at the third place; E_{2,1} is a quotient of this."""
    return kernel(row.maps[1])


# -- assembled applications --------------------------------------------------------


def ruled_grid(u: surfaces.GeneratorUniverse, registry=None) -> SpectralGrid:
    """Second page for the ruled universe at finite truncation: row 0 from the
    coinvariant complex, row 1 from the abelianization complex, row 2 unknown."""
    reg = registry or default_registry()
    row1 = ruled_row1_complex(u, reg)
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


def prop_s17_sequence(u: surfaces.GeneratorUniverse, registry=None) -> ExactSequence:
    """The seven-term sequence of the ruled grid (finite instance of the
    low-degree exact sequence for the relative automorphism group)."""
    return seven_term(ruled_grid(u, registry))


def cremona_assemble(
    registry=None,
    universe: surfaces.GeneratorUniverse | None = None,
    force_e21_zero: bool = False,
) -> dict:
    """Candidates for H2 of the plane's birational automorphism group.

    The governing relation is H2 = E_{0,2} / Im(E_{2,1} -> E_{0,2}); the
    differential is undetermined, so both candidates are reported unless the
    caller forces E_{2,1} = 0.  The infinite 2-torsion sum absorbs any
    2-torsion image, so only the 3-part of E_{2,1} can change the answer;
    row 0 does not enter."""
    reg = registry or default_registry()
    u = universe or surfaces.GeneratorUniverse.cremona(3, r_max=5)
    row1 = cremona_row1_complex(u, reg)
    e01 = row1_homology(row1, 0)
    e11 = row1_homology(row1, 1)
    e21_bound = row1_degree2_bound(row1)
    e02 = reg.get("E_{0,2}(Cr2)", 2)
    candidates = [e02]
    if not force_e21_zero and any(d % 3 == 0 for d in e21_bound.cyclic):
        stripped = FormalGroup(
            atoms=e02.atoms,
            cyclic=tuple(d for d in e02.cyclic if d % 3 != 0),
            free_rank=e02.free_rank,
            infinite=e02.infinite,
        )
        candidates.append(stripped)
    unique = {str(c): c for c in candidates}
    candidates = [unique[k] for k in sorted(unique, reverse=True)]
    return {
        "relation": "H2(Bir(P2)) = E_{0,2} / Im(E_{2,1} -> E_{0,2})",
        "E_{0,1}": e01,
        "E_{1,1}": e11,
        "E_{2,1} bound": e21_bound,
        "E_{0,2}": e02,
        "candidates": candidates,
    }

