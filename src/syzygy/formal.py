"""A symbolic calculus of abelian groups.

Groups are finite direct sums of *atoms* (named infinite divisible groups:
C*, the second K-group of the complex numbers, wedge and tensor squares of
C*, Q/Z), cyclic groups Z/n, and free summands Z; an atom declares only its
torsion.  Homomorphisms are integer block matrices: an entry k between two
copies of the same atom means the k-th power (k-multiple) map, entries into
cyclic summands reduce, and maps between distinct atoms are forbidden
unless registered.  A homomorphism is stored in smith's column format (one
dict per source slot, target slot -> nonzero int), the format its family
blocks are read in, so no dense matrix occurs in the calculus; an entry
into Z/m is stored mod m, so the zero map is the one with no entries.  A
group states four facts about itself, read from its normal form and its
atoms' declared torsion: whether it is zero, finite, torsion-free and
divisible (only atoms).  forced_zero_reason reads from them why every map
between two groups is zero; a divisible source against a target with no
atom summand is one reason, since a divisible image in a direct sum of
copies of Z/n and Z is 0 (Fuchs, Infinite Abelian Groups, vol. I, 1970).
Spectral grids and exact sequences default an unknown map to zero only by
forced_zero_reason.

Homology is read per family (one atom's copies, or the cyclic and free
slots): a chain of homomorphisms by one sweep of each family's exponent
complex (ChainHomology), a window A -> B -> C (homology_at) as the middle
of that chain with its finitely generated family by presented_homology, and
kernel and cokernel as the windows 0 -> A -> B and A -> B -> 0.  For an
atom D, universal coefficients give H_p (x) D (+) Tor(H_{p-1}, D):
the free rank of H_p contributes copies of D, its finite cyclic pieces die
(D/kD = 0), and each torsion order k of H_{p-1} contributes D[k] by the
atom's declared torsion rule.  Atoms whose torsion is not declared (the
wedge and tensor squares) make any computation needing it fail loudly.

Extension problems 0 -> A -> E -> B -> 0 of finite groups are solved prime by
prime.  If the p-parts of A, E and B have types mu, lam and nu (their
exponent partitions), such an extension exists if and only if the
Littlewood-Richardson coefficient c^lam_{mu nu} is nonzero (Green's theorem
on Hall polynomials; Macdonald, Symmetric Functions and Hall Polynomials,
2nd ed., ch. II, section 4), which one LR tableau of shape lam/mu and
content nu witnesses.  No homomorphism is enumerated.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from . import DATA_DIR, _Value, complexes, read_json, unpack
from .smith import (
    FGAbelianGroup,
    column_product,
    partitions,
    presented_homology,
    prime_factorization,
)


class FormalGroupError(ValueError):
    pass


class InsufficientAtomData(FormalGroupError):
    """Raised when a computation would need structure an atom does not declare."""


class Atom(_Value):
    """A named infinite divisible group with its declared torsion; an
    immutable value.  ``torsion_rule`` is "cyclic", "none" or "unknown"."""

    __slots__ = ("name", "torsion_rule")

    def __init__(self, name: str, torsion_rule: str):
        if torsion_rule not in ("cyclic", "none", "unknown"):
            raise ValueError(f"bad torsion rule {torsion_rule!r}")
        super().__init__(name, torsion_rule)

    def torsion(self, k: int) -> FGAbelianGroup:
        """The k-torsion subgroup D[k] for a torsion order k >= 2, as an
        abstract group."""
        if self.torsion_rule == "none":
            return FGAbelianGroup(0)
        if self.torsion_rule == "cyclic":
            return FGAbelianGroup(0, (k,))
        raise InsufficientAtomData(
            f"torsion of {self.name} is not declared; cannot evaluate {self.name}[{k}]"
        )


@cache
def _load_atoms() -> tuple[dict, set]:
    atoms_data, maps = unpack(read_json(DATA_DIR / "atoms.json"), "the atom table",
                              {"atoms": [dict], "registered_maps": [dict]})
    atoms = {}
    for entry in atoms_data:
        what = f"atom {entry.get('name')!r}"
        atom = Atom(*unpack(entry, what, {
            "name": str, "torsion_rule": {"cyclic", "none", "unknown"}, "provenance": str})[:2])
        if atom.name in atoms:
            raise ValueError(f"{what}: repeats an earlier atom")
        atoms[atom.name] = atom
    cross = {tuple(unpack(m, f"registered map {m.get('from')!r} -> {m.get('to')!r}", {
        "from": str, "to": str, "provenance": str})[:2]) for m in maps}
    return atoms, cross


def atom_registry() -> dict:
    return _load_atoms()[0]


def registered_cross_maps() -> set:
    return _load_atoms()[1]


class FormalGroup(_Value):
    """Normal form: sorted atom multiset, cyclic part as an invariant-factor
    chain, free rank; optionally display-level infinite summands, each a pair
    (index-set label, finite group), which no computation may touch.  An
    immutable value, equal to another exactly when the normal forms agree."""

    __slots__ = ("atoms", "cyclic", "free_rank", "infinite")

    def __init__(self, atoms: tuple = (), cyclic: tuple = (), free_rank: int = 0,
                 infinite: tuple = ()):
        reg = atom_registry()
        for a in atoms:
            if a not in reg:
                raise FormalGroupError(f"unknown atom {a!r}")
        if any(d < 1 for d in cyclic):  # Z/1 = 0 is dropped, but Z/0 is Z
            raise FormalGroupError(f"cyclic order below 1: {cyclic}")
        if free_rank < 0:
            raise FormalGroupError("negative free rank")
        super().__init__(tuple(sorted(atoms)), FGAbelianGroup.from_orders(0, list(cyclic)).torsion,
                         free_rank, infinite)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def free(cls, n=1):
        return cls(free_rank=n)

    @classmethod
    def atom(cls, name, copies=1):
        return cls(atoms=(name,) * copies)

    @classmethod
    def from_fg(cls, g: FGAbelianGroup):
        return cls(cyclic=g.torsion, free_rank=g.free_rank)

    def __add__(self, other: "FormalGroup") -> "FormalGroup":
        return FormalGroup(
            atoms=self.atoms + other.atoms,
            cyclic=self.cyclic + other.cyclic,
            free_rank=self.free_rank + other.free_rank,
            infinite=self.infinite + other.infinite,
        )

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.cyclic and self.free_rank == 0 and not self.infinite

    @property
    def is_finite(self) -> bool:
        return not self.atoms and self.free_rank == 0 and not self.infinite

    @property
    def is_torsion_free(self) -> bool:
        """No cyclic or infinite summand, and every atom declares no torsion."""
        return not self.cyclic and not self.infinite and all(
            atom_registry()[a].torsion_rule == "none" for a in self.atoms)

    @property
    def is_divisible(self) -> bool:
        """Only atoms, each a divisible group."""
        return not self.cyclic and self.free_rank == 0 and not self.infinite

    def slots(self) -> list:
        """Slot descriptors in canonical order: atoms, cyclic, free."""
        out = [("atom", a) for a in self.atoms]
        out += [("cyclic", d) for d in self.cyclic]
        out += [("free",)] * self.free_rank
        return out

    def __str__(self) -> str:
        parts = [a for a in self.atoms]
        parts += [f"Z/{d}" for d in self.cyclic]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for label, inner in self.infinite:
            parts.append(f"(+)_{{{label}}}({inner})")
        return " (+) ".join(parts) if parts else "0"


ZERO = FormalGroup.zero()


def forced_zero_reason(source, target):
    """Why every homomorphism ``source`` -> ``target`` is zero, read from
    the groups' stated facts, or None when nothing forces it.  An unknown
    end (None) is neither zero, finite nor divisible."""
    if source is not None and source.is_zero or target is not None and target.is_zero:
        return "zero end"
    if source is None or target is None:
        return None
    if source.is_finite and target.is_torsion_free:
        return "finite source, torsion-free target"
    if source.is_divisible and not target.atoms:
        return "divisible source, target with no atom summand"
    return None


class FormalHom:
    """Integer block matrix between formal groups in smith's column format:
    one dict per source slot, mapping a target slot index to a nonzero int.
    ``columns=None`` is the zero map.  Entries are validated as given, then
    stored mod m where they go into Z/m, so is_zero() is the zero test."""

    def __init__(self, source: FormalGroup, target: FormalGroup, columns=None):
        if source.infinite or target.infinite:
            raise FormalGroupError("homomorphisms cannot touch infinite display summands")
        self.source = source
        self.target = target
        src, tgt = source.slots(), target.slots()
        if columns is None:
            columns = [{}] * len(src)
        if len(columns) != len(src):
            raise FormalGroupError(
                f"{len(columns)} columns do not match the {len(src)} source slots"
            )
        cross = registered_cross_maps()
        self.columns = []
        for j, (s, col) in enumerate(zip(src, columns)):
            if not isinstance(col, dict):
                raise FormalGroupError(f"column {j} is {col!r}, not a dict of target slot -> int")
            if any(i not in range(len(tgt)) for i in col):
                raise FormalGroupError(
                    f"column {j} has a key outside the {len(tgt)} target slots: {col!r}")
            self.columns.append({})
            for i, k in ((i, int(x)) for i, x in col.items() if x):
                t = tgt[i]
                if s[0] == t[0] == "atom":
                    if s[1] != t[1] and (s[1], t[1]) not in cross:
                        raise FormalGroupError(f"no registered map {s[1]} -> {t[1]}")
                elif s[0] == "atom" or t[0] == "atom":
                    raise FormalGroupError(f"maps between {s} and {t} are not defined")
                elif s[0] == "cyclic" and t[0] == "free":
                    raise FormalGroupError("no nonzero map from a finite cyclic group to Z")
                elif s[0] == t[0] == "cyclic" and (k * s[1]) % t[1]:
                    raise FormalGroupError(f"entry {k}: Z/{s[1]} -> Z/{t[1]} is not well defined")
                if t[0] == "cyclic":
                    k %= t[1]
                if k:
                    self.columns[-1][i] = k

    def is_zero(self) -> bool:
        return not any(self.columns)

    def compose(self, other: "FormalHom") -> "FormalHom":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise FormalGroupError("composition shape mismatch")
        return FormalHom(other.source, self.target, column_product(self.columns, other.columns))

    # -- family decomposition ----------------------------------------------

    def _family_blocks(self) -> dict:
        """Split the map into one block per family of its source slots (see
        _family), each as columns over that family's target slots; raises
        when a registered cross-atom block is actually used."""
        src, tgt = self.source.slots(), self.target.slots()
        row_in_block, rows = [], {}  # target slot -> its row in its family's block
        for t in tgt:
            rows[_family(t)] = rows.get(_family(t), -1) + 1
            row_in_block.append(rows[_family(t)])
        blocks = {}
        for s, col in zip(src, self.columns):
            for i in col:
                if _family(tgt[i]) != _family(s):
                    raise InsufficientAtomData(
                        f"cross-atom block {s} -> {tgt[i]} has no computable "
                        "kernel/cokernel structure"
                    )
            blocks.setdefault(_family(s), []).append({row_in_block[i]: x for i, x in col.items()})
        return blocks


def _family(slot) -> str:
    """The family of a slot: its atom's name, or "fg" for a cyclic or free slot."""
    return slot[1] if slot[0] == "atom" else "fg"


class ChainHomology:
    """The homology at each place of a chain of homomorphisms, ``maps[i]``
    from place i+1 to place i, each family swept once: its degree-p chain
    group is the family's slots at place p, annotated by the cyclic ones.
    A place is formed only when read, so one needing undeclared atom torsion
    fails alone.  A map with a cross-atom block refuses the places at its
    ends, as homology_at does, and is swept as zero, which no other place
    sees.  A family whose maps do not compose to zero raises ValueError, and
    a chain without maps raises FormalGroupError."""

    def __init__(self, maps: list):
        if not maps:
            raise FormalGroupError("a chain needs at least one map")
        for a, b in zip(maps, maps[1:]):
            if a.source != b.target:
                raise FormalGroupError(f"chain is not composable: {b.target} then {a.source}")
        self.maps = maps
        self._splits = []  # per map: its family blocks, or the refusal of its split
        self._complexes = None  # family -> IntegerChainComplex

    def _families(self, p: int) -> dict:
        """The complexes, once the maps at place p have split into families."""
        if self._complexes is None:
            for h in self.maps:
                try:
                    self._splits.append(h._family_blocks())
                except InsufficientAtomData as exc:
                    self._splits.append(exc)
            slots = [self.maps[0].target.slots()] + [h.source.slots() for h in self.maps]
            self._complexes = {}
            for fam in sorted({_family(s) for place in slots for s in place}, key=str):
                members = [[s for s in place if _family(s) == fam] for place in slots]
                boundaries = [[]] + [[{}] * len(members[i + 1]) if isinstance(split, Exception)
                                     else split.get(fam, []) for i, split in enumerate(self._splits)]
                self._complexes[fam] = complexes.IntegerChainComplex(
                    [len(m) for m in members], boundaries,
                    {d: {i: s[1] for i, s in enumerate(m) if s[0] == "cyclic"}
                     for d, m in enumerate(members)} if fam == "fg" else None)
        for i in (p, p - 1):  # as homology_at splits its incoming map first
            if 0 <= i < len(self.maps) and isinstance(self._splits[i], Exception):
                raise self._splits[i]
        return self._complexes

    def atoms_at(self, p: int) -> FormalGroup:
        """The atom families' part of place p: H_p (x) D (+) Tor(H_{p-1}, D)."""
        out = ZERO
        for fam, cc in self._families(p).items():
            if fam != "fg":
                atom = atom_registry()[fam]
                out = out + FormalGroup.atom(fam, cc.homology(p).free_rank)  # D/kD = 0
                for t in cc.homology(p - 1).torsion:
                    out = out + FormalGroup.from_fg(atom.torsion(t))
        return out

    def at(self, p: int) -> FormalGroup:
        """The homology at place p: ker(maps[p-1]) / im(maps[p])."""
        fg = self._families(p).get("fg")
        return self.atoms_at(p) + (FormalGroup.from_fg(fg.homology(p)) if fg else ZERO)


def kernel(h: FormalHom) -> FormalGroup:
    """ker(h), the homology of the window 0 -> A -> B."""
    return homology_at(FormalHom(ZERO, h.source), h)


def cokernel(h: FormalHom) -> FormalGroup:
    """coker(h), the homology of the window A -> B -> 0."""
    return homology_at(h, FormalHom(h.target, ZERO))


def homology_at(f: FormalHom, g: FormalHom) -> FormalGroup:
    """ker(g)/im(f) for a two-step window  f: A -> B,  g: B -> C: the middle
    place of the chain g, f, whose finitely generated family is read by
    presented_homology."""
    if not g.compose(f).is_zero():
        raise FormalGroupError("the window does not compose to zero")
    chain = ChainHomology([g, f])
    fg = chain._families(1).get("fg")
    return chain.atoms_at(1) + (FormalGroup.from_fg(presented_homology(*fg._window(1)))
                                if fg else ZERO)


# -- extension problems ----------------------------------------------------------


def _types(orders: tuple) -> dict:
    """Prime p -> the type of the p-part of the cyclic group Z/orders: its
    exponents of p, largest first."""
    types = {}
    for n in orders:
        for p, e in prime_factorization(n).items():
            types.setdefault(p, []).append(e)
    return {p: tuple(sorted(es, reverse=True)) for p, es in types.items()}


def _has_lr_tableau(lam: tuple, mu: tuple, nu: tuple) -> bool:
    """Is c^lam_{mu nu} > 0: is there a filling of the skew shape lam/mu with
    nu_k entries k, rows weakly increasing, columns strictly increasing, whose
    reverse reading word (rows top to bottom, each right to left) is a
    lattice word?  Searched cell by cell in that reading order."""
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return False
    cells = [(i, j) for i, length in enumerate(lam)
             for j in range(length - 1, (mu[i] if i < len(mu) else 0) - 1, -1)]
    filling = {}
    count = [0] * (len(nu) + 1)  # count[k]: entries k read so far

    def fill(n: int) -> bool:
        if n == len(cells):  # |lam/mu| = |nu| and no count exceeds nu
            return True
        i, j = cells[n]
        for k in range(filling.get((i - 1, j), 0) + 1, filling.get((i, j + 1), len(nu)) + 1):
            if count[k] < nu[k - 1] and (k == 1 or count[k] < count[k - 1]):
                filling[i, j] = k
                count[k] += 1
                if fill(n + 1):
                    return True
                count[k] -= 1
        filling.pop((i, j), None)
        return False

    return fill(0)


def solve_extension(sub: FormalGroup, quot: FormalGroup) -> list[FormalGroup]:
    """All candidates (up to isomorphism) for the middle of
    0 -> sub -> E -> quot -> 0.

    Atom summands of ``sub`` are divisible, hence injective, and split off;
    the remaining problem must be finite-by-finite.  It splits into p-primary
    parts, and a p-part of type lam is a middle for parts of types mu and nu
    exactly when c^lam_{mu nu} > 0 (see the module docstring), so the
    candidates are the products over p of such lam, sorted by their str.
    """
    if sub.infinite or quot.infinite:
        raise FormalGroupError("extension solving does not touch infinite display summands")
    if sub.is_zero:
        return [quot]
    if quot.is_zero:
        return [sub]
    if sub.free_rank or quot.free_rank or quot.atoms:
        raise FormalGroupError(
            "only extensions of a finite group by (divisible atoms + finite) are supported"
        )
    head = FormalGroup(atoms=sub.atoms)
    mu, nu = _types(sub.cyclic), _types(quot.cyclic)
    per_prime = []
    for p in sorted(mu.keys() | nu.keys()):
        m, n = mu.get(p, ()), nu.get(p, ())
        per_prime.append([tuple(p ** e for e in lam) for lam in partitions(sum(m) + sum(n))
                          if _has_lr_tableau(lam, m, n)])
    found = [head + FormalGroup(cyclic=sum(choice, ())) for choice in product(*per_prime)]
    found.sort(key=str)
    return found
