"""A symbolic calculus of abelian groups.

Groups are finite direct sums of *atoms* (named infinite groups such as C*,
the second K-group of the complex numbers, wedge and tensor squares of C*,
Q/Z), cyclic groups Z/n, and free summands Z.  Homomorphisms are integer
block matrices: an entry k between two copies of the same atom means the
k-th power (k-multiple) map, entries into cyclic summands reduce, and maps
between distinct atoms are forbidden unless registered.

The homology ker(g)/im(f) of a window A -> B -> C is computed per atom
family from the exponent blocks; the kernel of h: A -> B is the homology of
the window 0 -> A -> B, and its cokernel that of A -> B -> 0.  For a
divisible atom D the structure theorems reduce everything to the integer
homology of the exponent complex: the free rank contributes copies of D,
finite cyclic pieces die (D/kD = 0), and the torsion of the next cokernel
contributes D[k], which is resolved through the atom's declared torsion
rule.  Atoms whose torsion is not declared (the wedge and tensor squares)
make any computation that needs it fail loudly instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd, prod
from pathlib import Path

from .smith import (
    FGAbelianGroup,
    cokernel_group,
    is_zero_matrix,
    mat_mul,
    partitions,
    presented_homology,
    prime_factorization,
    zeros,
)

_DATA_DIR = Path(__file__).parent / "data"


class FormalGroupError(ValueError):
    pass


class InsufficientAtomData(FormalGroupError):
    """Raised when a computation would need structure an atom does not declare."""


@dataclass(frozen=True)
class Atom:
    name: str
    divisible: bool
    torsion_rule: str  # "cyclic" | "none" | "unknown"
    uniquely_divisible: bool

    def __post_init__(self):
        if self.torsion_rule not in ("cyclic", "none", "unknown"):
            raise ValueError(f"bad torsion rule {self.torsion_rule!r}")
        if self.uniquely_divisible and not (self.divisible and self.torsion_rule == "none"):
            raise ValueError(f"atom {self.name}: uniquely divisible needs divisible and torsion-free")

    def torsion(self, k: int) -> FGAbelianGroup:
        """The k-torsion subgroup D[k], as an abstract group."""
        k = abs(k)
        if k in (0, 1):
            # D[1] = 0; D[0] = D handled by callers (it is the whole atom)
            return FGAbelianGroup(0)
        if self.torsion_rule == "none":
            return FGAbelianGroup(0)
        if self.torsion_rule == "cyclic":
            return FGAbelianGroup(0, (k,)) if k >= 2 else FGAbelianGroup(0)
        raise InsufficientAtomData(
            f"torsion of {self.name} is not declared; cannot evaluate {self.name}[{k}]"
        )


@cache
def _load_atoms() -> tuple[dict, set]:
    with open(_DATA_DIR / "atoms.json", "r", encoding="utf-8") as fh:
        data = json.load(fh)
    atoms = {}
    for entry in data["atoms"]:
        if not entry.get("provenance"):
            raise ValueError(f"atom {entry['name']!r} lacks a provenance note")
        atoms[entry["name"]] = Atom(
            name=entry["name"],
            divisible=entry["divisible"],
            torsion_rule=entry["torsion_rule"],
            uniquely_divisible=entry["uniquely_divisible"],
        )
    cross = {(m["from"], m["to"]) for m in data.get("registered_maps", [])}
    return atoms, cross


def atom_registry() -> dict:
    return _load_atoms()[0]


def registered_cross_maps() -> set:
    return _load_atoms()[1]


@dataclass(frozen=True)
class FormalGroup:
    """Normal form: sorted atom multiset, cyclic part as an invariant-factor
    chain, free rank; optionally display-level infinite summands, each a pair
    (index-set label, finite group), which no computation may touch."""

    atoms: tuple = ()
    cyclic: tuple = ()
    free_rank: int = 0
    infinite: tuple = ()

    def __post_init__(self):
        reg = atom_registry()
        for a in self.atoms:
            if a not in reg:
                raise FormalGroupError(f"unknown atom {a!r}")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))
        object.__setattr__(
            self, "cyclic", FGAbelianGroup.from_orders(0, list(self.cyclic)).torsion
        )
        if self.free_rank < 0:
            raise FormalGroupError("negative free rank")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def free(cls, n=1):
        return cls(free_rank=n)

    @classmethod
    def cyclic_group(cls, n):
        return cls(cyclic=(n,))

    @classmethod
    def atom(cls, name, copies=1):
        return cls(atoms=(name,) * copies)

    @classmethod
    def from_fg(cls, g: FGAbelianGroup):
        return cls(cyclic=g.torsion, free_rank=g.free_rank)

    @classmethod
    def infinite_sum(cls, index_label: str, inner: "FormalGroup"):
        return cls(infinite=((index_label, inner),))

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

    def fg_part(self) -> FGAbelianGroup:
        return FGAbelianGroup(self.free_rank, self.cyclic)

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


class FormalHom:
    """Integer block matrix between formal groups, rows indexed by target
    slots and columns by source slots."""

    def __init__(self, source: FormalGroup, target: FormalGroup, matrix=None):
        if source.infinite or target.infinite:
            raise FormalGroupError("homomorphisms cannot touch infinite display summands")
        self.source = source
        self.target = target
        src, tgt = source.slots(), target.slots()
        if matrix is None:
            matrix = zeros(len(tgt), len(src))
        if len(matrix) != len(tgt) or any(len(r) != len(src) for r in matrix):
            raise FormalGroupError(
                f"matrix shape {len(matrix)}x{len(matrix[0]) if matrix else 0} does not "
                f"match target x source = {len(tgt)}x{len(src)}"
            )
        self.matrix = [[int(x) for x in row] for row in matrix]
        self._validate(src, tgt)

    def _validate(self, src, tgt):
        cross = registered_cross_maps()
        for i, trow in enumerate(tgt):
            for j, scol in enumerate(src):
                k = self.matrix[i][j]
                if k == 0:
                    continue
                skind, tkind = scol[0], trow[0]
                if skind == "atom" and tkind == "atom":
                    if scol[1] != trow[1] and (scol[1], trow[1]) not in cross:
                        raise FormalGroupError(
                            f"no registered map {scol[1]} -> {trow[1]}"
                        )
                elif skind == "atom" or tkind == "atom":
                    raise FormalGroupError(
                        f"maps between {scol} and {trow} are not defined"
                    )
                elif skind == "cyclic" and tkind == "free":
                    raise FormalGroupError("no nonzero map from a finite cyclic group to Z")
                elif skind == "cyclic" and tkind == "cyclic":
                    n, m = scol[1], trow[1]
                    if (k * n) % m != 0:
                        raise FormalGroupError(
                            f"entry {k}: Z/{n} -> Z/{m} is not well defined"
                        )

    def is_zero(self) -> bool:
        return is_zero_matrix(self.matrix)

    def compose(self, other: "FormalHom") -> "FormalHom":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise FormalGroupError("composition shape mismatch")
        return FormalHom(other.source, self.target, mat_mul(self.matrix, other.matrix))

    def __repr__(self):
        return f"FormalHom({self.source} -> {self.target})"

    # -- family decomposition ----------------------------------------------

    def _family_blocks(self):
        """Split the matrix into per-atom blocks plus one finitely generated
        block, each as (target slots, source slots, columns over the target
        slots); raises when a registered cross-atom block is actually used."""
        src, tgt = self.source.slots(), self.target.slots()

        def family(slot):
            return slot[1] if slot[0] == "atom" else "fg"

        families = sorted(
            {family(s) for s in src} | {family(t) for t in tgt},
            key=str,
        )
        blocks = {}
        m = self.matrix
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
                if family(scol) != family(trow) and self.matrix[i][j] != 0:
                    raise InsufficientAtomData(
                        f"cross-atom block {scol} -> {trow} has no computable "
                        "kernel/cokernel structure"
                    )
        return blocks


def zero_hom(source: FormalGroup, target: FormalGroup) -> FormalHom:
    return FormalHom(source, target)


def _fg_relations(slots):
    return {i: s[1] for i, s in enumerate(slots) if s[0] == "cyclic"}


def _atom_result_from_window(atom: Atom, mat_out, mat_in, n_mid, n_tgt) -> FormalGroup:
    """ker(mat_out)/im(mat_in) on copies of a divisible atom, via the integer
    homology of the exponent window (universal coefficients)."""
    h_mid = presented_homology(mat_out, mat_in, n_mid, n_tgt)
    out = FormalGroup.atom(atom.name, h_mid.free_rank)
    for d in h_mid.torsion:
        if atom.divisible:
            continue  # D/dD = 0
        raise InsufficientAtomData(
            f"{atom.name}/{d}{atom.name} is not computable for a non-divisible atom"
        )
    for t in cokernel_group(mat_out, n_tgt).torsion:
        out = out + FormalGroup.from_fg(atom.torsion(t))
    return out


def kernel(h: FormalHom) -> FormalGroup:
    """ker(h), the homology of the window 0 -> A -> B."""
    return homology_at(zero_hom(ZERO, h.source), h)


def cokernel(h: FormalHom) -> FormalGroup:
    """coker(h), the homology of the window A -> B -> 0."""
    return homology_at(h, zero_hom(h.target, ZERO))


def homology_at(f: FormalHom, g: FormalHom) -> FormalGroup:
    """ker(g)/im(f) for a two-step window  f: A -> B,  g: B -> C."""
    if f.target != g.source:
        raise FormalGroupError("homology window mismatch: target of f must be source of g")
    if not _zero_modulo_target(g.compose(f)):
        raise FormalGroupError("the window does not compose to zero")
    mid, tgt = g.source.slots(), g.target.slots()
    src = f.source.slots()
    fblocks = f._family_blocks()
    gblocks = g._family_blocks()
    out = FormalGroup.zero()
    fams = sorted(set(fblocks) | set(gblocks), key=str)
    for fam in fams:
        g_rows, g_cols, g_block = gblocks.get(fam, ([], [], []))
        f_rows, f_cols, f_block = fblocks.get(fam, ([], [], []))
        mid_cols = g_cols or f_rows
        n_mid, n_tgt = len(mid_cols), len(g_rows)
        if fam == "fg":
            out = out + FormalGroup.from_fg(
                presented_homology(
                    g_block,
                    f_block,
                    n_mid,
                    n_tgt,
                    relations_mid=_fg_relations([mid[j] for j in mid_cols]),
                    relations_target=_fg_relations([tgt[i] for i in g_rows]),
                )
            )
            continue
        atom = atom_registry()[fam]
        out = out + _atom_result_from_window(atom, g_block, f_block, n_mid, n_tgt)
    return out


@dataclass
class ExactnessVerdict:
    position: int  # 1-based index of the term in the chain A_1 -> A_2 -> ...
    group: FormalGroup | None
    verdict: str  # "exact" | "fail" | "unknown"
    detail: str = ""


def _zero_modulo_target(h: FormalHom) -> bool:
    """Is the hom zero as a map (entries into cyclic targets reduce)?"""
    for i, slot in enumerate(h.target.slots()):
        for x in h.matrix[i]:
            if slot[0] == "cyclic":
                if x % slot[1] != 0:
                    return False
            elif x != 0:
                return False
    return True


def check_exact(seq: list[FormalHom]) -> list[ExactnessVerdict]:
    """Exactness verdicts at every interior term of a composable chain
    A_1 -> A_2 -> ... -> A_{k+1} given as k homomorphisms."""
    for a, b in zip(seq, seq[1:]):
        if a.target != b.source:
            raise FormalGroupError(
                f"chain is not composable: {a.target} followed by {b.source}"
            )
    out = []
    for i in range(len(seq) - 1):
        f, g = seq[i], seq[i + 1]
        position = i + 2  # f maps A_{i+1} -> A_{i+2}
        if f.target.is_zero:
            out.append(ExactnessVerdict(position, f.target, "exact", "zero group"))
            continue
        if not _zero_modulo_target(g.compose(f)):
            out.append(ExactnessVerdict(
                position, f.target, "fail",
                "the image is not contained in the kernel (not a complex here)",
            ))
            continue
        try:
            h = homology_at(f, g)
        except InsufficientAtomData as exc:
            out.append(ExactnessVerdict(position, None, "unknown", str(exc)))
            continue
        if h.is_zero:
            out.append(ExactnessVerdict(position, h, "exact"))
        else:
            out.append(ExactnessVerdict(position, h, "fail", f"homology {h}"))
    return out


# -- extension problems ----------------------------------------------------------


def _abelian_groups_of_order(n: int) -> list[tuple]:
    """All abelian groups of order n, as tuples of cyclic orders."""
    if n == 1:
        return [()]
    per_prime = []
    for p, e in sorted(prime_factorization(n).items()):
        per_prime.append([tuple(p ** part for part in lam) for lam in partitions(e)])
    groups = [()]
    for choices in per_prime:
        groups = [g + c for g in groups for c in choices]
    return [tuple(FGAbelianGroup.from_orders(0, list(g)).torsion) for g in groups]


def _elements_of_order_dividing(orders: tuple, a: int):
    """All elements x of the group Z/orders with a*x = 0."""
    ranges = []
    for e in orders:
        step = e // gcd(a, e)
        ranges.append(range(0, e, step))
    return product(*ranges)


def _has_extension(sub: tuple, total: tuple, quot: tuple) -> bool:
    """Is there an exact sequence 0 -> Z/sub -> Z/total -> Z/quot -> 0?"""
    sub_order = prod(sub) if sub else 1
    total_order = prod(total) if total else 1
    quot_order = prod(quot) if quot else 1
    if sub_order * quot_order != total_order:
        return False
    if not sub:
        return FGAbelianGroup.from_orders(0, list(total)).torsion == tuple(quot)
    relations = [{i: t} for i, t in enumerate(total)]
    want = FGAbelianGroup.from_orders(0, list(quot)).torsion
    per_gen = [list(_elements_of_order_dividing(total, a)) for a in sub]
    for images in product(*per_gen):
        cols = [{i: x for i, x in enumerate(image) if x} for image in images]
        quotient = cokernel_group(cols + relations, len(total))
        if quotient.free_rank == 0 and quotient.torsion == want:
            # the image subgroup then has the right order, so the map is injective
            return True
    return False


def solve_extension(sub: FormalGroup, quot: FormalGroup) -> list[FormalGroup]:
    """All candidates (up to isomorphism) for the middle of
    0 -> sub -> E -> quot -> 0.

    Divisible atom summands of ``sub`` are injective, hence split off; the
    remaining problem must be finite-by-finite, where candidates are
    enumerated exhaustively.
    """
    if sub.infinite or quot.infinite:
        raise FormalGroupError("extension solving does not touch infinite display summands")
    if sub.is_zero:
        return [quot]
    if quot.is_zero:
        return [sub]
    reg = atom_registry()
    for a in sub.atoms:
        if not reg[a].divisible:
            raise FormalGroupError(
                f"extension with non-divisible atom {a} in the subgroup is unsupported"
            )
    if sub.free_rank or quot.free_rank or quot.atoms:
        raise FormalGroupError(
            "only extensions of a finite group by (divisible atoms + finite) are supported"
        )
    head = FormalGroup(atoms=sub.atoms)
    a, b = sub.cyclic, quot.cyclic
    order = (prod(a) if a else 1) * (prod(b) if b else 1)
    found = []
    for total in _abelian_groups_of_order(order):
        if _has_extension(a, total, b):
            found.append(head + FormalGroup(cyclic=total))
    found.sort(key=str)
    return found
