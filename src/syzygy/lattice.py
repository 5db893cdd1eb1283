"""The Picard lattice of a blown-up projective plane.

Classes are integer vectors in the basis (H, E1..En) with the hyperbolic
diagonal pairing +1, -1, ..., -1.  Curve classes of interest are enumerated
by exhaustive search over a bounded coefficient box; for points in general
position the numerical conditions characterize the classes, so no geometric
effectivity test is performed (and n is capped at 8, where that standard fact
holds).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, gcd


@dataclass(frozen=True, order=True)
class DivisorClass:
    """Integer vector a0*H + a1*E1 + ... + an*En."""

    coefficients: tuple[int, ...]

    def __add__(self, other):
        return DivisorClass(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other):
        return DivisorClass(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __neg__(self):
        return DivisorClass(tuple(-a for a in self.coefficients))

    def scale(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coefficients))

    def __str__(self) -> str:
        names = ["H"] + [f"E{i}" for i in range(1, len(self.coefficients))]
        terms = []
        for a, name in zip(self.coefficients, names):
            if a == 0:
                continue
            if a == 1:
                terms.append(f"+{name}")
            elif a == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{a:+d}{name}")
        return "".join(terms).lstrip("+") or "0"


class BlowupLattice:
    """Pic of the blowup of the plane in n general points, 0 <= n <= 8."""

    # Search boxes in (degree, multiplicity) coordinates, for classes written
    # a0*H - sum mi*Ei.  Cauchy-Schwarz gives (3*a0 - t)^2 <= n*(a0^2 - s) for a
    # class with C.C = s and -K.C = t, which caps a0 at 7 for (-1)-classes and
    # 11 for fibration classes when n <= 8; multiplicities then stay below 4.
    # The enumerators assert that no solution touches a box wall.
    LINE_BOX = (7, -2, 4)  # (degree max, mult min, mult max)
    CONIC_BOX = (12, -2, 5)
    ROOT_BOX = (7, -2, 4)

    def __init__(self, n: int):
        if not 0 <= n <= 8:
            raise ValueError(f"number of blown-up points must be in [0, 8], got {n}")
        self.n = n
        self.rank = n + 1

    def basis_labels(self) -> list[str]:
        return ["H"] + [f"E{i}" for i in range(1, self.n + 1)]

    def cls(self, *coefficients: int) -> DivisorClass:
        if len(coefficients) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {len(coefficients)}")
        return DivisorClass(tuple(int(c) for c in coefficients))

    def h(self) -> DivisorClass:
        return self.cls(1, *([0] * self.n))

    def e(self, i: int) -> DivisorClass:
        if not 1 <= i <= self.n:
            raise ValueError(f"E{i} does not exist in a rank-{self.rank} lattice")
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return DivisorClass(tuple(coeffs))

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int:
        if len(a.coefficients) != self.rank or len(b.coefficients) != self.rank:
            raise ValueError("divisor class does not match the lattice rank")
        s = a.coefficients[0] * b.coefficients[0]
        for x, y in zip(a.coefficients[1:], b.coefficients[1:]):
            s -= x * y
        return s

    def canonical_class(self) -> DivisorClass:
        return DivisorClass((-3,) + (1,) * self.n)

    # -- enumeration ---------------------------------------------------------

    def _search(self, self_int: int, anticanonical_degree: int, box) -> list[DivisorClass]:
        """All classes C with C.C = self_int and -K.C = anticanonical_degree
        and deg >= 0, by pruned exhaustive search over the box.

        For a0*H - sum mi*Ei the constraints read sum mi = 3*a0 - t and
        sum mi^2 = a0^2 - s; the recursion prunes on both partial sums.
        """
        deg_max, lo, hi = box
        n = self.n
        found = []
        mag = max(lo * lo, hi * hi)

        def recurse(pos, mults, s_left, q_left):
            k = n - pos
            if k == 0:
                if s_left == 0 and q_left == 0:
                    found.append(mults)
                return
            if q_left < 0 or q_left > k * mag:
                return
            if not k * lo <= s_left <= k * hi:
                return
            if k * q_left < s_left * s_left:  # Cauchy-Schwarz
                return
            for m in range(lo, hi + 1):
                recurse(pos + 1, mults + (m,), s_left - m, q_left - m * m)

        for a0 in range(0, deg_max + 1):
            recurse(0, (), 3 * a0 - anticanonical_degree, a0 * a0 - self_int)
        out = []
        for mults in found:
            a0 = (sum(mults) + anticanonical_degree) // 3
            if a0 == deg_max or any(m in (lo, hi) for m in mults):
                raise RuntimeError(
                    f"search box {box} not exhaustive: degree {a0}, "
                    f"multiplicities {mults} touch a box wall"
                )
            out.append(DivisorClass((a0,) + tuple(-m for m in mults)))
        out.sort(key=lambda c: c.coefficients)
        return out

    def enumerate_lines(self) -> list[DivisorClass]:
        """All (-1)-classes: C.C = -1 and K.C = -1."""
        return self._search(-1, 1, self.LINE_BOX)

    def enumerate_conic_classes(self) -> list[DivisorClass]:
        """All primitive fibration classes: F.F = 0, -K.F = 2, degree >= 0."""
        out = []
        for c in self._search(0, 2, self.CONIC_BOX):
            if gcd(*(abs(x) for x in c.coefficients)) == 1:
                out.append(c)
        return out

    def roots(self) -> list[DivisorClass]:
        """All (-2)-classes orthogonal to K (simple reflections live here)."""
        return self._search(-2, 0, self.ROOT_BOX)

    def weyl_reflect(self, c: DivisorClass, root: DivisorClass) -> DivisorClass:
        if self.intersect(root, root) != -2 or self.intersect(self.canonical_class(), root) != 0:
            raise ValueError(f"{root} is not a root (needs r.r = -2 and K.r = 0)")
        return c + root.scale(self.intersect(c, root))

    # -- derived combinatorics -------------------------------------------------

    def incidence_graph(self, classes, threshold: int = 1) -> "IncidenceGraph":
        vertices = sorted(set(classes), key=lambda c: c.coefficients)
        for v in vertices:
            if len(v.coefficients) != self.rank:
                raise ValueError("class does not belong to this lattice")
        edges = []
        for i, j in combinations(range(len(vertices)), 2):
            if self.intersect(vertices[i], vertices[j]) == threshold:
                edges.append((i, j))
        return IncidenceGraph(tuple(vertices), tuple(edges))

    def reducible_fibres(self, conic: DivisorClass) -> list[tuple[DivisorClass, DivisorClass]]:
        """Unordered pairs of (-1)-classes summing to the given fibration class."""
        lines = self.enumerate_lines()
        line_set = set(lines)
        fibres = []
        for a in lines:
            b = conic - a
            if b in line_set and a.coefficients < b.coefficients:
                fibres.append((a, b))
        return fibres

    def count_fibration_configurations(self, pairs: int | None = None, reverse_order: bool = False):
        """Count tuples (E1..Ek, L1..Lk) of (-1)-classes with Ei.Li = 1 and all
        other mutual intersections 0, where k = pairs.

        The default k is n - 1: a conic bundle on the degree-(9 - n) surface
        has n - 1 singular fibres, each a pair of (-1)-curves meeting once
        (Manin, *Cubic Forms*, ch. IV).  P^2 (n = 0) has no conic bundle, so
        k must be given there.

        The walk is canonical: it picks meeting pairs (i < j) of line indices
        in increasing pair order, each allowed only if it meets no line
        already chosen, so every unordered set of unordered pairs is reached
        exactly once.  The ordered count is then unordered * k! * 2^k, which
        is exact: the pairs of one configuration are disjoint, so their k!
        orders are distinct tuples, and E != L within a pair, so each pair
        has two distinct orientations.

        Returns a dict with the ordered count, the count of unordered sets of
        unordered pairs, and the sorted list of unordered configurations.
        Passing reverse_order walks the reversed line ordering, which must
        give identical results (order-independence check).
        """
        if pairs is None:
            if self.n == 0:
                raise ValueError("P^2 has no conic bundle; specify the number of pairs")
            pairs = self.n - 1
        if pairs < 0:
            raise ValueError(f"number of pairs must be >= 0, got {pairs}")
        lines = self.enumerate_lines()
        if reverse_order:
            lines = list(reversed(lines))
        nl = len(lines)
        orthogonal = [0] * nl  # bitmask of lines meeting line i in 0
        for i in range(nl):
            for j in range(nl):
                if i != j and self.intersect(lines[i], lines[j]) == 0:
                    orthogonal[i] |= 1 << j
        meet_pairs = [
            (i, j) for i, j in combinations(range(nl), 2)
            if self.intersect(lines[i], lines[j]) == 1
        ]
        found = []

        def extend(start, chosen, allowed):
            if len(chosen) == pairs:
                found.append(chosen)
                return
            for p in range(start, len(meet_pairs)):
                i, j = meet_pairs[p]
                if (allowed >> i) & 1 and (allowed >> j) & 1:
                    extend(p + 1, chosen + [(i, j)], allowed & orthogonal[i] & orthogonal[j])

        extend(0, [], (1 << nl) - 1)
        return {
            "pairs": pairs,
            "ordered": len(found) * factorial(pairs) * 2**pairs,
            "unordered": len(found),
            "configurations": sorted(
                tuple(sorted(tuple(sorted(lines[i].coefficients for i in p)) for p in cfg))
                for cfg in found
            ),
        }


@dataclass(frozen=True)
class IncidenceGraph:
    """Simple graph on canonically ordered divisor classes."""

    vertices: tuple[DivisorClass, ...]
    edges: tuple[tuple[int, int], ...]

    def degree_sequence(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_single_cycle(self) -> bool:
        """One cycle through every vertex: connected and 2-regular."""
        n = len(self.vertices)
        if n == 0 or len(self.edges) != n:
            return False
        if any(d != 2 for d in self.degree_sequence()):
            return False
        adj = {i: [] for i in range(n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def is_regular(self, degree: int) -> bool:
        return all(d == degree for d in self.degree_sequence())

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(v.coefficients) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }
