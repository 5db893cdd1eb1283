"""Regular CW complexes as face posets with signed incidences, and their
integer homology.

A complex is stored purely combinatorially: cells with a dimension and an
optional label, plus a signed boundary list per cell.  A cell's link is the
order complex of the cells above it in the face poset; no geometric
realization exists anywhere.  Chain groups may carry cyclic annotations
(generator orders such as Z/2), and homology is read from invariant factors
by one sweep over the degrees for plain and annotated chain groups alike
(smith.homology_step): the cycles are a kernel that records, per annotated
target generator, which multiple of its relation a chain hits, so the same
engine serves plain cellular homology and the coinvariant complexes
produced by the surface-model machinery.

Boundary matrices are kept in smith's column format from assembly to the
homology read: one dict per cell of the source degree, mapping the index of
each face in the degree below to its nonzero incidence.  Only the chain
complex JSON file keeps dense lists of rows.

The cellular-manifold test of validate() is deliberately only the homological
shadow of the real condition: it checks that every link has the homology of a
sphere of the expected dimension, not that it is homeomorphic to one.
"""

from __future__ import annotations

from . import _Value, read_json, unpack
from .smith import FGAbelianGroup, homology_step, lift_to_cycles


class Cell(_Value):
    """One cell: a hashable id, its dimension and a display label.  Cells
    are immutable values, equal when their fields are."""

    __slots__ = ("id", "dim", "label")

    def __init__(self, id, dim: int, label: str = ""):
        setattr_ = object.__setattr__  # the class's own __setattr__ refuses
        setattr_(self, "id", id)
        setattr_(self, "dim", dim)
        setattr_(self, "label", label)


class RegularCWComplex:
    """Face poset with signed boundary incidences.

    ``boundary[cid]`` lists (face id, sign) pairs, one per codimension-1 face
    of the cell; regularity demands that no face is listed twice.  The chain
    complex is built once, and its d o d check and homology share one sweep.
    """

    def __init__(self, cells, boundary):
        self.cells: dict = {}
        for c in cells:
            if c.id in self.cells:
                raise ValueError(f"duplicate cell id {c.id!r}")
            self.cells[c.id] = c
        self.boundary: dict = {cid: tuple(boundary.get(cid, ())) for cid in self.cells}
        for cid, faces in boundary.items():
            if cid not in self.cells:
                raise ValueError(f"boundary given for unknown cell {cid!r}")
        self._chain = None  # the cellular chain complex, built at its first read

    # -- basic queries ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return max((c.dim for c in self.cells.values()), default=-1)

    def cells_of_dim(self, d: int) -> list:
        out = [c for c in self.cells.values() if c.dim == d]
        out.sort(key=lambda c: repr(c.id))
        return out

    def faces(self, cid) -> set:
        """All proper faces of a cell (transitive closure of the boundary)."""
        seen = set()
        stack = [fid for fid, _ in self.boundary[cid]]
        while stack:
            f = stack.pop()
            if f not in seen:
                seen.add(f)
                stack.extend(fid for fid, _ in self.boundary[f])
        return seen

    def euler_characteristic(self) -> int:
        return sum((-1) ** c.dim for c in self.cells.values())

    # -- validation --------------------------------------------------------

    def validate(self) -> "ValidationReport":
        failures = []
        link_failures = []
        for cid, faces in self.boundary.items():
            dim = self.cells[cid].dim
            seen = set()
            for fid, sign in faces:
                if fid not in self.cells:
                    failures.append(f"cell {cid!r}: dangling boundary id {fid!r}")
                    continue
                if sign not in (1, -1):
                    failures.append(f"cell {cid!r}: sign {sign} is not +-1")
                if self.cells[fid].dim != dim - 1:
                    failures.append(
                        f"cell {cid!r} (dim {dim}): face {fid!r} has dim {self.cells[fid].dim}"
                    )
                if fid in seen:
                    failures.append(f"cell {cid!r}: face {fid!r} listed twice (regularity)")
                seen.add(fid)
            if dim > 0 and not faces:
                failures.append(f"cell {cid!r} has dimension {dim} but empty boundary")
        if not failures and not self.chain_complex().check_composition():
            failures.append("d o d != 0")
        if not failures:
            n = self.dimension
            face_sets = {cid: self.faces(cid) for cid in self.cells}
            for cid, cell in sorted(self.cells.items(), key=lambda kv: repr(kv[0])):
                above = [m for m in self.cells if cid in face_sets[m]]
                link = _order_complex(above, face_sets)
                expected = n - cell.dim - 1
                if not _is_sphere_homology(link, expected):
                    link_failures.append(
                        f"cell {cid!r} (dim {cell.dim}): link is not an S^{expected} homology sphere"
                    )
        return ValidationReport(
            structure_ok=not failures,
            failures=failures,
            link_failures=link_failures,
        )

    # -- homology ------------------------------------------------------------

    def chain_complex(self) -> "IntegerChainComplex":
        if self._chain is not None:
            return self._chain
        dim = self.dimension
        by_dim = [self.cells_of_dim(d) for d in range(dim + 1)]
        index = {}
        for d, cells in enumerate(by_dim):
            for i, c in enumerate(cells):
                index[c.id] = (d, i)
        ranks = [len(cells) for cells in by_dim]
        boundaries = [[]]
        for d in range(1, dim + 1):
            columns = []
            for cell in by_dim[d]:
                col = {}
                for fid, sign in self.boundary[cell.id]:
                    i = index[fid][1]
                    col[i] = col.get(i, 0) + sign
                columns.append({i: x for i, x in col.items() if x})
            boundaries.append(columns)
        self._chain = IntegerChainComplex(ranks=ranks, boundaries=boundaries)
        return self._chain

    def homology(self, degree: int) -> FGAbelianGroup:
        return self.chain_complex().homology(degree)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegularCWComplex":
        """Read the file format of load_complex_file, or raise ValueError naming
        the cell.  Every face must name a cell one dimension below its own;
        the other conditions of a regular complex are left to validate()."""
        cells_data, boundary_data = unpack(data, "the CW complex", {"cells": [dict]},
                                           {"boundary": {str: [list]}})
        cells = []
        for c in cells_data:
            raw_id, dim, label = unpack(c, f"cell {c.get('id', c)!r}", {"id": object, "dim": int},
                                        {"label": str})
            cid = _as_id(raw_id)
            try:
                hash(cid)
            except TypeError:
                raise ValueError(f"cell id {raw_id!r} is not a string, number or list") from None
            if dim < 0:
                raise ValueError(f"cell {cid!r} has dim {dim}, not an integer >= 0")
            cells.append(Cell(id=cid, dim=dim, label=label or ""))
        # ids inside boundary lists, like the keys, are matched by their text,
        # so two ids may not share one
        by_text = {}
        for c in cells:
            other = by_text.setdefault(str(c.id), c)
            if other.id != c.id:
                raise ValueError(f"cells {other.id!r} and {c.id!r} share the id text {str(c.id)!r}")
        boundary = {}
        for key, faces in (boundary_data or {}).items():
            cell = by_text.get(key)
            if cell is None:
                raise ValueError(f"boundary references unknown cell {key!r}")
            entries = []
            for f in faces:
                if len(f) != 2:
                    raise ValueError(f"cell {cell.id!r}: face {f!r} is not an [id, sign] pair")
                face, sign = by_text.get(str(_as_id(f[0]))), f[1]
                if face is None:
                    raise ValueError(f"cell {cell.id!r}: face {f[0]!r} names no cell")
                if face.dim != cell.dim - 1:
                    raise ValueError(
                        f"cell {cell.id!r} (dim {cell.dim}): face {face.id!r} has dim {face.dim}"
                    )
                if type(sign) is not int:
                    raise ValueError(f"cell {cell.id!r}: face {face.id!r} has sign {sign!r}")
                entries.append((face.id, sign))
            boundary[cell.id] = entries
        return cls(cells, boundary)


def _as_id(value):
    """A cell id as read from JSON, with the lists that JSON makes of tuples
    turned back into tuples at every depth."""
    return tuple(_as_id(x) for x in value) if isinstance(value, list) else value


class ValidationReport:
    __slots__ = ("structure_ok", "failures", "link_failures")

    def __init__(self, structure_ok: bool, failures=None, link_failures=None):
        self.structure_ok = structure_ok
        self.failures = [] if failures is None else failures
        self.link_failures = [] if link_failures is None else link_failures

    @property
    def valid(self) -> bool:
        return self.structure_ok and not self.link_failures

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(self.failures + self.link_failures)


def _order_complex(ids, face_sets) -> RegularCWComplex:
    """The simplicial complex of the strict chains among the cells ``ids``
    under the face order (a below b when a is in face_sets[b]), each chain
    listed from its least cell up.  On the cells above a cell it is that
    cell's link in the barycentric subdivision."""
    chains = [(cid,) for cid in ids]
    frontier = list(chains)
    while frontier:
        frontier = [chain + (cid,) for chain in frontier for cid in ids
                    if chain[-1] in face_sets[cid]]
        chains += frontier
    cells = [Cell(id=chain, dim=len(chain) - 1) for chain in chains]
    boundary = {chain: [(chain[:i] + chain[i + 1:], (-1) ** i) for i in range(len(chain))]
                for chain in chains if len(chain) > 1}
    return RegularCWComplex(cells, boundary)


def _is_sphere_homology(complex_, n: int) -> bool:
    """Does the complex have the homology of S^n?  (S^-1 is the empty space.)"""
    if n < 0 or not complex_.cells:
        return n < 0 and not complex_.cells
    ranks = {0: 1, n: 1} if n else {0: 2}
    return all(complex_.homology(d) == FGAbelianGroup(ranks.get(d, 0))
               for d in range(max(n, complex_.dimension) + 1))


class IntegerChainComplex:
    """Chain complex of (possibly annotated) free abelian groups.

    ``ranks[d]`` is the number of degree-d generators; ``boundaries[d]`` is
    the map from degree d to degree d-1 as ranks[d] columns, each a dict
    from a degree-(d-1) index to a nonzero int (``boundaries[0]``, the zero
    map, is not read).  ``cyclic[d][i] = m`` marks generator i of degree d as
    a Z/m generator (m >= 2); the homology engine appends the relation
    m*e_i = 0.  Homology is one sweep from degree 0 up (smith's row-drop
    rule): degree k eliminates its lift L_k without the rows settled by the
    pivots of L_{k-1}, whose columns are those rows and whose kernel is
    the cycles up to the signs of the relation columns.  Lifts and steps are
    kept once formed, so each degree is eliminated once per object, and a
    complex is not changed after its first read.
    """

    def __init__(self, ranks, boundaries, cyclic=None):
        self.ranks = list(ranks)
        self.boundaries = boundaries
        self._lifts: dict = {}  # degree -> lift_to_cycles of its window
        self._sweep: list = [(None, ((), frozenset()))]  # then (H, elimination) per degree
        self.cyclic = {int(d): {int(i): int(m) for i, m in v.items()} for d, v in (cyclic or {}).items()}
        for d in range(1, len(self.ranks)):
            columns = self.boundaries[d]
            if len(columns) != self.ranks[d]:
                raise ValueError(
                    f"boundary {d} has {len(columns)} columns, expected {self.ranks[d]}"
                )
            if any(not 0 <= i < self.ranks[d - 1] for col in columns for i in col):
                raise ValueError(
                    f"boundary {d} has a row index outside [0, {self.ranks[d - 1]})"
                )
        for d, orders in self.cyclic.items():
            for i, m in orders.items():
                if not (0 <= d < len(self.ranks) and 0 <= i < self.ranks[d]):
                    raise ValueError(f"annotated generator {i} of degree {d} is outside the ranks")
                if m < 2:
                    raise ValueError(f"annotated generator {i} of degree {d} has modulus {m} < 2")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def _window(self, degree: int) -> tuple:
        """presented_homology's arguments at a degree: both boundaries, both
        ranks and both cyclic relations."""
        n_mid = self.ranks[degree]
        return (
            self.boundaries[degree] if degree >= 1 else [{}] * n_mid,
            self.boundaries[degree + 1] if degree < self.top_degree else [],
            n_mid,
            self.ranks[degree - 1] if degree >= 1 else 0,
            self.cyclic.get(degree, {}),
            self.cyclic.get(degree - 1, {}),
        )

    def _lift(self, degree: int) -> list:
        """The incoming boundary and middle relations at a degree, lifted
        into its cycles; formed once per degree and shared by the d o d
        check and the sweep.  A window that is not a complex raises
        ValueError every time and caches nothing."""
        if degree not in self._lifts:
            out, into, n_mid, _, rel_mid, rel_target = self._window(degree)
            self._lifts[degree] = lift_to_cycles(out, into, n_mid, rel_mid, rel_target)
        return self._lifts[degree]

    def check_composition(self) -> bool:
        """d o d = 0 modulo the cyclic annotations: at every degree, the
        outgoing boundary of each incoming column and of each m*e_i for an
        order-m generator vanishes on plain rows and is divisible on
        annotated ones."""
        try:
            for degree in range(1, self.top_degree + 1):
                self._lift(degree)
        except ValueError:
            return False
        return True

    def homology(self, degree: int) -> FGAbelianGroup:
        if degree < 0 or degree > self.top_degree:
            return FGAbelianGroup(0)
        for k in range(len(self._sweep) - 1, degree + 1):
            rank = self.ranks[k] + len(self.cyclic.get(k - 1, {}))
            self._sweep.append(homology_step(self._lift(k), rank, self._sweep[-1][1]))
        return self._sweep[degree + 1][0]

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegerChainComplex":
        """Read the file format of load_complex_file, or raise ValueError."""
        ranks, mats, cyclic = unpack(data, "the chain complex", {"ranks": [int]},
                                     {"boundaries": [[[int]]], "cyclic": {int: {int: int}}})
        if any(r < 0 for r in ranks):
            raise ValueError(f"ranks must be non-negative, got {ranks}")
        mats = mats or []
        if len(mats) != max(len(ranks) - 1, 0):
            raise ValueError(f"expected {max(len(ranks) - 1, 0)} boundary matrices, got {len(mats)}")
        boundaries = [[]]
        for d, rows in enumerate(mats, start=1):
            if len(rows) != ranks[d - 1] or any(len(row) != ranks[d] for row in rows):
                raise ValueError(f"boundary {d} does not match the stated ranks")
            boundaries.append([
                {i: x for i, row in enumerate(rows) if (x := row[j])} for j in range(ranks[d])
            ])
        return cls(ranks, boundaries, cyclic)


def load_complex_file(path):
    """Read a CW-complex file (it has "cells") or a chain-complex file (it
    has "ranks"); no key may repeat in an object or be unknown.  CW complex:
    required "cells", a list of objects with required "id" (a string,
    number or list) and "dim" (an integer >= 0) and optional "label" (a
    string); optional "boundary", an object from the text of a cell id to
    its faces, each an [id, sign] pair with an integer sign.  Chain complex:
    required "ranks", a list of integers >= 0; optional "boundaries", for
    each degree d >= 1 a list of ranks[d - 1] rows of ranks[d] integers, and
    "cyclic", an object from a degree to an object from a generator index to
    its order (an integer >= 2), all keys canonical decimal integers."""
    data = read_json(path)
    for key, cls in (("cells", RegularCWComplex), ("ranks", IntegerChainComplex)):
        if type(data) is dict and key in data:
            return cls.from_json_dict(data)
    raise ValueError("a complex file is an object with the key 'cells' or 'ranks'")
