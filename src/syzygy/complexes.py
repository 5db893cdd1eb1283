"""Regular CW complexes as face posets with signed incidences, and their
integer homology.

A complex is stored purely combinatorially: cells with a dimension and an
optional label, plus a signed boundary list per cell.  Barycentric
subdivision, links and dual blocks are all order-theoretic constructions on
the face poset; no geometric realization exists anywhere.  Chain groups may
carry cyclic annotations (generator orders such as Z/2), and homology is read
from invariant factors by one formula for plain and annotated chain groups
alike (smith.presented_homology): the cycles are a kernel that records, per
annotated target generator, which multiple of its relation a chain hits, so
the same engine serves plain cellular homology and the coinvariant complexes
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

import json

from . import _Value
from .smith import FGAbelianGroup, lift_to_cycles, presented_homology

CellId = object  # hashable


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
    of the cell; regularity demands that no face is listed twice.
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
            sd = self.barycentric_subdivision()
            for cid, cell in sorted(self.cells.items(), key=lambda kv: repr(kv[0])):
                link = _chain_subcomplex(sd, cid, include_cell=False)
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

    # -- subdivision and blocks ---------------------------------------------

    def barycentric_subdivision(self) -> "RegularCWComplex":
        """Simplicial complex with one vertex per cell and one simplex per
        strict inclusion chain of cells."""
        order = {cid: (self.cells[cid].dim, repr(cid)) for cid in self.cells}
        face_sets = {cid: self.faces(cid) for cid in self.cells}
        chains = [(cid,) for cid in self.cells]
        frontier = list(chains)
        while frontier:
            new = []
            for chain in frontier:
                top = chain[-1]
                for cid in self.cells:
                    if top in face_sets[cid]:
                        new.append(chain + (cid,))
            chains.extend(new)
            frontier = new
        cells = []
        boundary = {}
        for chain in chains:
            labels = "<".join(str(self.cells[c].label or c) for c in chain)
            cells.append(Cell(id=chain, dim=len(chain) - 1, label=labels))
            faces = []
            if len(chain) > 1:
                for i in range(len(chain)):
                    sub = chain[:i] + chain[i + 1:]
                    faces.append((sub, (-1) ** i))
            boundary[chain] = faces
        return RegularCWComplex(cells, boundary)

    # -- homology ------------------------------------------------------------

    def chain_complex(self) -> "IntegerChainComplex":
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
        return IntegerChainComplex(ranks=ranks, boundaries=boundaries)

    def homology(self, degree: int) -> FGAbelianGroup:
        return self.chain_complex().homology(degree)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        cells = [
            {"id": c.id, "dim": c.dim, "label": c.label}
            for c in sorted(self.cells.values(), key=lambda c: (c.dim, repr(c.id)))
        ]
        boundary = {
            str(cid): [[fid, sign] for fid, sign in faces]
            for cid, faces in sorted(self.boundary.items(), key=lambda kv: repr(kv[0]))
            if faces
        }
        return {"cells": cells, "boundary": boundary}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegularCWComplex":
        """Read the file format; any wrong structure raises ValueError naming
        the cell.  Every face must name a cell one dimension below its own;
        the other conditions of a regular complex are left to validate()."""
        cells = []
        for c in _json_list(data.get("cells"), "cells"):
            if not isinstance(c, dict) or "id" not in c:
                raise ValueError(f"cell {c!r} is not an object with an id")
            cid, dim = _as_id(c["id"]), c.get("dim")
            try:
                hash(cid)
            except TypeError:
                raise ValueError(f"cell id {c['id']!r} is not a string, number or list") from None
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
                raise ValueError(f"cell {cid!r} has dim {dim!r}, not an integer >= 0")
            cells.append(Cell(id=cid, dim=dim, label=c.get("label", "")))
        # ids inside boundary lists, like the keys, are matched by their text,
        # so two ids may not share one
        by_text = {}
        for c in cells:
            other = by_text.setdefault(str(c.id), c)
            if other.id != c.id:
                raise ValueError(f"cells {other.id!r} and {c.id!r} share the id text {str(c.id)!r}")
        boundary_data = data.get("boundary", {})
        if not isinstance(boundary_data, dict):
            raise ValueError("boundary must map each cell id to its list of faces")
        boundary = {}
        for key, faces in boundary_data.items():
            cell = by_text.get(key)
            if cell is None:
                raise ValueError(f"boundary references unknown cell {key!r}")
            entries = []
            for f in _json_list(faces, f"the boundary of cell {cell.id!r}"):
                if not isinstance(f, list) or len(f) != 2:
                    raise ValueError(f"cell {cell.id!r}: face {f!r} is not an [id, sign] pair")
                face, sign = by_text.get(str(_as_id(f[0]))), f[1]
                if face is None:
                    raise ValueError(f"cell {cell.id!r}: face {f[0]!r} names no cell")
                if face.dim != cell.dim - 1:
                    raise ValueError(
                        f"cell {cell.id!r} (dim {cell.dim}): face {face.id!r} has dim {face.dim}"
                    )
                if isinstance(sign, bool) or not isinstance(sign, int):
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


def _chain_subcomplex(sd, cid, include_cell):
    """Cells of the barycentric subdivision ``sd`` whose chains lie (weakly)
    above the cell ``cid``; the cells strictly above it are the tops of its
    2-chains (cid, m), so no face closure is taken again."""
    above = {chain[1] for chain in sd.cells if len(chain) == 2 and chain[0] == cid}
    if include_cell:
        above.add(cid)
    keep = [chain_id for chain_id in sd.cells if above.issuperset(chain_id)]
    keep_set = set(keep)
    cells = [sd.cells[c] for c in keep]
    boundary = {
        c: [(f, s) for f, s in sd.boundary[c] if f in keep_set] for c in keep
    }
    return RegularCWComplex(cells, boundary)


def _is_sphere_homology(complex_, n: int) -> bool:
    """Does the complex have the homology of S^n?  (S^-1 is the empty space.)"""
    if n < 0:
        return not complex_.cells
    if not complex_.cells:
        return False
    top = max(n, complex_.dimension)
    for d in range(top + 1):
        h = complex_.homology(d)
        if n == 0:
            want = FGAbelianGroup(2) if d == 0 else FGAbelianGroup(0)
        else:
            want = FGAbelianGroup(1) if d in (0, n) else FGAbelianGroup(0)
        if h != want:
            return False
    return True


class IntegerChainComplex:
    """Chain complex of (possibly annotated) free abelian groups.

    ``ranks[d]`` is the number of degree-d generators; ``boundaries[d]`` is
    the map from degree d to degree d-1 as ranks[d] columns, each a dict
    from a degree-(d-1) index to a nonzero int (``boundaries[0]``, the zero
    map, is not read).  ``cyclic[d][i] = m`` marks generator i of degree d as
    a Z/m generator (m >= 2); the homology engine appends the relation
    m*e_i = 0.  The lift into the cycles is kept per degree once read, so a
    complex is not changed after its first homology or composition check.
    """

    def __init__(self, ranks, boundaries, cyclic=None):
        self.ranks = list(ranks)
        self.boundaries = boundaries
        self._lifts: dict = {}  # degree -> lift_to_cycles of its window
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
        """presented_homology's arguments at a degree: the outgoing and
        incoming boundaries, the ranks at the degree and below it, and the
        cyclic relations there."""
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
        check and the homology read.  A window that is not a complex raises
        ValueError every time and caches nothing."""
        if degree not in self._lifts:
            self._lifts[degree] = lift_to_cycles(*self._window(degree))
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
        return presented_homology(*self._window(degree), lifted=self._lift(degree))

    def to_json_dict(self) -> dict:
        """The file format: each boundary as a dense list of rows."""
        return {
            "ranks": self.ranks,
            "boundaries": [
                [[col.get(i, 0) for col in columns] for i in range(self.ranks[d - 1])]
                for d, columns in enumerate(self.boundaries[1:len(self.ranks)], start=1)
            ],
            "cyclic": {str(d): {str(i): m for i, m in v.items()} for d, v in self.cyclic.items() if v},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegerChainComplex":
        """Read the file format; any wrong structure raises ValueError."""
        ranks = [_json_int(r) for r in _json_list(data.get("ranks"), "ranks")]
        if any(r < 0 for r in ranks):
            raise ValueError(f"ranks must be non-negative, got {ranks}")
        mats = _json_list(data.get("boundaries", []), "boundaries")
        if len(mats) != max(len(ranks) - 1, 0):
            raise ValueError(
                f"expected {max(len(ranks) - 1, 0)} boundary matrices, got {len(mats)}"
            )
        boundaries = [[]]
        for d, mat in enumerate(mats, start=1):
            rows = [
                _json_list(row, f"a row of boundary {d}")
                for row in _json_list(mat, f"boundary {d}")
            ]
            if len(rows) != ranks[d - 1] or any(len(row) != ranks[d] for row in rows):
                raise ValueError(f"boundary {d} does not match the stated ranks")
            boundaries.append([
                {i: x for i, row in enumerate(rows) if (x := _json_int(row[j]))}
                for j in range(ranks[d])
            ])
        cyclic = data.get("cyclic") or {}
        if not isinstance(cyclic, dict) or not all(isinstance(v, dict) for v in cyclic.values()):
            raise ValueError("cyclic must map each degree to an object of index -> modulus")
        return cls(ranks, boundaries, {
            d: {i: _json_int(m) for i, m in v.items()} for d, v in cyclic.items()
        })


def _json_list(x, what: str) -> list:
    """A list read from a chain-complex file, or ValueError naming ``what``."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def _json_int(x) -> int:
    """An integer read from a chain-complex file; floats, booleans and
    strings are refused rather than converted."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"chain complex files hold integers only, got {x!r}")
    return x


def load_complex_file(path):
    """Read either a CW-complex or a chain-complex JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a complex file holds one JSON object")
    if "cells" in data:
        return RegularCWComplex.from_json_dict(data)
    if "ranks" in data:
        return IntegerChainComplex.from_json_dict(data)
    raise ValueError("file is neither a CW complex ('cells') nor a chain complex ('ranks')")
