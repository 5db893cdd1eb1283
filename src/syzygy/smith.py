"""Exact integer linear algebra: Smith normal form and finitely generated
abelian groups.

Everything here works on plain Python ints (arbitrary precision).  Entries
of intermediate matrices can grow far beyond machine words on
harmless-looking inputs, so no floats and no fixed-width arrays appear
anywhere.

Two matrix formats occur.  The homology readers (homology_step,
lift_to_cycles, presented_homology) and column_product take *columns*: a
list with one dict per column, mapping row index -> nonzero int, with the
row count passed separately where it matters.  Boundary matrices and the
formal calculus's homomorphisms are sparse, and a list of columns also
holds a matrix without rows or without columns.  Dense lists of rows
(Matrix) remain only in the dense cluster (smith_normal_form, solve,
mat_mul and their helpers), which the tests use as an oracle and the
benchmark's tracer names; in the library, only the residual of the sparse
elimination reaches it.

Every homology and cokernel read needs only the invariant factors of a
matrix, and _eliminate gets them by sparse elimination on a dict-of-rows
copy (Dumas-Saunders-Villard, JSC 2001; Kaczynski-Mischaikow-Mrozek,
Computational Homology, ch. 3):

- Divisor pivots.  An entry x whose absolute value divides every other
  entry of its row and of its column clears its column by exact row
  operations, after which its row is cleared by column operations that
  touch nothing else, so [|x|] splits off as a direct summand and its row
  and column drop out.  A +-1 entry always qualifies.
- A pivot queue.  Candidates come off a heap keyed by (|x|, Markowitz cost
  (row length - 1) * (column length - 1), row, column), so units go first,
  least fill-in first.  Every queued key is a lower bound of its entry's
  true key: a popped entry whose key has grown is queued again, and after
  each pivot only new entries and those whose key fell are pushed.  An
  entry that fails the divisor test waits until its row or column changes.
- A residual.  What is left once no entry qualifies goes to the dense
  smith_normal_form; the surface boundaries leave none.  The split-off
  orders and the residual's diagonal merge into one divisibility chain,
  padded with leading 1s to the rank.
- One read.  Nothing is cached here: a caller eliminates each matrix once
  and keeps the result, so a chain complex is read by one sweep over its
  degrees, and a chain of formal homomorphisms by one sweep per family.
- A sweep.  Homology is read low degree to high (homology_step), each
  degree's lift eliminated once without the rows that the pivots of the
  degree below settled, by the row-drop rule: if eliminating N takes
  divisor pivots in the columns Q and A's columns lie in ker N, then A
  without any of the rows Q has A's invariant factors.  Proof: a pivot x
  divides its row, so on ker N that row gives x_q as an integer combination
  of the other coordinates; the pivots are triangular, so back-substitution
  writes all of Q through the coordinates outside it, and forgetting Q maps
  ker N isomorphically onto a saturated lattice.

Every step is a unimodular equivalence or splits off a direct summand, and
the invariant factors of a matrix are unique up to such equivalence, so the
pivot order can change the work and the residual's size but never the
answer.  The dense form with its transforms U and V remains for solve and
as the test oracle.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from . import _Value


Matrix = list[list[int]]
Columns = list[dict[int, int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch in product")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        for k in range(inner):
            x = row[k]
            if x:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += x * brow[j]
    return out


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


class SNFResult(_Value):
    """Smith normal form U*A*V = D with unimodular U, V.

    The diagonal of D is non-negative and satisfies d1 | d2 | ... ; off
    diagonal entries are zero.  The fields cannot be reassigned; results
    compare by their matrices, and are not hashable, since those are lists.
    """

    __slots__ = ("U", "D", "V")
    __hash__ = None

    def __init__(self, U: Matrix, D: Matrix, V: Matrix):
        super().__init__(U, D, V)

    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]


def _xgcd(a: int, b: int):
    """g = gcd(a, b) >= 0 together with x, y such that x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smith_normal_form(a: Matrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivot entries are cleared with 2x2 extended-gcd blocks (determinant one),
    which keeps intermediate entries from exploding; the pivot is the entry of
    minimal nonzero absolute value with (row, col) tie-breaking, so the result
    is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = copy_matrix(a)
    if rows and any(len(row) != cols for row in d):
        raise ValueError("ragged matrix")
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def clear_in_column(k, i):
        """Make d[i][k] = 0 using rows k and i (gcd lands at d[k][k])."""
        b = d[i][k]
        if b == 0:
            return
        p = d[k][k]
        if p == 0:
            swap_rows(k, i)
            return
        if b % p == 0:
            q = b // p
            for m in (d, u):
                rk, ri = m[k], m[i]
                for t in range(len(ri)):
                    ri[t] -= q * rk[t]
            return
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        for m in (d, u):
            rk, ri = m[k], m[i]
            for t in range(len(rk)):
                rkt, rit = rk[t], ri[t]
                rk[t] = x * rkt + y * rit
                ri[t] = -bg * rkt + pg * rit

    def clear_in_row(k, j):
        """Make d[k][j] = 0 using columns k and j."""
        b = d[k][j]
        if b == 0:
            return
        p = d[k][k]
        if p == 0:
            swap_cols(k, j)
            return
        if b % p == 0:
            q = b // p
            for m in (d, v):
                for row in m:
                    row[j] -= q * row[k]
            return
        g, x, y = _xgcd(p, b)
        pg, bg = p // g, b // g
        for m in (d, v):
            for row in m:
                rk, rj = row[k], row[j]
                row[k] = x * rk + y * rj
                row[j] = -bg * rk + pg * rj

    def find_pivot(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
                    if abs(x) == 1:
                        return best
        return best

    k = 0
    limit = min(rows, cols)
    while k < limit:
        piv = find_pivot(k)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            for i in range(k + 1, rows):
                clear_in_column(k, i)
            for j in range(k + 1, cols):
                clear_in_row(k, j)
            # a gcd step in the row pass may have refilled the column
            if all(d[i][k] == 0 for i in range(k + 1, rows)) and all(
                d[k][j] == 0 for j in range(k + 1, cols)
            ):
                break
        # Enforce divisibility of the remaining block by the pivot.
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if d[i][j] % d[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for m in (d, u):
                rk, ri = m[k], m[offender]
                for t in range(len(rk)):
                    rk[t] += ri[t]
            continue
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return SNFResult(U=u, D=d, V=v)


def _eliminate(a: Columns, settled: frozenset = frozenset()) -> tuple:
    """The nonzero invariant factors of the columns ``a`` without the rows
    ``settled``, as a tuple, and the frozenset of the columns of the divisor
    pivots taken on the way.

    Divisor pivots leave by exact row and column operations in the heap's
    order; the residual without one, if any, goes to smith_normal_form,
    looked up by its module name at call time.  See the module docstring.
    """
    rows: dict[int, dict[int, int]] = {}  # row index -> {column index: entry}
    cols: dict[int, set[int]] = {}  # column index -> rows with an entry there
    for j, col in enumerate(a):
        for i, x in col.items():
            if x and i not in settled:
                rows.setdefault(i, {})[j] = x
                cols.setdefault(j, set()).add(i)
    # A heap item is one int that packs (|entry|, Markowitz cost, i, j), most
    # significant first, so that comparing items compares those tuples:
    # item = (|entry| * span + cost) * span + pos with pos = i * ncols + j,
    # where both the cost and pos stay below span.
    ncols = len(a)
    span = (max(rows, default=0) + 1) * ncols
    queued: dict[int, int] = {}  # pos -> the item that stands for the entry
    for i, entries in rows.items():
        width = len(entries) - 1
        for j, x in entries.items():
            pos = i * ncols + j
            queued[pos] = (abs(x) * span + width * (len(cols[j]) - 1)) * span + pos
    heap = list(queued.values())
    heapify(heap)
    waiting = set()  # pos of entries that failed the divisor test since touched
    pivots = []  # (|pivot|, its column) of every split-off summand
    while heap:
        item = heappop(heap)
        pos = item % span
        if queued.get(pos) != item:
            continue
        p, q = divmod(pos, ncols)
        pivot_row = rows.get(p)
        if pivot_row is None or q not in pivot_row:
            del queued[pos]
            continue
        x = pivot_row[q]
        size = abs(x)
        now = (size * span + (len(pivot_row) - 1) * (len(cols[q]) - 1)) * span + pos
        if now != item:
            queued[pos] = now
            heappush(heap, now)
            continue
        del queued[pos]
        if size > 1 and (
            any(v % x for v in pivot_row.values()) or any(rows[i][q] % x for i in cols[q])
        ):
            waiting.add(pos)
            continue
        del rows[p], pivot_row[q]
        heights = {j: len(cols[j]) for j in pivot_row}
        for j in pivot_row:
            cols[j].remove(p)
        cols[q].remove(p)
        # row operations clear column q; x divides the row, so column
        # operations then clear row p without touching any other row
        touched = cols.pop(q)
        widths = {}
        for i in touched:
            entries = rows[i]
            widths[i] = len(entries)
            factor = entries.pop(q) // x
            for j, v in pivot_row.items():
                value = entries.get(j, 0) - factor * v
                if value:
                    entries[j] = value
                    cols[j].add(i)
                else:
                    del entries[j]
                    cols[j].remove(i)
            if not entries:
                del rows[i]
        pivots.append((size, q))
        # every queued key stays a lower bound of its entry's true key, so
        # the checked minimum is the true minimum: push where a key fell
        for i, before in widths.items():
            entries = rows.get(i)
            if entries:
                width = len(entries) - 1
                for j in entries if width + 1 < before else pivot_row.keys() & entries.keys():
                    pos = i * ncols + j
                    item = (abs(entries[j]) * span + width * (len(cols[j]) - 1)) * span + pos
                    old = queued.get(pos)
                    if old is None or item < old:
                        queued[pos] = item
                        heappush(heap, item)
        for j, before in heights.items():
            height = len(cols[j]) - 1
            if height + 1 >= before:
                continue
            for i in cols[j]:
                entries = rows[i]
                pos = i * ncols + j
                item = (abs(entries[j]) * span + (len(entries) - 1) * height) * span + pos
                old = queued.get(pos)
                if old is not None and item < old:
                    queued[pos] = item
                    heappush(heap, item)
        if waiting:
            again = {pos for pos in waiting if pos // ncols in touched or pos % ncols in pivot_row}
            waiting -= again
            for pos in again:
                i, j = divmod(pos, ncols)
                if pos not in queued and j in rows.get(i, ()):
                    queued[pos] = item = abs(rows[i][j]) * span * span + pos
                    heappush(heap, item)
    orders = [size for size, _ in pivots if size > 1]
    pivot_columns = frozenset(q for _, q in pivots)
    rank = len(pivots)
    if rows:
        residual_cols = sorted(j for j, members in cols.items() if members)
        residual = [[entries.get(j, 0) for j in residual_cols] for entries in rows.values()]
        diagonal = [d for d in smith_normal_form(residual).diagonal() if d]
        rank += len(diagonal)
        orders += [d for d in diagonal if d > 1]
    chain = _merge_invariant_factors(orders)
    return (1,) * (rank - len(chain)) + tuple(chain), pivot_columns


def homology_step(lifted: Columns, rank: int, previous: tuple) -> tuple:
    """One sweep step: the homology where ``lifted`` lies in the cycles, the kernel
    in Z^rank of the matrix eliminated as ``previous``, and this elimination."""
    factors, pivot_columns = _eliminate(lifted, previous[1])
    free = rank - len(previous[0]) - len(factors)
    return FGAbelianGroup.from_orders(free, factors), (factors, pivot_columns)


def solve(a: Matrix, b: list[int], cols: int | None = None,
          snf: SNFResult | None = None) -> list[int] | None:
    """One integer solution x of a*x = b, or None when there is none.

    Pass a precomputed ``snf`` of ``a`` when solving against the same matrix
    repeatedly."""
    rows = len(a)
    if cols is None:
        cols = len(a[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    if snf is None:
        snf = smith_normal_form(a)
    c = mat_vec(snf.U, b)
    diag = snf.diagonal()
    y = [0] * cols
    for i in range(rows):
        d = diag[i] if i < len(diag) else 0
        if i < cols and d != 0:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return mat_vec(snf.V, y)


def prime_factorization(n: int) -> dict[int, int]:
    """Prime -> exponent for n >= 1, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def partitions(k: int) -> list[tuple]:
    """Partitions of k, each with its largest part first, in tuple order."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(1, min(remaining, maxpart) + 1):  # ascending: tuple order
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return out


def _merge_invariant_factors(orders: list[int]) -> list[int]:
    """Rewrite a list of cyclic orders (each >= 2) as a divisibility chain
    without factoring: each pair (a, b) in turn becomes (gcd, lcm), which keeps
    every prime's exponents, and an entry that has met all later ones divides them."""
    chain = sorted(orders)
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            g = gcd(a, chain[j])
            chain[j] = a // g * chain[j]
            a = g
        chain[i] = a
    return [d for d in chain if d > 1]


class FGAbelianGroup(_Value):
    """A finitely generated abelian group in invariant-factor normal form.

    ``torsion`` is the chain d1 | d2 | ... with every di >= 2; the
    representation is unique, so equality is structural.  An immutable
    value.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        if any(d < 2 for d in torsion):  # before the chain check divides by d
            raise ValueError("torsion orders must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
        super().__init__(free_rank, torsion)

    @classmethod
    def from_orders(cls, free_rank: int, orders: list[int]) -> "FGAbelianGroup":
        return cls(free_rank, tuple(_merge_invariant_factors([n for n in orders if n > 1])))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def column_product(a: Columns, b: Columns) -> Columns:
    """The product a*b in column format: column j is the sum of the columns
    a[i] weighted by b[j][i], with entries that cancel dropped."""
    out = []
    for col in b:
        product: dict[int, int] = {}
        for i, x in col.items():
            for t, v in a[i].items():
                product[t] = product.get(t, 0) + x * v
        out.append({t: v for t, v in product.items() if v})
    return out


def lift_to_cycles(boundary_out: Columns, boundary_in: Columns, n_mid: int,
                   relations_mid: dict[int, int] | None = None,
                   relations_target: dict[int, int] | None = None) -> Columns:
    """The columns of ``boundary_in`` and the middle relations m*e_i, lifted
    into the cycle module  K = ker[a | -R_t]  of  Z^k -> Z^n_mid -> Z^n_target.

    R_t holds one column m*e_t per annotated target row t (sorted), so a
    column c lifts to (c, y) with y = a*c divided exactly by R_t; y_t sits
    at row n_mid plus the position of t.  a*c comes from column_product.
    That division is the complex check: it fails on a nonzero plain
    row or a remainder on an annotated row, and raises ValueError, naming a
    failing middle relation before any failing boundary column.  Without
    annotated target rows a lifted column is the input column itself, not a
    copy, so callers only read the result.
    """
    relations_target = relations_target or {}
    rel_mid = sorted((relations_mid or {}).items())
    slot = {t: n_mid + pos for pos, t in enumerate(sorted(relations_target))}
    image = list(boundary_in) + [{i: m} for i, m in rel_mid]
    lifted = []
    bad = []
    for j, (col, product) in enumerate(zip(image, column_product(boundary_out, image))):
        out = dict(col) if slot else col  # without annotated rows y = 0
        for t, v in product.items():
            m = relations_target.get(t)
            if v % m if m else v:
                bad.append(j)
                break
            if v:
                out[slot[t]] = v // m
        lifted.append(out)
    bad_relations = [j - len(boundary_in) for j in bad if j >= len(boundary_in)]
    if bad_relations:
        idx, m = rel_mid[bad_relations[0]]
        raise ValueError(f"boundary is incompatible with the order-{m} generator {idx}")
    if bad:
        raise ValueError("boundary maps do not compose to zero")
    return lifted


def presented_homology(boundary_out: Columns, boundary_in: Columns, n_mid: int, n_target: int,
                       relations_mid: dict[int, int] | None = None,
                       relations_target: dict[int, int] | None = None) -> FGAbelianGroup:
    """Homology ker/image at the middle of  Z^k -> Z^n_mid -> Z^n_target,
    where generators may carry cyclic annotations (index -> modulus).

    ``boundary_out`` has n_mid columns with rows below n_target, and
    ``boundary_in`` has k columns with rows below n_mid.  An annotated
    generator e_i with modulus m contributes the relation m*e_i = 0, so the
    chain groups are Z^n modulo those relations.  Let a be the outgoing
    boundary and R_t the diagonal block of the w annotated target relations.
    The cycles are the pairs (x, y) with a*x = R_t*y, that is
    K = ker[a | -R_t] in Z^(n_mid+w); the y part records which multiple of
    each relation a*x hits.  The boundaries and the middle relations lift into
    K (lift_to_cycles), and the homology is K modulo the lifted columns L:
    Z^(dim K - rank L) plus the torsion of L (K is a kernel, so saturated),
    read by the sweep's two steps, [a | -R_t] and then L.  Raises ValueError
    when the data is not a complex.  n_target is not read; it keeps the
    relations at positions 4 and 5, where the benchmark's tracer reads them.
    """
    relations_target = relations_target or {}
    lifted = lift_to_cycles(boundary_out, boundary_in, n_mid, relations_mid, relations_target)
    cycle_matrix = list(boundary_out) + [{t: -m} for t, m in sorted(relations_target.items())]
    return homology_step(lifted, n_mid + len(relations_target), _eliminate(cycle_matrix))[0]
