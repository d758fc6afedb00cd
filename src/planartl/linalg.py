"""Sparse matrices over Z[v, v^-1] and exact rank at rational points.

Matrices are stored column-major as dicts, which matches how boundary
matrices are built (one column per basis diagram); an entry is an
immutable :class:`~planartl.coeff.LaurentPoly`, so composition is that
class's arithmetic.

No library path ranks a matrix: every boundary rank is read off the
exactness certificate of :mod:`planartl.chains`.  The rank functions
stay as the tests' rank oracle, and under these names the tracing
harness in ``perfbench/traced.py`` wraps them.  :func:`rank_at` ranks a
Laurent matrix at v = p/q: :meth:`PolyMatrix.specialize_int_columns`
turns each column into a primitive integer vector, and
:func:`rank_of_int_columns` inserts them one at a time into an echelon
form keyed by leading row.  A column is combined with a stored one by
cross-multiplication only, with a gcd content reduction after each
step, so no division ever leaves the integers.  A dense Bareiss
elimination, :func:`rank_dense_bareiss`, is provided as an independent
cross-check; the test suite keeps the two routes in agreement.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .coeff import LaurentPoly

__all__ = [
    "PolyMatrix",
    "rank_at",
    "rank_of_int_columns",
    "rank_dense_bareiss",
]


class PolyMatrix:
    """A rows x cols matrix over Z[v, v^-1], column-major sparse: each
    column maps a row to its nonzero :class:`LaurentPoly` entry."""

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows: int, ncols: int, columns: Iterable[dict] | None = None):
        """Takes ownership of the column dicts.  Zero entries are dropped;
        a column holding none is kept as it is.  ``columns`` is read
        once, so a generator can hand the columns over one at a time."""
        if columns is None:
            columns = [{} for _ in range(ncols)]
        self.nrows = nrows
        self.ncols = ncols
        self.columns = []
        for col in columns:
            if not all(col.values()):
                col = {r: poly for r, poly in col.items() if poly}
            for r in col:
                if not 0 <= r < nrows:
                    raise ValueError(f"row index {r} out of range")
            self.columns.append(col)
        if len(self.columns) != ncols:
            raise ValueError("column count mismatch")

    def entry(self, r: int, c: int) -> LaurentPoly:
        return self.columns[c].get(r, LaurentPoly.zero())

    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product self * other (apply other first).  No library
        path composes: it stays as the tests' oracle for d o d = 0 and
        the chain homotopy, and under this name the tracing harness in
        ``perfbench/traced.py`` wraps."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
            )
        mycols = self.columns
        # One column at a time; the constructor drops cancelled entries.
        def columns():
            for bcol in other.columns:
                acc: dict[int, LaurentPoly] = {}
                for j, b in bcol.items():
                    for r, a in mycols[j].items():
                        acc[r] = acc[r] + a * b if r in acc else a * b
                yield acc

        return PolyMatrix(self.nrows, other.ncols, columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.columns == other.columns
        )

    def first_difference(self, other: "PolyMatrix"):
        """The smallest (row, col) where the two matrices differ, with
        both entries, or None when equal.  Dimensions must agree.  No
        library path calls it: it stays for the tests, and under this
        name the tracing harness in ``perfbench/traced.py`` wraps."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch")
        best = None
        for c, (mine, theirs) in enumerate(zip(self.columns, other.columns)):
            for r in sorted(set(mine) | set(theirs)):
                if mine.get(r) != theirs.get(r):
                    if best is None or (r, c) < best[:2]:
                        best = (r, c, self.entry(r, c), other.entry(r, c))
                    break
        return best

    def specialize_int_columns(self, x: Fraction) -> list[dict[int, int]]:
        """Evaluate at v = x, each column scaled to a primitive integer
        vector; column scaling by a nonzero rational preserves rank.
        Raises ValueError at x = 0.  No library path calls it: it stays
        for the tests' rank oracle :func:`rank_at`, and under this name
        the tracing harness in ``perfbench/traced.py`` wraps.

        With x = p/q, and lo and hi a column's extreme exponents, an
        entry sum c_e v^e becomes sum c_e p^(e-lo) q^(hi-e), its value
        times p^-lo q^hi; the column's nonzero values are then divided
        by their gcd.
        """
        x = Fraction(x)
        if x == 0:
            raise ValueError("v must be a unit")
        p, q = x.numerator, x.denominator
        out = []
        for col in self.columns:
            terms = {r: poly.coefficients() for r, poly in col.items()}
            lo = min((min(t) for t in terms.values()), default=0)
            hi = max((max(t) for t in terms.values()), default=0)
            p_pow = [p**k for k in range(hi - lo + 1)]
            q_pow = [q**k for k in range(hi - lo + 1)]
            values = {
                r: sum(c * p_pow[e - lo] * q_pow[hi - e] for e, c in t.items())
                for r, t in terms.items()
            }
            values = {r: val for r, val in values.items() if val}
            content = gcd(*values.values())
            out.append({r: val // content for r, val in values.items()} if content > 1 else values)
        return out

    def entries_list(self) -> list[tuple[int, int, str]]:
        """All nonzero entries as (row, col, text), sorted by (row, col)."""
        items = [
            (r, c, poly.to_text())
            for c, col in enumerate(self.columns)
            for r, poly in col.items()
        ]
        items.sort(key=lambda t: (t[0], t[1]))
        return items


def rank_of_int_columns(columns: Iterable[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse columns, by inserting
    the columns one at a time into a column echelon form.  No library
    path calls it: it is the tests' rank oracle, and under this name the
    tracing harness in ``perfbench/traced.py`` wraps.

    ``pivots`` maps a leading (smallest) row to the one stored column
    that leads there.  While a new column leads at a taken row it becomes
    a*col - b*pivot, with a/b the ratio of the two leading entries in
    lowest terms, which clears that entry and stays in the integers; the
    result is divided by its content.  A column left nonzero is stored
    under its new leading row.  The caller's columns are copied on
    reading, never changed, so ``col`` is always this function's own
    dict: where a == 1 it is updated in place rather than rebuilt.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {i: x for i, x in col.items() if x}
        while col and (lead := min(col)) in pivots:
            pivot = pivots[lead]
            g = gcd(pivot[lead], col[lead])
            a, b = pivot[lead] // g, col[lead] // g
            if a != 1:
                col = {i: a * x for i, x in col.items()}
            for i, y in pivot.items():
                w = col.get(i, 0) - b * y
                if w:
                    col[i] = w
                else:
                    del col[i]
            content = gcd(*col.values())
            if content > 1:
                col = {i: x // content for i, x in col.items()}
        if col:
            pivots[lead] = col
    return len(pivots)


def rank_at(matrix: PolyMatrix, x: Fraction) -> int:
    """Exact rank of the matrix specialized at v = x (x nonzero).  No
    library path calls it: it is the tests' rank oracle, and under this
    name the tracing harness in ``perfbench/traced.py`` wraps."""
    return rank_of_int_columns(matrix.specialize_int_columns(x))


def rank_dense_bareiss(rows: list[list[int]]) -> int:
    """Dense single-step Bareiss elimination over the integers.

    Every intermediate entry is a minor of the input, so the divisions
    by the previous pivot are exact.  Used as the independent oracle for
    the sparse elimination.
    """
    if not rows:
        return 0
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            fi = m[i][c]
            rowi = m[i]
            rowr = m[r]
            for j in range(c, ncols):
                rowi[j] = (pv * rowi[j] - fi * rowr[j]) // prev
        prev = pv
        r += 1
        if r == nrows:
            break
    return r
