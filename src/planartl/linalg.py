"""Sparse matrices over Z[v, v^-1] and exact rank at rational points.

Matrices are stored column-major as dicts, which matches how boundary
matrices are built (one column per basis diagram); an entry is an
immutable :class:`~planartl.coeff.LaurentPoly`, so composition is that
class's arithmetic.  The builder leaves no zero entry, so
:class:`PolyMatrix` checks only the shape.

No library path ranks a matrix: every boundary rank is read off the
exactness certificate of :mod:`planartl.chains`.  The rank functions
stay as the tests' rank oracle, and under these names the tracing
harness in ``perfbench/traced.py`` wraps them.  :func:`rank_at` ranks a
Laurent matrix at v = p/q: :meth:`PolyMatrix.specialize_int_columns`
turns each column into a primitive integer vector, and
:func:`rank_of_int_columns` inserts them one at a time into an echelon
form keyed by leading row.  A column is combined with a stored one by
cross-multiplication only, with a gcd content reduction after each
step, so no division ever leaves the integers.  The test suite keeps
this route in agreement with an independent one, a dense Bareiss
elimination among its own oracles.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .coeff import LaurentPoly

__all__ = [
    "PolyMatrix",
    "rank_at",
    "rank_of_int_columns",
]


class PolyMatrix(namedtuple("PolyMatrix", "nrows ncols columns")):
    """A rows x cols matrix over Z[v, v^-1], column-major sparse: each
    column maps a row to its nonzero :class:`LaurentPoly` entry.

    The builder leaves no zero entry:
    :func:`planartl.chains.right_mult_matrix` drops its cancelled sums,
    and :meth:`compose` its own.  The constructor checks only the
    shape."""

    __slots__ = ()

    def __new__(cls, nrows: int, ncols: int, columns: Iterable[dict]):
        """Keeps the column dicts it is handed, reading ``columns`` once,
        so a generator can hand them over one at a time."""
        columns = list(columns)
        for col in columns:
            for r in col:
                if not 0 <= r < nrows:
                    raise ValueError(f"row index {r} out of range")
        if len(columns) != ncols:
            raise ValueError("column count mismatch")
        return super().__new__(cls, nrows, ncols, columns)

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
        # One column at a time; a cancelled sum is dropped.
        def columns():
            for bcol in other.columns:
                acc: dict[int, LaurentPoly] = {}
                for j, b in bcol.items():
                    for r, a in mycols[j].items():
                        acc[r] = acc[r] + a * b if r in acc else a * b
                yield {r: poly for r, poly in acc.items() if poly}

        return PolyMatrix(self.nrows, other.ncols, columns())

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
        return sorted((r, c, poly.to_text()) for c, col in enumerate(self.columns) for r, poly in col.items())


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

