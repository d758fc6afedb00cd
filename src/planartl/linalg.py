"""Sparse matrices over Z[v, v^-1] and exact rank at rational points.

Matrices are stored column-major as dicts, which matches how boundary
matrices are built (one column per basis diagram); an entry is the
exponent -> coefficient map of its Laurent polynomial, so composition
and specialization stay in the integers.  Rank is computed by
evaluating each column at v = p/q in integers and running a
fraction-free sparse elimination: rows are combined by
cross-multiplication only, with a gcd content reduction after each
update, so no division ever leaves the integers.

A dense Bareiss elimination is provided as an independent cross-check;
the test suite keeps the two routes in agreement.
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
    """A rows x cols matrix over Z[v, v^-1], column-major sparse, with
    exponent -> coefficient dicts as entries."""

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows: int, ncols: int, columns: Iterable[dict] | None = None):
        """Takes ownership of the column dicts.  Zero coefficients and the
        entries they leave empty are dropped; a column holding neither is
        kept as it is.  ``columns`` is read once, so a generator can hand
        the columns over one at a time."""
        if columns is None:
            columns = [{} for _ in range(ncols)]
        self.nrows = nrows
        self.ncols = ncols
        self.columns = []
        for col in columns:
            if not all(poly and all(poly.values()) for poly in col.values()):
                col = {r: {e: c for e, c in poly.items() if c} for r, poly in col.items()}
                col = {r: poly for r, poly in col.items() if poly}
            for r in col:
                if not 0 <= r < nrows:
                    raise ValueError(f"row index {r} out of range")
            self.columns.append(col)
        if len(self.columns) != ncols:
            raise ValueError("column count mismatch")

    def entry(self, r: int, c: int) -> LaurentPoly:
        return LaurentPoly(self.columns[c].get(r))

    @property
    def is_zero(self) -> bool:
        return all(not col for col in self.columns)

    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product self * other (apply other first)."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
            )
        mycols = self.columns
        # One column at a time, so cancelled entries are dropped as they come.
        def columns():
            for bcol in other.columns:
                acc: dict[int, dict[int, int]] = {}
                for j, b in bcol.items():
                    for r, a in mycols[j].items():
                        poly = acc.get(r)
                        if poly is None:
                            poly = acc[r] = {}
                        for ea, ca in a.items():
                            for eb, cb in b.items():
                                poly[ea + eb] = poly.get(ea + eb, 0) + ca * cb
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
        both entries, or None when equal.  Dimensions must agree."""
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
        """Evaluate at v = x = p/q, each column scaled to a primitive
        integer vector.

        With lo and hi the column's extreme exponents, an entry
        sum c_e v^e becomes sum c_e p^(e-lo) q^(hi-e), its value times
        p^-lo q^hi; the column is then divided by its content.  Column
        scaling by a nonzero rational preserves rank.
        """
        x = Fraction(x)
        if x == 0:
            raise ValueError("v must be a unit")
        p, q = x.numerator, x.denominator
        out: list[dict[int, int]] = []
        for col in self.columns:
            lo = min((min(poly) for poly in col.values()), default=0)
            hi = max((max(poly) for poly in col.values()), default=0)
            p_pow = [p**k for k in range(hi - lo + 1)]
            q_pow = [q**k for k in range(hi - lo + 1)]
            vals: dict[int, int] = {}
            content = 0
            for r, poly in col.items():
                val = sum(c * p_pow[e - lo] * q_pow[hi - e] for e, c in poly.items())
                if val:
                    vals[r] = val
                    content = gcd(content, val)
            if content > 1:
                vals = {r: val // content for r, val in vals.items()}
            out.append(vals)
        return out

    def entries_list(self) -> list[tuple[int, int, str]]:
        """All nonzero entries as (row, col, text), sorted by (row, col)."""
        items = [
            (r, c, LaurentPoly(poly).to_text(compact=True))
            for c, col in enumerate(self.columns)
            for r, poly in col.items()
        ]
        items.sort(key=lambda t: (t[0], t[1]))
        return items


def rank_of_int_columns(columns: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse columns, by fraction-free
    sparse elimination.

    Pivots are chosen to keep fill-in low (shortest row, then the column
    with fewest occupants).  Row updates use cross-multiplication
    pv*row - f*pivot_row followed by a content gcd reduction, which stays
    in the integers and leaves the row space unchanged.
    """
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        for i, val in col.items():
            if val:
                rows.setdefault(i, {})[j] = val
    col_rows: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    rank = 0
    while rows:
        pr = min(rows, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pr)
        pc = min(prow, key=lambda j: (len(col_rows[j]), j))
        pv = prow[pc]
        rank += 1
        for j in prow:
            occ = col_rows[j]
            occ.discard(pr)
            if not occ:
                del col_rows[j]
        for i in list(col_rows.get(pc, ())):
            row = rows[i]
            f = row[pc]
            new: dict[int, int] = {j: pv * v for j, v in row.items()}
            for j, v in prow.items():
                w = new.get(j, 0) - f * v
                if w:
                    new[j] = w
                elif j in new:
                    del new[j]
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    new = {j: v // g for j, v in new.items()}
            for j in row:
                if j not in new:
                    occ = col_rows.get(j)
                    if occ is not None:
                        occ.discard(i)
                        if not occ:
                            del col_rows[j]
            for j in new:
                if j not in row:
                    col_rows.setdefault(j, set()).add(i)
            if new:
                rows[i] = new
            else:
                del rows[i]
    return rank


def rank_at(matrix: PolyMatrix, x: Fraction) -> int:
    """Exact rank of the matrix specialized at v = x (x nonzero)."""
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
