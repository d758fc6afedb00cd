"""Brute-force oracles shared by several test modules."""

from functools import cache

from planartl.chains import differential
from planartl.linalg import rank_at


@cache
def compositions_ending_odd(n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n whose last part is odd: the explicit list
    that the Jacobsthal counts are checked against."""
    if n < 1:
        raise ValueError("n must be positive")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        for part in range(1, remaining + 1):
            if part == remaining:
                if part % 2 == 1:
                    out.append(prefix + (part,))
            else:
                rec(prefix + (part,), remaining - part)

    rec((), n)
    return tuple(out)


def point_ranks(n: int, c, x) -> tuple[int, ...]:
    """The ranks of d^0 ... d^(n-1) of W(n) at v = x, by elimination of
    each Laurent matrix specialized there: the oracle the certified
    closed forms are checked against."""
    return tuple(rank_at(differential(n, i, c), x) for i in range(n))


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


def pairings_by_walk(n: int) -> tuple[bytes, ...]:
    """The pairings of all diagrams on n strands in Dyck-lex order, from
    one depth-first walk: each point opens an arc (tried first) or closes
    the last one opened; once all n are open, the rest close.  The
    oracle that the enumeration by halves is checked against."""
    out: list[bytes] = []
    pairing = bytearray(2 * n)
    stack: list[int] = []  # open points, the last one opened on top

    def walk(p: int, opened: int) -> None:
        if opened == n:
            for r, q in enumerate(reversed(stack), p):
                pairing[r] = q
                pairing[q] = r
            out.append(bytes(pairing))
            return
        stack.append(p)
        walk(p + 1, opened + 1)
        stack.pop()
        if stack:
            q = stack.pop()
            pairing[p] = q
            pairing[q] = p
            walk(p + 1, opened)
            stack.append(q)

    walk(0, 0)
    return tuple(out)
