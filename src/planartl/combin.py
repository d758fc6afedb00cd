"""Pure combinatorics: Dyck paths, Catalan/Fine/Jacobsthal numbers,
first-peak counts, two-column standard Young tableaux and the
multiplicity counts built from them.

The counting functions that carry the package's main identities are
computed in more than one independent way and cross-asserted, so a bug
in any single route cannot silently produce a wrong table.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb

__all__ = [
    "binom",
    "dyck_lex_key",
    "dyck_words",
    "first_peak_height",
    "catalan",
    "first_peak_count_B",
    "first_peak_count_by_enumeration",
    "fine",
    "fine_by_enumeration",
    "fine_by_alternating_binomials",
    "fine_by_first_peaks",
    "jacobsthal_number",
    "descending_opposite_parity_sequences",
    "ENUM_LIMIT",
    "TwoColumnPartition",
    "Tableau",
    "two_column_partitions",
    "enumerate_syt",
    "syt_count",
    "count_N",
    "theorem_C_multiplicity",
]

#: Largest n at which the enumeration oracles back up the closed forms,
#: here and in the chain-complex and CLI checks; past it they get
#: expensive, and the closed forms have already been validated.
ENUM_LIMIT = 12


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the usual convention 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


_DYCK_ORDER = str.maketrans("ud", "ab")
_MIRROR = str.maketrans("ud", "du")


def dyck_lex_key(word: str):
    """Sort key realizing the u < d lexicographic order on Dyck words
    (plain string order would put d first)."""
    return word.translate(_DYCK_ORDER)


# ---------------------------------------------------------------------------
# Dyck words
# ---------------------------------------------------------------------------


@cache
def dyck_words(n: int) -> tuple[str, ...]:
    """All Dyck words of length 2n over {u, d}, in lex order with u < d:
    the oracle enumeration that the ``bijection`` check compares against
    :func:`planartl.diagram.enumerate_pairings`, and the first-peak
    oracles scan.

    Built by halves: the length-n words that never go below height 0,
    grown a letter at a time in lex order, are the first halves; those
    ending at height h, mirrored (reversed, u and d swapped), are the
    second halves falling from h to 0.  Each first half is joined to the
    sorted second halves of its height.  All words have length 2n, so
    lex order on them is lex order on (first half, second half).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    firsts = [("", 0)]
    for _ in range(n):
        firsts = [(f + c, h + step) for f, h in firsts for c, step in (("u", 1), ("d", -1)) if h + step >= 0]
    seconds: dict[int, list[str]] = {}
    for f, h in firsts:
        seconds.setdefault(h, []).append(f[::-1].translate(_MIRROR))
    for group in seconds.values():
        group.sort(key=dyck_lex_key)
    return tuple([f + s for f, h in firsts for s in seconds[h]])


def first_peak_height(word: str) -> int:
    """Height of the first peak (the first ud pair); 0 for the empty word.

    For a nonempty Dyck word this is just the number of leading u steps.
    """
    return len(word) - len(word.lstrip("u"))


# ---------------------------------------------------------------------------
# Catalan, first-peak and Fine numbers
# ---------------------------------------------------------------------------


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) - binom(2n, n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binom(2 * n, n) - binom(2 * n, n + 1)


def first_peak_count_B(n: int, m: int) -> int:
    """Number of Dyck paths of length 2n whose first peak has height >= m.

    Closed form binom(2n-m, n-m) - binom(2n-m, n-m-1), which also equals
    (m+1)/(n+1) * binom(2n-m, n).  Zero for m > n, and B_0 = B_1 = C_n.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    return binom(2 * n - m, n - m) - binom(2 * n - m, n - m - 1)


@cache
def _first_peak_height_counts(n: int) -> tuple[int, ...]:
    """Number of Dyck words of length 2n with each first-peak height
    0..n, from one scan of the words."""
    counts = [0] * (n + 1)
    for w in dyck_words(n):
        counts[first_peak_height(w)] += 1
    return tuple(counts)


def first_peak_count_by_enumeration(n: int, m: int) -> int:
    """Brute-force oracle for :func:`first_peak_count_B`."""
    return sum(c for h, c in enumerate(_first_peak_height_counts(n)) if h >= m)


def fine_by_enumeration(n: int) -> int:
    """Number of Dyck paths of length 2n whose first peak has even height.

    The empty path (n = 0) has no peak and counts as even height 0.
    """
    return sum(_first_peak_height_counts(n)[::2])


def fine_by_alternating_binomials(n: int) -> int:
    """The alternating binomial sum for the n-th Fine number:

        F_n = (1/(n+1)) * sum_{m=0}^{n} (-1)^m (m+1) binom(2n-m, n)

    summed in integers; the sum must be divisible by n+1, and
    RuntimeError is raised where it is not.
    """
    total = sum((-1) ** m * (m + 1) * binom(2 * n - m, n) for m in range(n + 1))
    if total % (n + 1):
        raise RuntimeError(f"alternating binomial sum for n={n} is not integral")
    return total // (n + 1)


def fine_by_first_peaks(n: int) -> int:
    """The alternating first-peak sum sum_{m=0}^{n} (-1)^m B_m(n), read by
    :func:`fine` and the ``thmB`` check: in (B_0 - B_1) + (B_2 - B_3) + ...
    each bracket counts the paths whose first peak has that even height."""
    return sum((-1) ** m * first_peak_count_B(n, m) for m in range(n + 1))


@cache
def fine(n: int) -> int:
    """The n-th Fine number.

    Read off the first-peak route :func:`fine_by_first_peaks`,
    cross-asserted against :func:`fine_by_alternating_binomials` and, at
    n <= ``ENUM_LIMIT``, against :func:`fine_by_enumeration`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    by_peaks = fine_by_first_peaks(n)
    by_binomials = fine_by_alternating_binomials(n)
    if by_peaks != by_binomials:
        raise RuntimeError(f"Fine number routes disagree at n={n}")
    if n <= ENUM_LIMIT and fine_by_enumeration(n) != by_peaks:
        raise RuntimeError(f"Fine number enumeration disagrees at n={n}")
    return by_peaks


# ---------------------------------------------------------------------------
# Jacobsthal numbers
# ---------------------------------------------------------------------------


@cache
def descending_opposite_parity_sequences(n: int) -> tuple[tuple[int, ...], ...]:
    """All sequences n > a_1 > ... > a_r > 0 with a_1 of opposite parity
    to n; the empty sequence is included exactly when n is odd (its
    initial term counts as 0), so n = 0 gives none.

    Depth-first, largest entry first: each sequence is followed by its
    extensions before its next sibling.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []
    if n % 2 == 1:
        out.append(())

    def rec(prefix: tuple[int, ...], floor: int) -> None:
        out.append(prefix)
        for a in range(floor - 1, 0, -1):
            rec(prefix + (a,), a)

    for a1 in range(n - 1, 0, -2):
        rec((a1,), a1)
    return tuple(out)


def _count_compositions_ending_odd(n: int) -> int:
    """DP count of compositions of n with odd last part."""
    total = [0] * (n + 1)
    total[0] = 1
    for m in range(1, n + 1):
        total[m] = sum(total[m - k] for k in range(1, m + 1))
    return sum(total[n - k] for k in range(1, n + 1, 2))


def _count_descending_opposite_parity(n: int) -> int:
    """Count of the descending sequences by choice of initial term: a
    sequence with initial term a_1 continues with any subset of
    {1, ..., a_1 - 1}."""
    count = 1 if n % 2 == 1 else 0
    for a1 in range(1, n):
        if (a1 - n) % 2 == 1:
            count += 2 ** (a1 - 1)
    return count


@cache
def jacobsthal_number(n: int) -> int:
    """The n-th Jacobsthal number.

    All four characterizations are computed and cross-asserted: the
    closed form (2^n - (-1)^n)/3, the recursion J_n = J_{n-1} + 2 J_{n-2}
    run up from (J_0, J_1) = (0, 1), the count of compositions of n
    ending in an odd part, and the count of descending sequences below
    n starting with the opposite parity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    closed = (2**n - (-1) ** n) // 3
    a, b = 0, 1  # J_0, J_1
    for _ in range(n - 1):
        a, b = b, b + 2 * a
    by_recursion = b
    by_compositions = _count_compositions_ending_odd(n)
    by_sequences = _count_descending_opposite_parity(n)
    if not (closed == by_recursion == by_compositions == by_sequences):
        raise RuntimeError(f"Jacobsthal routes disagree at n={n}")
    return closed


# ---------------------------------------------------------------------------
# Two-column partitions and standard Young tableaux
# ---------------------------------------------------------------------------


class TwoColumnPartition(namedtuple("TwoColumnPartition", "c1 c2")):
    """A partition of n with at most two columns, stored as column
    lengths (c1, c2) with c1 >= c2 >= 0."""

    __slots__ = ()

    def __new__(cls, c1: int, c2: int):
        if not (c1 >= c2 >= 0):
            raise ValueError(f"column lengths must satisfy c1 >= c2 >= 0, got ({c1},{c2})")
        return super().__new__(cls, c1, c2)

    @property
    def n(self) -> int:
        return self.c1 + self.c2

    def __str__(self) -> str:
        return f"({self.c1},{self.c2})"


class Tableau(namedtuple("Tableau", "shape col1 col2")):
    """A standard filling of a two-column shape.

    Entries 1..n, columns strictly increasing downward, and each row
    increasing left to right.
    """

    __slots__ = ()

    def __new__(cls, shape: TwoColumnPartition, col1: tuple[int, ...], col2: tuple[int, ...]):
        if len(col1) != shape.c1 or len(col2) != shape.c2:
            raise ValueError("column lengths do not match the shape")
        if sorted(col1 + col2) != list(range(1, shape.n + 1)):
            raise ValueError("entries must be a permutation of 1..n")
        for col in (col1, col2):
            if any(col[k] >= col[k + 1] for k in range(len(col) - 1)):
                raise ValueError("columns must increase downward")
        if any(col1[k] >= col2[k] for k in range(shape.c2)):
            raise ValueError("rows must increase left to right")
        return super().__new__(cls, shape, col1, col2)

    def second_column_top(self) -> int:
        """Top entry of the second column; declared n+1 when the shape
        is a single column."""
        return self.col2[0] if self.col2 else self.shape.n + 1


def two_column_partitions(n: int) -> tuple[TwoColumnPartition, ...]:
    """All two-column partitions of n, widest first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(
        TwoColumnPartition(n - c2, c2) for c2 in range(n // 2, -1, -1)
    )


@cache
def enumerate_syt(shape: TwoColumnPartition) -> tuple[Tableau, ...]:
    """All standard Young tableaux of the given two-column shape.

    Entries 1..n are placed in increasing order; at each step the next
    entry extends column 1 or column 2, subject to the ballot condition
    that column 2 never grows past column 1.
    """
    n = shape.n
    out: list[Tableau] = []

    def rec(k: int, col1: tuple[int, ...], col2: tuple[int, ...]) -> None:
        if k > n:
            out.append(Tableau(shape, col1, col2))
            return
        if len(col1) < shape.c1:
            rec(k + 1, col1 + (k,), col2)
        if len(col2) < shape.c2 and len(col2) < len(col1):
            rec(k + 1, col1, col2 + (k,))

    rec(1, (), ())
    return tuple(out)


def syt_count(shape: TwoColumnPartition) -> int:
    """f^shape, by direct enumeration."""
    return len(enumerate_syt(shape))


def count_N(shape: TwoColumnPartition, p: int) -> int:
    """Number of SYT of the shape whose first column starts, from the
    top, with 1, ..., p.  The condition is empty for p = 0, so
    count_N(shape, 0) = f^shape; it is unsatisfiable for p > c1."""
    if not 0 <= p <= shape.n:
        raise ValueError(f"p must lie in 0..{shape.n}")
    if p > shape.c1:
        return 0
    prefix = tuple(range(1, p + 1))
    return sum(1 for t in enumerate_syt(shape) if t.col1[:p] == prefix)


def theorem_C_multiplicity(shape: TwoColumnPartition) -> int:
    """Number of SYT of the shape whose second-column top entry is odd
    (a single column counts as top entry n+1).

    Cross-asserted against the alternating sum over k of
    (-1)^k count_N(shape, k).
    """
    by_odd_top = sum(
        1 for t in enumerate_syt(shape) if t.second_column_top() % 2 == 1
    )
    by_alternating = sum(
        (-1) ** k * count_N(shape, k) for k in range(shape.n + 1)
    )
    if by_odd_top != by_alternating:
        raise RuntimeError(f"multiplicity routes disagree for shape {shape}")
    return by_odd_top
