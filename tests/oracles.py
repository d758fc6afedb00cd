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
