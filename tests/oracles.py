"""Brute-force oracles shared by several test modules."""

from functools import cache


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
