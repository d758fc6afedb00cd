"""Planar diagrams on n strands: noncrossing perfect matchings of the 2n
boundary dots, the gluing product with closed-loop counting, the cup
generators U_i, and the canonical bijection with Dyck words.

Boundary numbering is fixed once: points 1..n are the right dots read
bottom to top, and points n+1..2n are the left dots read top to bottom.
One sweep of the boundary therefore visits the points in order 1..2n,
and the right dot i sits opposite the left dot i, which is point
2n+1-i.  Under that sweep every diagram spells a Dyck word: a u the
first time an arc is met, a d the second time.  Internally points are
stored 0-indexed.

The product xy glues two diagrams into one involution on 4n points: x
keeps its points 0..2n-1 and y's points follow as 2n..4n-1.  The wall
between them joins point g to point 4n-1-g, x's right dot i to y's left
dot i, and the points n..3n-1 that stay outside it become the product's.
A cup generator on either side needs no walk: its cap meets two
adjacent dots of the other factor, and one cup rule rejoins their
partners, on the left dots for U_j x and on the right dots for x U_k.

A diagram is its pairing: the tuple whose entry p is the partner of
point p.  Every path takes and returns these tuples: the enumeration
walks pairings directly, building and parsing no word, the Dyck-lex
index is keyed by them (hashed in C), the cup rule and the general
product act on them, and an algebra element keys its terms by them.
The Dyck word is read off a pairing by one function,
:func:`word_of_pairing`, and parsed back by one stack walk,
:func:`pairing_of_word`; :func:`is_planar_pairing` decides whether a
tuple is a diagram at all.
"""

from __future__ import annotations

from functools import cache
from operator import gt

__all__ = [
    "is_planar_pairing",
    "word_of_pairing",
    "pairing_of_word",
    "from_pairs",
    "identity",
    "generator_u",
    "multiply",
    "cup_times",
    "times_cup",
    "from_dyck",
    "enumerate_pairings",
    "dyck_lex_index",
]

# Byte 1 where a point's partner comes later in the sweep, 0 where earlier.
_WORD_LETTERS = bytes.maketrans(b"\x00\x01", b"du")


def word_of_pairing(pairing: tuple[int, ...]) -> str:
    """The Dyck word of a pairing: u where the partner comes later in
    the sweep, d where it came earlier."""
    return bytes(map(gt, pairing, range(len(pairing)))).translate(_WORD_LETTERS).decode()


def pairing_of_word(word: str) -> tuple[int, ...] | None:
    """The pairing that matches each d with the last unmatched u, by one
    LIFO sweep; None unless ``word`` is a Dyck word over {u, d}.  This
    is the unique noncrossing pairing whose word is ``word``."""
    pairing = [0] * len(word)
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for p, ch in enumerate(word):
        if ch == "u":
            push(p)
        elif ch == "d" and stack:
            q = pop()
            pairing[p] = q
            pairing[q] = p
        else:
            return None
    return None if stack else tuple(pairing)


def is_planar_pairing(pairing: tuple[int, ...]) -> bool:
    """Whether ``pairing`` is a fixed-point-free noncrossing involution,
    by one stack sweep: a closing point must close the last point opened,
    whose partner it must be, and no point may be left open at the end."""
    stack: list[int] = []
    for p, q in enumerate(pairing):
        if q > p:
            stack.append(p)
        elif not stack or stack.pop() != q or pairing[q] != p:
            return False
    return not stack


def from_pairs(n: int, pairs) -> tuple[int, ...]:
    """The pairing of the diagram with these 1-based matched point pairs.
    Raises ValueError unless n is nonnegative, the pairs name each point
    of 1..2n exactly once, and no two of them cross."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pairs = list(pairs)
    if sorted(p for pair in pairs for p in pair) != list(range(1, 2 * n + 1)):
        raise ValueError(f"pairs must name each point of 1..{2 * n} exactly once")
    pairing = [0] * (2 * n)
    for a, b in pairs:
        pairing[a - 1] = b - 1
        pairing[b - 1] = a - 1
    if not is_planar_pairing(pairing):
        raise ValueError("pairs must not cross")
    return tuple(pairing)


@cache
def identity(n: int) -> tuple[int, ...]:
    """The diagram joining right dot i to left dot i for every i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = 2 * n
    return tuple(size - 1 - p for p in range(size))


def _check_generator_index(n: int, i: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must lie in 1..{n - 1}, got {i}")


def generator_u(n: int, i: int) -> tuple[int, ...]:
    """The cup generator U_i: cups joining dots i, i+1 on both sides,
    all other strands horizontal."""
    _check_generator_index(n, i)
    size = 2 * n
    pairing = list(size - 1 - p for p in range(size))
    a, b = i - 1, i                    # right dots i, i+1
    c, d = size - i, size - i - 1      # left dots i, i+1
    pairing[a], pairing[b] = b, a
    pairing[c], pairing[d] = d, c
    return tuple(pairing)


def multiply(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The product of x (drawn on the left) and y, as the pair
    (diagram, loops): the glued diagram and the number of closed loops
    erased from the wall.

    The two factors share one numbering of 4n points: x keeps its points
    0..2n-1 and y's point q becomes q + 2n.  The wall joins x's right dot
    p to y's left dot 2n-1-p, so point g meets point 4n-1-g.  The outer
    points n..3n-1, x's left dots and then y's right dots, become the
    product's point g mod 2n.

    One step crosses the wall and follows an arc.  Each outer point is
    stepped until it reaches another, marking every x right dot crossed;
    each x right dot left unmarked lies on a closed loop, traced with the
    same step.
    """
    if len(x) != len(y):
        raise ValueError(f"strand-count mismatch: {len(x) // 2} != {len(y) // 2}")
    size = len(x)
    n = size // 2
    last = 2 * size - 1
    arc = x + tuple(q + size for q in y)
    res = [-1] * size
    crossed = [False] * n
    for start in range(n, n + size):
        if res[start % size] < 0:
            q = arc[start]
            while not n <= q < n + size:
                crossed[q if q < n else last - q] = True
                q = arc[last - q]
            res[start % size] = q % size
            res[q % size] = start % size
    loops = 0
    for p in range(n):
        if not crossed[p]:
            loops += 1
            q = arc[last - p]
            while q != p:
                crossed[q if q < n else last - q] = True
                q = arc[last - q]
    return tuple(res), loops


def _cap(pairing: tuple[int, ...], a: int, b: int) -> tuple[tuple[int, ...], int]:
    """The cup rule at two adjacent boundary points a and b that a cup
    generator's cap meets, as the pair (pairing, loops).

    Where the pairing joins a to b the cap closes one loop and the
    generator's cup puts the same arc back, so the product is the
    pairing itself.  Otherwise the cap joins the partners of a and b to
    each other, and the cup joins a to b, an arc the pairing lacked: so
    the product is the pairing itself exactly when a loop is closed.
    """
    pa = pairing[a]
    if pa == b:
        return pairing, 1
    pb = pairing[b]
    res = list(pairing)
    res[a], res[b], res[pa], res[pb] = b, a, pb, pa
    return tuple(res), 0


def cup_times(j: int, pairing: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The product of U_j (drawn on the left) and the diagram with this
    pairing, as the pair (pairing, loops) that
    ``multiply(generator_u(n, j), d)`` gives for the diagram d, by a
    fixed number of steps and no walk: U_j's right cap meets the left
    dots j and j+1, the points 2n-j and 2n-j-1 (see :func:`_cap`).
    """
    _check_generator_index(len(pairing) // 2, j)
    return _cap(pairing, len(pairing) - j, len(pairing) - j - 1)


def times_cup(pairing: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int]:
    """The product of the diagram with this pairing and U_k (drawn on
    the right), as the pair (pairing, loops) that
    ``multiply(d, generator_u(n, k))`` gives: the mirror of
    :func:`cup_times`, where U_k's left cap meets the right dots k and
    k+1, the points k-1 and k (see :func:`_cap`).
    """
    _check_generator_index(len(pairing) // 2, k)
    return _cap(pairing, k - 1, k)


def from_dyck(word: str) -> tuple[int, ...]:
    """The diagram whose arcs match each d with its unmatched u."""
    pairing = pairing_of_word(word)
    if pairing is None:
        raise ValueError(f"not a Dyck word: {word!r}")
    return pairing


@cache
def enumerate_pairings(n: int) -> tuple[tuple[int, ...], ...]:
    """The pairings of all diagrams on n strands in Dyck-lex order
    (u < d), from one depth-first walk: each point opens an arc (tried
    first) or closes the last one opened; once all n are open, the rest
    close."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []
    pairing = [0] * (2 * n)
    stack: list[int] = []  # open points, the last one opened on top

    def walk(p: int, opened: int) -> None:
        if opened == n:
            for r, q in enumerate(reversed(stack), p):
                pairing[r] = q
                pairing[q] = r
            out.append(tuple(pairing))
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


def enumerate_diagrams(n: int) -> tuple[tuple[int, ...], ...]:
    """:func:`enumerate_pairings` under the name the tracing harness in
    ``perfbench/traced.py`` wraps; never called in the library."""
    return enumerate_pairings(n)


@cache
def dyck_lex_index(n: int) -> dict[tuple[int, ...], int]:
    """Position of every pairing on n strands in the Dyck-lex list."""
    pairings = enumerate_pairings(n)
    return dict(zip(pairings, range(len(pairings))))
