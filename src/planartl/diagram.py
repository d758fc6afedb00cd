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

The enumeration walks pairings directly, building and parsing no word;
a diagram stores only its pairing, and its word and hash are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import gt

from .combin import is_dyck_word

__all__ = [
    "Diagram",
    "MulResult",
    "is_planar_pairing",
    "identity",
    "generator_u",
    "multiply",
    "from_dyck",
    "enumerate_diagrams",
    "dyck_lex_index",
]

# Byte 1 where a point's partner comes later in the sweep, 0 where earlier.
_WORD_LETTERS = bytes.maketrans(b"\x00\x01", b"du")


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


class Diagram:
    """A planar diagram: a fixed-point-free noncrossing involution on
    the 2n boundary points.

    Immutable and hashable; ``pairing[p]`` is the 0-indexed partner of
    the 0-indexed point p.  Only ``n`` and the pairing are stored; the
    Dyck word and the hash are read off the pairing.
    """

    __slots__ = ("n", "pairing")

    def __init__(self, pairing: tuple[int, ...]):
        pairing = tuple(pairing)
        if not is_planar_pairing(pairing):
            raise ValueError("pairing must be a noncrossing fixed-point-free involution")
        self.n = len(pairing) // 2
        self.pairing = pairing

    @classmethod
    def _trusted(cls, n: int, pairing: tuple[int, ...]) -> "Diagram":
        """Construction bypass for pairings already known to be valid."""
        self = cls.__new__(cls)
        self.n = n
        self.pairing = pairing
        return self

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Diagram":
        """Build a diagram from 1-based matched point pairs.  Raises
        ValueError, before building anything, unless the pairs name each
        point of 1..2n exactly once."""
        pairs = list(pairs)
        if sorted(p for pair in pairs for p in pair) != list(range(1, 2 * n + 1)):
            raise ValueError(f"pairs must name each point of 1..{2 * n} exactly once")
        pairing = [0] * (2 * n)
        for a, b in pairs:
            pairing[a - 1] = b - 1
            pairing[b - 1] = a - 1
        return cls(tuple(pairing))

    @property
    def word(self) -> str:
        """The Dyck word: u where the partner comes later in the sweep,
        d where it came earlier."""
        pairing = self.pairing
        return bytes(map(gt, pairing, range(len(pairing)))).translate(_WORD_LETTERS).decode()

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The matched point pairs, 1-based, each (low, high), sorted."""
        return tuple(
            (p + 1, q + 1) for p, q in enumerate(self.pairing) if q > p
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.pairing == other.pairing

    def __hash__(self) -> int:
        # A tuple of ints hashes the same under every PYTHONHASHSEED.
        return hash(self.pairing)

    def __str__(self) -> str:
        return self.word

    def __repr__(self) -> str:
        return f"from_dyck({self.word!r})"


@dataclass(frozen=True)
class MulResult:
    """A diagram product: the resulting diagram and the number of closed
    loops that were erased."""

    diagram: Diagram
    loops: int


@cache
def identity(n: int) -> Diagram:
    """The diagram joining right dot i to left dot i for every i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = 2 * n
    pairing = tuple(size - 1 - p for p in range(size))
    return Diagram._trusted(n, pairing)


def generator_u(n: int, i: int) -> Diagram:
    """The cup generator U_i: cups joining dots i, i+1 on both sides,
    all other strands horizontal."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must lie in 1..{n - 1}, got {i}")
    size = 2 * n
    pairing = list(size - 1 - p for p in range(size))
    a, b = i - 1, i                    # right dots i, i+1
    c, d = size - i, size - i - 1      # left dots i, i+1
    pairing[a], pairing[b] = b, a
    pairing[c], pairing[d] = d, c
    return Diagram._trusted(n, tuple(pairing))


def multiply(x: Diagram, y: Diagram) -> MulResult:
    """Glue x's right dots to y's left dots (x drawn on the left) and
    trace the strands through the wall.

    Closed components that live entirely in the wall are erased and
    counted.  The result keeps x's left dots as its left boundary and
    y's right dots as its right boundary, in the same numbering.
    """
    if x.n != y.n:
        raise ValueError(f"strand-count mismatch: {x.n} != {y.n}")
    n = x.n
    size = 2 * n
    xp, yp = x.pairing, y.pairing
    res = [0] * size
    seen_x = [False] * size
    seen_y = [False] * size
    # Outer points of the product: y points 0..n-1 become the product's
    # right dots, x points n..2n-1 its left dots.  Wall rule: x right
    # dot p (0-indexed) meets y left dot at point 2n-1-p and vice versa.
    for side0, start in [(1, p) for p in range(n)] + [(0, p) for p in range(n, size)]:
        if seen_y[start] if side0 else seen_x[start]:
            continue
        side, p = side0, start
        while True:
            if side:
                seen_y[p] = True
                q = yp[p]
                seen_y[q] = True
                if q < n:
                    end = q
                    break
                side, p = 0, size - 1 - q
            else:
                seen_x[p] = True
                q = xp[p]
                seen_x[q] = True
                if q >= n:
                    end = q
                    break
                side, p = 1, size - 1 - q
        res[start] = end
        res[end] = start
    loops = 0
    for p0 in range(n):
        if seen_x[p0]:
            continue
        loops += 1
        side, p = 0, p0
        while not (seen_y[p] if side else seen_x[p]):
            if side:
                seen_y[p] = True
                q = yp[p]
                seen_y[q] = True
                side, p = 0, size - 1 - q
            else:
                seen_x[p] = True
                q = xp[p]
                seen_x[q] = True
                side, p = 1, size - 1 - q
    return MulResult(Diagram._trusted(n, tuple(res)), loops)


def from_dyck(word: str) -> Diagram:
    """The diagram whose arcs match each d with its unmatched u."""
    if not is_dyck_word(word):
        raise ValueError(f"not a Dyck word: {word!r}")
    size = len(word)
    pairing = [0] * size
    stack: list[int] = []
    for p, ch in enumerate(word):
        if ch == "u":
            stack.append(p)
        else:
            q = stack.pop()
            pairing[p] = q
            pairing[q] = p
    return Diagram._trusted(size // 2, tuple(pairing))


@cache
def enumerate_diagrams(n: int) -> tuple[Diagram, ...]:
    """All diagrams on n strands in Dyck-lex order (u < d), from one
    depth-first walk over pairings: each point opens an arc (tried first)
    or closes the last one opened; once all n are open, the rest close."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Diagram] = []
    pairing = [0] * (2 * n)
    stack: list[int] = []  # open points, the last one opened on top
    trusted = Diagram._trusted

    def walk(p: int, opened: int) -> None:
        if opened == n:
            for r, q in enumerate(reversed(stack), p):
                pairing[r] = q
                pairing[q] = r
            out.append(trusted(n, tuple(pairing)))
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


@cache
def dyck_lex_index(n: int) -> dict[Diagram, int]:
    """Position of every diagram on n strands in the Dyck-lex list."""
    return {d: k for k, d in enumerate(enumerate_diagrams(n))}
