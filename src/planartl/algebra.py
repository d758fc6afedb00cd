"""The diagram algebra on n strands over Z[v, v^-1]: sparse Laurent
weighted combinations of planar diagrams, each diagram its pairing
tuple (see :mod:`planartl.diagram`), with a = v + v^-1 as the weight of
every erased loop.

The diagram basis is the source of truth; the familiar presentation by
the U_i and their relations is exercised by the test suite rather than
used as a rewriting system.

Every element sum and product accumulates by one rule,
:meth:`AlgebraElement._sum`; only :func:`planartl.chains.right_mult_matrix`
stays apart, as it moves matrix rows through caches keyed by the
entries themselves, one object per Laurent value.

Two routes multiply here.  :func:`elt_mul` glues diagrams with
:func:`planartl.diagram.multiply`, one call per pair of terms; it serves
the one-off products (the ``mul`` command, the relation and braid
checks) at any n, and it is the oracle that the tables below, and the
element products of :mod:`planartl.chains` (one braiding factor at a
time on the right, by the right cup rule), are tested against.
:func:`generator_tables` records, once per n, left multiplication by
each cup generator U_j as a map on Dyck-lex positions, together with a
loop-free parent (y, j) for every diagram but the identity: the diagram
is U_j times diagram y.  A box projection kills a left ideal, so the
matrix column for U_j y is U_j acting on the column for y; that is how
:func:`planartl.chains.right_mult_matrix` assembles every boundary
matrix.  The tables come from the cup
rule :func:`planartl.diagram.cup_times`, not from the general product:
(n-1) * C_n constant-time steps on pairing tuples, each followed by one
lookup in the tuple-keyed Dyck-lex index.  The cup rule returns the
diagram itself exactly when U_j closes a loop, so the tables record no
loop count: U_j closes one on diagram k exactly where it fixes k.
``elt_mul`` still does not use the tables: at n = 12 they would cost
about 2.3 million of those steps for what is often a single product.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cache

from .coeff import LOOP_FACTOR, Convention, LaurentPoly
from .combin import dyck_lex_key, first_peak_count_B
from .diagram import (
    cup_times,
    dyck_lex_index,
    enumerate_pairings,
    generator_u,
    identity,
    is_planar_pairing,
    multiply,
    word_of_pairing,
)

__all__ = [
    "AlgebraElement",
    "elt_mul",
    "GeneratorTables",
    "generator_tables",
    "augment",
    "braiding_s",
    "braiding_s_inv",
]

_ONE = LaurentPoly.one()
_EMPTY_WORD = '""'


class AlgebraElement:
    """A finite Laurent-weighted combination of diagrams on n strands,
    keyed by their pairing tuples.

    Canonical form: no zero coefficients are stored.  Elements are
    immutable, unhashable values.  The constructor raises ValueError on
    a term that is no planar pairing on n strands; every other result is
    built from terms already checked, by :meth:`_trusted` or :meth:`_sum`.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], LaurentPoly] | None = None):
        clean: dict[tuple[int, ...], LaurentPoly] = {}
        if terms:
            for d, c in terms.items():
                if not (isinstance(d, tuple) and len(d) == 2 * n and is_planar_pairing(d)):
                    raise ValueError(f"{d!r} is no planar pairing on {n} strands")
                if c:
                    clean[d] = c
        self.n = n
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        return cls(n, {identity(n): _ONE})

    @classmethod
    def from_diagram(cls, d: tuple[int, ...]) -> "AlgebraElement":
        return cls(len(d) // 2, {d: _ONE})

    @classmethod
    def generator(cls, n: int, i: int) -> "AlgebraElement":
        return cls(n, {generator_u(n, i): _ONE})

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[int, ...], LaurentPoly]) -> "AlgebraElement":
        """An element on terms already checked, none of them zero."""
        out = cls.__new__(cls)
        out.n, out.terms = n, terms
        return out

    @classmethod
    def _sum(cls, n: int, terms: dict[tuple[int, ...], LaurentPoly], moves) -> "AlgebraElement":
        """The element on terms plus every (diagram, coefficient) pair of
        moves, all checked and nonzero.  Each move is added in place into
        terms, a dict the call owns, and a cancelled sum is deleted where
        it cancels: no zero is stored and no second dict is built."""
        for d, c in moves:
            w = terms.get(d)
            if w is None:
                terms[d] = c
            elif w := w + c:
                terms[d] = w
            else:
                del terms[d]
        return cls._trusted(n, terms)

    # -- linear structure ---------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"strand-count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._sum(self.n, dict(self.terms), other.terms.items())

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._trusted(self.n, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: LaurentPoly) -> "AlgebraElement":
        """Multiply every coefficient by the scalar c."""
        if not c:
            return AlgebraElement(self.n)
        return AlgebraElement._trusted(self.n, {d: c * w for d, w in self.terms.items()})

    # -- comparisons and inspection -------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def to_text(self) -> str:
        """Terms as '(coeff) * dyckword', in Dyck-lex order of the word;
        the empty word (n = 0) is written "", as the ``mul`` command
        takes it."""
        if not self.terms:
            return "0"
        words = {word_of_pairing(d): c for d, c in self.terms.items()}
        return " + ".join(
            f"({words[w].to_text()}) * {w or _EMPTY_WORD}" for w in sorted(words, key=dyck_lex_key)
        )

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, {self.to_text()})"


def elt_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product; every erased loop
    contributes a factor v + v^-1."""
    x._check(y)
    products = (
        (multiply(dx, dy), cx * cy) for dx, cx in x.terms.items() for dy, cy in y.terms.items()
    )
    return AlgebraElement._sum(x.n, {}, ((d, c * LOOP_FACTOR**loops) for (d, loops), c in products))


class GeneratorTables(namedtuple("GeneratorTables", "left parent order")):
    """Left multiplication by the cup generators on n strands, over the
    Dyck-lex positions of :func:`planartl.diagram.enumerate_pairings`,
    as :func:`generator_tables` builds it.

    ``left[j - 1][k]`` is the position of U_j times diagram k, up to the
    loop it may close: U_j closes one loop exactly where
    ``left[j - 1][k] == k``, and none elsewhere.  ``parent[k]`` is a
    pair (y, j) with U_j times diagram y equal to diagram k and no loop
    closed (None for the identity).  Left multiplication glues onto the
    left dots only, so an arc between two right dots of y stays one in
    U_j y: a parent lies in every box basis its child does, and the span
    a box projection kills is a left ideal.  ``order`` is the
    breadth-first walk out of the identity that found the parents,
    sorted stably by the smallest box basis holding each position.  So
    each position still comes after its parent, and every box basis
    range(B_m(n)) is the prefix ``order[:B_m(n)]``.  Every product is
    read off the cup rule :func:`planartl.diagram.cup_times` on pairing
    tuples and looked up in the tuple-keyed
    :func:`planartl.diagram.dyck_lex_index`; the general product
    :func:`planartl.diagram.multiply` is only the tests' oracle here.
    """

    __slots__ = ()


@cache
def generator_tables(n: int) -> GeneratorTables:
    """The generator tables on n strands, built on first use."""
    pairings = enumerate_pairings(n)
    index = dyck_lex_index(n)
    lefts = [tuple(index[cup_times(j, p)[0]] for p in pairings) for j in range(1, n)]
    # Breadth first out of the identity.  No product U_j y is the
    # identity, so a parent of None means unseen; a product that closes
    # a loop is y itself, already seen.
    parent: list[tuple[int, int] | None] = [None] * len(pairings)
    order = [index[identity(n)]]
    for y in order:
        for j in range(1, n):
            k = lefts[j - 1][y]
            if parent[k] is None:
                parent[k] = (y, j)
                order.append(k)
    if len(order) != len(pairings):
        raise RuntimeError("some diagram has no loop-free parent")
    sizes = sorted({first_peak_count_B(n, m) for m in range(n + 1)})
    order.sort(key=lambda k: bisect_right(sizes, k))
    return GeneratorTables(tuple(lefts), tuple(parent), tuple(order))


def augment(x: AlgebraElement) -> LaurentPoly:
    """The coefficient of the identity diagram: the action of x on the
    rank-one trivial module, where every other diagram acts as 0."""
    return x.terms.get(identity(x.n), LaurentPoly.zero())


def braiding_s(n: int, i: int, c: Convention) -> AlgebraElement:
    """The braiding element s_i = lam + mu * U_i."""
    return AlgebraElement(n, {identity(n): c.lam, generator_u(n, i): c.mu})


def braiding_s_inv(n: int, i: int, c: Convention) -> AlgebraElement:
    """The inverse braiding element s_i^-1 = lam^-1 + mu^-1 * U_i."""
    return AlgebraElement(
        n, {identity(n): c.lam.inverse(), generator_u(n, i): c.mu.inverse()}
    )
