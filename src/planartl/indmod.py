"""Induced modules realized as diagrams with a black box.

For 0 <= m <= n, the module induced from the rank-one trivial module of
the m-strand subalgebra has a diagram basis: the diagrams on n strands
with no arc joining two of the right dots 1..m (the box).  Under the
Dyck bijection these are exactly the words that start with m u's, so a
basis is obtained by filtering the full Dyck-lex diagram list by prefix.

A diagram product that lands on a banned diagram (an arc inside the
box) is identified with 0; that rule makes the span a left module.  The
action is the algebra product followed by that projection, and
:meth:`BlackBoxBasis.project` is the one place the projection is made.
"""

from __future__ import annotations

from functools import cache

from .algebra import AlgebraElement, elt_mul
from .coeff import LaurentPoly
from .diagram import Diagram, enumerate_diagrams

__all__ = [
    "BlackBoxBasis",
    "ModuleVector",
    "has_cup_in_box",
    "black_box_basis",
    "act",
    "quotient_project",
]


def has_cup_in_box(d: Diagram, m: int) -> bool:
    """True when some arc joins two of the right dots 1..m."""
    pairing = d.pairing
    return any(pairing[p] < m for p in range(min(m, 2 * d.n)))


class BlackBoxBasis:
    """The ordered diagram basis of the size-m black box module on n
    strands, in Dyck-lex order."""

    __slots__ = ("n", "m", "diagrams", "index")

    def __init__(self, n: int, m: int, diagrams: tuple[Diagram, ...]):
        self.n = n
        self.m = m
        self.diagrams = diagrams
        self.index = {d: k for k, d in enumerate(diagrams)}

    def __len__(self) -> int:
        return len(self.diagrams)

    def project(self, x: AlgebraElement) -> dict[int, LaurentPoly]:
        """Coordinates of x's image in this module: the coefficient of
        each basis diagram, every diagram with an arc inside the box
        dropped."""
        index = self.index
        coords: dict[int, LaurentPoly] = {}
        for d, c in x.terms.items():
            k = index.get(d)
            if k is not None:
                coords[k] = c
        return coords

    def __repr__(self) -> str:
        return f"BlackBoxBasis(n={self.n}, m={self.m}, size={len(self.diagrams)})"


@cache
def black_box_basis(n: int, m: int) -> BlackBoxBasis:
    """All diagrams on n strands with no arc inside the size-m box,
    equivalently those whose Dyck word starts with m u's."""
    if not 0 <= m <= n:
        raise ValueError(f"box size must lie in 0..{n}, got {m}")
    prefix = "u" * m
    diagrams = tuple(
        d for d in enumerate_diagrams(n) if d.word.startswith(prefix)
    )
    return BlackBoxBasis(n, m, diagrams)


class ModuleVector:
    """A vector in a black box module, stored as sparse coordinates over
    the basis (no zero coordinates)."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: BlackBoxBasis, coords: dict[int, LaurentPoly] | None = None):
        self.basis = basis
        self.coords = {k: c for k, c in (coords or {}).items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.basis is other.basis and self.coords == other.coords

    def to_element(self) -> AlgebraElement:
        """The underlying combination of basis diagrams in the ambient
        algebra."""
        return AlgebraElement(
            self.basis.n,
            {self.basis.diagrams[k]: c for k, c in self.coords.items()},
        )

    def __repr__(self) -> str:
        return f"ModuleVector({self.basis!r}, {self.to_element().to_text()})"


def quotient_project(x: AlgebraElement, m: int) -> ModuleVector:
    """Image of x in the size-m black box module: terms whose diagram has
    an arc inside the box are dropped."""
    if not 0 <= m <= x.n:
        raise ValueError(f"box size must lie in 0..{x.n}, got {m}")
    basis = black_box_basis(x.n, m)
    return ModuleVector(basis, basis.project(x))


def act(x: AlgebraElement, vec: ModuleVector) -> ModuleVector:
    """The left action: multiply in the algebra (erased loops still
    weigh v + v^-1), then kill every diagram with an arc inside the box."""
    basis = vec.basis
    return ModuleVector(basis, basis.project(elt_mul(x, vec.to_element())))
