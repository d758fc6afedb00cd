"""Induced modules realized as diagrams with a black box.

For 0 <= m <= n, the module induced from the rank-one trivial module of
the m-strand subalgebra has a diagram basis: the diagrams on n strands
with no arc joining two of the right dots 1..m (the box).  Under the
Dyck bijection these are exactly the words that start with m u's, and
since u < d they are the first B_m(n) (first-peak count) entries of the
full Dyck-lex list.  So every basis is a prefix of one list per n, and
is held as its range of positions in
:func:`planartl.diagram.enumerate_pairings`: its size is a closed form,
and only a caller that reads a basis diagram's pairing enumerates.

A diagram product that lands on a banned diagram (an arc inside the
box) is identified with 0; that rule makes the span a left module.  The
action is the algebra product followed by that projection, which keeps
an entry exactly when its Dyck-lex position is below B_m(n).  An
element's terms are pairing bytes, the very keys of the one per-n
:func:`planartl.diagram.dyck_lex_index`, so each is looked up as it
stands.
:func:`project` applies it to an algebra element, and the
boundary-matrix kernel in :mod:`planartl.chains` drops each row at or
past that position as the left action moves it there.
"""

from __future__ import annotations

from functools import cache

from .algebra import AlgebraElement
from .coeff import LaurentPoly
from .combin import first_peak_count_B
from .diagram import dyck_lex_index

__all__ = [
    "largest_free_box",
    "black_box_basis",
    "project",
]


def largest_free_box(pairing: bytes) -> int:
    """The largest box size m with no arc inside the box: the right dots
    0..m-1 (0-indexed) all pair outside it.  A box with an arc inside
    makes every larger box fail too, and the box of size n + 1 always
    does, so the answer is at most n."""
    low = len(pairing)
    for m, q in enumerate(pairing):
        if q < low:
            low = q
        if low <= m:
            return m
    return 0


@cache
def black_box_basis(n: int, m: int) -> range:
    """The basis of the size-m black box module on n strands: the
    diagrams with no arc inside the box, equivalently those whose Dyck
    word starts with m u's, as their positions 0..B_m(n)-1 in
    ``enumerate_pairings(n)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= m <= n:
        raise ValueError(f"box size must lie in 0..{n}, got {m}")
    return range(first_peak_count_B(n, m))


def project(x: AlgebraElement, basis: range) -> dict[int, LaurentPoly]:
    """Coordinates of x's image in the module with this basis, keyed by
    Dyck-lex position: the coefficient of each basis diagram, with every
    diagram that has an arc inside the box dropped."""
    index = dyck_lex_index(x.n)
    size = len(basis)
    coords = ((index[d], c) for d, c in x.terms.items())
    return {k: c for k, c in coords if k < size}
