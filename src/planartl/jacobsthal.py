"""Jacobsthal elements and the boundary-map comparison.

The l-th Jacobsthal element on n strands is the signed sum

    sum over l > a_1 > ... > a_r > 0 with l - a_1 odd of
        (-1)^(r-1+l) * rho^r * U_{a_1+n-l} ... U_{a_r+n-l}

with the empty sequence admitted (contributing the constant 1) exactly
when l is odd.  Its monomials are indexed by the descending sequences
counted by the Jacobsthal number J_l, and distinct descending index
sequences give distinct diagrams, so the element has exactly J_l terms.

The ratio rho is sign * mu/lam.  The two readings of the boundary maps
differ precisely in this sign, so the comparison below records which
sign reproduces them; the descending-product definition is the ground
truth and the element formula is the hypothesis under test.  Both maps
are right multiplications followed by the same projection, so both are
left-module maps out of a cyclic left module on the identity diagram
(see :mod:`planartl.chains`), and each is fixed by its identity column:
the two maps are compared on that one column, at every degree and for
both signs, and no full matrix is assembled.  The matching sign is -1
for every n and both conventions.  The top element's kernel rank
follows the same rule: its identity column must equal that of d^{n-1},
and then the map is d^{n-1}, and its kernel rank is the top homology
rank of :func:`~planartl.chains.homology_ranks`, read with that
function's check that the points agree at every degree; a differing
column raises, since that is a Theorem D failure, not a second map to
rank.  Each descending product is built from the identity by the cup
rule :func:`~planartl.diagram.cup_times`, one generator at a time from
the right, and no diagram product is walked.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraElement
from .chains import DEFAULT_POINTS, boundary_element, chain_basis, homology_ranks, right_mult_matrix
from .coeff import Convention, mu_over_lambda
from .combin import descending_opposite_parity_sequences, jacobsthal_number
from .diagram import cup_times, identity
from .linalg import PolyMatrix

__all__ = [
    "MATCHING_RATIO_SIGN",
    "JacobsthalElement",
    "jacobsthal_element",
    "verify_theorem_D",
    "jacobsthal_kernel_rank",
]

#: The ratio sign under which right multiplication by the elements
#: reproduces the boundary matrices (verified by verify_theorem_D).
MATCHING_RATIO_SIGN = -1


class JacobsthalElement(namedtuple("JacobsthalElement", "n l ratio_sign element term_count")):
    """One Jacobsthal element together with its bookkeeping: the strand
    count, the index l, the ratio sign used, and the monomial count
    (which equals the Jacobsthal number J_l)."""

    __slots__ = ()


def jacobsthal_element(
    n: int, l: int, c: Convention, ratio_sign: int = MATCHING_RATIO_SIGN
) -> JacobsthalElement:
    """The l-th Jacobsthal element on n strands with rho = ratio_sign * mu/lam."""
    if not 0 <= l <= n:
        raise ValueError(f"l must lie in 0..{n}, got {l}")
    if ratio_sign not in (1, -1):
        raise ValueError("ratio_sign must be +1 or -1")
    rho = mu_over_lambda(c)
    if ratio_sign == -1:
        rho = -rho
    terms: dict = {}
    seqs = descending_opposite_parity_sequences(l)
    for seq in seqs:
        r = len(seq)
        coeff = rho**r
        if (r - 1 + l) % 2 == 1:
            coeff = -coeff
        # U_{a_1+n-l} ... U_{a_r+n-l}, built from the right by the cup rule
        d = identity(n)
        for a in reversed(seq):
            d, loops = cup_times(a + n - l, d)
            if loops:
                raise RuntimeError("descending cup products never close loops")
        if d in terms:
            raise RuntimeError("distinct descending sequences collided")
        terms[d] = coeff
    elt = AlgebraElement(n, terms)
    count = len(seqs)
    if l >= 1 and count != jacobsthal_number(l):
        raise RuntimeError(f"term count {count} differs from J_{l}")
    return JacobsthalElement(n=n, l=l, ratio_sign=ratio_sign, element=elt, term_count=count)


def _identity_columns(
    n: int, i: int, c: Convention, elt: AlgebraElement
) -> tuple[PolyMatrix, PolyMatrix]:
    """The identity columns of d^i and of x -> project(x * elt), from
    degree i to degree i-1: each map's one-column matrix on degree -1's
    basis, the identity diagram alone.  The maps are equal exactly when
    these are."""
    source, target = chain_basis(n, -1), chain_basis(n, i - 1)
    boundary = right_mult_matrix(boundary_element(n, i, c), source, target)
    return boundary, right_mult_matrix(elt, source, target)


def verify_theorem_D(n: int, c: Convention) -> dict[int, dict[int, tuple[int, int, str, str]]]:
    """Compare each boundary map d^i of W(n) with right multiplication by
    the (i+1)-st Jacobsthal element, for both ratio signs, on their
    identity columns.

    Returns ``{sign: {degree: mismatch}}`` for the signs +1 and -1, in
    that order, where a mismatch is the first differing row of the
    identity column as ``(row, 0, boundary text, element text)``; a sign
    whose dict is empty matches in every degree.  Mismatches are
    recorded, never raised.  The opposite sign stops at its first
    mismatch."""
    mismatches: dict[int, dict[int, tuple[int, int, str, str]]] = {}
    for sign in (1, -1):
        found = mismatches[sign] = {}
        for i in range(n):
            jelt = jacobsthal_element(n, i + 1, c, sign)
            boundary, got = _identity_columns(n, i, c, jelt.element)
            diff = boundary.first_difference(got)
            if diff is not None:
                found[i] = (diff[0], diff[1], diff[2].to_text(), diff[3].to_text())
                if sign != MATCHING_RATIO_SIGN:
                    break
    return mismatches


def jacobsthal_kernel_rank(n: int, c: Convention, points=DEFAULT_POINTS) -> int:
    """Exact kernel rank of right multiplication by the top Jacobsthal
    element on the full diagram algebra, at the given points.

    This is the top boundary map under the standard identifications, so
    the kernel rank is the rank of the top homology module.  The map and
    d^{n-1} are fixed by their identity columns; where those differ
    RuntimeError is raised before anything is ranked, and where they are
    equal the kernel rank is the top homology rank that
    :func:`~planartl.chains.homology_ranks` gives, with its check that
    the points agree.
    """
    jelt = jacobsthal_element(n, n, c, MATCHING_RATIO_SIGN)
    boundary, got = _identity_columns(n, n - 1, c, jelt.element)
    if boundary != got:
        raise RuntimeError("the top Jacobsthal map and d^{n-1} differ")
    return homology_ranks(n, c, points)[1][n - 1]
