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
are right multiplications followed by the same projection, and the
element on n strands, like the boundary element, is the image of the
one on l strands under the embedding that adds through strands.  So
Theorem D is decided once per l, as an identity of elements in TL_l
(:func:`theorem_D_mismatch`), and read at every n >= l: no matrix, no
projection and no Dyck-lex index is built.  Equal elements give equal
maps, so this is stronger than comparing the maps.  The matching sign
is -1 at every l checked, in both conventions.  The top element's kernel rank
follows the same rule: where the identity holds at l = n the map is
d^{n-1}, and its kernel rank is the top homology rank of
:func:`~planartl.chains.homology_ranks`, read off the exactness
certificate; where the identity fails, that is a Theorem D failure, not
a second map to rank, and it raises.  Each descending product is built
from the identity by the cup rule :func:`~planartl.diagram.cup_times`,
one generator at a time from the right, and no diagram product is
walked.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .algebra import AlgebraElement
from .chains import boundary_element, homology_ranks
from .coeff import Convention, LaurentPoly, mu_over_lambda
from .combin import descending_opposite_parity_sequences, dyck_lex_key, jacobsthal_number
from .diagram import cup_times, identity, word_of_pairing

__all__ = [
    "MATCHING_RATIO_SIGN",
    "JacobsthalElement",
    "jacobsthal_element",
    "theorem_D_mismatch",
    "verify_theorem_D",
    "jacobsthal_kernel_rank",
]

#: The ratio sign under which right multiplication by the elements
#: reproduces the boundary matrices (verified by verify_theorem_D).
MATCHING_RATIO_SIGN = -1


class JacobsthalElement(namedtuple("JacobsthalElement", "element term_count")):
    """One Jacobsthal element and its monomial count, which equals the
    Jacobsthal number J_l."""

    __slots__ = ()


def jacobsthal_element(
    n: int, l: int, c: Convention, ratio_sign: int = MATCHING_RATIO_SIGN
) -> JacobsthalElement:
    """The l-th Jacobsthal element on n strands with rho = ratio_sign * mu/lam."""
    if not 0 <= l <= n:
        raise ValueError(f"l must lie in 0..{n}, got {l}")
    if ratio_sign not in (1, -1):
        raise ValueError("ratio_sign must be +1 or -1")
    rho = mu_over_lambda(c) * LaurentPoly.constant(ratio_sign)
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
    # Each term is a cup_times product of the identity, its coefficient
    # +-rho^r is no zero, and the check above keeps the keys distinct.
    elt = AlgebraElement._trusted(n, terms)
    count = len(seqs)
    if l >= 1 and count != jacobsthal_number(l):
        raise RuntimeError(f"term count {count} differs from J_{l}")
    return JacobsthalElement(element=elt, term_count=count)


@cache
def theorem_D_mismatch(l: int, c: Convention, ratio_sign: int) -> tuple[str, str, str] | None:
    """None where ``boundary_element(l, l - 1, c)`` equals the l-th
    Jacobsthal element on l strands with this ratio sign, as elements of
    TL_l; otherwise their first differing term in Dyck-lex order, as
    (word, boundary coefficient text, element coefficient text).  Cached,
    since the checks read it at every n >= l.

    Both elements on n >= l strands are the images of these under the
    embedding of TL_l that adds through strands (see
    :func:`~planartl.chains.boundary_composite_vanishes`), which is
    injective on the diagram bases: so the elements on n strands are
    equal exactly where these are, and then d^(l-1) of W(n) and right
    multiplication by the Jacobsthal element, each followed by the same
    projection, are one map.  The converse fails where the projection
    kills the difference, so this identity is the stronger one.
    """
    boundary = boundary_element(l, l - 1, c)
    element = jacobsthal_element(l, l, c, ratio_sign).element
    if boundary == element:
        return None
    d = min((boundary - element).terms, key=lambda d: dyck_lex_key(word_of_pairing(d)))
    zero = LaurentPoly.zero()
    return word_of_pairing(d), boundary.terms.get(d, zero).to_text(), element.terms.get(d, zero).to_text()


def verify_theorem_D(n: int, c: Convention) -> dict[int, dict[int, tuple[str, str, str]]]:
    """Compare each boundary map d^i of W(n) with right multiplication by
    the (i+1)-st Jacobsthal element, for both ratio signs, as the element
    identities :func:`theorem_D_mismatch` decides on i+1 strands.

    Returns ``{sign: {degree: mismatch}}`` for the signs +1 and -1, in
    that order, where a mismatch is the first differing term as
    ``(word, boundary text, element text)``; a sign whose dict is empty
    matches in every degree.  Mismatches are recorded, never raised.
    The opposite sign stops at its first mismatch."""
    mismatches: dict[int, dict[int, tuple[str, str, str]]] = {}
    for sign in (1, -1):
        found = mismatches[sign] = {}
        for l in range(1, n + 1):
            if (mismatch := theorem_D_mismatch(l, c, sign)) is not None:
                found[l - 1] = mismatch
                if sign != MATCHING_RATIO_SIGN:
                    break
    return mismatches


def jacobsthal_kernel_rank(n: int, c: Convention) -> int:
    """Exact kernel rank of right multiplication by the top Jacobsthal
    element on the full diagram algebra.

    This is the top boundary map under the standard identifications, so
    the kernel rank is the rank of the top homology module.  Where the
    top Jacobsthal element and ``boundary_element(n, n - 1, c)`` differ
    (:func:`theorem_D_mismatch` at l = n) RuntimeError is raised before
    anything is ranked.  Where they are equal the map is d^(n-1), and
    its kernel rank is the top homology rank that
    :func:`~planartl.chains.homology_ranks` reads off the exactness
    certificate, c_(n-1) - r_(n-1); where the certificate fails, that
    raises RuntimeError too.
    """
    if theorem_D_mismatch(n, c, MATCHING_RATIO_SIGN) is not None:
        raise RuntimeError("the top Jacobsthal map and d^{n-1} differ")
    return homology_ranks(n, c)[1][n - 1]
