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
truth and the element formula is the hypothesis under test.  With the
matching sign, -1 for every n and both conventions, the two are equal
as algebra elements, so they are compared as elements; matrices are
assembled only at a degree where the elements differ.  The top
element's kernel rank follows the same rule: where the top elements are
equal, it reads the complex's rank of d^{n-1} instead of ranking a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement
from .chains import (
    DEFAULT_POINTS,
    agreed_ranks,
    boundary_element,
    build_complex,
    right_mult_columns_at,
    right_mult_matrix,
    specialization_points,
)
from .coeff import Convention, mu_over_lambda
from .combin import descending_opposite_parity_sequences, jacobsthal_number
from .diagram import generator_u, identity, multiply
from .linalg import rank_of_int_columns

__all__ = [
    "MATCHING_RATIO_SIGN",
    "JacobsthalElement",
    "jacobsthal_element",
    "DegreeComparison",
    "TheoremDReport",
    "verify_theorem_D",
    "jacobsthal_kernel_rank",
]

#: The ratio sign under which right multiplication by the elements
#: reproduces the boundary matrices (verified by verify_theorem_D).
MATCHING_RATIO_SIGN = -1


@dataclass(frozen=True)
class JacobsthalElement:
    """One Jacobsthal element together with its bookkeeping: the strand
    count, the index l, the ratio sign used, and the monomial count
    (which equals the Jacobsthal number J_l)."""

    n: int
    l: int
    ratio_sign: int
    element: AlgebraElement
    term_count: int


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
        d = identity(n)
        for a in seq:
            d, loops = multiply(d, generator_u(n, a + n - l))
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


@dataclass(frozen=True)
class DegreeComparison:
    """Outcome of comparing d^i with right multiplication by the
    (i+1)-st Jacobsthal element for one ratio sign."""

    degree: int
    ratio_sign: int
    matches: bool
    first_mismatch: tuple[int, int, str, str] | None


@dataclass(frozen=True)
class TheoremDReport:
    """Comparison of the boundary maps with the Jacobsthal right
    multiplications: every degree for the matching sign, up to the first
    mismatch for the other."""

    n: int
    convention_tag: str
    comparisons: tuple[DegreeComparison, ...]

    def signs_matching_all_degrees(self) -> tuple[int, ...]:
        out = []
        for sign in (1, -1):
            if all(c.matches for c in self.comparisons if c.ratio_sign == sign):
                out.append(sign)
        return tuple(out)

    @property
    def passes(self) -> bool:
        """True when the expected sign matches in every degree and, for
        n >= 2, is the only sign that does.  (At n = 1 the ratio never
        appears, so both signs match vacuously.)"""
        signs = self.signs_matching_all_degrees()
        if self.n == 1:
            return MATCHING_RATIO_SIGN in signs
        return signs == (MATCHING_RATIO_SIGN,)


def _is_boundary(jelt: JacobsthalElement, cx) -> bool:
    """Whether the l-th element equals boundary_element(n, l-1, c), so
    that its matrix is d^{l-1} of cx."""
    return jelt.element == boundary_element(cx.n, jelt.l - 1, cx.convention)


def verify_theorem_D(n: int, c: Convention) -> TheoremDReport:
    """Compare each boundary map d^i of W(n) with right multiplication by
    the (i+1)-st Jacobsthal element, for both ratio signs.  Equal elements
    match; where they differ, the two matrices are compared after
    projection and the first differing entry is recorded (never raised).
    The opposite sign stops at its first mismatch."""
    cx = build_complex(n, c)
    comparisons: list[DegreeComparison] = []
    for sign in (1, -1):
        for i in range(n):
            jelt = jacobsthal_element(n, i + 1, c, sign)
            mismatch = None
            if not _is_boundary(jelt, cx):
                got = right_mult_matrix(jelt.element, cx.bases[i], cx.bases[i - 1])
                diff = cx.differential(i).first_difference(got)
                if diff is not None:
                    mismatch = (diff[0], diff[1], diff[2].to_text(), diff[3].to_text())
            comparisons.append(
                DegreeComparison(
                    degree=i, ratio_sign=sign, matches=mismatch is None, first_mismatch=mismatch
                )
            )
            if mismatch is not None and sign != MATCHING_RATIO_SIGN:
                break
    return TheoremDReport(n=n, convention_tag=c.tag, comparisons=tuple(comparisons))


def jacobsthal_kernel_rank(n: int, c: Convention, points=DEFAULT_POINTS) -> int:
    """Exact kernel rank of right multiplication by the top Jacobsthal
    element on the full diagram algebra, at the given points.

    This is the top boundary map under the standard identifications, so
    the kernel rank is the rank of the top homology module; the points
    must agree on the rank (see :func:`agreed_ranks`).  Where the element
    equals the top boundary element this is ``cx.boundary_rank(n - 1, p)``;
    elsewhere its own map into degree n-2 (box size 1, all of C_n) is
    ranked at each point from :func:`right_mult_columns_at`, as the
    complex ranks its boundary maps.
    """
    pts = specialization_points(points)
    cx = build_complex(n, c)
    jelt = jacobsthal_element(n, n, c, MATCHING_RATIO_SIGN)
    if _is_boundary(jelt, cx):
        ranks = {p: cx.boundary_rank(n - 1, p) for p in pts}
    else:
        source, target = cx.bases[n - 1], cx.bases[n - 2]
        ranks = {
            p: rank_of_int_columns(right_mult_columns_at(jelt.element, source, target, p))
            for p in pts
        }
    return cx.chain_rank(n - 1) - agreed_ranks(ranks)
