"""Jacobsthal element tests: term structure, the boundary comparison
with its sign bookkeeping, and the kernel rank of the top element."""

from fractions import Fraction

import pytest

from planartl.algebra import AlgebraElement
from planartl.chains import build_complex, homology_ranks
from planartl.coeff import CONVENTION_A, CONVENTION_B, mu_over_lambda
from planartl.combin import descending_opposite_parity_sequences, fine, jacobsthal_number
from planartl.jacobsthal import (
    MATCHING_RATIO_SIGN,
    jacobsthal_element,
    jacobsthal_kernel_rank,
    verify_theorem_D,
)

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


def test_descending_sequences_counts():
    for l in range(1, 13):
        seqs = descending_opposite_parity_sequences(l)
        assert len(seqs) == jacobsthal_number(l)
        assert len(set(seqs)) == len(seqs)
        for seq in seqs:
            if not seq:
                assert l % 2 == 1
                continue
            assert l > seq[0] > 0
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert (l - seq[0]) % 2 == 1


def test_element_l1_is_identity():
    for conv in CONVENTIONS:
        for sign in (1, -1):
            jelt = jacobsthal_element(5, 1, conv, sign)
            assert jelt.element == AlgebraElement.one(5)
            assert jelt.term_count == 1


def test_element_l2_is_ratio_weighted_cup():
    for conv in CONVENTIONS:
        for sign in (1, -1):
            n = 5
            jelt = jacobsthal_element(n, 2, conv, sign)
            rho = mu_over_lambda(conv)
            if sign == -1:
                rho = -rho
            assert jelt.element == AlgebraElement.generator(n, n - 1).scale(rho)
            assert jelt.term_count == 1


def test_element_l0_is_zero():
    jelt = jacobsthal_element(4, 0, CONVENTION_A)
    assert jelt.element.is_zero
    assert jelt.term_count == 0


def test_term_counts_match_jacobsthal_numbers():
    for conv in CONVENTIONS:
        for n in range(1, 11):
            for l in range(1, n + 1):
                jelt = jacobsthal_element(n, l, conv)
                assert jelt.term_count == jacobsthal_number(l)
                # distinct descending sequences never collide as diagrams
                assert len(jelt.element.terms) == jelt.term_count


def test_element_validation():
    with pytest.raises(ValueError):
        jacobsthal_element(3, 4, CONVENTION_A)
    with pytest.raises(ValueError):
        jacobsthal_element(3, 2, CONVENTION_A, 0)


def test_theorem_D_small():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            report = verify_theorem_D(n, conv)
            assert report.passes
            signs = report.signs_matching_all_degrees()
            if n == 1:
                # the ratio never appears in degree 0, so both signs match
                assert signs == (1, -1)
            else:
                assert signs == (MATCHING_RATIO_SIGN,)


def test_theorem_D_records_mismatch_entries():
    report = verify_theorem_D(3, CONVENTION_A)
    wrong = [
        c
        for c in report.comparisons
        if c.ratio_sign != MATCHING_RATIO_SIGN and not c.matches
    ]
    assert wrong, "the opposite sign must fail somewhere for n >= 2"
    for comparison in wrong:
        row, col, left, right = comparison.first_mismatch
        assert left != right


def test_kernel_rank_equals_fine_number():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            assert jacobsthal_kernel_rank(n, conv) == fine(n)


def test_kernel_rank_matches_top_homology():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            report = homology_ranks(build_complex(n, conv))
            assert jacobsthal_kernel_rank(n, conv) == report.fineberg_rank


def test_kernel_rank_point_validation():
    with pytest.raises(ValueError):
        jacobsthal_kernel_rank(3, CONVENTION_A, (Fraction(2),))
