"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  All arithmetic
is exact, so every comparison below is equality, tolerance zero.
"""

from fractions import Fraction
from functools import cache

from planartl.algebra import AlgebraElement, augment, braiding_s, braiding_s_inv, elt_mul
from planartl.chains import (
    chain_basis,
    differential,
    euler_characteristic,
    homology_ranks,
)
from planartl.coeff import CONVENTION_A, CONVENTION_B, LOOP_FACTOR
from planartl.combin import (
    catalan,
    count_N,
    descending_opposite_parity_sequences,
    dyck_words,
    fine,
    fine_by_alternating_binomials,
    fine_by_enumeration,
    first_peak_count_B,
    first_peak_count_by_enumeration,
    jacobsthal_number,
    syt_count,
    theorem_C_multiplicity,
    two_column_partitions,
)
from planartl.diagram import enumerate_pairings, from_dyck, from_pairs, word_of_pairing
from planartl.indmod import black_box_basis
from planartl.jacobsthal import (
    MATCHING_RATIO_SIGN,
    jacobsthal_element,
    jacobsthal_kernel_rank,
    verify_theorem_D,
)
from oracles import compositions_ending_odd, point_ranks

CONVENTIONS = (CONVENTION_A, CONVENTION_B)
POINTS = (Fraction(2), Fraction(3))


def report(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:02d}: {description}")
    assert passed, f"criterion {number:02d} failed: {description}"


@cache
def cached_ranks(n: int, tag: str):
    conv = CONVENTION_A if tag == "A" else CONVENTION_B
    return homology_ranks(n, conv)


def test_criterion_01_relations_suite():
    ok = True
    for n in range(1, 9):
        for i in range(1, n):
            u_i = AlgebraElement.generator(n, i)
            ok &= elt_mul(u_i, u_i) == u_i.scale(LOOP_FACTOR)
            for j in range(1, n):
                u_j = AlgebraElement.generator(n, j)
                if abs(i - j) >= 2:
                    ok &= elt_mul(u_i, u_j) == elt_mul(u_j, u_i)
                elif abs(i - j) == 1:
                    ok &= elt_mul(elt_mul(u_i, u_j), u_i) == u_i
        for conv in CONVENTIONS:
            one = AlgebraElement.one(n)
            for i in range(1, n):
                s_i = braiding_s(n, i, conv)
                ok &= elt_mul(s_i, braiding_s_inv(n, i, conv)) == one
                ok &= augment(s_i) == conv.lam
                for j in range(1, n):
                    s_j = braiding_s(n, j, conv)
                    if abs(i - j) == 1:
                        ok &= elt_mul(elt_mul(s_i, s_j), s_i) == elt_mul(
                            elt_mul(s_j, s_i), s_j
                        )
                    elif i != j:
                        ok &= elt_mul(s_i, s_j) == elt_mul(s_j, s_i)
    report(1, "cup and braid relations hold symbolically, n <= 8, both conventions", ok)


def test_criterion_02_basis_counts():
    ok = len(enumerate_pairings(10)) == catalan(10) == 16796
    for n in range(11):
        ok &= len(enumerate_pairings(n)) == catalan(n) == len(dyck_words(n))
        for m in range(n + 1):
            expected = first_peak_count_B(n, m)
            ok &= len(black_box_basis(n, m)) == expected
            ok &= first_peak_count_by_enumeration(n, m) == expected
    report(2, "diagram and black box basis counts match the closed forms, n <= 10", ok)


def test_criterion_03_bijection_round_trip():
    ok = True
    for n in range(9):
        for diagram in enumerate_pairings(n):
            ok &= from_dyck(word_of_pairing(diagram)) == diagram
        for word in dyck_words(n):
            ok &= word_of_pairing(from_dyck(word)) == word
    sample = from_pairs(4, [(1, 8), (2, 5), (3, 4), (6, 7)])
    ok &= word_of_pairing(sample) == "uuuddudd" and from_dyck("uuuddudd") == sample
    report(3, "Dyck bijection round trips on all diagrams, n <= 8, worked example included", ok)


def test_criterion_04_chain_complex_integrity():
    ok = True
    for conv in CONVENTIONS:
        for n in range(1, 9):
            for i in range(n - 1):
                ok &= differential(n, i, conv).compose(differential(n, i + 1, conv)).nnz() == 0
    report(4, "d o d = 0 symbolically, n <= 8, both conventions", ok)


def test_criterion_05_euler_characteristic():
    ok = fine(3) == 2 == fine_by_enumeration(3)
    for n in range(1, 13):
        chi = euler_characteristic(n)
        ok &= chi == (-1) ** (n - 1) * fine_by_enumeration(n)
    report(5, "Euler characteristic equals the signed Fine number, n <= 12", ok)


def test_criterion_06_vanishing_and_fineberg_rank():
    ok = True
    for tag in ("A", "B"):
        for n in range(1, 9):
            _, homology = cached_ranks(n, tag)
            ok &= all(homology[d] == 0 for d in range(-1, n - 1))
            ok &= homology[n - 1] == fine(n)
    report(6, "homology vanishes below the top and the top rank is the Fine number, certified, n <= 8", ok)


def test_criterion_07_hopf_trace():
    ok = True
    for tag in ("A", "B"):
        for n in range(1, 9):
            conv = CONVENTION_A if tag == "A" else CONVENTION_B
            chain_sum = sum(
                (-1 if i % 2 else 1) * len(chain_basis(n, i)) for i in range(-1, n)
            )
            for point in POINTS:
                ranks = dict(enumerate(point_ranks(n, conv, point)))
                homology_sum = 0
                for d in range(-1, n):
                    h = len(chain_basis(n, d)) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                    homology_sum += (-1 if d % 2 else 1) * h
                ok &= chain_sum == homology_sum
    report(7, "alternating chain and homology rank sums agree at every point, n <= 8", ok)


def test_criterion_08_alternating_sum_identity():
    ok = True
    for n in range(1, 13):
        alternating = sum(
            (-1) ** m * first_peak_count_B(n, m) for m in range(n + 1)
        )
        ok &= alternating == fine(n)
        if n <= 8:
            ok &= alternating == cached_ranks(n, "A")[1][n - 1]
    report(8, "top homology rank equals the alternating first-peak sum, n <= 12", ok)


def test_criterion_09_alternating_binomial_formula():
    ok = True
    for n in range(21):
        ok &= fine_by_alternating_binomials(n) == sum(
            (-1) ** m * first_peak_count_B(n, m) for m in range(n + 1)
        )
        if n <= 12:
            ok &= fine_by_alternating_binomials(n) == fine_by_enumeration(n)
    report(9, "the alternating binomial sum reproduces the Fine numbers exactly, n <= 20", ok)


def test_criterion_10_tableau_multiplicities():
    shapes4 = two_column_partitions(4)
    values4 = [theorem_C_multiplicity(s) for s in shapes4]
    ok = values4 == [1, 1, 1]
    ok &= sum(m * syt_count(s) for m, s in zip(values4, shapes4)) == fine(4) == 6
    for n in range(1, 15):
        total = 0
        for shape in two_column_partitions(n):
            m_shape = theorem_C_multiplicity(shape)
            alternating = sum((-1) ** k * count_N(shape, k) for k in range(n + 1))
            ok &= m_shape == alternating
            total += m_shape * syt_count(shape)
        ok &= total == fine(n)
    report(10, "odd-top tableau counts match the alternating N sums and weight to Fine numbers, n <= 14", ok)


def test_criterion_11_induction_shadow():
    ok = True
    for n in range(1, 13):
        for m in range(n + 1):
            weighted = sum(
                count_N(shape, m) * syt_count(shape)
                for shape in two_column_partitions(n)
            )
            ok &= weighted == first_peak_count_B(n, m)
    report(11, "first-peak counts decompose as N-weighted tableau counts, n <= 12", ok)


def test_criterion_12_boundary_jacobsthal_match():
    ok = True
    signs_seen = set()
    for conv in CONVENTIONS:
        for n in range(1, 9):
            signs = [sign for sign, found in verify_theorem_D(n, conv).items() if not found]
            if n == 1:
                ok &= MATCHING_RATIO_SIGN in signs  # ratio unused in degree 0
            else:
                ok &= len(signs) == 1
                signs_seen.update(signs)
    ok &= signs_seen == {MATCHING_RATIO_SIGN}
    for n in range(1, 13):
        for l in range(1, n + 1):
            jelt = jacobsthal_element(n, l, CONVENTION_A)
            ok &= jelt.term_count == jacobsthal_number(l)
            ok &= len(jelt.element.terms) == jelt.term_count
    ok &= set(compositions_ending_odd(4)) == {
        (3, 1), (1, 3), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1),
    }
    report(12, "one ratio sign matches every boundary map and term counts are Jacobsthal, n <= 8", ok)


def test_criterion_13_kernel_rank_of_top_element():
    ok = True
    for conv in CONVENTIONS:
        for n in range(1, 9):
            kernel_rank = jacobsthal_kernel_rank(n, conv)
            ok &= kernel_rank == fine(n)
            ok &= kernel_rank == cached_ranks(n, conv.tag)[1][n - 1]
    report(13, "kernel rank of the top element equals the Fine number and the top homology rank, n <= 8", ok)


def test_criterion_14_jacobsthal_four_ways():
    ok = True
    for n in range(1, 21):
        value = jacobsthal_number(n)  # internally asserts all four routes
        ok &= value == (2**n - (-1) ** n) // 3
        if n <= 14:
            ok &= len(compositions_ending_odd(n)) == value
            ok &= len(descending_opposite_parity_sequences(n)) == value
        if n >= 3:
            ok &= value == jacobsthal_number(n - 1) + 2 * jacobsthal_number(n - 2)
    report(14, "the four Jacobsthal characterizations agree, n <= 20", ok)
