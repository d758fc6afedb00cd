"""Combinatorics tests, each closed form checked against a brute-force
enumeration oracle."""

import re
from itertools import product
from math import factorial

import pytest

from planartl.combin import (
    Tableau,
    TwoColumnPartition,
    catalan,
    count_N,
    descending_opposite_parity_sequences,
    dyck_lex_key,
    dyck_words,
    enumerate_syt,
    fine,
    fine_by_alternating_binomials,
    fine_by_enumeration,
    fine_by_first_peaks,
    first_peak_count_B,
    first_peak_count_by_enumeration,
    first_peak_height,
    jacobsthal_number,
    syt_count,
    theorem_C_multiplicity,
    two_column_partitions,
)
from oracles import compositions_ending_odd


def is_dyck_word(word: str) -> bool:
    """Whether word is over {u, d}, never dips below height 0 and ends
    at height 0."""
    height = 0
    for ch in word:
        if ch == "u":
            height += 1
        elif ch == "d":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def hook_length_count(shape: TwoColumnPartition) -> int:
    """Independent oracle: the hook length formula on the two-column
    diagram (c2 rows of length 2 above c1 - c2 rows of length 1)."""
    rows = [2] * shape.c2 + [1] * (shape.c1 - shape.c2)
    product = 1
    for r, length in enumerate(rows):
        for col in range(length):
            arm = length - col - 1
            leg = sum(1 for below in rows[r + 1 :] if below > col)
            product *= arm + leg + 1
    return factorial(shape.n) // product


# ---------------------------------------------------------------------------
# Dyck machinery
# ---------------------------------------------------------------------------


def test_dyck_words_order_and_validity():
    words = dyck_words(3)
    assert list(words) == sorted(words, key=dyck_lex_key)  # u < d
    assert all(is_dyck_word(w) for w in words)
    assert len(set(words)) == 5


@pytest.mark.parametrize("n", range(8))
def test_dyck_words_equal_the_sorted_brute_force(n):
    # every word over {u, d} of length 2n, filtered and sorted u < d
    brute = (w for w in map("".join, product("ud", repeat=2 * n)) if is_dyck_word(w))
    assert dyck_words(n) == tuple(sorted(brute, key=dyck_lex_key))


def test_dyck_words_rejects_negative_n():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        dyck_words(-1)


@pytest.mark.parametrize("n", [11, 12])
def test_dyck_words_in_strict_order_at_benchmark_sizes(n):
    # neighbours compared pairwise, so a misordered join of the halves
    # shows even where the brute-force oracle is out of reach
    words = dyck_words(n)
    assert len(words) == catalan(n)
    keys = [dyck_lex_key(w) for w in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert words[0] == "u" * n + "d" * n
    assert words[-1] == "ud" * n


def test_first_peak_height():
    assert first_peak_height("") == 0
    assert first_peak_height("ud") == 1
    assert first_peak_height("uuuddudd") == 3
    assert first_peak_height("ddud") == 0
    assert first_peak_height("uuu") == 3


# ---------------------------------------------------------------------------
# Catalan and first-peak counts
# ---------------------------------------------------------------------------


def test_catalan_values():
    assert [catalan(n) for n in range(11)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    ]


@pytest.mark.parametrize("n", range(11))
def test_catalan_matches_enumeration(n):
    assert catalan(n) == len(dyck_words(n))


def test_first_peak_counts_n3():
    assert [first_peak_count_B(3, m) for m in range(4)] == [5, 5, 3, 1]


def test_first_peak_count_closed_forms_agree():
    # (m+1)/(n+1) * binom(2n-m, n) form, evaluated exactly
    from fractions import Fraction
    from math import comb

    for n in range(13):
        for m in range(n + 2):
            lhs = first_peak_count_B(n, m)
            if m > n:
                assert lhs == 0
            else:
                rhs = Fraction(m + 1, n + 1) * comb(2 * n - m, n)
                assert lhs == rhs


def test_first_peak_counts_match_enumeration():
    for n in range(13):
        for m in range(n + 2):
            assert first_peak_count_B(n, m) == first_peak_count_by_enumeration(n, m)


def test_first_peak_special_cases():
    assert first_peak_count_B(4, 3) == 4
    assert first_peak_count_B(5, 2) == 28
    for n in range(11):
        assert first_peak_count_B(n, 0) == catalan(n)
    # the empty path has no peak, so B_1(0) = 0; for n >= 1 every path
    # starts with an up step and B_1 = B_0
    assert first_peak_count_B(0, 1) == 0
    for n in range(1, 11):
        assert first_peak_count_B(n, 1) == catalan(n)


def test_first_peak_counts_decrease():
    for n in range(13):
        for m in range(n + 1):
            assert first_peak_count_B(n, m) >= first_peak_count_B(n, m + 1)


# ---------------------------------------------------------------------------
# Fine numbers
# ---------------------------------------------------------------------------


def test_fine_values():
    assert [fine(n) for n in range(9)] == [1, 0, 1, 2, 6, 18, 57, 186, 622]


def test_fine_three_routes_agree():
    for n in range(13):
        assert fine(n) == fine_by_enumeration(n) == fine_by_alternating_binomials(n) == fine_by_first_peaks(n)


def test_fine_alternating_binomials_large():
    for n in range(21):
        assert fine_by_alternating_binomials(n) == sum(
            (-1) ** m * first_peak_count_B(n, m) for m in range(n + 1)
        )


def test_fine_from_peak_differences():
    # F_n = (B_0 - B_1) + (B_2 - B_3) + ...
    for n in range(13):
        total = 0
        for m in range(0, n + 1, 2):
            total += first_peak_count_B(n, m) - first_peak_count_B(n, m + 1)
        assert total == fine(n)


# ---------------------------------------------------------------------------
# Jacobsthal numbers
# ---------------------------------------------------------------------------


def test_jacobsthal_values():
    assert [jacobsthal_number(n) for n in range(1, 7)] == [1, 1, 3, 5, 11, 21]
    assert jacobsthal_number(20) == (2**20 - 1) // 3 == 349525


def test_jacobsthal_recursion():
    for n in range(3, 21):
        assert jacobsthal_number(n) == jacobsthal_number(n - 1) + 2 * jacobsthal_number(n - 2)


def test_jacobsthal_composition_list_n4():
    expected = {(3, 1), (1, 3), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1)}
    assert set(compositions_ending_odd(4)) == expected


def test_jacobsthal_sequence_list_n4():
    expected = {(3,), (1,), (3, 2), (3, 1), (3, 2, 1)}
    assert set(descending_opposite_parity_sequences(4)) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobsthal_matches_explicit_enumerations(n):
    assert len(compositions_ending_odd(n)) == jacobsthal_number(n)
    assert len(descending_opposite_parity_sequences(n)) == jacobsthal_number(n)


def test_compositions_are_compositions():
    for n in range(1, 10):
        for comp in compositions_ending_odd(n):
            assert sum(comp) == n
            assert comp[-1] % 2 == 1
            assert all(part >= 1 for part in comp)


def test_sequences_descend_with_opposite_parity():
    for n in range(2, 10):
        for seq in descending_opposite_parity_sequences(n):
            if not seq:
                assert n % 2 == 1
                continue
            assert all(n > seq[0] and seq[-1] > 0 for _ in (0,))
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert (seq[0] - n) % 2 == 1


def test_composition_sequence_bijection():
    # c_1...c_r  ->  a_j = n - (c_r + ... + c_{r-j+1}) gives the sequences
    for n in range(1, 11):
        converted = set()
        for comp in compositions_ending_odd(n):
            partial = 0
            seq = []
            for part in reversed(comp):
                partial += part
                if partial < n:
                    seq.append(n - partial)
            converted.add(tuple(seq))
        assert converted == set(descending_opposite_parity_sequences(n))


# ---------------------------------------------------------------------------
# Two-column partitions and tableaux
# ---------------------------------------------------------------------------


def test_two_column_partitions_n4():
    shapes = two_column_partitions(4)
    assert [(s.c1, s.c2) for s in shapes] == [(2, 2), (3, 1), (4, 0)]


def test_partition_validation():
    with pytest.raises(ValueError, match=r"^column lengths must satisfy c1 >= c2 >= 0, got \(1,2\)$"):
        TwoColumnPartition(1, 2)
    with pytest.raises(ValueError):
        TwoColumnPartition(-1, -1)


def test_tableau_validation():
    shape = TwoColumnPartition(2, 1)
    assert Tableau(shape, (1, 2), (3,)).second_column_top() == 3
    assert Tableau(TwoColumnPartition(2, 0), (1, 2), ()).second_column_top() == 3
    for col1, col2, message in (
        ((1,), (2, 3), "column lengths do not match the shape"),
        ((1, 2), (4,), "entries must be a permutation of 1..n"),
        ((2, 1), (3,), "columns must increase downward"),
        ((2, 3), (1,), "rows must increase left to right"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Tableau(shape, col1, col2)


def test_syt_enumeration_pinned():
    assert syt_count(TwoColumnPartition(2, 2)) == 2
    tops = sorted(t.second_column_top() for t in enumerate_syt(TwoColumnPartition(2, 2)))
    assert tops == [2, 3]
    assert syt_count(TwoColumnPartition(3, 1)) == 3
    tops = sorted(t.second_column_top() for t in enumerate_syt(TwoColumnPartition(3, 1)))
    assert tops == [2, 3, 4]
    for n in range(1, 9):
        assert syt_count(TwoColumnPartition(n, 0)) == 1


def test_syt_count_matches_hook_lengths():
    for n in range(1, 15):
        for shape in two_column_partitions(n):
            assert syt_count(shape) == hook_length_count(shape)


def test_count_N_examples():
    assert count_N(TwoColumnPartition(3, 1), 2) == 2
    assert count_N(TwoColumnPartition(2, 2), 2) == 1
    for n in range(1, 8):
        column = TwoColumnPartition(n, 0)
        for p in range(n + 1):
            assert count_N(column, p) == 1
    shape = TwoColumnPartition(3, 1)
    assert count_N(shape, 0) == syt_count(shape)
    assert count_N(shape, 4) == 0  # longer than the first column


def test_theorem_C_multiplicities_n4():
    shapes = two_column_partitions(4)
    assert [theorem_C_multiplicity(s) for s in shapes] == [1, 1, 1]
    total = sum(theorem_C_multiplicity(s) * syt_count(s) for s in shapes)
    assert total == fine(4) == 6


def test_single_column_multiplicity_parity():
    for n in range(1, 12):
        expected = 0 if n % 2 == 1 else 1
        assert theorem_C_multiplicity(TwoColumnPartition(n, 0)) == expected


def test_multiplicity_weighted_sum_is_fine():
    for n in range(1, 15):
        total = sum(
            theorem_C_multiplicity(s) * syt_count(s) for s in two_column_partitions(n)
        )
        assert total == fine(n)


def test_induction_shadow_B_equals_N_weighted_sum():
    for n in range(1, 13):
        for m in range(n + 1):
            total = sum(
                count_N(shape, m) * syt_count(shape)
                for shape in two_column_partitions(n)
            )
            assert total == first_peak_count_B(n, m)
