"""Black box module tests: basis counts, the killing rule, and the
module axioms for the action."""

import random

import pytest

from planartl.algebra import AlgebraElement, elt_mul
from planartl.coeff import LaurentPoly
from planartl.combin import catalan, first_peak_count_B
from planartl.diagram import (
    dyck_lex_index,
    enumerate_pairings,
    from_pairs,
    identity,
    word_of_pairing,
)
from planartl.indmod import black_box_basis, largest_free_box, project


def has_cup_in_box(pairing, m):
    """True when some arc joins two of the right dots 1..m."""
    return any(pairing[p] < m for p in range(min(m, len(pairing))))


def random_element(rng, n):
    diagrams = enumerate_pairings(n)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(diagrams)] = LaurentPoly({rng.randint(-1, 1): rng.randint(1, 3)})
    return AlgebraElement(n, terms)


def in_module(basis, x):
    """x's image in the module, as a combination of basis diagrams."""
    pairings = enumerate_pairings(x.n)
    return AlgebraElement(x.n, {pairings[k]: c for k, c in project(x, basis).items()})


def test_basis_sizes_match_first_peak_counts():
    for n in range(11):
        for m in range(n + 1):
            assert len(black_box_basis(n, m)) == first_peak_count_B(n, m)


def test_basis_pinned_sizes():
    assert len(black_box_basis(4, 3)) == 4
    assert len(black_box_basis(5, 2)) == 28
    for n in range(9):
        assert len(black_box_basis(n, 0)) == catalan(n)
        assert len(black_box_basis(n, n)) == 1
        assert [enumerate_pairings(n)[k] for k in black_box_basis(n, n)] == [identity(n)]


def test_basis_range_validation():
    with pytest.raises(ValueError):
        black_box_basis(4, 5)
    with pytest.raises(ValueError):
        black_box_basis(4, -1)


def test_basis_rejects_a_negative_strand_count():
    # n is checked before the box size, with its own message
    with pytest.raises(ValueError, match="n must be nonnegative"):
        black_box_basis(-1, 0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        black_box_basis(-2, -1)


def test_box_predicate_equals_word_prefix():
    for n in range(9):
        for m in range(n + 1):
            prefix = "u" * m
            for p in enumerate_pairings(n):
                assert has_cup_in_box(p, m) == (not word_of_pairing(p).startswith(prefix))


def test_largest_free_box_follows_the_box_rule():
    for n in range(9):
        for p in enumerate_pairings(n):
            free = largest_free_box(p)
            assert 0 <= free <= n
            for m in range(n + 1):
                assert (free >= m) == (not has_cup_in_box(p, m))


def test_basis_is_prefix_filter_in_order():
    for n in range(11):
        full = [p for p in enumerate_pairings(n)]
        for m in range(n + 1):
            basis = black_box_basis(n, m)
            expected = [p for p in full if not has_cup_in_box(p, m)]
            assert [full[k] for k in basis] == expected


def test_black_box_action_worked_example():
    # U_1 U_3 applied to the box-2 element with arcs {1,8},{2,5},{3,4},{6,7}
    # pastes a cup into the box, so the result is 0
    y = from_pairs(4, [(1, 8), (2, 5), (3, 4), (6, 7)])
    basis = black_box_basis(4, 2)
    assert dyck_lex_index(4)[y] < len(basis)
    u1u3 = elt_mul(AlgebraElement.generator(4, 1), AlgebraElement.generator(4, 3))
    assert project(elt_mul(u1u3, AlgebraElement.from_diagram(y)), basis) == {}


def test_identity_acts_trivially():
    rng = random.Random(5)
    for n in range(1, 7):
        one = AlgebraElement.one(n)
        for m in range(n + 1):
            basis = black_box_basis(n, m)
            for _ in range(5):
                vec = in_module(basis, random_element(rng, n))
                assert project(elt_mul(one, vec), basis) == project(vec, basis)


def test_action_is_module_action():
    rng = random.Random(11)
    for n in range(1, 7):
        for m in range(n + 1):
            basis = black_box_basis(n, m)
            for _ in range(6):
                x = random_element(rng, n)
                y = random_element(rng, n)
                vec = in_module(basis, random_element(rng, n))
                y_vec = in_module(basis, elt_mul(y, vec))
                assert project(elt_mul(elt_mul(x, y), vec), basis) == project(
                    elt_mul(x, y_vec), basis
                )


def test_quotient_project_examples():
    assert project(AlgebraElement.generator(4, 1), black_box_basis(4, 2)) == {}
    for n in range(1, 7):
        for m in range(n + 1):
            basis = black_box_basis(n, m)
            projected = project(AlgebraElement.one(n), basis)
            assert projected == {dyck_lex_index(n)[identity(n)]: LaurentPoly.one()}
    for n in range(3, 7):
        for m in range(n - 1):
            basis = black_box_basis(n, m)
            assert project(AlgebraElement.generator(n, m + 1), basis) != {}


def test_quotient_is_a_module_map():
    # project(x*y) == project(x * project(y)) on basis pairs.  When y is
    # in the basis, project(y) is y and the two sides are one product;
    # when it is not, project(y) is 0, so x*y must project to 0 as well.
    # Each product is computed once and projected for every box size.
    for n in range(1, 7):
        diagrams = enumerate_pairings(n)
        index = dyck_lex_index(n)
        for x in diagrams:
            ex = AlgebraElement.from_diagram(x)
            for y in diagrams:
                ey = AlgebraElement.from_diagram(y)
                product = elt_mul(ex, ey)
                for m in range(n + 1):
                    basis = black_box_basis(n, m)
                    if index[y] < len(basis):
                        assert in_module(basis, ey) == ey
                    else:
                        assert not in_module(basis, ey)
                        assert project(product, basis) == {}


def test_act_at_box_zero_agrees_with_algebra_product():
    rng = random.Random(23)
    for n in range(1, 7):
        basis = black_box_basis(n, 0)
        for _ in range(8):
            x = random_element(rng, n)
            y = random_element(rng, n)
            assert in_module(basis, elt_mul(x, in_module(basis, y))) == elt_mul(x, y)


def test_strand_mismatch():
    basis = black_box_basis(3, 1)
    vec = in_module(basis, AlgebraElement.one(3))
    with pytest.raises(ValueError):
        project(elt_mul(AlgebraElement.one(4), vec), basis)
