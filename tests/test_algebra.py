"""Algebra tests: relations as element identities, braiding elements,
the augmentation, generator word products, and the left-multiplication
generator tables that every right-multiplication matrix is assembled
from."""

import random

import pytest

from planartl.algebra import (
    AlgebraElement,
    augment,
    braiding_s,
    braiding_s_inv,
    elt_mul,
    generator_tables,
)
from planartl.coeff import (
    CONVENTION_A,
    CONVENTION_B,
    LOOP_FACTOR,
    Convention,
    LaurentPoly,
)
from planartl.combin import catalan, first_peak_count_B
from planartl.diagram import (
    dyck_lex_index,
    enumerate_pairings,
    generator_u,
    identity,
    multiply,
)

CONVENTIONS = (CONVENTION_A, CONVENTION_B)
V = LaurentPoly.v_power(1)


def word_product(
    n: int,
    indices,
    kind: str = "U",
    c: Convention | None = None,
) -> AlgebraElement:
    """Left-to-right product of the named generators at the given
    indices; the empty word gives the identity element.

    kind is one of 'U', 's', 's_inv'; the convention is required for the
    braiding kinds.
    """
    if kind == "U":
        factory = lambda i: AlgebraElement.generator(n, i)
    elif kind == "s":
        if c is None:
            raise ValueError("braiding products need a convention")
        factory = lambda i: braiding_s(n, i, c)
    elif kind == "s_inv":
        if c is None:
            raise ValueError("braiding products need a convention")
        factory = lambda i: braiding_s_inv(n, i, c)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    out = AlgebraElement.one(n)
    for i in indices:
        out = elt_mul(out, factory(i))
    return out


def random_element(rng: random.Random, n: int) -> AlgebraElement:
    diagrams = enumerate_pairings(n)
    terms = {}
    for _ in range(rng.randint(0, 3)):
        d = rng.choice(diagrams)
        coeff = LaurentPoly(
            {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 2))}
        )
        terms[d] = terms.get(d, LaurentPoly.zero()) + coeff
    return AlgebraElement(n, terms)


def test_u_squared_scales_by_loop_weight():
    u1 = AlgebraElement.generator(2, 1)
    assert elt_mul(u1, u1) == u1.scale(LOOP_FACTOR)
    assert elt_mul(u1, u1).to_text() == "(v^1+v^-1) * udud"


def test_u_relations_symbolically():
    for n in range(2, 9):
        for i in range(1, n):
            u_i = AlgebraElement.generator(n, i)
            assert elt_mul(u_i, u_i) == u_i.scale(LOOP_FACTOR)
            for j in range(1, n):
                u_j = AlgebraElement.generator(n, j)
                if abs(i - j) >= 2:
                    assert elt_mul(u_i, u_j) == elt_mul(u_j, u_i)
                elif abs(i - j) == 1:
                    assert elt_mul(elt_mul(u_i, u_j), u_i) == u_i


def test_braiding_elements_pinned():
    # s_i = v*U_i - 1 under convention A, v^2 - v*U_i under convention B
    n = 3
    for i in (1, 2):
        u_i = AlgebraElement.generator(n, i)
        one = AlgebraElement.one(n)
        s_a = braiding_s(n, i, CONVENTION_A)
        assert s_a == u_i.scale(V) - one
        s_b = braiding_s(n, i, CONVENTION_B)
        assert s_b == one.scale(LaurentPoly.v_power(2)) - u_i.scale(V)


def test_braid_relations_both_conventions():
    for conv in CONVENTIONS:
        for n in range(2, 8):
            for i in range(1, n):
                s_i = braiding_s(n, i, conv)
                for j in range(1, n):
                    s_j = braiding_s(n, j, conv)
                    if abs(i - j) == 1:
                        assert elt_mul(elt_mul(s_i, s_j), s_i) == elt_mul(
                            elt_mul(s_j, s_i), s_j
                        )
                    elif i != j:
                        assert elt_mul(s_i, s_j) == elt_mul(s_j, s_i)


def test_braiding_inverses():
    for conv in CONVENTIONS:
        for n in range(2, 9):
            one = AlgebraElement.one(n)
            for i in range(1, n):
                s_i = braiding_s(n, i, conv)
                s_inv = braiding_s_inv(n, i, conv)
                assert elt_mul(s_i, s_inv) == one
                assert elt_mul(s_inv, s_i) == one


def test_braiding_index_validation():
    with pytest.raises(ValueError):
        braiding_s(3, 3, CONVENTION_A)
    with pytest.raises(ValueError):
        braiding_s_inv(3, 0, CONVENTION_A)


def test_unit_law_on_random_elements():
    rng = random.Random(7)
    for n in range(1, 7):
        one = AlgebraElement.one(n)
        for _ in range(20):
            x = random_element(rng, n)
            assert elt_mul(one, x) == x
            assert elt_mul(x, one) == x


def test_algebra_axioms_on_random_elements():
    rng = random.Random(99)
    for n in range(1, 7):
        for _ in range(12):
            x = random_element(rng, n)
            y = random_element(rng, n)
            z = random_element(rng, n)
            assert elt_mul(elt_mul(x, y), z) == elt_mul(x, elt_mul(y, z))
            assert elt_mul(x, y + z) == elt_mul(x, y) + elt_mul(x, z)
            assert elt_mul(x + y, z) == elt_mul(x, z) + elt_mul(y, z)


def test_sums_and_products_store_no_zero():
    # a cancelled sum is deleted where it cancels, and a later move may
    # put its diagram back
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(20):
            x = random_element(rng, n)
            assert not (x + (-x)).terms
            for y in (random_element(rng, n), x, -x):
                assert all(elt_mul(x, y).terms.values())
    u1 = AlgebraElement.generator(2, 1)
    assert not elt_mul(u1 - AlgebraElement.one(2).scale(LOOP_FACTOR), u1).terms
    d, one = generator_u(2, 1), LaurentPoly.one()
    assert AlgebraElement._sum(2, {}, [(d, one), (d, -one), (d, LOOP_FACTOR)]).terms == {d: LOOP_FACTOR}


def test_strand_mismatch_raises():
    with pytest.raises(ValueError):
        elt_mul(AlgebraElement.one(2), AlgebraElement.one(3))


def test_augment_values():
    for n in range(2, 7):
        for i in range(1, n):
            assert not augment(AlgebraElement.generator(n, i))
        assert augment(AlgebraElement.one(n)) == LaurentPoly.one()
        for conv in CONVENTIONS:
            for i in range(1, n):
                assert augment(braiding_s(n, i, conv)) == conv.lam


def test_augment_is_multiplicative_on_basis_pairs():
    for n in range(1, 6):
        diagrams = enumerate_pairings(n)
        for x in diagrams:
            ex = AlgebraElement.from_diagram(x)
            for y in diagrams:
                ey = AlgebraElement.from_diagram(y)
                assert augment(elt_mul(ex, ey)) == augment(ex) * augment(ey)


def test_word_product_examples():
    # the empty word gives the identity element
    assert word_product(4, [], "U") == AlgebraElement.one(4)
    # a repeated cup generator picks up the loop weight
    u2 = AlgebraElement.generator(4, 2)
    assert word_product(4, [2, 2], "U") == u2.scale(LOOP_FACTOR)
    # descending braiding product, indices decreasing left to right
    expected = elt_mul(braiding_s(5, 4, CONVENTION_A), braiding_s(5, 3, CONVENTION_A))
    assert word_product(5, [4, 3], "s", CONVENTION_A) == expected
    inv = word_product(5, [4, 3], "s_inv", CONVENTION_A)
    assert elt_mul(expected, word_product(5, [3, 4], "s_inv", CONVENTION_A)) == AlgebraElement.one(5)
    assert elt_mul(
        word_product(5, [4, 3], "s", CONVENTION_A), inv
    ) != AlgebraElement.one(5)  # wrong cancellation order


def test_word_product_validation():
    with pytest.raises(ValueError):
        word_product(4, [4], "U")
    with pytest.raises(ValueError):
        word_product(4, [1], "s")  # convention required
    with pytest.raises(ValueError):
        word_product(4, [1], "t")


def test_element_text_zero_and_order():
    assert AlgebraElement(3).to_text() == "0"
    x = AlgebraElement.one(2) + AlgebraElement.generator(2, 1)
    # identity word uudd precedes udud in the u < d order
    assert x.to_text() == "(1) * uudd + (1) * udud"


# -- generator tables ------------------------------------------------------


def step(tables, k, loops, j):
    """Left-multiply the diagram at position k by U_j in the tables: a
    loop is closed exactly where U_j fixes the diagram."""
    row = tables.left[j - 1][k]
    return row, loops + (row == k)


def test_tables_equal_multiply():
    for n in range(8):
        tables = generator_tables(n)
        diagrams = enumerate_pairings(n)
        assert len(tables.left) == max(n - 1, 0)
        for j in range(1, n):
            u = generator_u(n, j)
            for k, d in enumerate(diagrams):
                product, loops = multiply(u, d)
                assert diagrams[tables.left[j - 1][k]] == product
                assert loops <= 1
                assert (tables.left[j - 1][k] == k) == (loops == 1)


def test_tables_never_glue_a_product(monkeypatch):
    # the tables come from the cup rule; the general product is only
    # their oracle, so building them must not call it
    import planartl.algebra as algebra_module
    import planartl.diagram as diagram_module

    calls = []

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(algebra_module, "multiply", counted)
    monkeypatch.setattr(diagram_module, "multiply", counted)
    generator_tables.cache_clear()
    for n in range(8):
        generator_tables(n)
    assert calls == []
    # the counter does count: the product route still goes through it
    elt_mul(AlgebraElement.generator(3, 1), AlgebraElement.generator(3, 2))
    assert len(calls) == 1


def test_tables_satisfy_the_relations():
    # each step multiplies on the left, so `once` is U_i d and the
    # relations are read right to left
    for n in range(2, 9):
        tables = generator_tables(n)
        for k in range(len(enumerate_pairings(n))):
            for i in range(1, n):
                once = step(tables, k, 0, i)
                # U_i^2 = a U_i
                assert step(tables, *once, i) == (once[0], once[1] + 1)
                for j in range(1, n):
                    if abs(i - j) == 1:
                        # U_i U_j U_i = U_i
                        assert step(tables, *step(tables, *once, j), i) == once
                    elif abs(i - j) >= 2:
                        # far generators commute
                        assert step(tables, *once, j) == step(tables, *step(tables, k, 0, j), i)


def test_parents_are_loop_free_visited_first_and_in_every_box():
    for n in range(10):
        tables = generator_tables(n)
        size = catalan(n)
        assert sorted(tables.order) == list(range(size))
        assert tables.order[0] == dyck_lex_index(n)[identity(n)] == 0
        assert tables.parent[0] is None
        visit = {k: t for t, k in enumerate(tables.order)}
        boxes = [first_peak_count_B(n, m) for m in range(n + 1)]
        # every box basis is a prefix of the order
        for b in boxes:
            assert sorted(tables.order[:b]) == list(range(b))
        for k in tables.order[1:]:
            y, j = tables.parent[k]
            assert step(tables, y, 0, j) == (k, 0)
            assert visit[y] < visit[k]
            # a parent of a box basis diagram lies in that basis too
            assert all(y < b for b in boxes if k < b)
