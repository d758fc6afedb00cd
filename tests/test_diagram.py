"""Diagram calculus tests: the fixed boundary numbering, the gluing
product with loop counting, the cup rule, and the Dyck bijection."""

import itertools
import random

import pytest

from planartl.algebra import AlgebraElement
from planartl.combin import catalan, dyck_words
from planartl.diagram import (
    cup_times,
    dyck_lex_index,
    enumerate_diagrams,
    enumerate_pairings,
    from_dyck,
    from_pairs,
    generator_u,
    identity,
    is_planar_pairing,
    multiply,
    pairing_of_word,
    times_cup,
    word_of_pairing,
)


def test_identity_pairs():
    assert identity(0) == from_pairs(0, [])
    assert identity(3) == from_pairs(3, [(1, 6), (2, 5), (3, 4)])
    for n in range(9):
        assert word_of_pairing(identity(n)) == "u" * n + "d" * n


def test_word_of_a_long_pairing():
    # the word is read off points 0..2n-1, however many there are
    assert word_of_pairing(identity(200)) == "u" * 200 + "d" * 200
    u7 = generator_u(200, 7)
    assert from_dyck(word_of_pairing(u7)) == u7


def test_generator_pinned():
    u1 = generator_u(2, 1)
    assert u1 == from_pairs(2, [(1, 2), (3, 4)])
    assert word_of_pairing(u1) == "udud"


def test_generator_validation():
    for n in range(2, 11):
        for i in range(1, n):
            g = generator_u(n, i)
            assert g != identity(n)
            assert is_planar_pairing(g)  # revalidates noncrossingness
    with pytest.raises(ValueError):
        generator_u(3, 0)
    with pytest.raises(ValueError):
        generator_u(3, 3)
    with pytest.raises(ValueError):
        generator_u(1, 1)


_BAD_PAIRINGS = (
    (1, 0, 3),  # odd length
    (0, 1, 3, 2),  # fixed points
    (2, 3, 0, 1),  # crossing arcs
    (1, 2, 0, 3),  # not an involution
    (1, 3, 3, 2),  # not an involution, yet reads as uuud
    (2, 3, 3, 2),  # likewise: the sweep ends with points open
)


def test_diagram_validation_rejects_bad_pairings():
    # an algebra element takes a diagram only as a planar pairing on its
    # own strand count
    for bad in _BAD_PAIRINGS:
        assert not is_planar_pairing(bad)
        with pytest.raises(ValueError, match="no planar pairing"):
            AlgebraElement(len(bad) // 2, {bad: 1})
    with pytest.raises(ValueError, match="no planar pairing on 3 strands"):
        AlgebraElement(3, {identity(2): 1})
    with pytest.raises(ValueError, match="no planar pairing"):
        AlgebraElement(2, {"uudd": 1})


def test_from_pairs_rejects_malformed_pairs():
    with pytest.raises(ValueError):
        from_pairs(2, [(0, 3), (1, 2), (3, 4)])  # point 0, and 3 twice
    with pytest.raises(ValueError):
        from_pairs(2, [(1, 2), (1, 2), (3, 4)])  # a pair named twice
    with pytest.raises(ValueError):
        from_pairs(2, [(1, 2), (3, 5)])  # point 5 past 2n
    with pytest.raises(ValueError):
        from_pairs(2, [(1, 1), (3, 4)])  # a point paired with itself
    with pytest.raises(ValueError):
        from_pairs(2, [(1, 2)])  # points 3 and 4 left out
    with pytest.raises(ValueError, match="must not cross"):
        from_pairs(2, [(1, 3), (2, 4)])  # crossing arcs
    assert from_pairs(2, [(4, 3), (2, 1)]) == (1, 0, 3, 2)


def test_from_pairs_rejects_a_negative_strand_count():
    # as identity does; an empty list must not make a 0-strand diagram
    with pytest.raises(ValueError, match="n must be nonnegative"):
        from_pairs(-1, [])
    with pytest.raises(ValueError, match="n must be nonnegative"):
        identity(-1)
    assert from_pairs(0, []) == identity(0)


def _is_planar_by_brute_force(pairing):
    size = len(pairing)
    if any(not 0 <= q < size or q == p or pairing[q] != p for p, q in enumerate(pairing)):
        return False
    arcs = [(p, q) for p, q in enumerate(pairing) if p < q]
    return not any(a < b < c < d for a, c in arcs for b, d in arcs)


def test_planar_pairing_check_is_exhaustively_right():
    # every tuple of length <= 6 with entries in -1..len, against the
    # definition: a fixed-point-free involution with no crossing arcs
    planar = 0
    for size in range(7):
        for pairing in itertools.product(range(-1, size + 1), repeat=size):
            expected = _is_planar_by_brute_force(pairing)
            assert is_planar_pairing(pairing) == expected, pairing
            planar += expected
    assert planar == sum(catalan(n) for n in range(4))


def test_u_squared_has_one_loop():
    u1 = generator_u(2, 1)
    product, loops = multiply(u1, u1)
    assert product == u1
    assert loops == 1


def test_u_relations_on_diagrams():
    for n in range(2, 9):
        for i in range(1, n):
            u_i = generator_u(n, i)
            product, loops = multiply(u_i, u_i)
            assert product == u_i and loops == 1
            for j in range(1, n):
                u_j = generator_u(n, j)
                if abs(i - j) >= 2:
                    left, left_loops = multiply(u_i, u_j)
                    right, right_loops = multiply(u_j, u_i)
                    assert left == right
                    assert left_loops == right_loops == 0
                elif abs(i - j) == 1:
                    first, first_loops = multiply(u_i, u_j)
                    second, second_loops = multiply(first, u_i)
                    assert second == u_i
                    assert first_loops + second_loops == 0


def test_identity_law():
    for n in range(9):
        e = identity(n)
        for x in enumerate_pairings(n):
            assert multiply(e, x) == (x, 0)
            assert multiply(x, e) == (x, 0)


def test_strand_count_mismatch():
    with pytest.raises(ValueError, match="strand-count mismatch"):
        multiply(identity(2), identity(3))


def test_worked_example_word():
    # four-strand diagram with arcs {1,8},{2,5},{3,4},{6,7}: right cup on
    # dots 3,4, left cup on dots 2,3, and strands left1-right1, left4-right2
    sample = from_pairs(4, [(1, 8), (2, 5), (3, 4), (6, 7)])
    assert word_of_pairing(sample) == "uuuddudd"
    assert from_dyck("uuuddudd") == sample


def test_intro_product_example():
    # the five-strand pair whose product erases one loop and reproduces
    # the left factor
    x = from_pairs(5, [(9, 10), (6, 7), (2, 3), (4, 5), (1, 8)])
    y = from_pairs(5, [(8, 9), (2, 3), (4, 5), (7, 10), (1, 6)])
    product, loops = multiply(x, y)
    assert product == x
    assert loops == 1


def _glue_by_union_find(x, y):
    """The product by a second route: merge the points of x and y, kept
    apart as ("x", p) and ("y", p), along both diagrams' arcs and the
    wall into components, then read the strands and loops off those."""
    n = len(x) // 2
    parent = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for side, diagram in (("x", x), ("y", y)):
        for p, q in enumerate(diagram):
            union((side, p), (side, q))
    for p in range(n):  # x's right dot p+1 meets y's left dot p+1
        union(("x", p), ("y", 2 * n - 1 - p))
    outer = [("y", p) for p in range(n)] + [("x", p) for p in range(n, 2 * n)]
    ends = {}
    for point in outer:
        ends.setdefault(find(point), []).append(point[1])
    pairing = [None] * (2 * n)
    for p, q in ends.values():
        pairing[p], pairing[q] = q, p
    components = {find(point) for point in parent}
    assert is_planar_pairing(pairing)
    return tuple(pairing), len(components) - len(ends)


def test_product_matches_a_union_find_oracle():
    pairs = 0
    for n in range(7):
        diagrams = enumerate_pairings(n)
        for x in diagrams:
            for y in diagrams:
                assert multiply(x, y) == _glue_by_union_find(x, y), (x, y)
        pairs += len(diagrams) ** 2
    assert pairs == 19415


def test_cup_rule_matches_the_product():
    for n in range(9):
        for j in range(1, n):
            u = generator_u(n, j)
            for d in enumerate_pairings(n):
                product, loops = multiply(u, d)
                assert cup_times(j, d) == (product, loops), (j, d)


def test_right_cup_rule_matches_the_product():
    for n in range(8):
        for k in range(1, n):
            u = generator_u(n, k)
            for d in enumerate_pairings(n):
                assert times_cup(d, k) == multiply(d, u), (k, d)


def test_cup_rule_rejects_a_generator_index_out_of_range():
    for n in range(1, 5):
        d = identity(n)
        for j in (0, n):
            with pytest.raises(ValueError, match="generator index"):
                cup_times(j, d)
            with pytest.raises(ValueError, match="generator index"):
                times_cup(d, j)


def test_bijection_round_trip_exhaustive():
    for n in range(9):
        for diagram in enumerate_pairings(n):
            assert from_dyck(word_of_pairing(diagram)) == diagram
        for word in dyck_words(n):
            assert word_of_pairing(from_dyck(word)) == word


def test_word_and_pairing_invert_each_other():
    # the LIFO sweep gives back each enumerated pairing from its word,
    # and the Dyck-lex index is keyed by those pairing tuples
    for n in range(9):
        index = dyck_lex_index(n)
        for k, pairing in enumerate(enumerate_pairings(n)):
            assert pairing_of_word(word_of_pairing(pairing)) == pairing
            assert index[pairing] == k
    for bad in ("d", "du", "uudu", "uu", "uxud", "udd"):
        assert pairing_of_word(bad) is None


def test_from_dyck_rejects_non_dyck():
    for bad in ("du", "uudu", "uu", "uxud"):
        with pytest.raises(ValueError):
            from_dyck(bad)


def test_enumeration_counts_and_uniqueness():
    for n in range(9):
        diagrams = enumerate_pairings(n)
        assert len(diagrams) == catalan(n)
        assert len(set(diagrams)) == len(diagrams)
    assert len(enumerate_pairings(10)) == 16796


def test_enumeration_is_dyck_lex_ordered():
    for n in range(11):
        words = [word_of_pairing(d) for d in enumerate_pairings(n)]
        assert words == list(dyck_words(n))


def test_enumeration_walks_pairings_not_words():
    # the diagrams are built without the oracle word list
    dyck_words.cache_clear()
    enumerate_pairings.cache_clear()
    enumerate_pairings(8)
    assert dyck_words.cache_info().currsize == 0
    with pytest.raises(ValueError):
        enumerate_pairings(-1)
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)
    # the name the tracing harness wraps is the pairing walk itself
    assert enumerate_diagrams(8) is enumerate_pairings(8)


def test_multiplication_associative_with_loops():
    rng = random.Random(20260810)
    for n in range(1, 9):
        diagrams = enumerate_pairings(n)
        for _ in range(60):
            x, y, z = (rng.choice(diagrams) for _ in range(3))
            xy, xy_loops = multiply(x, y)
            xy_z, xy_z_loops = multiply(xy, z)
            yz, yz_loops = multiply(y, z)
            x_yz, x_yz_loops = multiply(x, yz)
            assert xy_z == x_yz
            assert xy_loops + xy_z_loops == yz_loops + x_yz_loops
