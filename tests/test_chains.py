"""Chain complex tests: basis ranks, the boundary maps, d o d = 0, the
Euler characteristic, and homology ranks at specializations."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planartl.chains as chains
from planartl.algebra import AlgebraElement, braiding_s, elt_mul, generator_tables
from planartl.chains import (
    boundary_element,
    boundary_ranks,
    chain_basis,
    differential,
    euler_characteristic,
    homology_ranks,
    right_mult_columns_at,
    right_mult_matrix,
)
from planartl.coeff import CONVENTION_A, CONVENTION_B, Convention, LaurentPoly, mu_over_lambda
from planartl.combin import fine, fine_by_enumeration, first_peak_count_B
from planartl.diagram import enumerate_pairings, identity
from planartl.indmod import black_box_basis, project
from planartl.jacobsthal import jacobsthal_element
from planartl.linalg import PolyMatrix

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


def test_chain_ranks_match_first_peak_counts():
    for conv in CONVENTIONS:
        for n in range(1, 8):
            for i in range(-1, n):
                assert len(chain_basis(n, i)) == first_peak_count_B(n, n - i - 1)


def test_chain_ranks_pinned_n3():
    assert [len(chain_basis(3, i)) for i in range(-1, 3)] == [1, 3, 5, 5]


def test_boundary_element_small_cases():
    # degree 0: the empty product alone
    for conv in CONVENTIONS:
        assert boundary_element(4, 0, conv) == AlgebraElement.one(4)
        # degree 1: 1 - lam^-1 s_{n-1}
        n = 4
        expected = AlgebraElement.one(n) - braiding_s(n, n - 1, conv).scale(
            conv.lam.inverse()
        )
        assert boundary_element(n, 1, conv) == expected


def test_degree_one_boundary_is_ratio_weighted_cup():
    # d^1 equals right multiplication by -(mu/lam) U_{n-1} then projection
    for conv in CONVENTIONS:
        for n in range(2, 7):
            ratio = mu_over_lambda(conv)
            elt = AlgebraElement.generator(n, n - 1).scale(-ratio)
            expected = right_mult_matrix(elt, chain_basis(n, 1), chain_basis(n, 0))
            assert differential(n, 1, conv) == expected


def test_degree_two_boundary_expansion():
    # expanding the three-term alternating sum collapses to
    # 1 + (mu/lam) U_{n-1} + (mu/lam)^2 U_{n-1} U_{n-2}, then projection
    for conv in CONVENTIONS:
        for n in range(3, 7):
            ratio = mu_over_lambda(conv)
            u_top = AlgebraElement.generator(n, n - 1)
            u_next = AlgebraElement.generator(n, n - 2)
            elt = (
                AlgebraElement.one(n)
                + u_top.scale(ratio)
                + elt_mul(u_top, u_next).scale(ratio * ratio)
            )
            expected = right_mult_matrix(elt, chain_basis(n, 2), chain_basis(n, 1))
            assert differential(n, 2, conv) == expected


def reference_right_mult_matrix(elt, source, target):
    """The definition, on the independent product path: one elt_mul and
    one projection per source diagram."""
    pairings = enumerate_pairings(elt.n)
    columns = [
        project(elt_mul(AlgebraElement.from_diagram(pairings[k]), elt), target)
        for k in source
    ]
    return PolyMatrix(len(target), len(source), columns)


def test_right_mult_matrix_equals_reference():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            for i in range(n):
                source, target = chain_basis(n, i), chain_basis(n, i - 1)
                elements = [boundary_element(n, i, conv)] + [
                    jacobsthal_element(n, i + 1, conv, sign).element for sign in (1, -1)
                ]
                for elt in elements:
                    assert right_mult_matrix(elt, source, target) == reference_right_mult_matrix(
                        elt, source, target
                    )
            # the fineberg matrix: the top element on the full algebra
            full = black_box_basis(n, 0)
            top = jacobsthal_element(n, n, conv).element
            assert right_mult_matrix(top, full, full) == reference_right_mult_matrix(
                top, full, full
            )


def test_right_mult_matrix_on_every_box_pair():
    # an identity term, a two-term coefficient (U_2^2 = a U_2) and words
    # that close loops, between every pair of box sizes
    n = 4
    u1, u2, u3 = (AlgebraElement.generator(n, j) for j in (1, 2, 3))
    v = LaurentPoly.v_power(1)
    elt = (
        AlgebraElement.one(n).scale(v)
        + elt_mul(u2, u2)
        + elt_mul(u1, u3).scale(-1)
        + elt_mul(elt_mul(u1, u2), u3).scale(v * v)
        + u3
    )
    for m in range(n + 1):
        for m2 in range(n + 1):
            source, target = black_box_basis(n, m), black_box_basis(n, m2)
            assert right_mult_matrix(elt, source, target) == reference_right_mult_matrix(
                elt, source, target
            )
    with pytest.raises(ValueError):
        right_mult_matrix(elt, black_box_basis(3, 0), black_box_basis(3, 0))


@st.composite
def kernel_cases(draw):
    """A random nonzero element on n <= 6 strands and a random (source,
    target) pair of box bases."""
    n = draw(st.integers(1, 6))
    diagrams = enumerate_pairings(n)
    coeffs = st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(-3, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
    )
    terms = draw(st.dictionaries(st.integers(0, len(diagrams) - 1), coeffs, min_size=1, max_size=5))
    elt = AlgebraElement(n, {diagrams[k]: c for k, c in terms.items()})
    boxes = st.integers(0, n).map(lambda m: black_box_basis(n, m))
    return elt, draw(boxes), draw(boxes)


@settings(deadline=None, max_examples=100)
@given(kernel_cases())
def test_right_mult_matrix_on_random_elements(case):
    elt, source, target = case
    assert right_mult_matrix(elt, source, target) == reference_right_mult_matrix(
        elt, source, target
    )


def test_right_mult_matrix_raises_on_a_parent_outside_the_source(monkeypatch):
    # both kernels share the walk, and so its check
    import planartl.chains as chains_module

    n = 4
    real = generator_tables(n)
    source = black_box_basis(n, 2)
    k = next(k for k in real.order[1:] if k < len(source))
    parent = list(real.parent)
    parent[k] = (len(source), parent[k][1])
    tampered = SimpleNamespace(left=real.left, order=real.order, parent=parent)
    monkeypatch.setattr(chains_module, "generator_tables", lambda n: tampered)
    for kernel in (right_mult_matrix, lambda *bases: right_mult_columns_at(*bases, Fraction(2))):
        with pytest.raises(RuntimeError, match="outside the source basis"):
            kernel(AlgebraElement.one(n), source, source)


def test_right_mult_matrix_columns_share_entries_and_hold_no_zero(monkeypatch):
    # each column drops its cancelled entries before a child inherits
    # them, and an entry moved without a loop or a sum is the parent's own
    import planartl.chains as chains_module

    monkeypatch.setattr(chains_module, "PolyMatrix", lambda nrows, ncols, columns: columns)
    n = 6
    tables = generator_tables(n)
    for conv in CONVENTIONS:
        shared = 0
        for i in range(n):
            columns = right_mult_matrix(boundary_element(n, i, conv), chain_basis(n, i), chain_basis(n, i - 1))
            assert all(all(col.values()) for col in columns)
            for k in tables.order[1:]:
                if k < len(columns):
                    parent = {id(poly) for poly in columns[tables.parent[k][0]].values()}
                    shared += sum(id(poly) in parent for poly in columns[k].values())
        assert shared > 0


# generic points, points with a denominator, and the non-semisimple v = +-1
KERNEL_POINTS = tuple(Fraction(p) for p in ("2", "-2", "3", "1/2", "-3/2", "1", "-1"))


def assert_equal_up_to_sign(columns, expected):
    assert len(columns) == len(expected)
    for col, ref in zip(columns, expected):
        assert col == ref or col == {r: -x for r, x in ref.items()}


def test_columns_at_a_point_match_the_specialized_matrix():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            elements = [boundary_element(n, i, conv) for i in range(n)] + [
                jacobsthal_element(n, n, conv, sign).element for sign in (1, -1)
            ]
            for m in range(n + 1):
                for m2 in range(n + 1):
                    source, target = black_box_basis(n, m), black_box_basis(n, m2)
                    for elt in elements:
                        matrix = right_mult_matrix(elt, source, target)
                        for x in KERNEL_POINTS:
                            assert_equal_up_to_sign(
                                right_mult_columns_at(elt, source, target, x),
                                matrix.specialize_int_columns(x),
                            )


@settings(deadline=None, max_examples=100)
@given(kernel_cases(), st.sampled_from(KERNEL_POINTS))
def test_columns_at_a_point_on_random_elements(case, x):
    elt, source, target = case
    assert_equal_up_to_sign(
        right_mult_columns_at(elt, source, target, x),
        right_mult_matrix(elt, source, target).specialize_int_columns(x),
    )


def test_columns_at_zero_raise():
    n = 3
    basis = black_box_basis(n, 0)
    with pytest.raises(ValueError, match="v must be a unit"):
        right_mult_columns_at(AlgebraElement.one(n), basis, basis, 0)
    with pytest.raises(ValueError, match="v must be a unit"):
        boundary_ranks(n, CONVENTION_A, Fraction(0))


def test_degree_zero_boundary_is_identity_coefficient():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            mat = differential(n, 0, conv)
            assert mat.nrows == 1
            for col in chain_basis(n, 0):
                entry = mat.entry(0, col)
                if enumerate_pairings(n)[col] == identity(n):
                    assert entry == LaurentPoly.one()
                else:
                    assert not entry


def test_dd_zero_symbolically():
    for conv in CONVENTIONS:
        for n in range(1, 7):
            for i in range(n - 1):
                assert differential(n, i, conv).compose(differential(n, i + 1, conv)).is_zero


def test_euler_characteristic_small():
    for n in range(1, 10):
        assert euler_characteristic(n) == (-1) ** (n - 1) * fine(n)
    assert euler_characteristic(3) == -1 + 3 - 5 + 5 == 2


def test_homology_ranks_small():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            _, homology = homology_ranks(n, conv)
            assert all(homology[d] == 0 for d in range(-1, n - 1))
            assert homology[n - 1] == fine(n)
            homology_sum = sum((-1) ** (d % 2) * h for d, h in homology.items())
            assert homology_sum == euler_characteristic(n)
            assert euler_characteristic(n) == (-1) ** (n - 1) * fine(n)


def test_homology_pinned_n3():
    boundary, homology = homology_ranks(3, CONVENTION_A, (Fraction(2), Fraction(3)))
    assert boundary == {0: 1, 1: 2, 2: 3}
    assert homology == {-1: 0, 0: 0, 1: 0, 2: 2}
    assert homology[2] == 2 == fine_by_enumeration(3)


def test_homology_alternative_points():
    _, homology = homology_ranks(4, CONVENTION_B, (Fraction(5), Fraction(-7, 3)))
    assert all(homology[d] == 0 for d in range(-1, 3))
    assert homology[3] == fine(4) == 6
    # the rational points of the rank benchmark, where denominators and
    # signs enter the integer specialization
    points = tuple(Fraction(p) for p in ("1/2", "-1/2", "3/2", "-3/2", "-2"))
    for conv in CONVENTIONS:
        for n in range(1, 7):
            _, homology = homology_ranks(n, conv, points)
            assert all(homology[d] == 0 for d in range(-1, n - 1))
            assert homology[n - 1] == fine(n)


def test_homology_requires_two_nonzero_points():
    with pytest.raises(ValueError):
        homology_ranks(3, CONVENTION_A, (Fraction(2),))
    with pytest.raises(ValueError, match="must be distinct"):
        homology_ranks(3, CONVENTION_A, (Fraction(2), Fraction(2)))
    with pytest.raises(ValueError, match="must be distinct"):
        homology_ranks(3, CONVENTION_A, (Fraction(2), Fraction(2), Fraction(3)))
    with pytest.raises(ValueError):
        homology_ranks(3, CONVENTION_A, (Fraction(0), Fraction(2)))


def test_complex_functions_reject_n_0_and_cache_ranks():
    for call in (
        lambda: chain_basis(0, -1),
        lambda: euler_characteristic(0),
        lambda: homology_ranks(0, CONVENTION_A),
    ):
        with pytest.raises(ValueError, match="n must be positive"):
            call()
    # an integer point and its Fraction are one cache entry
    boundary_ranks.cache_clear()
    first = boundary_ranks(3, CONVENTION_A, Fraction(2))
    assert boundary_ranks(3, CONVENTION_A, 2) == first
    info = boundary_ranks.cache_info()
    # one call ranks every degree at the point
    assert (info.hits, info.misses) == (1, 1)


def test_boundary_rank_stops_at_the_bound_d_d_zero_gives(monkeypatch):
    # each elimination is handed c_(i-1) - r_(i-1), the bound that
    # d^(i-1) d^i = 0 puts on the rank of d^i at the same point
    limits = []
    real = chains.rank_of_int_columns

    def recording(columns, limit=None):
        limits.append(limit)
        return real(columns, limit)

    monkeypatch.setattr(chains, "rank_of_int_columns", recording)
    boundary_ranks.cache_clear()
    try:
        for conv in CONVENTIONS:
            for n in range(1, 7):
                for point in (Fraction(2), Fraction(-3, 2)):
                    limits.clear()
                    ranks = boundary_ranks(n, conv, point)
                    bounds = [len(chain_basis(n, i - 1)) - (ranks[i - 1] if i else 0) for i in range(n)]
                    assert bounds[0] == 1
                    assert limits == bounds
                    assert all(rank <= bound for rank, bound in zip(ranks, bounds))
    finally:
        boundary_ranks.cache_clear()


def test_differential_reads_the_weights_not_the_tag():
    # B's weights under A's tag give B's maps, and any tag is accepted
    mixed = Convention("A", CONVENTION_B.lam, CONVENTION_B.mu)
    assert differential(3, 1, mixed) == differential(3, 1, CONVENTION_B)
    assert differential(3, 1, mixed) != differential(3, 1, CONVENTION_A)
    custom = Convention("custom", CONVENTION_B.lam, CONVENTION_B.mu)
    assert differential(3, 1, custom) == differential(3, 1, CONVENTION_B)
    assert homology_ranks(3, custom) == homology_ranks(3, CONVENTION_B)


def test_theorem_B_rank_identity():
    # the top homology rank, the n-th Fine number, is the alternating
    # first-peak sum
    for n in range(1, 13):
        assert fine(n) == sum((-1) ** m * first_peak_count_B(n, m) for m in range(n + 1))
    assert sum((-1) ** m * first_peak_count_B(3, m) for m in range(4)) == 2
    assert sum((-1) ** m * first_peak_count_B(1, m) for m in range(2)) == 0


def test_theorem_B_rank_identity_detects_wrong_counts(monkeypatch):
    import planartl.combin as combin_module

    def wrong_count(n, m):
        return first_peak_count_B(n, m) + (m == 1)

    # a cold cache, so that no Fine number computed from the right counts
    # can stand in for the check
    combin_module.fine.cache_clear()
    monkeypatch.setattr(combin_module, "first_peak_count_B", wrong_count)
    for n in range(1, 13):
        with pytest.raises(RuntimeError, match="Fine number routes disagree"):
            combin_module.fine(n)
