"""Exact linear algebra tests.  The sparse fraction-free elimination is
checked against two independent oracles: dense Bareiss elimination and
plain rational Gaussian elimination."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planartl.chains import differential, homology_ranks, right_mult_matrix
from planartl.coeff import CONVENTION_A, CONVENTION_B, LaurentPoly
from planartl.indmod import black_box_basis
from planartl.jacobsthal import MATCHING_RATIO_SIGN, jacobsthal_element
from planartl.linalg import PolyMatrix, rank_at, rank_of_int_columns
from oracles import point_ranks, rank_dense_bareiss


def rank_fraction_gauss(rows: list[list[int]]) -> int:
    """Oracle: textbook Gaussian elimination over the rationals."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def columns_to_dense(cols, nrows):
    dense = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, val in col.items():
            dense[i][j] = val
    return dense


def random_int_columns(rng, nrows, ncols, density=0.4, bound=6):
    return [
        {
            i: rng.randint(-bound, bound)
            for i in range(nrows)
            if rng.random() < density
        }
        for _ in range(ncols)
    ]


def test_rank_trivial_cases():
    assert rank_of_int_columns([]) == 0
    assert rank_of_int_columns([{}, {}]) == 0
    identity_cols = [{i: 1} for i in range(4)]
    assert rank_of_int_columns(identity_cols) == 4


def test_rank_pinned_small():
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 1: 1}]
    assert rank_of_int_columns(cols) == 2
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert rank_of_int_columns(cols) == 1


def test_rank_leaves_the_callers_columns_unchanged():
    cols = [
        {0: 2, 1: 3},
        # lead 4 against the pivot's 2: a == 1, the column is updated in
        # place to {1: -5}, and its content 5 is divided out
        {0: 4, 1: 1},
        # lead 3 against 2: a == 2; then lead -7 against -1: a == -1,
        # leaving {2: -2}, whose content 2 is divided out
        {0: 3, 1: 1, 2: 1, 3: 0},
        {0: 6, 1: 9},
    ]
    before = [dict(col) for col in cols]
    assert rank_of_int_columns(cols) == 3
    assert cols == before


def test_rank_routes_agree_on_random_matrices():
    rng = random.Random(424242)
    for _ in range(120):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        cols = random_int_columns(rng, nrows, ncols)
        dense = columns_to_dense(cols, nrows)
        before = [dict(c) for c in cols]
        sparse_rank = rank_of_int_columns(cols)
        assert cols == before  # zeros included: the caller's columns are not changed
        assert sparse_rank == rank_dense_bareiss(dense)
        assert sparse_rank == rank_fraction_gauss(dense)


def test_rank_routes_agree_on_boundary_and_jacobsthal_matrices():
    # the matrices the checks rank: every boundary map and the top
    # Jacobsthal matrix, at a positive and a negative non-integer point
    for conv in (CONVENTION_A, CONVENTION_B):
        for n in range(1, 7):
            basis = black_box_basis(n, 0)
            top = jacobsthal_element(n, n, conv, MATCHING_RATIO_SIGN).element
            matrices = [differential(n, i, conv) for i in range(n)]
            matrices.append(right_mult_matrix(top, basis, basis))
            for point in (Fraction(2), Fraction(-3, 2)):
                for mat in matrices:
                    cols = mat.specialize_int_columns(point)
                    dense = columns_to_dense(cols, mat.nrows)
                    assert rank_of_int_columns(cols) == rank_dense_bareiss(dense)


def test_boundary_rank_equals_the_rank_of_the_specialized_matrix():
    # the certified closed forms against the oracle route, each Laurent
    # matrix specialized and then eliminated, at n = 7 and points with a
    # denominator or a sign, where the other tests rank integer points
    points = tuple(Fraction(p) for p in ("-2", "1/2", "-3/2"))
    for conv in (CONVENTION_A, CONVENTION_B):
        n = 7
        boundary, _ = homology_ranks(n, conv)
        for point in points:
            assert point_ranks(n, conv, point) == tuple(boundary[i] for i in range(n)), (conv.tag, point)


def test_rank_routes_agree_on_low_rank_products():
    # products of thin matrices have controlled rank, a sharper exercise
    rng = random.Random(99)
    for _ in range(40):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        prod = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)
        ]
        cols = [
            {i: prod[i][j] for i in range(n) if prod[i][j]} for j in range(n)
        ]
        r = rank_of_int_columns(cols)
        assert r <= k
        assert r == rank_fraction_gauss(prod)


V = LaurentPoly.v_power(1)
ONE = LaurentPoly.one()


def poly_matrix_from_lists(entries):
    nrows = len(entries)
    ncols = len(entries[0]) if entries else 0
    cols = [
        {i: entries[i][j] for i in range(nrows) if entries[i][j]}
        for j in range(ncols)
    ]
    return PolyMatrix(nrows, ncols, cols)


def test_rank_at_specializes_exactly():
    # [[v, v^-1], [v^2, 1]] has determinant 0, so rank 1 at every point
    mat = poly_matrix_from_lists(
        [[V, LaurentPoly.v_power(-1)], [LaurentPoly.v_power(2), ONE]]
    )
    for point in (Fraction(2), Fraction(3), Fraction(-5, 7)):
        assert rank_at(mat, point) == 1
    # while [[v, v^-1], [1, 1]] drops rank only at v^2 = 1
    mat2 = poly_matrix_from_lists([[V, LaurentPoly.v_power(-1)], [ONE, ONE]])
    assert rank_at(mat2, Fraction(2)) == 2
    assert rank_at(mat2, Fraction(1)) == 1


def test_rank_at_rejects_zero():
    mat = poly_matrix_from_lists([[V]])
    with pytest.raises(ValueError, match="v must be a unit"):
        rank_at(mat, Fraction(0))


def test_rank_at_clears_denominators():
    mat = poly_matrix_from_lists([[LaurentPoly.v_power(-3)], [LaurentPoly.v_power(-1, 2)]])
    assert rank_at(mat, Fraction(1, 2)) == 1


NROWS = 4
# entries with negative exponents, built from maps holding zero
# coefficients; no entry is zero, as the builder leaves none
entry_polys = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(LaurentPoly).filter(bool)
int_columns = st.lists(st.dictionaries(st.integers(0, NROWS - 1), entry_polys), max_size=4)
# v = p/q with p < 0 and q > 1 in lowest terms
fraction_points = st.tuples(st.integers(-12, -1), st.integers(2, 12)).filter(
    lambda t: gcd(*t) == 1
).map(lambda t: Fraction(*t))


@settings(deadline=None)
@given(int_columns, fraction_points)
def test_specialize_int_columns_is_a_primitive_multiple(columns, point):
    mat = PolyMatrix(NROWS, len(columns), columns)
    got = mat.specialize_int_columns(point)
    assert len(got) == len(columns)
    for col, ints in zip(mat.columns, got):
        values = {
            r: sum(c * point**e for e, c in poly.coefficients().items()) for r, poly in col.items()
        }
        values = {r: x for r, x in values.items() if x}
        assert all(ints.values())  # no zero entry is kept
        assert set(ints) == set(values)
        if values:
            assert len({Fraction(ints[r]) / x for r, x in values.items()}) == 1
            assert gcd(*ints.values()) == 1


def test_compose_matches_naive_product():
    rng = random.Random(7)

    def random_poly():
        return LaurentPoly({rng.randint(-2, 2): rng.randint(-2, 2)})

    for _ in range(25):
        p, q, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[random_poly() for _ in range(q)] for _ in range(p)]
        b = [[random_poly() for _ in range(r)] for _ in range(q)]
        mat_a = poly_matrix_from_lists(a)
        mat_b = poly_matrix_from_lists(b)
        product = mat_a.compose(mat_b)
        for i in range(p):
            for j in range(r):
                expected = LaurentPoly.zero()
                for t in range(q):
                    expected = expected + a[i][t] * b[t][j]
                assert product.entry(i, j) == expected


def test_compose_dimension_mismatch():
    a = PolyMatrix(2, 3, [{}, {}, {}])
    b = PolyMatrix(2, 2, [{}, {}])
    with pytest.raises(ValueError):
        a.compose(b)


def test_constructor_drops_zero_entries_from_a_generator():
    # the constructor keeps the columns it is handed, read once from a
    # generator: the builder leaves no zero, so none is looked for
    handed = [{0: V}, {1: ONE}, {}]
    mat = PolyMatrix(2, 3, (col for col in handed))
    assert mat.columns == handed
    assert all(got is col for got, col in zip(mat.columns, handed))
    zero = LaurentPoly.zero()
    assert mat == poly_matrix_from_lists([[V, zero, zero], [zero, ONE, zero]])
    # compose drops the sums that cancel: [1 1] [1; -1] = [0]
    cancelled = PolyMatrix(1, 2, [{0: ONE}, {0: ONE}]).compose(PolyMatrix(2, 1, [{0: ONE, 1: -ONE}]))
    assert cancelled.columns == [{}]
    with pytest.raises(ValueError, match="column count mismatch"):
        PolyMatrix(2, 3, ({} for _ in range(2)))
    with pytest.raises(ValueError, match="out of range"):
        PolyMatrix(2, 1, [{2: ONE}])


@pytest.mark.parametrize("row", [-1, -5, 3, 4])
def test_constructor_names_a_row_out_of_range(row):
    # 3 rows: a negative row and a row at or past nrows raise, naming it,
    # beside in-range entries and a zero one, in any position
    for column in ({row: ONE}, {0: V, row: ONE, 2: ONE}, {2: ONE, 1: LaurentPoly.zero(), row: V}):
        with pytest.raises(ValueError, match=rf"^row index {row} out of range$"):
            PolyMatrix(3, 2, [{0: ONE}, column])


def test_constructor_keeps_empty_columns():
    mat = PolyMatrix(3, 3, [{}, {0: ONE, 2: V}, {}])
    assert mat.columns == [{}, {0: ONE, 2: V}, {}]
    assert mat.nnz() == 2
    assert PolyMatrix(0, 2, [{}, {}]).columns == [{}, {}]
    with pytest.raises(ValueError, match="row index 0 out of range"):
        PolyMatrix(0, 1, [{0: ONE}])


def test_first_difference():
    a = poly_matrix_from_lists([[ONE, V], [ONE, ONE]])
    b = poly_matrix_from_lists([[ONE, V], [ONE, V]])
    identity = PolyMatrix(2, 2, [{0: ONE}, {1: ONE}])
    assert a.first_difference(a.compose(identity)) is None
    diff = a.first_difference(b)
    assert diff is not None
    row, col, left, right = diff
    assert (row, col) == (1, 1)
    assert left == ONE and right == V


def test_entries_list_sorted_and_textual():
    mat = poly_matrix_from_lists([[ONE, V], [LaurentPoly.zero(), V + ONE]])
    assert mat.entries_list() == [
        (0, 0, "1"),
        (0, 1, "v^1"),
        (1, 1, "v^1+1"),
    ]
