"""Chain complex tests: basis ranks, the boundary maps, d o d = 0, the
Euler characteristic, and the certified homology ranks against the ranks
at specializations."""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planartl.chains as chains
from planartl.algebra import AlgebraElement, braiding_s, elt_mul, generator_tables
from planartl.chains import (
    boundary_composite_vanishes,
    boundary_element,
    chain_basis,
    differential,
    euler_characteristic,
    exactness_certificate,
    first_nonvanishing_composite,
    homology_ranks,
    right_mult_matrix,
)
from planartl.coeff import CONVENTION_A, CONVENTION_B, Convention, LaurentPoly, mu_over_lambda
from planartl.combin import fine, fine_by_enumeration, first_peak_count_B
from planartl.diagram import enumerate_pairings, identity
from planartl.indmod import black_box_basis, largest_free_box, project
from planartl.jacobsthal import jacobsthal_element
from planartl.linalg import PolyMatrix
from oracles import point_ranks

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
        + elt_mul(u1, u3).scale(LaurentPoly.constant(-1))
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
    target) pair of box bases.

    On n >= 3 strands some elements take c (U_(j+1) U_j - 1) in place of
    their terms on those two diagrams, and both bases then hold U_j.
    Since U_j U_(j+1) U_j = U_j, the walk moves the pair c, -c onto one
    row of U_j's column, a sum that cancels there."""
    n = draw(st.integers(1, 6))
    diagrams = enumerate_pairings(n)
    coeffs = st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(-3, 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
    )
    terms = draw(st.dictionaries(st.integers(0, len(diagrams) - 1), coeffs, min_size=1, max_size=5))
    elt = AlgebraElement(n, {diagrams[k]: c for k, c in terms.items()})
    bases = [black_box_basis(n, m) for m in range(n + 1)]
    if n >= 3 and draw(st.booleans()):
        j = draw(st.integers(1, n - 2))
        u = AlgebraElement.generator(n, j)
        pair = elt_mul(AlgebraElement.generator(n, j + 1), u) - AlgebraElement.one(n)
        kept = AlgebraElement(n, {d: w for d, w in elt.terms.items() if d not in pair.terms})
        elt = kept + pair.scale(draw(coeffs))
        position = diagrams.index(next(iter(u.terms)))
        bases = [basis for basis in bases if position in basis]
    boxes = st.sampled_from(bases)
    return elt, draw(boxes), draw(boxes)


@settings(deadline=None, max_examples=100)
@given(kernel_cases())
def test_right_mult_matrix_on_random_elements(case):
    elt, source, target = case
    matrix = right_mult_matrix(elt, source, target)
    assert matrix == reference_right_mult_matrix(elt, source, target)
    # the kernel's contract, which the certificate trusts: every entry
    # nonzero, every row in the target
    assert all(p and 0 <= r < len(target) for col in matrix.columns for r, p in col.items())


def test_right_mult_matrix_raises_on_a_parent_outside_the_source(monkeypatch):
    import planartl.chains as chains_module

    n = 4
    real = generator_tables(n)
    source = black_box_basis(n, 2)
    k = next(k for k in real.order[1:] if k < len(source))
    parent = list(real.parent)
    parent[k] = (len(source), parent[k][1])
    tampered = SimpleNamespace(left=real.left, order=real.order, parent=parent)
    monkeypatch.setattr(chains_module, "generator_tables", lambda n: tampered)
    with pytest.raises(RuntimeError, match="outside the source basis"):
        right_mult_matrix(AlgebraElement.one(n), source, source)


def test_right_mult_matrix_columns_share_entries_and_hold_no_zero(monkeypatch):
    # each column drops its cancelled entries before a child inherits
    # them; equal entries are one object, so the shared entries are
    # counted by identity
    import planartl.chains as chains_module

    monkeypatch.setattr(chains_module, "PolyMatrix", lambda nrows, ncols, columns: list(columns))
    n = 6
    tables = generator_tables(n)
    for conv in CONVENTIONS:
        shared = 0
        for i in range(n):
            columns = right_mult_matrix(boundary_element(n, i, conv), chain_basis(n, i), chain_basis(n, i - 1))
            assert all(all(col.values()) for col in columns)
            for k in tables.order[1:]:
                if k < len(columns):
                    parent = set(columns[tables.parent[k][0]].values())
                    shared += sum(poly in parent for poly in columns[k].values())
        assert shared > 0


def test_right_mult_matrix_drops_a_cancelling_sum(monkeypatch):
    # On 3 strands U_1 U_2 U_1 = U_1, so x = U_1 sends U_2 U_1 - 1 to 0:
    # U_1 moves the identity column's two entries onto one row, their
    # cached sum is the one zero, and the act's column drops it
    n = 3
    elt = elt_mul(AlgebraElement.generator(n, 2), AlgebraElement.generator(n, 1)) - AlgebraElement.one(n)
    full = black_box_basis(n, 0)
    monkeypatch.setattr(chains, "PolyMatrix", lambda nrows, ncols, columns: list(columns))
    columns = right_mult_matrix(elt, full, full)
    u1 = enumerate_pairings(n).index(next(iter(AlgebraElement.generator(n, 1).terms)))
    assert columns[u1] == {}
    assert len(columns[0]) == 2
    assert PolyMatrix(len(full), len(full), columns) == reference_right_mult_matrix(elt, full, full)


def test_columns_at_zero_raise():
    # the rank oracle's columns at v = 0 raise rather than rank a
    # matrix at a point where v is no unit
    n = 3
    basis = black_box_basis(n, 0)
    with pytest.raises(ValueError, match="v must be a unit"):
        right_mult_matrix(AlgebraElement.one(n), basis, basis).specialize_int_columns(0)
    with pytest.raises(ValueError, match="v must be a unit"):
        point_ranks(n, CONVENTION_A, Fraction(0))


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
                assert differential(n, i, conv).compose(differential(n, i + 1, conv)).nnz() == 0


def _boundary_by_products(n, i, conv):
    """The definition of b_i, on the independent product path: each
    descending product extended by elt_mul with a braiding element."""
    step = -conv.lam.inverse()
    total = partial = AlgebraElement.one(n)
    for j in range(1, i + 1):
        partial = elt_mul(braiding_s(n, n - i + j - 1, conv), partial)
        total = total + partial.scale(step**j)
    return total


def _add_through_strands(elt, n):
    """The image of elt under the embedding TL_l -> TL_n that adds n-l
    through strands at the right dots 1 ... n-l (joined to the left dots
    1 ... n-l) and shifts the diagram's own dots up by n-l."""
    shift = n - elt.n
    terms = {}
    for d, w in elt.terms.items():
        # the left dot facing right dot x sits at 2l-1-x, and its image
        # at 2n-1-(x+shift): every point of d moves up by shift
        image = list(identity(n))
        image[shift : shift + len(d)] = [q + shift for q in d]
        terms[tuple(image)] = w
    return AlgebraElement(n, terms)


def test_boundary_element_matches_its_definition():
    for conv in CONVENTIONS:
        for n in range(1, 8):
            for i in range(n):
                assert boundary_element(n, i, conv) == _boundary_by_products(n, i, conv), (conv.tag, n, i)


def test_boundary_element_is_stable_under_added_strands():
    # b_i on n strands is the image of b_i on i + 1 strands, and so is
    # the (i+1)-st Jacobsthal element of either sign
    for conv in CONVENTIONS:
        for n in range(1, 9):
            for i in range(n):
                assert boundary_element(n, i, conv) == _add_through_strands(boundary_element(i + 1, i, conv), n)
                for sign in (1, -1):
                    image = _add_through_strands(jacobsthal_element(i + 1, i + 1, conv, sign).element, n)
                    assert jacobsthal_element(n, i + 1, conv, sign).element == image


def test_embedding_is_an_algebra_map_on_the_bases():
    # products and loop counts survive the added strands, and distinct
    # diagrams stay distinct
    for l in range(1, 5):
        for n in range(l, l + 3):
            images = {}
            for x in enumerate_pairings(l):
                ex = _add_through_strands(AlgebraElement.from_diagram(x), n)
                images[next(iter(ex.terms))] = x
                for y in enumerate_pairings(l):
                    ey = _add_through_strands(AlgebraElement.from_diagram(y), n)
                    product = elt_mul(AlgebraElement.from_diagram(x), AlgebraElement.from_diagram(y))
                    assert elt_mul(ex, ey) == _add_through_strands(product, n)
            assert len(images) == len(enumerate_pairings(l))


def test_horner_product_matches_elt_mul():
    # x b_i by Horner over b_i's factors, against the general product
    for conv in CONVENTIONS:
        for n in range(2, 8):
            for x in (boundary_element(n, n - 1, conv), AlgebraElement.generator(n, 1)):
                for i in range(n):
                    expected = elt_mul(x, _boundary_by_products(n, i, conv))
                    assert chains._times_boundary(x, i, conv) == expected, (conv.tag, n, i)


def test_composite_verdict_rejects_fewer_than_two_strands():
    with pytest.raises(ValueError):
        boundary_composite_vanishes(1, CONVENTION_A)


def test_composite_verdict_test_is_a_free_box_below_two():
    # the verdict reads d[0] == 1 for "joins the right dots 1 and 2":
    # on every pairing that is a largest free box below 2
    for n in range(2, 11):
        for d in enumerate_pairings(n):
            assert (d[0] == 1) == (largest_free_box(d) < 2), d


def test_first_nonvanishing_composite_reads_the_verdicts(monkeypatch):
    # None where d o d = 0 on W(n), else the least l whose verdict fails
    for conv in CONVENTIONS:
        assert [first_nonvanishing_composite(n, conv) for n in range(1, 9)] == [None] * 8
    real = chains.boundary_composite_vanishes
    for failing in ({3}, {3, 5}):
        monkeypatch.setattr(chains, "boundary_composite_vanishes", lambda l, c: l not in failing and real(l, c))
        for conv in CONVENTIONS:
            assert [first_nonvanishing_composite(n, conv) for n in range(1, 9)] == [None, None] + [3] * 6


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
    boundary, homology = homology_ranks(3, CONVENTION_A)
    assert boundary == {0: 1, 1: 2, 2: 3}
    assert homology == {-1: 0, 0: 0, 1: 0, 2: 2}
    assert homology[2] == 2 == fine_by_enumeration(3)


def test_homology_alternative_points():
    # at the rational points of the rank benchmark, where denominators
    # and signs enter the integer specialization, and at 5 and -7/3,
    # the oracle's ranks are the certified ones, so homology vanishes
    # below the top there and the top rank is the Fine number
    points = tuple(Fraction(p) for p in ("5", "-7/3", "1/2", "-1/2", "3/2", "-3/2", "-2"))
    for conv in CONVENTIONS:
        for n in range(1, 7):
            boundary, homology = homology_ranks(n, conv)
            assert all(homology[d] == 0 for d in range(-1, n - 1))
            assert homology[n - 1] == fine(n)
            for point in points:
                assert point_ranks(n, conv, point) == tuple(boundary[i] for i in range(n)), (conv.tag, n, point)


def test_homology_requires_two_nonzero_points(capsys):
    # the command line validates the points before any check runs,
    # though no check reads them
    from planartl.cli import main

    for points, message in (
        ("2", "need at least two specialization points"),
        ("2,2", "specialization points must be distinct"),
        ("2,2,3", "specialization points must be distinct"),
        ("0,2", "specialization points must be nonzero"),
    ):
        assert main(["verify", "homology", "--n-max", "3", "--points", points]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_complex_functions_reject_n_0_and_cache_ranks():
    exactness_certificate.cache_clear()
    for call in (
        lambda: chain_basis(0, -1),
        lambda: euler_characteristic(0),
        lambda: homology_ranks(0, CONVENTION_A),
        lambda: exactness_certificate(0, CONVENTION_A),
        lambda: exactness_certificate(-3, CONVENTION_A),
    ):
        with pytest.raises(ValueError, match="n must be positive"):
            call()
    # a rejected n leaves no verdict in the cache; a real one is taken
    # once and read back
    before = exactness_certificate.cache_info()
    assert before.currsize == 0
    assert exactness_certificate(3, CONVENTION_A) is None
    assert exactness_certificate(3, CONVENTION_A) is None
    after = exactness_certificate.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses, after.currsize) == (1, 1, 1)
    exactness_certificate.cache_clear()


def _inclusion(n, k):
    """The matrix of i_k, degree k into degree k+1: both bases are
    Dyck-lex prefixes, so it is the identity on the smaller one."""
    size = len(chain_basis(n, k))
    return PolyMatrix(len(chain_basis(n, k + 1)), size, [{j: LaurentPoly.one()} for j in range(size)])


def _homotopy_columns(n, c):
    """The columns of phi_k = d^(k+1) i_k + i_(k-1) d^k for k = -1 ...
    n-2, as (k, j, column) in that order, in full, over Z[v, v^-1]: the
    phi oracle.  Column j of d^(k+1) i_k is column j of d^(k+1), and
    i_(k-1) d^k is d^k with its rows read in degree k; there is no such
    term at k = -1.  Each d^i is built once by ``right_mult_matrix``."""
    below = None  # d^k, from degree k to degree k-1
    for k in range(-1, n - 1):
        basis = chain_basis(n, k)
        above = right_mult_matrix(boundary_element(n, k + 1, c), chain_basis(n, k + 1), basis)
        for j in range(len(basis)):
            column = dict(above.columns[j])
            if below is not None:
                for row, poly in below.columns[j].items():
                    column[row] = column[row] + poly if row in column else poly
            yield k, j, column
        below = above


def _added(first, second):
    """The sum of two columns, with cancelled entries dropped."""
    total = dict(first)
    for row, poly in second.items():
        total[row] = total[row] + poly if row in total else poly
    return {row: poly for row, poly in total.items() if poly}


#: The diagonal of phi_k from c_(k-1) on: v a in A, v^-1 a in B.
SECOND_KIND = {"A": LaurentPoly({2: 1, 0: 1}), "B": LaurentPoly({0: 1, -2: 1})}


def test_homotopy_columns_are_phi_from_the_differentials():
    # phi_k = d^(k+1) i_k + i_(k-1) d^k from the full differentials and
    # explicit inclusions; its diagonal is 1 below c_(k-1) and at k = -1,
    # and SECOND_KIND from c_(k-1) on, C_n - 1 such entries
    for conv in CONVENTIONS:
        for n in range(1, 8):
            got = {}
            for k, j, column in _homotopy_columns(n, conv):
                got.setdefault(k, []).append({row: poly for row, poly in column.items() if poly})
            assert sorted(got) == list(range(-1, n - 1))
            seconds = 0
            for k in range(-1, n - 1):
                phi = differential(n, k + 1, conv).compose(_inclusion(n, k)).columns
                if k >= 0:
                    lower = _inclusion(n, k - 1).compose(differential(n, k, conv)).columns
                    phi = [_added(upper, below) for upper, below in zip(phi, lower)]
                assert got[k] == phi
                start = len(chain_basis(n, k - 1)) if k >= 0 else 1
                for j, column in enumerate(phi):
                    assert all(row >= j for row in column)
                    assert column[j] == (SECOND_KIND[conv.tag] if j >= start else LaurentPoly.one())
                    seconds += j >= start
            assert seconds == len(chain_basis(n, n - 1)) - 1
            assert exactness_certificate(n, conv) is None


def test_certificate_diagonal_read_directly_at_n_8_and_9():
    # phi_k[j][j] = d^(k+1)[j][j] + d^k[j][j], read with no compose: the
    # pattern pinned above at n <= 7, now at n = 8 and 9
    zero = LaurentPoly.zero()
    for conv in CONVENTIONS:
        for n in (8, 9):
            seconds = 0
            below = None  # the columns of d^k
            for k in range(-1, n - 1):
                above = differential(n, k + 1, conv).columns
                start = len(chain_basis(n, k - 1)) if k >= 0 else 1
                for j in range(len(chain_basis(n, k))):
                    diagonal = above[j].get(j, zero) + (below[j].get(j, zero) if below is not None else zero)
                    expected = SECOND_KIND[conv.tag] if j >= start else LaurentPoly.one()
                    assert diagonal == expected, (conv.tag, n, k, j)
                    seconds += j >= start
                below = above
            assert seconds == len(chain_basis(n, n - 1)) - 1


def test_unit_diagonal_shapes():
    v = LaurentPoly.v_power
    for unit in (LaurentPoly.one(), -v(3), v(-2) + v(0), -(v(5) + v(3)), -v(-1) - v(-3)):
        assert chains._is_unit(unit), unit
    for other in (LaurentPoly.zero(), LaurentPoly.constant(2), v(1) + v(0), v(2) + v(0, 2),
                  v(2) - v(0), v(4) + v(0), v(2) + v(1) + v(0)):
        assert not chains._is_unit(other), other


def test_certified_ranks_equal_the_point_ranks():
    # the closed forms r_0 = 1, r_i = c_(i-1) - r_(i-1) against the
    # oracle's elimination at points where a = v + v^-1 is 5/2, 10/3, 2
    # and -2, and, at n <= 6, at points where denominators and signs
    # enter
    rational = tuple(Fraction(p) for p in ("5", "-7/3", "1/2", "-1/2", "3/2", "-3/2", "-2"))
    for conv in CONVENTIONS:
        for n in range(1, 9):
            assert exactness_certificate(n, conv) is None
            boundary, _ = homology_ranks(n, conv)
            certified = tuple(boundary[i] for i in range(n))
            points = (2, 3, 1, -1) + (rational if n <= 6 else ())
            for point in points:
                assert point_ranks(n, conv, Fraction(point)) == certified, (conv.tag, n, point)


@pytest.mark.parametrize("row, delta, text", [
    (4, LaurentPoly.v_power(3), "v^3"),  # an entry above the diagonal
    (9, LaurentPoly.one(), "2"),  # the diagonal 1 made 2
    (9, LaurentPoly.v_power(1), "v^1+1"),  # the diagonal 1 made v + 1
])
def test_doctored_column_fails_the_certificate_and_the_points_are_ranked(monkeypatch, row, delta, text):
    # column 9 of d^3 on 5 strands is column 9 of phi_2, whose diagonal
    # there is 1, since 9 < c_1 = 14.  No rank stands in: homology and
    # the top kernel rank raise, naming phi_2, the column and the entry
    from planartl.jacobsthal import jacobsthal_kernel_rank

    n, k, j = 5, 2, 9
    assert j < len(chain_basis(n, k - 1))
    real = chains.right_mult_matrix
    message = f"exactness certificate fails at phi_{k}, column {j}: entry {text}"
    for conv in CONVENTIONS:
        doctored = boundary_element(n, k + 1, conv)

        def doctoring(elt, source, target):
            matrix = real(elt, source, target)
            if elt is doctored and target == chain_basis(n, k):
                column = matrix.columns[j]
                column[row] = column[row] + delta if row in column else delta
            return matrix

        monkeypatch.setattr(chains, "right_mult_matrix", doctoring)
        exactness_certificate.cache_clear()
        try:
            assert exactness_certificate(n, conv) == (k, j, text)
            with pytest.raises(RuntimeError) as raised:
                homology_ranks(n, conv)
            assert str(raised.value) == message
            with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
                jacobsthal_kernel_rank(n, conv)
        finally:
            exactness_certificate.cache_clear()


class _Unreadable:
    """An entry that raises on any use: reading it at all fails."""

    def _read(self, *args):
        raise AssertionError("an entry below the diagonal was read")

    __getattr__ = __bool__ = __add__ = __radd__ = __eq__ = __hash__ = _read


@pytest.mark.parametrize("delta", [LaurentPoly({7: 3}), _Unreadable()], ids=["nonzero", "unreadable"])
def test_certificate_reads_no_row_below_the_diagonal(monkeypatch, delta):
    # in every column j of every d^(k+1), each entry at a row > j is
    # replaced, and one is added at the last row c_k - 1 > j: rows below
    # the diagonal of phi_k and of phi_(k+1) alike.  A nonzero entry
    # changes no verdict, and one that raises on any use shows that
    # those rows are never formed, though both terms of phi have some
    real = chains.right_mult_matrix
    doctored = []

    def doctoring(elt, source, target):
        matrix = real(elt, source, target)
        last = len(target) - 1
        for j, column in enumerate(matrix.columns[:last]):
            for row in [*column, last]:
                if row > j:
                    column[row] = delta
                    doctored.append(row)
        return matrix

    monkeypatch.setattr(chains, "right_mult_matrix", doctoring)
    exactness_certificate.cache_clear()
    try:
        for conv in CONVENTIONS:
            for n in range(1, 7):
                assert exactness_certificate(n, conv) is None
    finally:
        exactness_certificate.cache_clear()
    assert len(doctored) > 1000


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
