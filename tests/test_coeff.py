"""Coefficient ring tests: ring axioms, specialization, text round trip."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planartl.chains as chains
import planartl.coeff as coeff
from planartl.coeff import (
    CONVENTION_A,
    CONVENTION_B,
    LOOP_FACTOR,
    LaurentPoly,
    convention,
    mu_over_lambda,
)

_TERM_RE = re.compile(r"([+-]?)((?:\d+\*)?v(?:\^(-?\d+))?|\d+)")


def specialize(p: LaurentPoly, x) -> Fraction:
    """Evaluate p at v = x exactly; x must be a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("v must be a unit")
    return sum((c * x**e for e, c in p.coefficients().items()), Fraction(0))


def parse(text: str) -> LaurentPoly:
    """Inverse of ``LaurentPoly.to_text`` (whitespace-insensitive)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    terms: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (pos > 0 and not m.group(1)):
            raise ValueError(f"bad polynomial text: {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        body = m.group(2)
        if "v" in body:
            coeff = int(body.split("*")[0]) if "*" in body else 1
            e = int(m.group(3)) if m.group(3) is not None else 1
        else:
            coeff = int(body)
            e = 0
        w = terms.get(e, 0) + sign * coeff
        if w:
            terms[e] = w
        elif e in terms:
            del terms[e]
        pos = m.end()
    return LaurentPoly(terms)


V = LaurentPoly.v_power(1)
V_INV = LaurentPoly.v_power(-1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)

points = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=7
).filter(lambda x: x != 0)


def test_loop_weight_addition():
    assert V + V_INV == LaurentPoly({1: 1, -1: 1})


def test_add_identity_and_cancellation():
    p = LaurentPoly({3: 2, 0: -1})
    assert p + ZERO == p
    assert (V + V_INV) + LaurentPoly({1: -1}) == V_INV


def test_mul_examples():
    assert (V + V_INV) * V == LaurentPoly({2: 1, 0: 1})
    assert LaurentPoly.constant(-1) * LaurentPoly.constant(-1) == ONE
    ratio = mu_over_lambda(CONVENTION_A)
    assert ratio * ratio == LaurentPoly({2: 1})


def test_mu_over_lambda_both_conventions():
    assert mu_over_lambda(CONVENTION_A) == LaurentPoly({1: -1})
    assert mu_over_lambda(CONVENTION_B) == LaurentPoly({-1: -1})
    for conv in (CONVENTION_A, CONVENTION_B):
        assert conv.lam * mu_over_lambda(conv) == conv.mu


def test_convention_lookup_and_validation():
    assert convention("A") is CONVENTION_A
    assert convention("B") is CONVENTION_B
    with pytest.raises(ValueError):
        convention("C")


def test_specialize_examples():
    a = V + V_INV
    assert specialize(a, Fraction(2)) == Fraction(5, 2)
    assert specialize(CONVENTION_A.lam, Fraction(7, 3)) == -1
    q = specialize(LaurentPoly({2: 1}), Fraction(2))
    assert q == 4 and abs(q) != 1


def test_specialize_rejects_zero():
    with pytest.raises(ValueError, match="v must be a unit"):
        specialize(V, Fraction(0))


def test_inverse_of_unit_monomials():
    assert V.inverse() == V_INV
    assert LaurentPoly({2: -1}).inverse() == LaurentPoly({-2: -1})
    with pytest.raises(ValueError):
        (V + ONE).inverse()
    with pytest.raises(ValueError):
        LaurentPoly({1: 2}).inverse()


def test_powers():
    assert V**3 == LaurentPoly({3: 1})
    assert V**-2 == LaurentPoly({-2: 1})
    assert (V + V_INV) ** 0 == ONE
    assert LOOP_FACTOR**2 == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_loop_factor_has_no_negative_power():
    # v + v^-1 is no unit, so it has no negative power
    for k in (-1, -2):
        with pytest.raises(ValueError, match="is not a unit"):
            LOOP_FACTOR**k


def test_operands_are_laurent_polys_only():
    # an int is no polynomial: it neither equals nor combines with one
    assert LaurentPoly.constant(3) != 3
    with pytest.raises(TypeError):
        LaurentPoly.one() + 1
    with pytest.raises(TypeError):
        2 * LaurentPoly.one()
    with pytest.raises(TypeError):
        LaurentPoly.one() - 1
    # equal polynomials hash alike, the zero polynomial and the constants
    # included
    for c in (0, 1, -1, 7):
        p = LaurentPoly.constant(c)
        q = LaurentPoly({0: c, 2: 1}) - LaurentPoly.v_power(2)
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1
    assert hash(LaurentPoly.zero()) == hash(LaurentPoly()) == hash(V - V)
    assert hash(V + V_INV) == hash(LOOP_FACTOR)


def test_text_form_examples():
    assert (V + V_INV).to_text() == "v^1+v^-1"
    assert ZERO.to_text() == "0"
    assert LaurentPoly({2: -3, 0: 5}).to_text() == "-3*v^2+5"
    assert LaurentPoly({1: 1, -1: -1}).to_text() == "v^1-v^-1"


def test_parse_examples():
    assert parse("v^1 + v^-1") == V + V_INV
    assert parse("-3*v^2 + 5") == LaurentPoly({2: -3, 0: 5})
    assert parse("0") == ZERO
    assert parse("v") == V
    with pytest.raises(ValueError):
        parse("3v^2")
    with pytest.raises(ValueError):
        parse("")


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p + (-p) == ZERO


@settings(deadline=None)
@given(polys, polys, points)
def test_specialize_is_ring_homomorphism(p, q, x):
    assert specialize(p * q, x) == specialize(p, x) * specialize(q, x)
    assert specialize(p + q, x) == specialize(p, x) + specialize(q, x)


@given(polys)
def test_text_round_trip(p):
    assert parse(p.to_text()) == p


@given(polys, polys)
def test_hash_consistency(p, q):
    if p == q:
        assert hash(p) == hash(q)


def small_poly(rng: random.Random) -> LaurentPoly:
    """A fresh object: up to three terms, coefficients in -2..2 and
    exponents in -3..3, so that sums often cancel."""
    return LaurentPoly({rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))})


def test_interned_arithmetic_equals_the_real_one():
    # the walk's caches, keyed by the objects, return the operators' own
    rng = random.Random(2024)
    for _ in range(400):
        p, q = small_poly(rng), small_poly(rng)
        assert chains._SUM(p, q) is p + q
        assert chains._LOOP(p) is p * LOOP_FACTOR
        # results are canonical too, so they key the caches in turn
        total = chains._SUM(p, q)
        assert chains._LOOP(total) is (p + q) * LOOP_FACTOR
        # a cancelling pair gives the one zero
        assert chains._SUM(p, -p) is ZERO


def test_equal_values_share_one_interned_object():
    rng = random.Random(5)
    for _ in range(200):
        p = small_poly(rng)
        assert LaurentPoly(p.coefficients()) is p
        assert LaurentPoly({**p.coefficients(), 9: 0}) is p
    assert LaurentPoly() is ZERO
    assert LaurentPoly({3: 0}) is ZERO
    assert LaurentPoly.constant(1) is ONE


def test_interning_tables_grow_with_distinct_values_only():
    rng = random.Random(11)
    values = [{rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))} for _ in range(300)]
    distinct = {tuple(sorted((e, c) for e, c in v.items() if c)) for v in values}
    before, loops = len(coeff._TABLE), chains._LOOP.cache_info().currsize
    for v in values + [dict(v) for v in values]:
        chains._LOOP(LaurentPoly(v))
    # each distinct value adds at most itself and its loop product
    assert distinct <= set(coeff._TABLE)
    assert len(coeff._TABLE) - before <= 2 * len(distinct)
    assert chains._LOOP.cache_info().currsize - loops <= len(distinct)


@given(polys, polys, st.integers(0, 3), st.integers(-9, 9), st.integers(-6, 6), st.sampled_from((1, -1)))
def test_every_result_is_the_canonical_object(p, q, k, c, e, sign):
    unit = LaurentPoly.v_power(e, sign)
    results = (
        p + q, p - q, -p, p * q, p**k, unit**-k, unit.inverse(),
        LaurentPoly.constant(c), LaurentPoly.v_power(e, c),
    )
    for r in results:
        assert LaurentPoly(r.coefficients()) is r


def test_copies_and_pickles_are_the_canonical_object():
    # a copy that skipped the constructor would refill a shared object,
    # the zero first of all
    for p in (ZERO, ONE, LOOP_FACTOR, LaurentPoly({1: 1}), LaurentPoly({-3: 2, 4: -1})):
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(p, protocol)) is p
    assert LaurentPoly.zero().to_text() == "0"
    assert ONE.to_text() == "1"
    assert LaurentPoly({1: 1}).coefficients() == {1: 1}
