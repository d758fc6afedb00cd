"""Coefficient ring tests: ring axioms, specialization, text round trip."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planartl.coeff as coeff
from planartl.coeff import (
    CONVENTION_A,
    CONVENTION_B,
    INTERNED_LOOP,
    INTERNED_SUM,
    LOOP_FACTOR,
    LaurentPoly,
    convention,
    interned,
    loop_factor_power,
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
    assert loop_factor_power(2) == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_loop_factor_has_no_negative_power():
    # v + v^-1 is no unit, so no cached positive power may stand in
    loop_factor_power(2)
    for k in (-1, -2):
        with pytest.raises(ValueError, match="no unit"):
            loop_factor_power(k)


def test_constants_hash_as_the_integers_they_equal():
    # equal values must hash alike, so a constant and its integer are
    # one set member and one dict key
    for c in (0, 1, -1, 7):
        p = LaurentPoly.constant(c)
        assert p == c
        assert hash(p) == hash(c)
        assert len({p, c}) == 1
        assert {c: "int"}[p] == "int"
        assert {p: "poly"}[c] == "poly"
    assert hash(LaurentPoly.zero()) == hash(LaurentPoly()) == 0
    assert len({LaurentPoly.constant(3), 3}) == 1


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
    rng = random.Random(2024)
    for _ in range(400):
        p, q = small_poly(rng), small_poly(rng)
        a, b = interned(p), interned(q)
        assert a == p and b == q
        assert INTERNED_SUM[id(a), id(b)] == p + q
        assert INTERNED_LOOP[id(a)] == p * LOOP_FACTOR
        # results are interned too, so they key the memos in turn
        total = INTERNED_SUM[id(a), id(b)]
        assert interned(total) is total
        assert INTERNED_LOOP[id(total)] == (p + q) * LOOP_FACTOR
        # a cancelling pair gives the one interned zero
        assert INTERNED_SUM[id(a), id(interned(-p))] is ZERO


def test_equal_values_share_one_interned_object():
    rng = random.Random(5)
    for _ in range(200):
        p = small_poly(rng)
        twin = LaurentPoly(p.coefficients())
        assert twin is not p
        assert interned(twin) is interned(p)
        assert interned(interned(p)) is interned(p)
    assert interned(LaurentPoly()) is ZERO
    assert interned(LaurentPoly({3: 0})) is ZERO
    assert interned(LaurentPoly.constant(1)) is ONE


def test_interning_tables_grow_with_distinct_values_only():
    rng = random.Random(11)
    polys = [small_poly(rng) for _ in range(300)]
    distinct = {tuple(sorted(p.coefficients().items())) for p in polys}
    before, loops = len(coeff._canonical), len(INTERNED_LOOP)
    for p in polys + [LaurentPoly(p.coefficients()) for p in polys]:
        INTERNED_LOOP[id(interned(p))]
    assert len(coeff._canonical) - before <= len(distinct)
    assert len(INTERNED_LOOP) - loops <= len(distinct)


def test_memo_keys_survive_dropped_objects():
    # Fresh objects are made, interned and dropped between calls, so
    # later ones may reuse their ids; every later result stays right,
    # and the id of an object the table does not hold never hits a memo.
    # A LaurentPoly has slots and makes no cycle, so ``del`` frees it at
    # once, and the reuse of a dropped object's id is seen, not assumed.
    rng = random.Random(3)
    reused = 0
    for _ in range(300):
        values = [small_poly(rng).coefficients() for _ in range(2)]
        fresh = [LaurentPoly(v) for v in values]
        a, b = (interned(p) for p in fresh)
        dropped = {id(p) for p, kept in zip(fresh, (a, b)) if p is not kept}
        del fresh
        again = [LaurentPoly(v) for v in values]
        assert INTERNED_SUM[id(a), id(b)] == again[0] + again[1]
        assert INTERNED_LOOP[id(interned(again[1]))] == again[1] * LOOP_FACTOR
        for p in again:
            if interned(p) is not p:
                reused += id(p) in dropped
                with pytest.raises(KeyError):
                    INTERNED_LOOP[id(p)]
                with pytest.raises(KeyError):
                    INTERNED_SUM[id(p), id(a)]
    assert reused
