"""Exact coefficient arithmetic.

Everything symbolic in this package is linear algebra over the ring of
integer Laurent polynomials Z[v, v^-1], held as :class:`LaurentPoly`:
algebra coefficients and matrix entries (see :mod:`planartl.linalg`)
alike, so this class holds the package's only Laurent multiply, add and
cancel loops, on LaurentPoly operands alone.  The tests' rank oracle
evaluates the entries at a nonzero rational v = p/q in integers, so no
floating point is ever involved.

A boundary matrix has only a few dozen distinct entries.
:func:`interned` maps each value to one canonical object, and an
:class:`InternedMemo` keyed by interned operands' ids computes each
distinct sum (:data:`INTERNED_SUM`) or loop product
(:data:`INTERNED_LOOP`) once, by the class's own arithmetic, so a
repeated one is a dict lookup and stays exact.

The two weight conventions for the braiding elements s_i = lam + mu*U_i
are packaged as :class:`Convention`:

* convention ``A``: (lam, mu) = (-1, v), so s_i = v*U_i - 1
* convention ``B``: (lam, mu) = (v^2, -v), so s_i = v^2 - v*U_i

In both cases mu/lam is a unit monomial (-v and -v^-1 respectively).
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "LaurentPoly",
    "Convention",
    "CONVENTION_A",
    "CONVENTION_B",
    "convention",
    "mu_over_lambda",
    "LOOP_FACTOR",
    "interned",
    "InternedMemo",
    "INTERNED_SUM",
    "INTERNED_LOOP",
]


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in one variable v.

    Instances are immutable, hashable and kept in canonical form: the
    internal exponent-to-coefficient map never stores a zero.  The zero
    polynomial has empty support.  The operators take LaurentPoly
    operands only: an int neither equals nor combines with one.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = int(c)
        self._terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def v_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * v^e."""
        return cls({e: coeff})

    # -- inspection --------------------------------------------------

    def coefficients(self) -> dict[int, int]:
        """A copy of the exponent -> coefficient map (canonical form)."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_unit_monomial(self) -> bool:
        """True when the polynomial is +-v^e, hence invertible in Z[v, v^-1]."""
        if len(self._terms) != 1:
            return False
        (c,) = self._terms.values()
        return c in (1, -1)

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            w = terms.get(e, 0) + c
            if w:
                terms[e] = w
            elif e in terms:
                del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        terms: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                w = terms.get(e, 0) + ca * cb
                if w:
                    terms[e] = w
                elif e in terms:
                    del terms[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial +-v^e; raises otherwise."""
        if not self.is_unit_monomial():
            raise ValueError(f"{self} is not a unit in Z[v, v^-1]")
        ((e, c),) = self._terms.items()
        return LaurentPoly({-e: c})

    # -- comparisons & hashing ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    # -- text form ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: terms c*v^e sorted by descending exponent,
        with no spaces.

        Coefficient +-1 on a nonconstant term is suppressed, so the loop
        weight renders as ``v^1+v^-1``.
        """
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = f"v^{e}"
            else:
                body = f"{abs(c)}*v^{e}"
            sign = "-" if c < 0 else "+" if pieces else ""
            pieces.append(sign + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The weight of an erased closed loop: a = v + v^-1.
LOOP_FACTOR = LaurentPoly({1: 1, -1: 1})

# The interning table: each canonical object under its sorted terms, and
# under its id.  The table holds every object it hands out for as long as
# the process runs, so no other object can take such an id.
_canonical: dict[tuple, LaurentPoly] = {(): _ZERO, ((0, 1),): _ONE}
_held: dict[int, LaurentPoly] = {id(_ZERO): _ZERO, id(_ONE): _ONE}


def interned(poly: LaurentPoly) -> LaurentPoly:
    """The one canonical object equal to poly: poly itself the first
    time its value is seen, and ``LaurentPoly.zero()`` for any zero.  An
    object the table does not hold is looked up by its terms, never by
    its id, so equal values from distinct objects share one object and
    two interned values are equal exactly when they are identical."""
    if _held.get(id(poly)) is poly:
        return poly
    canon = _canonical.setdefault(tuple(sorted(poly._terms.items())), poly)
    _held[id(canon)] = canon
    return canon


class InternedMemo(dict):
    """The results of one function of interned polynomials, keyed by the
    operands' ids: ``memo[id(a)]`` or ``memo[id(a), id(b)]``.  A miss
    computes the result by the real arithmetic, once per distinct key,
    so a hit is one dict lookup and the results stay exact.

    Every stored key is made of ids the interning table holds, so a key
    never outlives its operand and no id is reused under it.  The id of
    a live object the table does not hold is no held id, so such a key
    misses and raises KeyError on the lookup of its operand: intern an
    operand first.  The memo is bounded by the number of distinct
    interned values (their pairs, for two operands)."""

    __slots__ = ("function",)

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        operands = key if isinstance(key, tuple) else (key,)
        value = self[key] = self.function(*(_held[k] for k in operands))
        return value


#: interned(a + b), keyed by (id(a), id(b)) of interned a and b.
INTERNED_SUM = InternedMemo(lambda a, b: interned(a + b))
#: interned(a * LOOP_FACTOR), keyed by id(a) of an interned a.
INTERNED_LOOP = InternedMemo(lambda a: interned(a * LOOP_FACTOR))

class Convention(namedtuple("Convention", "tag lam mu")):
    """One of the two (lam, mu) weight choices for s_i = lam + mu*U_i."""

    __slots__ = ()


CONVENTION_A = Convention("A", LaurentPoly.constant(-1), LaurentPoly.v_power(1))
CONVENTION_B = Convention("B", LaurentPoly.v_power(2), LaurentPoly.v_power(1, -1))

_CONVENTIONS = {"A": CONVENTION_A, "B": CONVENTION_B}


def convention(tag: str) -> Convention:
    try:
        return _CONVENTIONS[tag]
    except KeyError:
        raise ValueError(f"unknown convention tag {tag!r}") from None


def mu_over_lambda(c: Convention) -> LaurentPoly:
    """The unit mu * lam^-1: -v for convention A, -v^-1 for convention B."""
    return c.mu * c.lam.inverse()

