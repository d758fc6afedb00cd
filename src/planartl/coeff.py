"""Exact coefficient arithmetic.

Everything symbolic in this package is linear algebra over the ring of
integer Laurent polynomials Z[v, v^-1], held as :class:`LaurentPoly`:
algebra coefficients and matrix entries (see :mod:`planartl.linalg`)
alike, so this class holds the package's only Laurent multiply, add and
cancel loops, on LaurentPoly operands alone.  The tests' rank oracle
evaluates the entries at a nonzero rational v = p/q in integers, so no
floating point is ever involved.

LaurentPoly is hash-consed: each value is one object, made once and
held for the life of the process, so equality is identity and the
object's own hash is its value's.  A boundary matrix has only a few
dozen distinct entries, so its millions of entries share a few dozen
objects, and a memo keyed by the objects themselves (as the walk of
:func:`planartl.chains.right_mult_matrix` keeps for its loop products
and sums) computes each distinct result once, by the class's own
arithmetic, and stays exact.

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
]


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in one variable v.

    Instances are immutable and kept in canonical form: the internal
    exponent-to-coefficient map never stores a zero, and the zero
    polynomial has empty support.  Equal values are one object: the
    constructor and every operator return the one object of their
    value, so ``==`` is ``is`` and the hash is the object's own.  The
    operators take LaurentPoly operands only: an int neither equals nor
    combines with one.
    """

    __slots__ = ("_terms",)

    def __new__(cls, terms: dict[int, int] | None = None):
        return _canonical({int(e): int(c) for e, c in terms.items() if c} if terms else {})

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so
        # they return the canonical object and never refill a shared one
        return (LaurentPoly, (self._terms,))

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
        return _canonical(terms)

    def __neg__(self) -> "LaurentPoly":
        return _canonical({e: -c for e, c in self._terms.items()})

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
        return _canonical(terms)

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
        return _canonical({-e: c})

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


# Each value's one object, keyed by its sorted terms.  The table holds
# every object for as long as the process runs, so no object is freed
# and no id is ever reused: a cache keyed by these objects stays right.
_TABLE: dict[tuple, LaurentPoly] = {}


def _canonical(terms: dict[int, int]) -> LaurentPoly:
    """The one object whose exponent -> coefficient map is terms, a
    fresh dict with no zero coefficient that the object may keep."""
    key = tuple(sorted(terms.items()))
    poly = _TABLE.get(key)
    if poly is None:
        poly = _TABLE[key] = object.__new__(LaurentPoly)
        poly._terms = terms
    return poly


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The weight of an erased closed loop: a = v + v^-1.
LOOP_FACTOR = LaurentPoly({1: 1, -1: 1})


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

