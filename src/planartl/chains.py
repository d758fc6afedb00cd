"""The augmented chain complex of planar injective words W(n).

Degrees run from -1 to n-1.  The degree-i chain module is the black box
module of box size n-i-1 (so degree n-1 is the full diagram algebra and
degree -1 is the rank-one module on the identity diagram alone).  The
boundary map out of degree i is the alternating, lam-weighted sum of
right multiplications by descending products of braiding elements:

    d^i(x) = sum_{j=0}^{i} (-1)^j lam^{-j} x * s_{n-i+j-1} ... s_{n-i}

followed by the projection that kills any arc landing in the enlarged
box.  The complex is three functions of (n, degree, convention), and
holds no object: :func:`chain_basis` is the range of a degree's
Dyck-lex positions (see :mod:`planartl.indmod`), so chain ranks and the
Euler characteristic come from closed-form sizes and enumerate no
diagram; :func:`differential` builds the matrix of d^i over
Z[v, v^-1] on every call; and :func:`boundary_ranks`, cached, ranks
d^0 ... d^(n-1) at a point, in one loop, without building those
matrices.

Every right-multiplication map is assembled by one walk,
:func:`_left_action_columns`.  The projection kills the diagrams with an
arc between two right dots inside the box, and left multiplication
keeps every such arc, so the killed span is a left ideal and the
projection commutes with the left action.  Each chain module is a
cyclic left module on the identity diagram, so each such map is fixed
by its identity column: d o d = 0 and the Jacobsthal comparison read
that one column alone.  Every other column is its parent's column acted
on by one cup generator, read from the per-n generator tables of
:mod:`planartl.algebra`: assembly is integer lookups and counting, and
no diagram is glued in the loop.  One cup generator closes at most one
loop, and closes one exactly where it fixes the diagram, so an entry is
weighted by a where its row stays put and by 1 where it moves.  Two
kernels share the walk and differ only in that arithmetic:
:func:`right_mult_matrix` keeps :class:`~planartl.coeff.LaurentPoly`
entries, which are immutable, so a child column shares every entry the
move leaves unchanged with its parent; :func:`right_mult_columns_at`
works in the integers at one rational point v = p/q, where
pq * a = p^2 + q^2.  The tables are built
by the constant-time cup rule, and the general diagram product stays
the test suite's oracle for them.

Homology ranks are computed by exact elimination at two or more rational
specialization points.  :func:`homology_ranks` holds the package's one
check that the points agree, and disagreement raises: it means some
point is not exact below the top, never a silent wrong answer.  A pass
is sound over Q(v), since a point exact below the top has the ranks of
Q(v) (see :func:`homology_ranks`).  Each boundary map is ranked at a
point from its integer columns there, each a primitive vector, up to
sign the Laurent column evaluated at the point; the Laurent matrix
followed by evaluation stays the tests' oracle route.  Since
d o d = 0, the rank of d^i at a point is at most c_(i-1) - r_(i-1), the
lower degree's chain rank less its boundary rank at that point; the
elimination stops once it reaches this bound (see
:func:`boundary_ranks`).  The ranks therefore rest on d o d = 0, which
the ``ddzero`` check proves over Z[v, v^-1].
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, braiding_s, elt_mul, generator_tables
from .coeff import LOOP_FACTOR, Convention, LaurentPoly
from .combin import first_peak_count_B
from .indmod import black_box_basis, project
from .linalg import PolyMatrix, primitive, rank_of_int_columns, specialize_column, unit_point

__all__ = [
    "SpecializationMismatch",
    "DEFAULT_POINTS",
    "specialization_points",
    "boundary_element",
    "right_mult_matrix",
    "right_mult_columns_at",
    "chain_basis",
    "differential",
    "boundary_ranks",
    "euler_characteristic",
    "homology_ranks",
]

#: Default specialization points.  Over Q every nonzero v gives a
#: semisimple algebra; a second point guards against a rank drop of some
#: d^i at a point that is not generic for it.
DEFAULT_POINTS = (Fraction(2), Fraction(3))


class SpecializationMismatch(RuntimeError):
    """Raised when exact ranks disagree across specialization points."""


def specialization_points(points) -> tuple[Fraction, ...]:
    """The points as exact rationals (anything ``Fraction`` accepts).

    Raises ValueError unless every point is a finite nonzero rational
    (v must be a unit), the points are distinct, and there are at least
    two of them.
    """
    try:
        pts = tuple(Fraction(p) for p in points)
    except ZeroDivisionError as exc:
        raise ValueError(f"specialization point with zero denominator: {exc}") from None
    if any(p == 0 for p in pts):
        raise ValueError("specialization points must be nonzero")
    if len(set(pts)) < len(pts):
        raise ValueError("specialization points must be distinct")
    if len(pts) < 2:
        raise ValueError("need at least two specialization points")
    return pts


@cache
def boundary_element(n: int, i: int, c: Convention) -> AlgebraElement:
    """The algebra element implementing d^i by right multiplication,
    before projection:

        sum_{j=0}^{i} (-1)^j lam^{-j} s_{n-i+j-1} ... s_{n-i}

    (indices decrease left to right; the j = 0 product is empty).
    Cached, since each rank at a point builds its columns from it.
    """
    if not 0 <= i <= n - 1:
        raise ValueError(f"degree must lie in 0..{n - 1}, got {i}")
    total = AlgebraElement.one(n)
    partial = AlgebraElement.one(n)
    lam_inv = c.lam.inverse()
    weight = LaurentPoly.one()
    for j in range(1, i + 1):
        # s_{n-i+j-1} * (previous product) extends the descending word
        partial = elt_mul(braiding_s(n, n - i + j - 1, c), partial)
        weight = weight * lam_inv
        signed = weight if j % 2 == 0 else -weight
        total = total + partial.scale(signed)
    return total


def _left_action_columns(elt: AlgebraElement, source: range, target: range, first, act) -> list:
    """The columns of x -> project(x * elt), one per source diagram, in
    any coefficient ring.

    The identity comes first in Dyck-lex order, and its column, at
    position 0, is ``first`` applied to the projection of elt itself, a
    row -> LaurentPoly map.  Every other source diagram x is U_j y for
    its loop-free parent (y, j) in the generator tables, so
    x * elt = U_j (y * elt).  The span the projection kills is a left
    ideal, so x's column is U_j acting on y's column:
    ``act(column, left)`` moves each entry at row r to row ``left[r]``,
    weighted by a where ``left[r] == r`` (there U_j closes its one
    loop), and drops a row at or past ``len(target)``.  Columns
    are built in the tables' visiting order, parents first; a source
    holding the identity alone needs no tables.  A parent always lies in
    its child's box basis; one outside the source basis raises
    RuntimeError.  A basis is a range of Dyck-lex positions, so one
    whose size is no B_m(n) for elt's n raises ValueError.
    """
    sizes = {first_peak_count_B(elt.n, m) for m in range(elt.n + 1)}
    if len(source) not in sizes or len(target) not in sizes:
        raise ValueError(f"a basis size is no box size on {elt.n} strands")
    count = len(source)
    columns: list = [first(project(elt, target))] + [None] * (count - 1)
    if count == 1:
        return columns
    tables = generator_tables(elt.n)
    for k in tables.order[1:]:
        if k >= count:
            continue
        y, j = tables.parent[k]
        if y >= count:
            raise RuntimeError(f"parent {y} of diagram {k} lies outside the source basis")
        columns[k] = act(columns[y], tables.left[j - 1])
    return columns


def right_mult_matrix(elt: AlgebraElement, source: range, target: range) -> PolyMatrix:
    """Matrix of x -> project(x * elt) from the source basis to the
    target basis (the projection kills arcs inside the target box),
    over Z[v, v^-1]; assembled by the left action of
    :func:`_left_action_columns`.  An entry moved without a loop or a
    sum is the parent's own :class:`LaurentPoly`, not a copy.
    """
    size = len(target)

    def act(parent: dict, left) -> dict:
        column: dict[int, LaurentPoly] = {}
        for r, poly in parent.items():
            row = left[r]
            if row < size:
                if row == r:
                    poly = poly * LOOP_FACTOR
                column[row] = column[row] + poly if row in column else poly
        # Cancelled entries are dropped here, before any child inherits them.
        return {row: poly for row, poly in column.items() if poly}

    columns = _left_action_columns(elt, source, target, lambda column: column, act)
    return PolyMatrix(size, len(source), columns)


def right_mult_columns_at(
    elt: AlgebraElement, source: range, target: range, x
) -> list[dict[int, int]]:
    """The columns of :func:`right_mult_matrix` evaluated at v = x = p/q,
    each a primitive integer vector, built by the same left action in
    the integers; no Laurent entry is formed past the identity's column.

    At x, a = (p^2 + q^2)/(pq).  Scaled by pq, a child entry is its
    parent's entry times pq, or times p^2 + q^2 where U_j closes a loop.
    The identity's column goes through :func:`specialize_column`, and
    every other column drops its cancelled entries and is divided by its
    content before a child copies it.  Each column is then, up to sign,
    the one ``right_mult_matrix(...).specialize_int_columns(x)`` gives.
    Raises ValueError at x = 0.
    """
    p, q = unit_point(x)
    size = len(target)
    plain, loop = p * q, p * p + q * q

    def act(parent: dict, left) -> dict:
        column: dict[int, int] = {}
        looped: dict[int, int] = {}
        for r, val in parent.items():
            row = left[r]
            if row < size:
                acc = looped if row == r else column
                acc[row] = acc.get(row, 0) + val
        # Without a loop every weight is pq, which the content absorbs.
        if looped:
            column = {row: val * plain for row, val in column.items()}
            for row, val in looped.items():
                column[row] = column.get(row, 0) + val * loop
        return primitive(column)

    evaluate = lambda column: specialize_column(column, p, q)
    return _left_action_columns(elt, source, target, evaluate, act)


def chain_basis(n: int, i: int) -> range:
    """The degree-i basis of W(n) for -1 <= i <= n-1: the black box
    basis of box size n-i-1 (see :func:`black_box_basis`), a range of
    Dyck-lex positions."""
    if n < 1:
        raise ValueError("n must be positive")
    return black_box_basis(n, n - i - 1)


def differential(n: int, i: int, c: Convention) -> PolyMatrix:
    """The matrix of d^i, from degree i to degree i-1, in the Dyck-lex
    bases; built on every call."""
    elt = boundary_element(n, i, c)
    return right_mult_matrix(elt, chain_basis(n, i), chain_basis(n, i - 1))


@cache
def boundary_ranks(n: int, c: Convention, point: Fraction) -> tuple[int, ...]:
    """Exact ranks of d^0 ... d^(n-1) at v = point, in that order, from
    :func:`right_mult_columns_at`; cached, since homology, the Hopf
    trace and the top Jacobsthal kernel all read them.

    Each elimination stops at the bound d o d = 0 gives.  Evaluation at
    v = point is a ring map, so d^(i-1) d^i = 0 holds at the point too:
    the image of d^i lies in the kernel of d^(i-1), so
    r_i <= c_(i-1) - r_(i-1), with r_(i-1) the rank just taken (and
    r_(-1) = 0, no map leaving degree -1, so the bound at degree 0 is
    1).  This bound is the limit passed to :func:`rank_of_int_columns`.
    The pivot count never exceeds the rank, so if it reaches the bound
    the rank equals the bound; if not, every column was inserted and the
    count is the rank.  Either way the rank is exact.
    """
    ranks: list[int] = []
    for i in range(n):
        target = chain_basis(n, i - 1)
        limit = len(target) - (ranks[-1] if ranks else 0)
        elt = boundary_element(n, i, c)
        # The columns are bound to no name, so no two degrees' are held at once.
        ranks.append(rank_of_int_columns(right_mult_columns_at(elt, chain_basis(n, i), target, point), limit))
    return tuple(ranks)


def euler_characteristic(n: int) -> int:
    """sum_{i=-1}^{n-1} (-1)^i rank(chain module i) of W(n), the degree -1
    term included."""
    return sum((-1) ** (i % 2) * len(chain_basis(n, i)) for i in range(-1, n))


def homology_ranks(
    n: int, c: Convention, points=DEFAULT_POINTS
) -> tuple[dict[int, int], dict[int, int]]:
    """Exact ranks of W(n) under convention c at the given points: the
    boundary rank out of each degree 0..n-1, and the homology rank at
    each degree -1..n-1, as two dicts keyed by degree.

    Needs at least two distinct nonzero points (see
    :func:`specialization_points`).  The boundary ranks must agree
    across all of them: at the first point whose ranks differ from the
    first point's, :class:`SpecializationMismatch` is raised and the
    caller should retry with different points.  This is the package's
    only agreement check.

    What a pass certifies.  Evaluation at v = p cannot raise a rank over
    Q(v), and d o d = 0 over Q(v) gives r_i <= c_(i-1) - r_(i-1).  So if
    a point is exact below the top (h_d = 0 for d < n-1), induction up
    from r_0 shows that every r_i at the point equals r_i over Q(v),
    with the same top rank.  Exact points therefore always agree, and a
    disagreement means that some point is not exact there.

    No homology rank is negative: the elimination's limit gives
    r_(d+1) <= c_d - r_d, the top rank is at most the column count, and
    r_0 <= 1 = c_(-1).
    """
    pts = specialization_points(points)
    first = boundary_ranks(n, c, pts[0])
    boundary = dict(enumerate(first))
    for p in pts[1:]:
        other = boundary_ranks(n, c, p)
        if other != first:
            raise SpecializationMismatch(
                f"specialization ranks disagree between v={pts[0]} and v={p}: "
                f"{boundary} vs {dict(enumerate(other))}"
            )
    # no boundary map leaves degree -1, and none enters degree n-1
    homology = {
        d: len(chain_basis(n, d)) - boundary.get(d, 0) - boundary.get(d + 1, 0) for d in range(-1, n)
    }
    return boundary, homology
