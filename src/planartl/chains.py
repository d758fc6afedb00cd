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
Z[v, v^-1] on every call; :func:`exactness_certificate`, cached, checks
that the chain homotopy phi = d i + i d is triangular with a unit
diagonal, which gives every boundary rank in closed form; and
:func:`boundary_ranks`, cached, ranks d^0 ... d^(n-1) at a point, in
one loop, without building those matrices.

d o d = 0 needs no module and no matrix.  The boundary element b_i on
n strands is the image of b_i on i+1 strands under the embedding that
adds through strands, so d^i d^(i+1) = 0 holds on every W(n) with
n >= l = i+2 exactly when one identity holds in TL_l: every term of
b_(l-1) b_(l-2) joins the right dots 1 and 2.
:func:`boundary_composite_vanishes`, cached per (l, convention),
decides it, and its docstring holds the proof.  Each b_i, and the
product, is built by Horner over b_i's (or b_(l-2)'s) descending
factors, one right multiplication by a braiding element at a time by
the right cup rule :func:`planartl.diagram.times_cup`: no diagram
product, projection, Dyck-lex index or generator table.

Every right-multiplication map is assembled by one walk,
:func:`_left_action_columns`, a stream of columns in Dyck-lex order
built one box block at a time, so a reader builds only the blocks it
reads.  The projection kills the diagrams with an arc between two
right dots inside the box, and left multiplication keeps every such
arc, so the killed span is a left ideal and the projection commutes
with the left action.  The identity diagram's column is the projection
of the element itself, and every other column is its parent's column
acted on by one cup generator, read from the per-n generator tables of
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

Homology ranks come from the exactness certificate: where each
phi_k below the top is triangular with a unit diagonal over
Z[v^+-1, a^-1], W(n) is exact below the top degree over every ring in
which v and a are units, and the boundary ranks are r_0 = 1 and
r_i = c_(i-1) - r_(i-1), at every nonzero rational point and over Q(v)
alike (see :func:`exactness_certificate`).  The certificate reads each
d^i once, from :func:`right_mult_matrix`, and no point is ranked.

Exact elimination at two or more rational specialization points is the
fallback for an (n, c) the certificate does not cover, and the tests'
oracle for the closed forms.  There :func:`homology_ranks` holds the
package's one check that the points agree, and disagreement raises: it
means some point is not exact below the top, never a silent wrong
answer.  A pass is sound over Q(v), since a point exact below the top
has the ranks of Q(v) (see :func:`homology_ranks`).  Each boundary map
is ranked at a point from its integer columns there, each a primitive
vector, up to sign the Laurent column evaluated at the point; the
Laurent matrix followed by evaluation stays the tests' oracle route.
Since d o d = 0, the rank of d^i at a point is at most
c_(i-1) - r_(i-1), the lower degree's chain rank less its boundary rank
at that point; the elimination stops once it reaches this bound, and no
column past the block it stops in is built (see :func:`boundary_ranks`).
Both routes therefore rest on d o d = 0, which the ``ddzero`` check
proves over Z[v, v^-1], once per l as above.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, generator_tables
from .coeff import LOOP_FACTOR, Convention, LaurentPoly
from .combin import first_peak_count_B
from .diagram import times_cup
from .indmod import black_box_basis, largest_free_box, project
from .linalg import PolyMatrix, primitive, rank_of_int_columns, specialize_column, unit_point

__all__ = [
    "SpecializationMismatch",
    "DEFAULT_POINTS",
    "specialization_points",
    "boundary_element",
    "boundary_composite_vanishes",
    "right_mult_matrix",
    "right_mult_columns_at",
    "chain_basis",
    "differential",
    "boundary_ranks",
    "exactness_certificate",
    "euler_characteristic",
    "homology_ranks",
]

#: Default specialization points.  Where the exactness certificate
#: holds no point is ranked, but every call validates its points; where
#: it fails, each point is ranked, and a second point guards against a
#: rank drop of some d^i at a point that is not generic for it.
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


def _times_s(x: AlgebraElement, k: int, c: Convention) -> AlgebraElement:
    """x s_k = lam x + mu x U_k, each term's product with U_k taken by
    the right cup rule :func:`~planartl.diagram.times_cup`, an erased
    loop weighing a."""
    mu_loop = c.mu * LOOP_FACTOR
    terms = {d: c.lam * w for d, w in x.terms.items()}
    for d, w in x.terms.items():
        e, loops = times_cup(d, k)
        w = (mu_loop if loops else c.mu) * w
        terms[e] = terms[e] + w if e in terms else w
    return AlgebraElement._trusted(x.n, {d: w for d, w in terms.items() if w})


@cache
def boundary_element(n: int, i: int, c: Convention) -> AlgebraElement:
    """The algebra element implementing d^i by right multiplication,
    before projection:

        sum_{j=0}^{i} (-1)^j lam^{-j} s_{n-i+j-1} ... s_{n-i}

    (indices decrease left to right; the j = 0 product is empty), built
    as 1 * b_i by :func:`_times_boundary`.  Cached, since each rank at a
    point builds its columns from it.

    It uses only U_{n-i} ... U_{n-1}, so it is the image of
    ``boundary_element(i + 1, i, c)`` under the embedding of TL_(i+1) in
    TL_n that adds n-i-1 through strands at the right dots 1 ... n-i-1
    and sends U_k to U_(k+n-i-1) (see :func:`boundary_composite_vanishes`).
    """
    if not 0 <= i <= n - 1:
        raise ValueError(f"degree must lie in 0..{n - 1}, got {i}")
    return _times_boundary(AlgebraElement.one(n), i, c)


def _times_boundary(x: AlgebraElement, i: int, c: Convention) -> AlgebraElement:
    """x b_i in TL_n, for the element b_i of :func:`boundary_element`,
    by Horner over its descending factors: with w_j = (-1)^j lam^-j,
    b_i = w_0 + (w_1 + (w_2 + ...) s_(n-i+1)) s_(n-i), so each step is
    one right multiplication by an s_k (:func:`_times_s`), and no
    product of two diagrams is formed.  Each bracket is w_j times
    b_(i-j) on the same strands, since the weights are powers of one
    ratio, so the partial sums stay as small as those elements."""
    step = -c.lam.inverse()
    y = x.scale(step**i)
    for j in range(i - 1, -1, -1):
        y = _times_s(y, x.n - i + j, c) + x.scale(step**j)
    return y


@cache
def boundary_composite_vanishes(l: int, c: Convention) -> bool:
    """Whether d^(l-2) d^(l-1) = 0 on W(n) for every n >= l: true
    exactly when every term of e_(l-1) e_(l-2) in TL_l, with
    e_i = ``boundary_element(l, i, c)``, joins the right dots 1 and 2,
    that is has ``largest_free_box < 2``.  Cached, since the ``ddzero``
    check reads it at every n >= l.

    The embedding.  Sending a diagram on l strands to the one on n
    strands with n-l through strands added at the right dots 1 ... n-l
    (joined to the left dots 1 ... n-l), its own dots shifted up, sends
    U_k to U_(k+n-l).  It is an algebra map: glued, the added strands
    pass straight through the wall and close no loop, and the rest glues
    as on l strands.  It is injective on the diagram bases, since the
    diagram is read back off the upper strands, so an identity of
    elements in TL_l holds for their images in TL_n.  By
    :func:`boundary_element`, the e_i of W(n) are the images of those on
    i+1 strands, and so of those on l strands for i <= l-1.

    The composite.  On W(n), let K_j be the span the degree-j
    projection kills: the diagrams with an arc among the right dots
    1 ... n-j-1.  Each d^j is x -> x e_j mod K_(j-1).  Right
    multiplication by U_k with k >= n-j leaves those dots alone and
    keeps such an arc, so K_j e_j lies in K_j, inside K_(j-1): d^j is
    well defined on classes, and d^i d^(i+1) sends the identity diagram
    to e_(i+1) e_i mod K_(i-1).  The chain modules are cyclic left
    modules on the identity diagram, and both maps are left-module maps
    (K_j is a left ideal), so d^i d^(i+1) = 0 exactly when every term of
    e_(i+1) e_i has an arc among the right dots 1 ... n-i.  With
    l = i+2, that product is the image of its namesake on l strands,
    which no term cancels in; an image has the through strands at the
    right dots 1 ... n-i-2 and the l-strand diagram's right dots 1 and 2
    at n-i-1 and n-i, so it has such an arc exactly when the diagram on
    l strands joins its right dots 1 and 2.
    """
    if l < 2:
        raise ValueError(f"l must be at least 2, got {l}")
    product = _times_boundary(boundary_element(l, l - 1, c), l - 2, c)
    return all(largest_free_box(d) < 2 for d in product.terms)


def _left_action_columns(elt: AlgebraElement, source: range, target: range, first, act) -> Iterator:
    """The columns of x -> project(x * elt), one per source diagram in
    Dyck-lex order, in any coefficient ring, as a stream that builds a
    column only when a reader asks for it or for a later one.

    The identity comes first in Dyck-lex order, and its column, at
    position 0, is ``first`` applied to the projection of elt itself, a
    row -> LaurentPoly map.  Every other source diagram x is U_j y for
    its loop-free parent (y, j) in the generator tables, so
    x * elt = U_j (y * elt).  The span the projection kills is a left
    ideal, so x's column is U_j acting on y's column:
    ``act(column, left)`` moves each entry at row r to row ``left[r]``,
    weighted by a where ``left[r] == r`` (there U_j closes its one
    loop), and drops a row at or past ``len(target)``.

    The positions between two consecutive box sizes form a block, and
    the tables' order lists each block after the smaller ones, parents
    first.  So the identity's column is yielded first, and then each
    block up to ``len(source)`` is built in that order and yielded in
    Dyck-lex order.  A parent always lies in its child's box basis; one
    outside the source basis raises RuntimeError as the stream reaches
    its child.  A basis is a range of Dyck-lex positions, so one whose
    size is no B_m(n) for elt's n raises ValueError on the call itself.
    """
    sizes = sorted({first_peak_count_B(elt.n, m) for m in range(elt.n + 1)})
    count = len(source)
    if count not in sizes or len(target) not in sizes:
        raise ValueError(f"a basis size is no box size on {elt.n} strands")

    def walk():
        columns: list = [first(project(elt, target))]
        yield columns[0]
        tables = generator_tables(elt.n)
        columns += [None] * (count - 1)
        for start, stop in zip(sizes, sizes[1 : sizes.index(count) + 1]):
            for k in tables.order[start:stop]:
                y, j = tables.parent[k]
                if y >= count:
                    raise RuntimeError(f"parent {y} of diagram {k} lies outside the source basis")
                columns[k] = act(columns[y], tables.left[j - 1])
            yield from columns[start:stop]

    return walk()


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
) -> Iterator[dict[int, int]]:
    """The columns of :func:`right_mult_matrix` evaluated at v = x = p/q,
    each a primitive integer vector, built by the same left action in
    the integers; no Laurent entry is formed past the identity's column.
    They come as the stream of :func:`_left_action_columns`, in Dyck-lex
    order, so a reader that stops early leaves later blocks unbuilt.

    At x, a = (p^2 + q^2)/(pq).  Scaled by pq, a child entry is its
    parent's entry times pq, or times p^2 + q^2 where U_j closes a loop.
    The identity's column goes through :func:`specialize_column`, and
    every other column drops its cancelled entries and is divided by its
    content before a child copies it.  Each column is then, up to sign,
    the one ``right_mult_matrix(...).specialize_int_columns(x)`` gives.
    Raises ValueError at x = 0, on the call itself.
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
    :func:`right_mult_columns_at`; cached.  :func:`homology_ranks` reads
    them where :func:`exactness_certificate` fails, and the tests
    compare them with the certified closed forms.

    Each elimination stops at the bound d o d = 0 gives.  Evaluation at
    v = point is a ring map, so d^(i-1) d^i = 0 holds at the point too:
    the image of d^i lies in the kernel of d^(i-1), so
    r_i <= c_(i-1) - r_(i-1), with r_(i-1) the rank just taken (and
    r_(-1) = 0, no map leaving degree -1, so the bound at degree 0 is
    1).  This bound is the limit passed to :func:`rank_of_int_columns`.
    The pivot count never exceeds the rank, so if it reaches the bound
    the rank equals the bound; if not, every column was inserted and the
    count is the rank.  Either way the rank is exact.  The columns are
    streamed into the elimination, so the blocks past the one where it
    stops are never built.
    """
    ranks: list[int] = []
    for i in range(n):
        target = chain_basis(n, i - 1)
        limit = len(target) - (ranks[-1] if ranks else 0)
        elt = boundary_element(n, i, c)
        # The stream is bound to no name, so no two degrees' columns are held at once.
        ranks.append(rank_of_int_columns(right_mult_columns_at(elt, chain_basis(n, i), target, point), limit))
    return tuple(ranks)


def _is_unit(poly: LaurentPoly) -> bool:
    """True when poly is +-v^e or +-v^e * a, with a = v + v^-1: a unit
    of Z[v^+-1, a^-1] of the two shapes a diagonal of the chain homotopy
    takes (see :func:`exactness_certificate`)."""
    terms = sorted(poly.coefficients().items())
    if len(terms) == 2:
        (low, low_coeff), (high, high_coeff) = terms
        return high - low == 2 and low_coeff == high_coeff in (1, -1)
    return poly.is_unit_monomial()


def _homotopy_columns(n: int, c: Convention) -> Iterator[tuple[int, int, dict[int, LaurentPoly]]]:
    """The columns of phi_k = d^(k+1) i_k + i_(k-1) d^k for k = -1 ...
    n-2, as (k, j, column) in that order, over Z[v, v^-1], where i_k
    includes degree k in degree k+1.

    Both bases are Dyck-lex prefixes, so column j of d^(k+1) i_k is
    column j of d^(k+1), and i_(k-1) d^k is d^k with its rows, all below
    c_(k-1) <= c_k, read in degree k; there is no such term at k = -1.
    Each d^i is built once by :func:`right_mult_matrix`: its first c_k
    columns serve phi_(i-1), and all of them phi_i.  At most two
    boundary matrices are held at once.
    """
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


@cache
def exactness_certificate(n: int, c: Convention) -> tuple[int, int, str] | None:
    """None when every chain map phi_k = d^(k+1) i_k + i_(k-1) d^k with
    k <= n-2 is triangular, with no entry above the diagonal, and has a
    unit diagonal over R = Z[v^+-1, a^-1].  Otherwise the first failing
    (k, j, entry text), the entry being the column's first nonzero one
    above the diagonal, or else its diagonal one.  Cached, since
    homology, the Hopf trace and the top Jacobsthal kernel all read it.

    Here i_k includes degree k in degree k+1 (the bases are Dyck-lex
    prefixes) and the columns come from :func:`_homotopy_columns`.  A
    column j passes when it has no nonzero entry in a row < j and its
    entry at row j is +-v^e or +-v^e * a, a unit of R.  At n <= 12, in
    both conventions, the diagonal is 1 below c_(k-1) and at k = -1,
    and v * a (convention A) or v^-1 * a (convention B) from c_(k-1) to
    c_k - 1: C_n - 1 entries of that second kind per n.

    What None proves.  Since d o d = 0, phi = d i + i d is a chain map:
    d phi_k = d i_(k-1) d^k = phi_(k-1) d^k.  A triangular map with a
    unit diagonal is invertible over R, so each phi_k with k <= n-2 is.
    Let z be a cycle in degree k <= n-2 and w = phi_k^-1 z.  Then
    phi_(k-1) d w = d z = 0, so d w = 0, as phi_(k-1) is invertible
    (at k = -1, degree -2 is zero), and z = phi_k w = d^(k+1)(i_k w) is
    a boundary.  So W(n) is exact below the top degree over R, and by
    the same argument over any ring in which v and a are units: the
    entries lie in Z[v, v^-1] and the diagonal stays a unit.  Over such
    a field the boundary ranks follow, r_0 = c_(-1) = 1 and
    r_i = c_(i-1) - r_(i-1).  Q(v) is one, and so is Q at every nonzero
    rational v = p/q, since a = (p^2 + q^2)/(pq) != 0.  The proof rests
    on d o d = 0, which the ``ddzero`` check proves over Z[v, v^-1];
    the check itself is per n.
    """
    for k, j, column in _homotopy_columns(n, c):
        above = [row for row, poly in column.items() if row < j and poly]
        entry = column[min(above)] if above else column.get(j, LaurentPoly.zero())
        if above or not _is_unit(entry):
            return k, j, entry.to_text()
    return None


def euler_characteristic(n: int) -> int:
    """sum_{i=-1}^{n-1} (-1)^i rank(chain module i) of W(n), the degree -1
    term included."""
    return sum((-1) ** (i % 2) * len(chain_basis(n, i)) for i in range(-1, n))


def homology_ranks(
    n: int, c: Convention, points=DEFAULT_POINTS
) -> tuple[dict[int, int], dict[int, int]]:
    """Exact ranks of W(n) under convention c: the boundary rank out of
    each degree 0..n-1, and the homology rank at each degree -1..n-1, as
    two dicts keyed by degree.

    The points are validated first: at least two distinct nonzero ones
    (see :func:`specialization_points`).  Where
    :func:`exactness_certificate` holds, the boundary ranks are its
    closed forms, r_0 = 1 and r_i = c_(i-1) - r_(i-1), and no point is
    ranked.  Where it fails, each point is ranked by
    :func:`boundary_ranks`, and the ranks must agree across all of
    them: at the first point whose ranks differ from the first point's,
    :class:`SpecializationMismatch` is raised and the caller should
    retry with different points.  This is the package's only agreement
    check.

    What a pass certifies.  With the certificate, the ranks are those of
    every ring in which v and a = v + v^-1 are units, Q(v) and every
    nonzero rational point among them.  Without it, a pass is sound
    over Q(v): evaluation at v = p cannot raise a rank over Q(v), and
    d o d = 0 over Q(v) gives r_i <= c_(i-1) - r_(i-1).  So if a point
    is exact below the top (h_d = 0 for d < n-1), induction up from r_0
    shows that every r_i at the point equals r_i over Q(v), with the
    same top rank.  Exact points therefore always agree, and a
    disagreement means that some point is not exact there.

    No homology rank is negative.  The closed forms give h_d = 0 below
    the top, and r_(n-1) <= c_(n-2) = c_(n-1) at the top.  On the
    fallback, the elimination's limit gives r_(d+1) <= c_d - r_d, the
    top rank is at most the column count, and r_0 <= 1 = c_(-1).
    """
    pts = specialization_points(points)
    if exactness_certificate(n, c) is None:
        ranks = [1]
        for i in range(1, n):
            ranks.append(len(chain_basis(n, i - 1)) - ranks[-1])
        boundary = dict(enumerate(ranks))
    else:
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
