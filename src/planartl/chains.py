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
Z[v, v^-1] on every call; and :func:`exactness_certificate`, cached,
checks that the chain homotopy phi = d i + i d is triangular with a
unit diagonal, which gives every boundary rank in closed form.

d o d = 0 needs no module and no matrix.  The boundary element b_i on
n strands is the image of b_i on i+1 strands under the embedding that
adds through strands, so d^i d^(i+1) = 0 holds on every W(n) with
n >= l = i+2 exactly when one identity holds in TL_l: every term of
b_(l-1) b_(l-2) joins the right dots 1 and 2.
:func:`boundary_composite_vanishes`, cached per (l, convention),
decides it, and its docstring holds the proof;
:func:`first_nonvanishing_composite` reads those verdicts for every
l <= n and is the one premise check on W(n).  Each b_i, and the
product, is built by Horner over b_i's (or b_(l-2)'s) descending
factors, one right multiplication by a braiding element at a time by
the right cup rule :func:`planartl.diagram.times_cup` and summed by
:meth:`~planartl.algebra.AlgebraElement._sum`: no diagram product,
projection, Dyck-lex index or generator table.

Every right-multiplication map is assembled by one walk in
:func:`right_mult_matrix`, over the source positions in the generator
tables' order.  The projection kills the diagrams with an arc between
two right dots inside the box, and left multiplication keeps every
such arc, so the killed span is a left ideal and the projection
commutes with the left action.  The identity diagram's column is the
projection of the element itself, and every other column is its
parent's column acted on by one cup generator, read from the per-n
generator tables of :mod:`planartl.algebra`: assembly is integer
lookups and counting, and no diagram is glued in the loop.  One cup
generator closes at most one loop, and closes one exactly where it
fixes the diagram, so an entry is weighted by a where its row stays
put and by 1 where it moves.  A :class:`~planartl.coeff.LaurentPoly`
is one object per value, and a boundary map has a few dozen distinct
entries, so the walk takes a loop product or a sum from a cache keyed
by the operands themselves, and each distinct result is computed once
by the real arithmetic.  A child column shares every entry the move
leaves unchanged with its parent, only a sum can cancel, and a
cancelled entry is the one zero object, found by identity and deleted
where the sum is taken.  So the walk owns its columns' invariants: no
zero entry and every row in range.  The certificate checks neither
again, and :class:`PolyMatrix` only the rows.  The
tables are built by the constant-time cup rule, and the general diagram
product stays the test suite's oracle for them.

Homology ranks come from the exactness certificate alone: where each
phi_k below the top is triangular with a unit diagonal over
Z[v^+-1, a^-1], W(n) is exact below the top degree over every ring in
which v and a are units, and the boundary ranks are r_0 = 1 and
r_i = c_(i-1) - r_(i-1), at every nonzero rational point and over Q(v)
alike (see :func:`exactness_certificate`).  The certificate reads each
d^i once, from :func:`differential`, forms only the rows on and above
the diagonal of each column of phi, and ranks no point.  Where it fails,
:func:`homology_ranks` raises and names the failing column: nothing is
ranked in its place.  The proof rests on d o d = 0, so
:func:`homology_ranks` first reads it from
:func:`first_nonvanishing_composite`, over Z[v, v^-1] and once per l
as above, and raises where it fails.
"""

from __future__ import annotations

import operator
from functools import cache

from .algebra import AlgebraElement, generator_tables
from .coeff import LOOP_FACTOR, Convention, LaurentPoly
from .combin import first_peak_count_B
from .diagram import times_cup
from .indmod import black_box_basis, project
from .linalg import PolyMatrix

__all__ = [
    "boundary_element",
    "boundary_composite_vanishes",
    "first_nonvanishing_composite",
    "right_mult_matrix",
    "chain_basis",
    "differential",
    "exactness_certificate",
    "euler_characteristic",
    "homology_ranks",
]


def _times_s(x: AlgebraElement, k: int, c: Convention) -> AlgebraElement:
    """x s_k = lam x + mu x U_k, each term's product with U_k taken by
    the right cup rule :func:`~planartl.diagram.times_cup`, an erased
    loop weighing a."""
    mu_loop = c.mu * LOOP_FACTOR
    products = ((times_cup(d, k), w) for d, w in x.terms.items())
    moves = ((e, (mu_loop if loops else c.mu) * w) for (e, loops), w in products)
    return AlgebraElement._sum(x.n, {d: c.lam * w for d, w in x.terms.items()}, moves)


@cache
def boundary_element(n: int, i: int, c: Convention) -> AlgebraElement:
    """The algebra element implementing d^i by right multiplication,
    before projection:

        sum_{j=0}^{i} (-1)^j lam^{-j} s_{n-i+j-1} ... s_{n-i}

    (indices decrease left to right; the j = 0 product is empty), built
    as 1 * b_i by :func:`_times_boundary`.  Cached, since the element
    identities read b_(l-1) on l strands for ``ddzero`` and ``thmD``
    alike, and the exactness certificate and :func:`differential` read
    every b_i of W(n).

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
        # + copies its left operand: the scaled x is compact, and the
        # product's dict keeps the room its cancelled terms took
        y = x.scale(step**j) + _times_s(y, x.n - i + j, c)
    return y


@cache
def boundary_composite_vanishes(l: int, c: Convention) -> bool:
    """Whether d^(l-2) d^(l-1) = 0 on W(n) for every n >= l: true
    exactly when every term of e_(l-1) e_(l-2) in TL_l, with
    e_i = ``boundary_element(l, i, c)``, joins the right dots 1 and 2,
    that is has ``d[0] == 1`` as a pairing d (the right dots 1 and 2
    are its points 0 and 1).  Cached, since the ``ddzero`` check reads
    it at every n >= l.

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
    return all(d[0] == 1 for d in product.terms)


def first_nonvanishing_composite(n: int, c: Convention) -> int | None:
    """The least l with 2 <= l <= n at which
    :func:`boundary_composite_vanishes` fails, so that
    d^(l-2) d^(l-1) != 0 on W(n), or None where d o d = 0 on W(n).
    Each l is read from that function's cache: the ``ddzero`` check
    and :func:`homology_ranks` share the verdicts."""
    return next((l for l in range(2, n + 1) if not boundary_composite_vanishes(l, c)), None)


def right_mult_matrix(elt: AlgebraElement, source: range, target: range) -> PolyMatrix:
    """Matrix of x -> project(x * elt) from the source basis to the
    target basis (the projection kills arcs inside the target box),
    over Z[v, v^-1], one column per source diagram in Dyck-lex order.

    The identity comes first in Dyck-lex order, and its column, at
    position 0, is the projection of elt itself.  Every other source
    diagram x is U_j y for its loop-free parent (y, j) in the generator
    tables, so x * elt = U_j (y * elt).  The span the projection kills
    is a left ideal, so x's column is U_j acting on y's column: each
    entry at row r moves to row ``left[r]``, weighted by a where
    ``left[r] == r`` (there U_j closes its one loop), and a row at or
    past ``len(target)`` is dropped.  The tables' order lists each
    position after its parent and has every box basis as a prefix, so
    one pass over ``order[1:len(source)]`` builds every other column.  A
    parent always lies in its child's box basis; one outside the source
    basis raises RuntimeError.  A basis is a range of Dyck-lex
    positions, so one whose size is no B_m(n) for elt's n raises
    ValueError.

    The loop products and sums come from the caches :data:`_LOOP` and
    :data:`_SUM`, keyed by the entries themselves (one object per
    value), so each distinct result is computed once.  An entry moved
    without a loop or a sum is the parent's own :class:`LaurentPoly`.
    Only a sum can cancel, and one that does is the zero object, found
    by identity and deleted in the same pass, so no column is walked
    twice.  No entry is zero and every row lies in the target.
    :func:`exactness_certificate` relies on both, and
    :class:`PolyMatrix` checks only the rows.
    """
    sizes = {first_peak_count_B(elt.n, m) for m in range(elt.n + 1)}
    count, size = len(source), len(target)
    if count not in sizes or size not in sizes:
        raise ValueError(f"a basis size is no box size on {elt.n} strands")
    zero, loops, sums = LaurentPoly.zero(), _LOOP, _SUM
    tables = generator_tables(elt.n)
    columns: list = [None] * count
    columns[0] = project(elt, target)
    for k in tables.order[1:count]:
        y, j = tables.parent[k]
        if y >= count:
            raise RuntimeError(f"parent {y} of diagram {k} lies outside the source basis")
        left = tables.left[j - 1]
        column: dict[int, LaurentPoly] = {}
        for r, poly in columns[y].items():
            row = left[r]
            if row < size:
                if row == r:
                    poly = loops(poly)
                if row in column:
                    poly = sums(column[row], poly)
                    if poly is zero:
                        del column[row]
                        continue
                column[row] = poly
        columns[k] = column
    return PolyMatrix(size, count, columns)


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


#: The walk's loop product p * a and sum p + q, each computed once per
#: distinct operand, keyed by the LaurentPoly objects themselves.
_LOOP = cache(LOOP_FACTOR.__mul__)
_SUM = cache(operator.add)


@cache
def _is_unit(poly: LaurentPoly) -> bool:
    """True when poly is +-v^e or +-v^e * a, with a = v + v^-1: a unit
    of Z[v^+-1, a^-1] of the two shapes a diagonal of the chain homotopy
    takes (see :func:`exactness_certificate`).  Cached per distinct
    entry."""
    terms = sorted(poly.coefficients().items())
    if len(terms) == 2:
        (low, low_coeff), (high, high_coeff) = terms
        return high - low == 2 and low_coeff == high_coeff in (1, -1)
    return poly.is_unit_monomial()


@cache
def exactness_certificate(n: int, c: Convention) -> tuple[int, int, str] | None:
    """None when every chain map phi_k = d^(k+1) i_k + i_(k-1) d^k with
    k <= n-2 is triangular, with no entry above the diagonal, and has a
    unit diagonal over R = Z[v^+-1, a^-1].  Otherwise the first failing
    (k, j, entry text), the entry being the column's first nonzero one
    above the diagonal, or else its diagonal one.  Cached, since
    homology, the Hopf trace and the top Jacobsthal kernel all read it.

    Here i_k includes degree k in degree k+1.  Both bases are Dyck-lex
    prefixes, so column j of d^(k+1) i_k is column j of d^(k+1), and
    i_(k-1) d^k is d^k with its rows, all below c_(k-1) <= c_k, read in
    degree k; there is no such term at k = -1.  Each d^i is built once
    by :func:`differential`: its first c_k columns serve phi_(i-1),
    and all of them phi_i.  At most two boundary matrices are held at
    once.  A column j passes when it has no nonzero entry in a row < j
    and its entry at row j is +-v^e or +-v^e * a, a unit of R.  At
    n <= 12, in both conventions, the diagonal is 1 below c_(k-1) and at
    k = -1, and v * a (convention A) or v^-1 * a (convention B) from
    c_(k-1) to c_k - 1: C_n - 1 entries of that second kind per n.

    Only rows <= j of column j are formed.  A matrix with no entry above
    the diagonal and a unit diagonal is invertible whatever lies below
    the diagonal, so the rows > j never enter the verdict, and the
    column is the sum of the two terms' entries at rows <= j alone.
    The sums come from the walk's cache :data:`_SUM`, a cancelled one is
    the zero object, and the unit test is cached per distinct entry.

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
    on d o d = 0, which :func:`homology_ranks` checks before it reads
    this verdict.  Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    zero, sums, units = LaurentPoly.zero(), _SUM, _is_unit
    below = None  # the columns of d^k, from degree k to degree k-1
    for k in range(-1, n - 1):
        above = differential(n, k + 1, c).columns
        for j in range(len(chain_basis(n, k))):
            column = {row: poly for row, poly in above[j].items() if row <= j}
            if below is not None:
                for row, poly in below[j].items():
                    if row <= j:
                        column[row] = sums(column[row], poly) if row in column else poly
            rows = [row for row, poly in column.items() if row < j and poly is not zero]
            entry = column[min(rows)] if rows else column.get(j, zero)
            if rows or not units(entry):
                return k, j, entry.to_text()
        below = above
    return None


def euler_characteristic(n: int) -> int:
    """sum_{i=-1}^{n-1} (-1)^i rank(chain module i) of W(n), the degree -1
    term included."""
    return sum((-1) ** (i % 2) * len(chain_basis(n, i)) for i in range(-1, n))


def homology_ranks(n: int, c: Convention) -> tuple[dict[int, int], dict[int, int]]:
    """Exact ranks of W(n) under convention c: the boundary rank out of
    each degree 0..n-1, and the homology rank at each degree -1..n-1, as
    two dicts keyed by degree.

    The boundary ranks are the closed forms of
    :func:`exactness_certificate`, r_0 = 1 and r_i = c_(i-1) - r_(i-1),
    the ranks of every ring in which v and a = v + v^-1 are units, Q(v)
    and every nonzero rational point among them; no point is ranked.
    The certificate's premise d o d = 0 is checked first, by
    :func:`first_nonvanishing_composite`, which reads
    :func:`boundary_composite_vanishes` at every 2 <= l <= n.  Where it
    or the certificate fails, RuntimeError is raised, naming the
    composite or phi_k, the column j and its entry: the verdict is
    certified or it fails.

    No homology rank is negative: the closed forms give h_d = 0 below
    the top, and r_(n-1) <= c_(n-2) = c_(n-1) at the top.
    """
    l = first_nonvanishing_composite(n, c)
    if l is not None:
        raise RuntimeError(f"d^{l - 2} o d^{l - 1} != 0, so phi is no chain map")
    failure = exactness_certificate(n, c)
    if failure is not None:
        k, j, text = failure
        raise RuntimeError(f"exactness certificate fails at phi_{k}, column {j}: entry {text}")
    ranks = [1]
    for i in range(1, n):
        ranks.append(len(chain_basis(n, i - 1)) - ranks[-1])
    boundary = dict(enumerate(ranks))
    # no boundary map leaves degree -1, and none enters degree n-1
    homology = {
        d: len(chain_basis(n, d)) - boundary.get(d, 0) - boundary.get(d + 1, 0) for d in range(-1, n)
    }
    return boundary, homology
