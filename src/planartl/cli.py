"""Command line frontend.

Three subcommands:

* ``tables``  -- emit the integer sequences and the first-peak grid
* ``mul``     -- multiply two basis diagrams given by their Dyck words
* ``verify``  -- run theorem checks and emit a machine-readable report

Reports are deterministic for a fixed invocation: no timestamps, fixed
ordering by (n, check name).  ``tables`` and ``verify`` each hand one
writer, :func:`_write`, their text lines, CSV rows and JSON object, and
it writes the one ``--format`` asks for.  Exit codes: 0 all checks
pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import accumulate

from . import __version__
from .algebra import AlgebraElement, augment, braiding_s, braiding_s_inv, elt_mul
from .chains import (
    chain_basis, differential, euler_characteristic, first_nonvanishing_composite, homology_ranks,
)
from .coeff import LOOP_FACTOR, Convention, convention
from .combin import (
    ENUM_LIMIT,
    catalan,
    dyck_words,
    fine,
    fine_by_first_peaks,
    first_peak_count_B,
    first_peak_count_by_enumeration,
    jacobsthal_number,
    syt_count,
    theorem_C_multiplicity,
    two_column_partitions,
)
from .diagram import (
    check_strands,
    enumerate_pairings,
    from_dyck,
    from_pairs,
    pairings_of_words,
    word_of_pairing,
)
from .indmod import largest_free_box
from .jacobsthal import MATCHING_RATIO_SIGN, jacobsthal_kernel_rank, verify_theorem_D


#: The default ``--points``.  They are validated and echoed in the JSON
#: report, but no check reads them: every rank is read off the
#: exactness certificate of :mod:`planartl.chains`.
DEFAULT_POINTS = (Fraction(2), Fraction(3))


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


# ---------------------------------------------------------------------------
# individual checks: each takes (n, convention) and returns
# (passed, details)
# ---------------------------------------------------------------------------


def _check_relations(n: int, c: Convention):
    a = LOOP_FACTOR
    checked = 0
    for i in range(1, n):
        u_i = AlgebraElement.generator(n, i)
        if elt_mul(u_i, u_i) != u_i.scale(a):
            return False, {"failed": f"U_{i}^2 != a*U_{i}"}
        checked += 1
        for j in range(1, n):
            u_j = AlgebraElement.generator(n, j)
            if abs(i - j) >= 2:
                if elt_mul(u_i, u_j) != elt_mul(u_j, u_i):
                    return False, {"failed": f"U_{i} and U_{j} do not commute"}
                checked += 1
            elif abs(i - j) == 1:
                if elt_mul(elt_mul(u_i, u_j), u_i) != u_i:
                    return False, {"failed": f"U_{i}U_{j}U_{i} != U_{i}"}
                checked += 1
    return True, {"relations_checked": checked}


def _check_braid(n: int, c: Convention):
    one = AlgebraElement.one(n)
    checked = 0
    for i in range(1, n):
        s_i = braiding_s(n, i, c)
        if elt_mul(s_i, braiding_s_inv(n, i, c)) != one:
            return False, {"failed": f"s_{i} * s_{i}^-1 != 1"}
        if augment(s_i) != c.lam:
            return False, {"failed": f"augment(s_{i}) != lam"}
        checked += 2
        for j in range(1, n):
            s_j = braiding_s(n, j, c)
            if abs(i - j) == 1:
                lhs = elt_mul(elt_mul(s_i, s_j), s_i)
                rhs = elt_mul(elt_mul(s_j, s_i), s_j)
                if lhs != rhs:
                    return False, {"failed": f"braid relation fails at ({i},{j})"}
                checked += 1
            elif i != j:
                if elt_mul(s_i, s_j) != elt_mul(s_j, s_i):
                    return False, {"failed": f"s_{i} and s_{j} do not commute"}
                checked += 1
    return True, {"relations_checked": checked}


def _check_bijection(n: int, c: Convention):
    words = dyck_words(n)
    pairings = enumerate_pairings(n)
    if len(words) != len(pairings):
        return False, {"failed": "word and diagram counts differ"}
    # The pairing walk and the word enumeration are independent routes.
    # One LIFO sweep of each oracle word gives its unique noncrossing
    # pairing, which must be the walk's pairing at that position: so a
    # crossing, a broken involution or a wrong order fails here, even
    # where the pairing's own word reads right.  Each sweep resumes where
    # the word first differs from the previous one, a few letters from
    # its end in Dyck-lex order, and gives what a fresh sweep of the word
    # alone gives.
    for word, parsed, pairing in zip(words, pairings_of_words(words), pairings):
        if parsed != pairing:
            return False, {"failed": f"round trip broke at {word}"}
    details = {"diagrams": len(pairings)}
    if n == 4:
        # the worked four-strand example: arcs {1,8},{2,5},{3,4},{6,7}
        sample = word_of_pairing(from_pairs(4, [(1, 8), (2, 5), (3, 4), (6, 7)]))
        if sample != "uuuddudd":
            return False, {"failed": "worked example word mismatch"}
        details["worked_example"] = sample
    return True, details


def _check_bcounts(n: int, c: Convention):
    pairings = enumerate_pairings(n)
    if len(pairings) != catalan(n):
        return False, {"failed": "diagram count differs from Catalan number"}
    # Each diagram's largest free box, and for each Dyck-lex prefix the
    # largest box that none of its diagrams has an arc in (kept as bytes:
    # a box size is at most n).  A basis is the first B_m(n) positions:
    # it holds no banned diagram, and as many diagrams as the whole list
    # has free at box m, so no free diagram lies past it.
    boxes = bytes(map(largest_free_box, pairings))
    prefix_box = bytes(accumulate(boxes, min))
    free_at = [boxes.count(m) for m in range(n + 1)]
    sizes = {}
    for m in range(n + 1):
        expected = first_peak_count_B(n, m)
        count = sum(free_at[m:])
        if count != expected:
            return False, {"failed": f"basis size at box {m} is {count}, expected {expected}"}
        if expected and prefix_box[expected - 1] < m:
            return False, {"failed": f"banned diagram in basis at box {m}"}
        if n <= ENUM_LIMIT and first_peak_count_by_enumeration(n, m) != expected:
            return False, {"failed": f"first-peak enumeration disagrees at m={m}"}
        sizes[str(m)] = expected
    return True, {"catalan": catalan(n), "box_sizes": sizes}


def _check_ddzero(n: int, c: Convention):
    # d^i o d^{i+1} on W(n) is decided once, on l = i + 2 strands, as an
    # element identity in TL_l, and read here for every n >= l.
    l = first_nonvanishing_composite(n, c)
    if l is not None:
        return False, {"failed": f"d^{l - 2} o d^{l - 1} != 0"}
    return True, {"degrees_checked": n - 1}


def _check_euler(n: int, c: Convention):
    chi = euler_characteristic(n)
    f = fine(n)
    return chi == (-1) ** (n - 1) * f, {"chi": chi, "fine": f}


def _check_homology(n: int, c: Convention):
    boundary, homology = homology_ranks(n, c)
    fineberg_rank = homology[n - 1]
    low_degrees_vanish = all(homology[d] == 0 for d in range(-1, n - 1))
    return low_degrees_vanish and fineberg_rank == fine(n), {
        "boundary_ranks": {str(i): r for i, r in sorted(boundary.items())},
        "homology_ranks": {str(i): r for i, r in sorted(homology.items())},
        "fineberg_rank": fineberg_rank,
        "fine": fine(n),
    }


def _check_hopf(n: int, c: Convention):
    # Each h_d is c_d - r_d - r_{d+1}, so the two sums agree by
    # telescoping.  The ranks come from the exactness certificate, and
    # where it fails the check fails with it.
    chain_sum = euler_characteristic(n)
    homology_sum = sum((-1) ** (d % 2) * h for d, h in homology_ranks(n, c)[1].items())
    return chain_sum == homology_sum, {
        "chain_alternating_sum": chain_sum,
        "homology_alternating_sum": homology_sum,
    }


def _check_thmB(n: int, c: Convention):
    alternating = fine_by_first_peaks(n)
    f = fine(n)
    return alternating == f, {"alternating_sum": alternating, "fine": f}


def _check_thmC(n: int, c: Convention):
    total = 0
    multiplicities = {}
    for shape in two_column_partitions(n):
        m_shape = theorem_C_multiplicity(shape)
        multiplicities[str(shape)] = m_shape
        total += m_shape * syt_count(shape)
    ok = total == fine(n)
    return ok, {
        "multiplicities": multiplicities,
        "weighted_sum": total,
        "fine": fine(n),
    }


def _check_thmD(n: int, c: Convention):
    # every element on l <= n strands is built here (once, and cached),
    # and a term count other than J_l or a collision of two monomials
    # raises
    mismatches = verify_theorem_D(n, c)
    signs = [sign for sign, found in mismatches.items() if not found]
    # At n = 1 the ratio never appears, so both signs match; from n = 2
    # on the expected sign must be the only one that does.
    passed = MATCHING_RATIO_SIGN in signs and (n == 1 or len(signs) == 1)
    details: dict = {"matching_signs": signs, "term_counts_match": True}
    if not passed:
        details["mismatches"] = [
            {"degree": degree, "ratio_sign": MATCHING_RATIO_SIGN, "first_mismatch": list(mismatch)}
            for degree, mismatch in mismatches[MATCHING_RATIO_SIGN].items()
        ]
    return passed, details


def _check_fineberg(n: int, c: Convention):
    kernel_rank = jacobsthal_kernel_rank(n, c)
    ok = kernel_rank == fine(n)
    return ok, {"kernel_rank": kernel_rank, "fine": fine(n)}


_CHECKS = {
    "relations": _check_relations,
    "braid": _check_braid,
    "bijection": _check_bijection,
    "bcounts": _check_bcounts,
    "ddzero": _check_ddzero,
    "euler": _check_euler,
    "homology": _check_homology,
    "hopf": _check_hopf,
    "thmB": _check_thmB,
    "thmC": _check_thmC,
    "thmD": _check_thmD,
    "fineberg": _check_fineberg,
}
CHECK_NAMES = tuple(_CHECKS)


def _write(out, fmt: str, lines, rows, payload) -> None:
    """Write a report in format ``fmt``: the text lines, the CSV rows
    (header row first) joined by commas, or the JSON object indented by
    two; each ends with a newline."""
    if fmt == "text":
        out.writelines(f"{line}\n" for line in lines)
    elif fmt == "csv":
        out.writelines(",".join(map(str, row)) + "\n" for row in rows)
    else:
        out.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommand: tables
# ---------------------------------------------------------------------------


# Each sequence's first index and its terms.
_SEQUENCES = {"catalan": (0, catalan), "fine": (0, fine), "jacobsthal": (1, jacobsthal_number)}


def cmd_tables(args, out) -> int:
    kind = args.kind
    max_n = args.max_n
    if max_n < 0:
        print("error: max_n must be nonnegative", file=sys.stderr)
        return 2
    if kind == "bgrid":
        grid = [[first_peak_count_B(n, m) for m in range(n + 1)] for n in range(max_n + 1)]
        rows = [(n, m, value) for n, values in enumerate(grid) for m, value in enumerate(values)]
        lines = [f"{n}\t{' '.join(map(str, values))}" for n, values in enumerate(grid)]
        header = ("n", "m", "value")
        payload = {
            "schema": 1, "kind": kind, "max_n": max_n, "rows": [dict(zip(header, row)) for row in rows],
        }
    else:
        start, term = _SEQUENCES[kind]
        rows = [(n, term(n)) for n in range(start, max_n + 1)]
        lines = [f"{n}\t{value}" for n, value in rows]
        header = ("n", "value")
        payload = {"schema": 1, "kind": kind, "start": start, "values": [value for _, value in rows]}
    _write(out, args.format, lines, [header, *rows], payload)
    return 0


# ---------------------------------------------------------------------------
# subcommand: mul
# ---------------------------------------------------------------------------


def cmd_mul(args, out) -> int:
    n = args.n
    try:
        check_strands(n)
        x = from_dyck(args.word_x)
        y = from_dyck(args.word_y)
        if len(x) != 2 * n or len(y) != 2 * n:
            raise ValueError(f"words must have length {2 * n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    product = elt_mul(AlgebraElement.from_diagram(x), AlgebraElement.from_diagram(y))
    out.write(product.to_text() + "\n")
    return 0


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------


def _emit_matrices(handle, n_max: int, c: Convention) -> None:
    complexes = []
    for n in range(1, n_max + 1):
        pairings = enumerate_pairings(n)
        degrees = [
            {
                "degree": i,
                "box": n - i - 1,
                "basis": [word_of_pairing(pairings[k]) for k in chain_basis(n, i)],
            }
            for i in range(-1, n)
        ]
        differentials = []
        for i in range(n):
            mat = differential(n, i, c)
            differentials.append(
                {
                    "degree": i,
                    "rows": mat.nrows,
                    "cols": mat.ncols,
                    "entries": [[r, col, text] for r, col, text in mat.entries_list()],
                }
            )
        complexes.append({"n": n, "degrees": degrees, "differentials": differentials})
    payload = {"schema": 1, "convention": c.tag, "complexes": complexes}
    json.dump(payload, handle, indent=2)
    handle.write("\n")


def cmd_verify(args, out) -> int:
    if args.n_max < 1:
        print("error: --n-max must be at least 1", file=sys.stderr)
        return 2
    try:
        points = specialization_points(tok for tok in args.points.split(",") if tok.strip())
        # Opened before any check runs, so an unwritable path costs none.
        dump = open(args.emit_matrices, "w") if args.emit_matrices else nullcontext()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    c = convention(args.convention)
    # n is the outer loop and names are sorted, so results come in (n, name) order
    names = sorted(set(args.checks))
    results = []
    with dump:
        for n in range(1, args.n_max + 1):
            for name in names:
                # A check raises RuntimeError where its routes disagree or
                # its certificate fails: that check fails.
                try:
                    passed, details = _CHECKS[name](n, c)
                except RuntimeError as exc:
                    passed, details = False, {"failed": str(exc)}
                results.append({"name": name, "n": n, "status": "pass" if passed else "fail", "details": details})
        if args.emit_matrices:
            _emit_matrices(dump, args.n_max, c)
    all_pass = all(r["status"] == "pass" for r in results)
    lines = []
    for r in results:
        summary = "" if r["status"] == "pass" else f"  {r['details'].get('failed', r['details'])}"
        lines.append(f"{r['status'].upper():4s} {r['name']} n={r['n']}{summary}")
    lines.append("all checks passed" if all_pass else "SOME CHECKS FAILED")
    rows = [("check", "n", "status"), *((r["name"], r["n"], r["status"]) for r in results)]
    payload = {
        "schema": 1,
        "tool": "planartl",
        "version": __version__,
        "n_max": args.n_max,
        "convention": c.tag,
        "points": [str(p) for p in points],
        "checks": results,
    }
    _write(out, args.format, lines, rows, payload)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planartl",
        description="Exact Temperley-Lieb diagram calculus and its verification suite.",
    )
    parser.add_argument("--version", action="version", version=f"planartl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="emit integer sequence tables")
    tables.add_argument("kind", choices=("catalan", "fine", "jacobsthal", "bgrid"))
    tables.add_argument("max_n", type=int)
    tables.add_argument("--format", choices=("text", "csv", "json"), default="text")
    tables.set_defaults(func=cmd_tables)

    mul = sub.add_parser("mul", help="multiply two basis diagrams by Dyck word")
    mul.add_argument("n", type=int)
    mul.add_argument("word_x")
    mul.add_argument("word_y")
    mul.set_defaults(func=cmd_mul)

    verify = sub.add_parser("verify", help="run theorem checks")
    verify.add_argument("checks", nargs="+", choices=CHECK_NAMES, metavar="check")
    verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    verify.add_argument("--convention", choices=("A", "B"), default="A")
    verify.add_argument(
        "--points",
        default=",".join(map(str, DEFAULT_POINTS)),
        help="comma-separated rational values of v, at least two, distinct and nonzero "
        "(default: %(default)s); validated and echoed in the JSON report, but no check "
        "reads them: every rank is certified",
    )
    verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    verify.add_argument("--emit-matrices", default=None, metavar="PATH")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
