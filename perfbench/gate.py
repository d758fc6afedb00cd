"""Known answers and the correctness gate for `planartl verify` reports.

Every expected value here is hard-coded from the OEIS or from the paper's
statements, never computed with `planartl`, so a wrong library cannot
vouch for itself.  `check_report` returns the list of problems it found in
one report; an empty list means the report is correct.
"""

from __future__ import annotations

import copy
import hashlib
import json
from math import comb

# Fine numbers, FINE[n] = A000957(n + 1): Dyck paths of semilength n whose
# first peak has even height (the empty path counts), F(1) = 0, F(2) = 1.
FINE = (1, 0, 1, 2, 6, 18, 57, 186, 622, 2120, 7338, 25724, 91144)
# A000108 (Catalan numbers), C(0) .. C(12).
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
# Theorem D: only rho = -mu/lam reproduces the boundary maps (n >= 2);
# at n = 1 the ratio never appears and both signs match vacuously.
THMD_SIGNS = [-1]
THMD_SIGNS_N1 = [1, -1]
# The worked four-strand example: arcs {1,8},{2,5},{3,4},{6,7}.
WORKED_EXAMPLE_N4 = "uuuddudd"


def _keys(first: int, last: int) -> set[str]:
    return {str(d) for d in range(first, last + 1)}


def _check_homology(n: int, det: dict) -> list[str]:
    out = []
    hom = det.get("homology_ranks", {})
    if set(hom) != _keys(-1, n - 1):
        out.append("homology degrees are not -1..n-1")
    elif any(hom[str(d)] != 0 for d in range(-1, n - 1)):
        out.append("homology does not vanish below the top degree")
    elif hom[str(n - 1)] != FINE[n]:
        out.append(f"top homology rank {hom[str(n - 1)]} != Fine {FINE[n]}")
    if set(det.get("boundary_ranks", {})) != _keys(0, n - 1):
        out.append("boundary degrees are not 0..n-1")
    if det.get("fineberg_rank") != FINE[n]:
        out.append(f"fineberg_rank {det.get('fineberg_rank')} != Fine {FINE[n]}")
    if det.get("fine") != FINE[n]:
        out.append(f"reported fine {det.get('fine')} != {FINE[n]}")
    return out


def _check_fineberg(n: int, det: dict) -> list[str]:
    out = []
    if det.get("kernel_rank") != FINE[n]:
        out.append(f"kernel_rank {det.get('kernel_rank')} != Fine {FINE[n]}")
    if det.get("fine") != FINE[n]:
        out.append(f"reported fine {det.get('fine')} != {FINE[n]}")
    return out


def _check_euler(n: int, det: dict) -> list[str]:
    chi = (-1) ** (n - 1) * FINE[n]
    out = []
    if det.get("chi") != chi:
        out.append(f"chi {det.get('chi')} != {chi}")
    if det.get("fine") != FINE[n]:
        out.append(f"reported fine {det.get('fine')} != {FINE[n]}")
    return out


def _check_bcounts(n: int, det: dict) -> list[str]:
    out = []
    if det.get("catalan") != CATALAN[n]:
        out.append(f"catalan {det.get('catalan')} != {CATALAN[n]}")
    sizes = det.get("box_sizes", {})
    if set(sizes) != _keys(0, n):
        return out + ["box sizes are not 0..n"]
    if sizes["0"] != CATALAN[n] or sizes["1"] != CATALAN[n] or sizes[str(n)] != 1:
        out.append("box sizes 0, 1, n are not C(n), C(n), 1")
    # The alternating sum of first-peak counts is the Fine number.
    alternating = sum((-1) ** m * sizes[str(m)] for m in range(n + 1))
    if alternating != FINE[n]:
        out.append(f"alternating box sum {alternating} != Fine {FINE[n]}")
    return out


def _check_bijection(n: int, det: dict) -> list[str]:
    out = []
    if det.get("diagrams") != CATALAN[n]:
        out.append(f"diagrams {det.get('diagrams')} != {CATALAN[n]}")
    if n == 4 and det.get("worked_example") != WORKED_EXAMPLE_N4:
        out.append("worked example word differs")
    return out


def _check_ddzero(n: int, det: dict) -> list[str]:
    if det.get("degrees_checked") != n - 1:
        return [f"degrees_checked {det.get('degrees_checked')} != {n - 1}"]
    return []


def _check_thmD(n: int, det: dict) -> list[str]:
    signs = THMD_SIGNS_N1 if n == 1 else THMD_SIGNS
    out = []
    if det.get("matching_signs") != signs:
        out.append(f"matching_signs {det.get('matching_signs')} != {signs}")
    if det.get("term_counts_match") is not True:
        out.append("term counts do not match the Jacobsthal numbers")
    return out


CHECKERS = {
    "homology": _check_homology,
    "fineberg": _check_fineberg,
    "euler": _check_euler,
    "bcounts": _check_bcounts,
    "bijection": _check_bijection,
    "ddzero": _check_ddzero,
    "thmD": _check_thmD,
}


def check_report(report, spec: dict) -> list[str]:
    """Problems found in one parsed `verify --format json` report.

    `spec` holds the request: `checks`, `n_max`, `convention`, and
    `points`, the list of point strings passed or None for the defaults.
    """
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    out = []
    if report.get("tool") != "planartl":
        out.append("tool is not planartl")
    if report.get("n_max") != spec["n_max"] or report.get("convention") != spec["convention"]:
        out.append("n_max or convention differs from the request")
    if spec["points"] is not None and report.get("points") != spec["points"]:
        out.append(f"points {report.get('points')} != {spec['points']}")
    entries = report.get("checks")
    if not isinstance(entries, list):
        return out + ["checks is not a list"]
    wanted = sorted((n, name) for n in range(1, spec["n_max"] + 1) for name in spec["checks"])
    got = sorted((e.get("n"), e.get("name")) for e in entries)
    if got != wanted:
        out.append("the (check, n) pairs differ from the request")
    for e in entries:
        name, n = e.get("name"), e.get("n")
        if name not in CHECKERS or not isinstance(n, int) or not 1 <= n < len(FINE):
            continue
        if e.get("status") != "pass":
            out.append(f"{name} n={n}: status {e.get('status')}")
        for problem in CHECKERS[name](n, e.get("details", {})):
            out.append(f"{name} n={n}: {problem}")
    return out


def digest_of(report: bytes | str) -> str:
    """sha256 of a report exactly as printed."""
    if isinstance(report, str):
        report = report.encode()
    return hashlib.sha256(report).hexdigest()


def judge(returncode: int, stdout: bytes, spec: dict, reference: str | None) -> tuple[str, list[str]]:
    """Digest of one run's stdout and the problems that make it a failed
    run: a nonzero exit, an unreadable or wrong report, or a digest that
    differs from `reference` (the first run of the same workload).
    """
    digest = digest_of(stdout)
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return digest, problems + ["stdout is not a JSON report"]
    problems += check_report(report, spec)
    if reference is not None and digest != reference:
        problems.append(f"report digest {digest[:12]} differs from the first run's {reference[:12]}")
    return digest, problems


def synthetic_report(spec: dict) -> dict:
    """A correct report built from the known answers alone, in the shape
    `planartl verify --format json` emits.  Used only to test the gate."""
    details = {
        "homology": lambda n: {
            "boundary_ranks": {str(i): 0 for i in range(n)},
            "homology_ranks": {str(d): FINE[n] if d == n - 1 else 0 for d in range(-1, n)},
            "fineberg_rank": FINE[n],
            "fine": FINE[n],
        },
        "fineberg": lambda n: {"kernel_rank": FINE[n], "fine": FINE[n]},
        "euler": lambda n: {"chi": (-1) ** (n - 1) * FINE[n], "fine": FINE[n]},
        "bcounts": lambda n: {
            "catalan": CATALAN[n],
            # B_m(n) = (m+1)/(n+1) * binom(2n-m, n), the ballot numbers.
            "box_sizes": {str(m): _ballot(n, m) for m in range(n + 1)},
        },
        "bijection": lambda n: {"diagrams": CATALAN[n]}
        | ({"worked_example": WORKED_EXAMPLE_N4} if n == 4 else {}),
        "ddzero": lambda n: {"degrees_checked": n - 1},
        "thmD": lambda n: {
            "matching_signs": list(THMD_SIGNS_N1 if n == 1 else THMD_SIGNS),
            "term_counts_match": True,
        },
    }
    results = [
        {"name": name, "n": n, "status": "pass", "details": details[name](n)}
        for n in range(1, spec["n_max"] + 1)
        for name in sorted(spec["checks"])
    ]
    return {
        "schema": 1,
        "tool": "planartl",
        "version": "0",
        "n_max": spec["n_max"],
        "convention": spec["convention"],
        "points": spec["points"],
        "checks": results,
    }


def _ballot(n: int, m: int) -> int:
    return (m + 1) * comb(2 * n - m, n) // (n + 1)


def self_test() -> list[str]:
    """Feed the gate doctored reports; return what it failed to catch.

    The known-answer tables must satisfy their defining identities.  A
    correct synthetic report must pass; one `kernel_rank` altered, one
    status flipped to `fail` and one check left out must each be caught,
    a report carrying the first two must show both problems, and `judge`
    must fail a nonzero exit and a differing digest.
    """
    missed = []
    # The tables themselves: C(n) = binom(2n, n)/(n+1) and 2F(n) + F(n-1) = C(n).
    if any(CATALAN[n] != comb(2 * n, n) // (n + 1) for n in range(len(CATALAN))):
        missed.append("the Catalan table is wrong")
    if len(FINE) != len(CATALAN) or any(2 * FINE[n] + FINE[n - 1] != CATALAN[n] for n in range(1, len(FINE))):
        missed.append("the Fine table is wrong")
    spec = {"checks": ("fineberg", "homology"), "n_max": 8, "convention": "B", "points": ["2", "3"]}
    good = synthetic_report(spec)
    if problems := check_report(good, spec):
        missed.append(f"a correct report was rejected: {problems}")

    def doctor(report, name, n):
        return next(e for e in report["checks"] if e["name"] == name and e["n"] == n)

    altered = copy.deepcopy(good)
    doctor(altered, "fineberg", 6)["details"]["kernel_rank"] += 1
    flipped = copy.deepcopy(good)
    doctor(flipped, "homology", 3)["status"] = "fail"
    both = copy.deepcopy(altered)
    doctor(both, "homology", 3)["status"] = "fail"
    truncated = copy.deepcopy(good)
    truncated["checks"].pop()
    doctored = (("altered kernel_rank", altered, 1), ("flipped status", flipped, 1), ("both", both, 2), ("a missing check", truncated, 1))
    for label, report, expect in doctored:
        problems = check_report(report, spec)
        if len(problems) != expect:
            missed.append(f"{label}: expected {expect} problem(s), gate found {problems}")
    raw = json.dumps(good).encode()
    digest, problems = judge(0, raw, spec, None)
    if problems:
        missed.append(f"judge rejected a correct run: {problems}")
    if not judge(1, raw, spec, digest)[1]:
        missed.append("judge passed a nonzero exit")
    if not judge(0, json.dumps(flipped).encode(), spec, digest)[1]:
        missed.append("judge passed a flipped status")
    if not judge(0, raw + b"\n", spec, digest)[1]:
        missed.append("judge passed a run whose digest differs")
    for name in CHECKERS:
        probe_spec = spec | {"checks": (name,), "n_max": 5}
        if problems := check_report(synthetic_report(probe_spec), probe_spec):
            missed.append(f"a correct {name} report was rejected: {problems}")
    return missed
