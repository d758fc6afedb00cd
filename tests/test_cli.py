"""Command line tests: table output, diagram products, verify reports,
exit codes, and byte-level determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest


def run_cli(argv):
    out = io.StringIO()
    import planartl.cli as cli
    import sys

    real_stdout = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
    return code, out.getvalue()


def run_cli_capture(argv):
    """Invoke main with an explicit stream (the normal path)."""
    import planartl.cli as cli

    parser = cli.build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = args.func(args, out)
    return code, out.getvalue()


def test_tables_catalan_text():
    code, out = run_cli_capture(["tables", "catalan", "3"])
    assert code == 0
    assert out == "0\t1\n1\t1\n2\t2\n3\t5\n"


def test_tables_fine_text():
    code, out = run_cli_capture(["tables", "fine", "4"])
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()] == [
        "1", "0", "1", "2", "6",
    ]


def test_tables_jacobsthal_starts_at_one():
    code, out = run_cli_capture(["tables", "jacobsthal", "4"])
    assert code == 0
    assert out == "1\t1\n2\t1\n3\t3\n4\t5\n"
    for max_n, values in ((4, [1, 1, 3, 5]), (0, [])):
        code, out = run_cli_capture(["tables", "jacobsthal", str(max_n), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["start"] == 1
        assert payload["values"] == values


def test_tables_bgrid_text():
    code, out = run_cli_capture(["tables", "bgrid", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3] == "3\t5 5 3 1"


def test_tables_csv_and_json():
    code, out = run_cli_capture(["tables", "catalan", "2", "--format", "csv"])
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n"
    code, out = run_cli_capture(["tables", "fine", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["kind"] == "fine"
    assert payload["values"] == [1, 0, 1, 2]
    code, out = run_cli_capture(["tables", "bgrid", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["rows"][-1] == {"n": 2, "m": 2, "value": 1}


# sha256 of every table kind in every format at max_n = 9
TABLES_DIGESTS = {
    ("bgrid", "csv"): "7a92d9ce63251ea9b42795b413a39bcc3e9acbf6b6ccc9f2d58773903b8c15aa",
    ("bgrid", "json"): "3f217a11cb47ba0176de3aece7bad7cd58d718e48ffde6cae870850e92fdb791",
    ("bgrid", "text"): "acbb20c1db994262bd81c6641d8dc921337ffe5558546eb468f6d4a4c4f08a02",
    ("catalan", "csv"): "77a2decb6938c7584a83d89fc15fb11e35d237fa2d06aec2f05b6ba529a675de",
    ("catalan", "json"): "03f799819954d7874ebf371cd84bfb6a2eb3b3527bf7a4b4c615faacdc520c53",
    ("catalan", "text"): "ac36604fcc5c2ca7842710f3b8fa01326473a62b8893db96506e396624e6c67d",
    ("fine", "csv"): "83a6c1f7ff8b7535d3e115db694fcc630e645ac5602eb8350261e8f8f17b7462",
    ("fine", "json"): "48b37b8d273fc04debc17ec8227679042712233ecd6dfb63a7c2ce985f10af72",
    ("fine", "text"): "1dd124ec3049c049458d5468cbb71a07a58c61697485f8dd2b7eceb4521a7901",
    ("jacobsthal", "csv"): "b5b2ba5ec563aa0a7318c00956bb13931242552d7df363dbb88f9bc4ecfac95d",
    ("jacobsthal", "json"): "c5f372a36825bdabe1e33181eccc43a8f68614219a283682b25ff402edc1116e",
    ("jacobsthal", "text"): "1de0f6f043de0718381654077f09d8a80941d05d7be11b2a5b5c858d3273586d",
}


@pytest.mark.parametrize("kind, fmt", sorted(TABLES_DIGESTS))
def test_tables_byte_identical(kind, fmt):
    code, out = run_cli_capture(["tables", kind, "9", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_DIGESTS[kind, fmt]


# sha256 of the Fine and Jacobsthal tables far past the max_n = 9 pins
LONG_TABLE_DIGESTS = {
    ("fine", "30"): "cee6d3adb651bd5c9fe86a80fe870c3ea55256bf7841d441fa5f8ef915f61aaa",
    ("jacobsthal", "60"): "b4a28e565dc37cb12d0c66d05a10534713105c2df6412d177fbe72fe92a2dc2b",
}


@pytest.mark.parametrize("kind, max_n", sorted(LONG_TABLE_DIGESTS))
def test_long_tables_byte_identical(kind, max_n):
    code, out = run_cli_capture(["tables", kind, max_n, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_TABLE_DIGESTS[kind, max_n]


def test_mul_loop_example():
    code, out = run_cli_capture(["mul", "2", "udud", "udud"])
    assert code == 0
    assert out == "(v^1+v^-1) * udud\n"


def test_mul_identity():
    code, out = run_cli_capture(["mul", "3", "uuuddd", "uududd"])
    assert code == 0
    assert out == "(1) * uududd\n"


def test_mul_intro_example():
    # the five-strand product that erases one loop
    from planartl.diagram import from_pairs, word_of_pairing

    x = word_of_pairing(from_pairs(5, [(9, 10), (6, 7), (2, 3), (4, 5), (1, 8)]))
    y = word_of_pairing(from_pairs(5, [(8, 9), (2, 3), (4, 5), (7, 10), (1, 6)]))
    code, out = run_cli_capture(["mul", "5", x, y])
    assert code == 0
    assert out == f"(v^1+v^-1) * {x}\n"


def test_mul_three_loops():
    # the three right arcs of x meet the three left arcs of y and close
    # three loops, weighted (v + v^-1)^3
    code, out = run_cli_capture(["mul", "6", "udududududud", "udududududud"])
    assert code == 0
    assert out == "(v^3+3*v^1+3*v^-1+v^-3) * udududududud\n"


def test_mul_empty_word():
    # n = 0: the empty word is written as the literal the command takes
    code, out = run_cli_capture(["mul", "0", "", ""])
    assert code == 0
    assert out == '(1) * ""\n'


def test_mul_bad_word_exits_2(capsys):
    code, _ = run_cli_capture(["mul", "2", "uddu", "udud"])
    assert code == 2
    code, _ = run_cli_capture(["mul", "3", "udud", "udud"])
    assert code == 2
    code, _ = run_cli_capture(["mul", "-1", "", ""])
    assert code == 2
    assert "n must be nonnegative" in capsys.readouterr().err


def test_verify_passes_and_exit_zero():
    code, out = run_cli_capture(
        ["verify", "relations", "bijection", "bcounts", "--n-max", "4"]
    )
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 12


def test_verify_json_report_shape():
    code, out = run_cli_capture(
        ["verify", "euler", "thmB", "--n-max", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["tool"] == "planartl"
    assert payload["convention"] == "A"
    assert payload["points"] == ["2", "3"]
    assert len(payload["checks"]) == 6
    assert all(check["status"] == "pass" for check in payload["checks"])
    names = [(check["n"], check["name"]) for check in payload["checks"]]
    assert names == sorted(names)


def test_verify_deterministic_output():
    argv = ["verify", "homology", "thmD", "--n-max", "3", "--format", "json"]
    first = run_cli_capture(argv)
    second = run_cli_capture(argv)
    assert first == second


def test_verify_euler_to_ten():
    code, out = run_cli_capture(["verify", "euler", "--n-max", "10"])
    assert code == 0
    assert out.count("PASS") == 10


def test_verify_homology_to_six():
    code, out = run_cli_capture(
        ["verify", "homology", "--n-max", "6", "--points", "2,3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert all(check["status"] == "pass" for check in payload["checks"])
    top = payload["checks"][-1]["details"]
    assert top["fineberg_rank"] == 57 == top["fine"]


def test_verify_homology_and_hopf_fail_on_a_wrong_rank(monkeypatch):
    # one homology rank raised at n = 3, below the top (degree 0) or at
    # it (degree 2): homology fails on it, and hopf's sums part
    import planartl.cli as cli

    real = cli.homology_ranks
    for degree in (0, 2):
        def raised(n, c, degree=degree):
            boundary, homology = real(n, c)
            if n == 3:
                homology = {**homology, degree: homology[degree] + 1}
            return boundary, homology

        monkeypatch.setattr(cli, "homology_ranks", raised)
        code, out = run_cli_capture(["verify", "homology", "hopf", "--n-max", "3", "--format", "json"])
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["n"], c["status"]) for c in checks] == [
            ("homology", 1, "pass"), ("hopf", 1, "pass"),
            ("homology", 2, "pass"), ("hopf", 2, "pass"),
            ("homology", 3, "fail"), ("hopf", 3, "fail"),
        ]
        homology, hopf = checks[4]["details"], checks[5]["details"]
        assert homology["homology_ranks"][str(degree)] == (degree == 2) * 2 + 1
        assert homology["fineberg_rank"] == 2 + (degree == 2)
        assert homology["fine"] == 2
        assert hopf["homology_alternating_sum"] == hopf["chain_alternating_sum"] + 1


def test_verify_thmC_to_twelve():
    code, out = run_cli_capture(["verify", "thmC", "--n-max", "12"])
    assert code == 0
    assert out.count("PASS") == 12


def test_verify_convention_b():
    code, out = run_cli_capture(
        ["verify", "braid", "ddzero", "--n-max", "4", "--convention", "B"]
    )
    assert code == 0


def test_verify_custom_points():
    code, out = run_cli_capture(
        ["verify", "homology", "--n-max", "3", "--points", "5,7", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == ["5", "7"]


def test_verify_bad_points_exit_2():
    code, _ = run_cli_capture(["verify", "homology", "--n-max", "3", "--points", "2"])
    assert code == 2
    code, _ = run_cli_capture(["verify", "homology", "--n-max", "3", "--points", "0,2"])
    assert code == 2
    code, _ = run_cli_capture(["verify", "homology", "--n-max", "3", "--points", "1/0,2"])
    assert code == 2


def test_verify_repeated_points_exit_2(capsys):
    # a repeated point would be listed twice in the report yet ranked once
    code, out = run_cli_capture(["verify", "homology", "--n-max", "3", "--points", "2,2,3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: specialization points must be distinct\n"


def test_usage_errors_carry_the_error_prefix(capsys):
    for argv in (["tables", "fine", "-1"], ["verify", "euler", "--n-max", "0"]):
        code, out = run_cli_capture(argv)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_failure_exits_one(monkeypatch):
    import planartl.cli as cli

    def broken(n, c):
        return n != 2, {"failed": "forced"} if n == 2 else {}

    monkeypatch.setitem(cli._CHECKS, "euler", broken)
    code, out = run_cli_capture(["verify", "euler", "--n-max", "3"])
    assert code == 1
    assert "FAIL euler n=2" in out
    assert "SOME CHECKS FAILED" in out
    code, out = run_cli_capture(["verify", "euler", "--n-max", "3", "--format", "json"])
    assert code == 1
    statuses = [c["status"] for c in json.loads(out)["checks"]]
    assert statuses == ["pass", "fail", "pass"]


def _doctored_enumeration(monkeypatch, doctor):
    """Bind the CLI's enumeration to the Dyck-lex list with ``doctor``
    applied to its n = 4 list."""
    import planartl.cli as cli

    real = cli.enumerate_pairings

    def doctored(n):
        pairings = list(real(n))
        if n == 4:
            doctor(pairings)
        return tuple(pairings)

    monkeypatch.setattr(cli, "enumerate_pairings", doctored)


def test_verify_bcounts_fails_on_banned_diagram(monkeypatch):
    # the Dyck-lex list with the last box-2 diagram and the first banned
    # one swapped: as many diagrams are free at each box, and the box-2
    # prefix holds a diagram with an arc inside the box
    from planartl.combin import first_peak_count_B

    cut = first_peak_count_B(4, 2)

    def swap(pairings):
        pairings[cut - 1], pairings[cut] = pairings[cut], pairings[cut - 1]

    _doctored_enumeration(monkeypatch, swap)
    code, out = run_cli_capture(["verify", "bcounts", "--n-max", "4"])
    assert code == 1
    assert "PASS bcounts n=3" in out
    assert "FAIL bcounts n=4  banned diagram in basis at box 2" in out


def test_verify_bcounts_fails_on_a_free_diagram_past_the_prefix(monkeypatch):
    # the last diagram (udududud, free at no box above 1) replaced by a
    # copy of the first (uuuudddd, free at every box): every prefix is
    # unchanged, and one diagram more than B_2(4) = 9 is free at box 2
    def copy_first(pairings):
        pairings[13] = pairings[0]

    _doctored_enumeration(monkeypatch, copy_first)
    code, out = run_cli_capture(["verify", "bcounts", "--n-max", "4"])
    assert code == 1
    assert "PASS bcounts n=3" in out
    assert "FAIL bcounts n=4  basis size at box 2 is 10, expected 9" in out


def test_verify_bijection_fails_on_crossing_pairing(monkeypatch):
    # match each d with the earliest open u instead of the latest: for
    # uudd that gives the crossing arcs {1,3},{2,4}, whose word still
    # reads uudd, so reading the word off the pairing cannot catch it
    import planartl.cli as cli
    from planartl.combin import dyck_words

    def from_dyck_fifo(word):
        pairing = [0] * len(word)
        opened = []
        for p, ch in enumerate(word):
            if ch == "u":
                opened.append(p)
            else:
                q = opened.pop(0)
                pairing[p], pairing[q] = q, p
        return tuple(pairing)

    monkeypatch.setattr(
        cli, "enumerate_pairings", lambda n: tuple(from_dyck_fifo(w) for w in dyck_words(n))
    )
    code, out = run_cli_capture(["verify", "bijection", "--n-max", "2"])
    assert code == 1
    assert "PASS bijection n=1" in out
    assert "FAIL bijection n=2  round trip broke at uudd" in out


def test_verify_bijection_fails_on_a_repeated_oracle_word(monkeypatch):
    # word 0 (uuuddd) repeated at position 1: the second sweep finds no
    # letter that differs and gives uuuddd's pairing again, which is not
    # the walk's pairing at position 1
    import planartl.cli as cli
    from planartl.combin import dyck_words

    def repeated(n):
        words = list(dyck_words(n))
        if n == 3:
            words[1] = words[0]
        return tuple(words)

    monkeypatch.setattr(cli, "dyck_words", repeated)
    code, out = run_cli_capture(["verify", "bijection", "--n-max", "3"])
    assert code == 1
    assert "PASS bijection n=2" in out
    assert "FAIL bijection n=3  round trip broke at uuuddd" in out


# Each case replaces one pairing of the walk at n = 3, or swaps two; the
# first broken position names the word.
_BROKEN_WALKS = {
    # not an involution (points 2 and 5 both claim 3), yet it reads
    # uuuddd, the oracle's word at position 0
    "broken involution": ({0: (5, 4, 3, 2, 3, 0)}, "uuuddd"),
    # positions 0 and 1 (uuuddd and uududd) swapped
    "neighbours swapped": ({0: (5, 2, 1, 4, 3, 0), 1: (5, 4, 3, 2, 1, 0)}, "uuuddd"),
    # arcs {2,4} and {3,5} cross, yet the pairing reads uuuddd
    "crossing pairing": ({0: (5, 3, 4, 1, 2, 0)}, "uuuddd"),
}


@pytest.mark.parametrize("case", _BROKEN_WALKS)
def test_verify_bijection_fails_on_a_broken_walk(monkeypatch, case):
    import planartl.cli as cli
    from planartl.diagram import enumerate_pairings, word_of_pairing

    replaced, word = _BROKEN_WALKS[case]

    def broken(n):
        pairings = list(enumerate_pairings(n))
        if n == 3:
            for k, pairing in replaced.items():
                pairings[k] = pairing
        return tuple(pairings)

    if case != "neighbours swapped":
        # the word read off the broken pairing is still the oracle's
        assert word_of_pairing(replaced[0]) == word
    monkeypatch.setattr(cli, "enumerate_pairings", broken)
    code, out = run_cli_capture(["verify", "bijection", "--n-max", "3"])
    assert code == 1
    assert "PASS bijection n=2" in out
    assert f"FAIL bijection n=3  round trip broke at {word}" in out
    code, out = run_cli_capture(["verify", "bijection", "--n-max", "3", "--format", "json"])
    (check,) = [c for c in json.loads(out)["checks"] if c["n"] == 3]
    assert check["status"] == "fail"
    assert check["details"] == {"failed": f"round trip broke at {word}"}


def test_verify_enumeration_checks_build_no_index():
    # bases that are only counted or listed never look a position up
    from planartl.diagram import dyck_lex_index
    from planartl.indmod import black_box_basis

    black_box_basis.cache_clear()
    dyck_lex_index.cache_clear()
    code, _ = run_cli_capture(["verify", "euler", "bcounts", "bijection", "--n-max", "9"])
    assert code == 0
    assert dyck_lex_index.cache_info().currsize == 0


def test_verify_euler_builds_no_enumeration_or_tables(fresh_complexes):
    # every basis is a range of Dyck-lex positions sized by a closed
    # form, so the Euler characteristic enumerates no diagram
    from planartl.algebra import generator_tables
    from planartl.diagram import dyck_lex_index, enumerate_pairings
    from planartl.indmod import black_box_basis

    for cached in (black_box_basis, dyck_lex_index, enumerate_pairings, generator_tables):
        cached.cache_clear()
    code, _ = run_cli_capture(["verify", "euler", "--n-max", "9"])
    assert code == 0
    assert enumerate_pairings.cache_info().currsize == 0
    assert generator_tables.cache_info().currsize == 0


def test_verify_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli_capture(["verify", "nonsense", "--n-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli_capture(["tables", "primes", "3"])
    assert exc.value.code == 2


def test_verify_emit_matrices(tmp_path):
    path = tmp_path / "matrices.json"
    code, _ = run_cli_capture(
        ["verify", "ddzero", "--n-max", "3", "--emit-matrices", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["convention"] == "A"
    assert [cx["n"] for cx in payload["complexes"]] == [1, 2, 3]
    n3 = payload["complexes"][2]
    assert [deg["degree"] for deg in n3["degrees"]] == [-1, 0, 1, 2]
    assert [len(deg["basis"]) for deg in n3["degrees"]] == [1, 3, 5, 5]
    top = n3["differentials"][-1]
    assert top["rows"] == 5 and top["cols"] == 5
    assert all(isinstance(entry[2], str) for entry in top["entries"])
    # rewriting is byte-identical
    first = path.read_text()
    run_cli_capture(["verify", "ddzero", "--n-max", "3", "--emit-matrices", str(path)])
    assert path.read_text() == first


def test_verify_emit_matrices_to_an_unwritable_path_exits_2(tmp_path, monkeypatch, capsys):
    import planartl.cli as cli

    def never(n, c):
        raise AssertionError("a check ran")

    monkeypatch.setitem(cli._CHECKS, "euler", never)
    for path in (tmp_path, tmp_path / "missing" / "matrices.json"):
        code, out = run_cli_capture(["verify", "euler", "--n-max", "1", "--emit-matrices", str(path)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")


# sha256 of the JSON report and of the matrix dump of every check at
# n <= 6 and at n <= 7; any change to a number, a basis order or a
# polynomial's text shows here.
PINNED_DIGESTS = {
    ("A", 6): (
        "31257ef7451fdc3c9aa5ae7978dd4bfedfbcda83c2ae602797f13775548a1fe1",
        "e850b434d65262dafa244a78664eb6f861dc54ce9e52f737e42081ef93cab091",
    ),
    ("B", 6): (
        "1dbf18a28fde1413ebfb105d8a40dca0c4a0c2f3c2083a28e69ba2bd46641cf6",
        "8926aa4e5560ca2f8a60132266e36b85a7b8dd014d8a20a76c83a7e4ecb5596a",
    ),
    ("A", 7): (
        "c176936d4f790fb18d2b2be4c5abc9e550beac6803503eb721a5801af7053545",
        "e7cbbe33f8deeb434d6776e361c697150332d67ea22e6d83e2e25dcac2f66340",
    ),
    ("B", 7): (
        "ffae599c6b66865f64e9987610a8ccc851fae8d794e823e9ab2ba1672dc37c5a",
        "424d8d0d1555f49850a6418466f56e4a520766015ba170dfbead27caa2065c90",
    ),
}


@pytest.mark.parametrize(
    "conv, n_max",
    [pytest.param(conv, n_max, id=conv if n_max == 6 else f"{conv}-n{n_max}")
     for conv, n_max in sorted(PINNED_DIGESTS)],
)
def test_verify_all_checks_byte_identical(tmp_path, conv, n_max):
    import planartl.cli as cli

    path = tmp_path / "matrices.json"
    code, out = run_cli_capture(
        ["verify", *cli.CHECK_NAMES, "--n-max", str(n_max), "--convention", conv,
         "--format", "json", "--emit-matrices", str(path)]
    )
    assert code == 0
    report_sha, dump_sha = PINNED_DIGESTS[conv, n_max]
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == dump_sha


# sha256 of the text and csv reports of every check at n <= 5
SUMMARY_DIGESTS = {
    "csv": "bbab2907564ed669a71a8393b761e7368535e53e18a540dc8ec1582bcff2331e",
    "text": "c5f9171403c47edbad7db18ac576f4659238a1958755d45f7f39129d3363a5a2",
}


@pytest.mark.parametrize("fmt", sorted(SUMMARY_DIGESTS))
def test_verify_text_and_csv_byte_identical(fmt):
    import planartl.cli as cli

    code, out = run_cli_capture(["verify", *cli.CHECK_NAMES, "--n-max", "5", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUMMARY_DIGESTS[fmt]


def test_verify_enumeration_checks_byte_identical():
    # the enumerate path past the all-checks pin: sha256 of the report
    code, out = run_cli_capture(
        ["verify", "euler", "bcounts", "bijection", "--n-max", "10", "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "598d179d3ee2e3f4b3c8a2105aada759fa50e4a2aeb2ca261226b65bcd7d689d"
    )


def test_verify_first_peak_and_euler_checks_byte_identical_to_16():
    # thmB and thmC past the all-checks pin: sha256 of the report
    code, out = run_cli_capture(
        ["verify", "thmB", "thmC", "euler", "--n-max", "16", "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bf3f6b77bef3e3f89f17d17b31cbf9a81a294d2348f9a875e272f495f902ae4f"
    )


# sha256 of the Theorem D report at n <= 9, past the all-checks pin
THMD_DIGESTS = {
    "A": "80386eaac19ffd9e91658d0b1bfd7b5d2719ecd1d828f94550b41a00ceba2534",
    "B": "e420b7fbced28d2e22588282b0b8b0865a79b1102a7666e74c3f8e1bd5e67871",
}


@pytest.mark.parametrize("conv", sorted(THMD_DIGESTS))
def test_verify_thmD_byte_identical_past_n7(conv):
    code, out = run_cli_capture(
        ["verify", "thmD", "--n-max", "9", "--convention", conv, "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THMD_DIGESTS[conv]


# sha256 of the element-identity checks and fineberg at n <= 10
ELEMENT_DIGESTS = {
    "A": "04b362618dda71c4f81c517fbb32c15c5c5e075d2bc3f3af5a822ab4023493c7",
    "B": "58243c2b5f7395adc4d6a88594f015459396b20b2d304534347483828c03bb13",
}


@pytest.mark.parametrize("conv", sorted(ELEMENT_DIGESTS))
def test_verify_ddzero_thmD_fineberg_byte_identical_at_n10(conv):
    code, out = run_cli_capture(
        ["verify", "ddzero", "thmD", "fineberg", "--n-max", "10", "--convention", conv, "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ELEMENT_DIGESTS[conv]


# sha256 of the rank checks at the benchmark's six points, n <= 7
SIX_POINT_DIGESTS = {
    "A": "bc4a09b45a0d5d8e0627514da0421f935be8c8b4b86540892d40c53cf1006b95",
    "B": "3b0ab29a25ab375a89056cfc25c0de4f08ed63bbe040e063ed897084e473b491",
}


@pytest.mark.parametrize("conv", sorted(SIX_POINT_DIGESTS))
def test_verify_rank_checks_at_six_points_byte_identical(conv):
    code, out = run_cli_capture(
        ["verify", "homology", "fineberg", "--n-max", "7", "--convention", conv,
         "--points=2,3,5,-2,1/2,3/2", "--format", "json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIX_POINT_DIGESTS[conv]


@pytest.fixture
def fresh_complexes():
    # the exactness certificate is cached per (n, convention)
    from planartl.chains import exactness_certificate

    exactness_certificate.cache_clear()
    yield
    exactness_certificate.cache_clear()


def _no_rank_taken(monkeypatch):
    """Make every rank function of the library raise AssertionError,
    which the command line does not catch: a test that passes took no
    rank."""
    import planartl.linalg as linalg

    def never(*args):
        raise AssertionError("a rank was taken")

    for name in ("rank_at", "rank_of_int_columns"):
        monkeypatch.setattr(linalg, name, never)
    monkeypatch.setattr(linalg.PolyMatrix, "specialize_int_columns", never)


def test_verify_rank_checks_fail_when_the_certificate_fails(monkeypatch, fresh_complexes):
    # a failing certificate fails homology, hopf and fineberg at every n,
    # with its (k, j, entry) in the report, and nothing is ranked in its
    # place, at any points
    import planartl.chains as chains

    monkeypatch.setattr(chains, "exactness_certificate", lambda n, c: (n - 2, 1, "v^3"))
    _no_rank_taken(monkeypatch)
    for check in ("homology", "hopf", "fineberg"):
        for points in ("2,3", "2,3,5,-2,1/2,3/2"):
            code, out = run_cli_capture(["verify", check, "--n-max", "3", "--points", points, "--format", "json"])
            assert code == 1
            checks = json.loads(out)["checks"]
            assert [c["status"] for c in checks] == ["fail"] * 3
            for c in checks:
                assert c["details"] == {
                    "failed": f"exactness certificate fails at phi_{c['n'] - 2}, column 1: entry v^3"
                }
    code, out = run_cli_capture(["verify", "homology", "hopf", "fineberg", "--n-max", "2"])
    assert code == 1
    assert "FAIL fineberg n=2  exactness certificate fails at phi_0, column 1: entry v^3" in out


# sha256 of the text and csv reports of the rank checks at n <= 4 where
# d o d survives at l = 3
SURVIVING_DD_DIGESTS = {
    "csv": "a55345105906f49b722b808ddd0cdc20e09551fad501fc11a7d086a46dbc6945",
    "text": "2febbe0705698c9c736ec0700591b815cecc10531c2d4160913b2b5bfbaf38d8",
}


def test_verify_rank_checks_fail_where_d_d_survives(monkeypatch):
    # phi = d i + i d is a chain map only where d o d = 0, so homology,
    # hopf and fineberg check it on every 2 <= l <= n before they read
    # the certificate, and fail from n = l on; ddzero reads the same
    # verdicts and fails there too, with its own text
    import planartl.chains as chains

    real = chains.boundary_composite_vanishes
    monkeypatch.setattr(chains, "boundary_composite_vanishes", lambda l, c: l != 3 and real(l, c))
    _no_rank_taken(monkeypatch)
    argv = ["verify", "homology", "hopf", "fineberg", "--n-max", "4"]
    code, out = run_cli_capture([*argv, "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["n"], c["status"]) for c in checks] == [
        (n, "pass" if n <= 2 else "fail") for n in range(1, 5) for _ in range(3)
    ]
    for c in checks[6:]:
        assert c["details"] == {"failed": "d^1 o d^2 != 0, so phi is no chain map"}
    for fmt, digest in SURVIVING_DD_DIGESTS.items():
        code, out = run_cli_capture([*argv, "--format", fmt])
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out = run_cli_capture(["verify", "ddzero", "--n-max", "4", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "fail", "fail"]
    for c in checks[2:]:
        assert c["details"] == {"failed": "d^1 o d^2 != 0"}


def test_verify_fineberg_fails_when_the_certificate_fails_below_the_top(monkeypatch, fresh_complexes):
    # an entry added above the diagonal of phi_0 on 3 strands, in a
    # column of d^1: fineberg reads only the top rank, yet fails at
    # n = 3, with the real certificate's failing column
    import planartl.chains as chains
    from planartl.chains import chain_basis, exactness_certificate
    from planartl.coeff import CONVENTION_A, LaurentPoly

    real = chains.right_mult_matrix

    def doctoring(elt, source, target):
        matrix = real(elt, source, target)
        if elt.n == 3 and target == chain_basis(3, 0):
            matrix.columns[1][0] = LaurentPoly.v_power(3)
        return matrix

    monkeypatch.setattr(chains, "right_mult_matrix", doctoring)
    _no_rank_taken(monkeypatch)
    code, out = run_cli_capture(["verify", "fineberg", "--n-max", "3", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "fail"]
    assert exactness_certificate(3, CONVENTION_A) == (0, 1, "v^3")
    assert checks[2]["details"] == {"failed": "exactness certificate fails at phi_0, column 1: entry v^3"}


def test_verify_fineberg_reads_the_top_rank_of_the_complex(monkeypatch, fresh_complexes):
    # the top Jacobsthal element equals the top boundary element, so
    # fineberg reads the top rank of the complex that homology needs
    # anyway: one exactness certificate per n, which builds each
    # boundary map once, no point is ranked, and no Jacobsthal matrix is
    # built
    import planartl.chains as chains
    from planartl.chains import chain_basis, exactness_certificate

    real_laurent = chains.right_mult_matrix
    laurent = []

    def counting_laurent(*args):
        laurent.append(args)
        return real_laurent(*args)

    monkeypatch.setattr(chains, "right_mult_matrix", counting_laurent)
    _no_rank_taken(monkeypatch)
    code, _ = run_cli_capture(["verify", "homology", "fineberg", "--n-max", "6", "--points", "2,3"])
    assert code == 0
    assert exactness_certificate.cache_info().misses == 6
    assert [(args[1], args[2]) for args in laurent] == [
        (chain_basis(n, i), chain_basis(n, i - 1)) for n in range(1, 7) for i in range(n)
    ]


def _perturbed_boundary(monkeypatch, n, degree, generator):
    """Make the boundary element b_degree on n strands gain a
    U_generator term, with empty verdict caches that are dropped
    afterwards; every other (strands, degree) keeps the real element."""
    import planartl.chains as chains
    from planartl.algebra import AlgebraElement

    real = chains.boundary_element

    def patched(m, i, c):
        elt = real(m, i, c)
        if (m, i) == (n, degree):
            return elt + AlgebraElement.generator(n, generator)
        return elt

    monkeypatch.setattr(chains, "boundary_element", patched)
    _fresh_verdicts(monkeypatch)
    return patched


def test_ddzero_on_the_generator_agrees_with_the_full_composite(monkeypatch):
    # the check reads one element identity per l; the full composite on
    # n strands is the oracle, for b_{i+1} at every degree, and for
    # b_{n-1} + U_j on n = l strands, where the identity reads it
    import planartl.cli as cli
    from planartl.chains import boundary_composite_vanishes, chain_basis, differential, right_mult_matrix
    from planartl.coeff import CONVENTION_A, CONVENTION_B

    verdicts = set()
    for conv in (CONVENTION_A, CONVENTION_B):
        for n in range(1, 8):
            assert cli._check_ddzero(n, conv) == (True, {"degrees_checked": n - 1})
            for i in range(n - 1):
                full = differential(n, i, conv).compose(differential(n, i + 1, conv))
                assert boundary_composite_vanishes(i + 2, conv) == (full.nnz() == 0)
            for j in range(1, n):
                with monkeypatch.context() as m:
                    patched = _perturbed_boundary(m, n, n - 1, j)
                    passed, details = cli._check_ddzero(n, conv)
                    top = right_mult_matrix(patched(n, n - 1, conv), chain_basis(n, n - 1), chain_basis(n, n - 2))
                expected = differential(n, n - 2, conv).compose(top).nnz() == 0
                assert passed == expected, (conv.tag, n, j)
                if not passed:
                    assert details == {"failed": f"d^{n - 2} o d^{n - 1} != 0"}
                verdicts.add(passed)
    assert verdicts == {True, False}


def test_verify_ddzero_fails_on_a_surviving_extra_term(monkeypatch):
    # U_2 survives the projection into degree 1 at n = 3, and d^1 does
    # not kill what it adds to d^2
    _perturbed_boundary(monkeypatch, 3, 2, 2)
    code, out = run_cli_capture(["verify", "ddzero", "--n-max", "3", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "fail"]
    assert checks[2]["details"] == {"failed": "d^1 o d^2 != 0"}
    code, out = run_cli_capture(["verify", "ddzero", "--n-max", "3"])
    assert code == 1
    assert "FAIL ddzero n=3  d^1 o d^2 != 0" in out


def test_verify_thmD_reports_the_first_mismatch(monkeypatch):
    # the sign -1 element on l = 2 strands gains U_1 (on three strands its
    # image is U_2, which survives the projection into degree 0): the
    # report names the first differing term of the two elements in
    # Dyck-lex order, as its word and both coefficients' text, at every
    # n >= 2
    import planartl.jacobsthal as jacobsthal
    from planartl.algebra import AlgebraElement

    real = jacobsthal.jacobsthal_element

    def patched(n, l, c, ratio_sign=jacobsthal.MATCHING_RATIO_SIGN):
        jelt = real(n, l, c, ratio_sign)
        if (n, l, ratio_sign) == (2, 2, -1):
            return jelt._replace(element=jelt.element + AlgebraElement.generator(2, 1))
        return jelt

    monkeypatch.setattr(jacobsthal, "jacobsthal_element", patched)
    monkeypatch.setattr(jacobsthal, "theorem_D_mismatch", cache(jacobsthal.theorem_D_mismatch.__wrapped__))
    code, out = run_cli_capture(["verify", "thmD", "--n-max", "3", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "fail", "fail"]
    for check in checks[1:]:
        assert check["details"]["mismatches"] == [
            {"degree": 1, "ratio_sign": -1, "first_mismatch": ["udud", "v^1", "v^1+1"]}
        ]


def _fresh_verdicts(monkeypatch):
    """Give the ddzero and thmD checks empty verdict caches for this
    test, so that they decide every l again."""
    import planartl.chains as chains
    import planartl.jacobsthal as jacobsthal

    fresh = cache(chains.boundary_composite_vanishes.__wrapped__)
    monkeypatch.setattr(chains, "boundary_composite_vanishes", fresh)
    monkeypatch.setattr(jacobsthal, "theorem_D_mismatch", cache(jacobsthal.theorem_D_mismatch.__wrapped__))


def test_verify_ddzero_never_assembles_the_top_map(monkeypatch):
    # each d^i o d^{i+1} is an element identity on i + 2 strands: no
    # boundary matrix and no identity column is built
    import planartl.chains as chains

    sources = []
    monkeypatch.setattr(chains, "right_mult_matrix", lambda elt, source, target: sources.append(source))
    _fresh_verdicts(monkeypatch)
    code, _ = run_cli_capture(["verify", "ddzero", "--n-max", "6"])
    assert code == 0
    assert sources == []


def test_verify_ddzero_thmD_builds_no_index_tables_or_matrix(monkeypatch):
    # both checks read element identities in TL_l: no Dyck-lex index, no
    # generator table and no right-multiplication matrix
    import planartl.chains as chains
    from planartl.algebra import generator_tables
    from planartl.diagram import dyck_lex_index

    built = []
    monkeypatch.setattr(chains, "right_mult_matrix", lambda *args: built.append(args))
    _fresh_verdicts(monkeypatch)
    dyck_lex_index.cache_clear()
    generator_tables.cache_clear()
    for conv in ("A", "B"):
        code, _ = run_cli_capture(["verify", "ddzero", "thmD", "--n-max", "9", "--convention", conv])
        assert code == 0
    assert dyck_lex_index.cache_info().currsize == 0
    assert generator_tables.cache_info().currsize == 0
    assert built == []


def test_verify_reports_a_raising_check_as_failed(monkeypatch):
    # fine() raises where its routes disagree; the check fails with the
    # message, and the other checks and the report still come out
    import planartl.combin as combin

    real = combin.fine_by_alternating_binomials
    monkeypatch.setattr(
        combin, "fine_by_alternating_binomials", lambda n: real(n) + (n == 3)
    )
    # fine is cached; a raising call caches nothing, so only the values
    # computed before the patch need clearing
    combin.fine.cache_clear()
    code, out = run_cli_capture(["verify", "thmB", "--n-max", "3", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "fail"]
    assert checks[2]["details"] == {"failed": "Fine number routes disagree at n=3"}


def _traced(argv):
    """The JSON that perfbench/traced.py prints for ``argv``, run in a
    fresh process so the library's caches start empty."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), "0", *argv],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_run_reports_the_cli_output():
    # perfbench/traced.py wraps library functions by name wherever the
    # planartl modules bind them, and must print the CLI's own report
    argv = ["verify", "ddzero", "thmD", "fineberg", "bcounts", "--n-max", "4", "--format", "json"]
    traced = _traced(argv)
    code, out = run_cli(argv)
    assert code == 0
    assert traced["exit"] == 0
    assert traced["report"] == out
    layers = {span[0] for span in traced["spans"]}
    assert {"algebra.boundary_element", "chains.assemble", "indmod.basis", "jacobsthal.element"} <= layers
    # ddzero and thmD are element identities: nothing is composed or compared as a matrix
    assert not {"jacobsthal.assemble", "jacobsthal.compare", "linalg.compose"} & layers


def test_traced_run_covers_every_benchmark_check():
    # the checks of all three benchmark workloads, small: a renamed
    # function or field the tracer reads fails here, not in a benchmark
    argv = [
        "verify", "ddzero", "thmD", "homology", "fineberg", "euler", "bcounts", "bijection",
        "--n-max", "4", "--format", "json",
    ]
    traced = _traced(argv)
    code, out = run_cli(argv)
    assert code == 0
    assert traced["exit"] == 0
    assert traced["report"] == out
    for count in ("jacobsthal.element.terms", "chains.assemble.nnz"):
        assert traced["counts"].get(count, 0) > 0, count
    # the exactness certificate gives every rank, so nothing is eliminated
    assert "linalg.eliminate" not in {span[0] for span in traced["spans"]}


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli_capture(["--version"])
    assert exc.value.code == 0
