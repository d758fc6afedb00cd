"""Jacobsthal element tests: term structure, the boundary comparison
with its sign bookkeeping, and the kernel rank of the top element."""

import json
import re
from functools import cache

import pytest

import planartl.chains as chains
import planartl.jacobsthal as jacobsthal
from planartl.algebra import AlgebraElement
from planartl.algebra import generator_tables
from planartl.chains import (
    boundary_element,
    chain_basis,
    differential,
    exactness_certificate,
    homology_ranks,
    right_mult_matrix,
)
from planartl.coeff import CONVENTION_A, CONVENTION_B, mu_over_lambda
from planartl.combin import descending_opposite_parity_sequences, fine, jacobsthal_number
from planartl.diagram import generator_u, word_of_pairing
from planartl.cli import _check_thmD
from planartl.jacobsthal import (
    MATCHING_RATIO_SIGN,
    jacobsthal_element,
    jacobsthal_kernel_rank,
    verify_theorem_D,
)

CONVENTIONS = (CONVENTION_A, CONVENTION_B)


def matching_signs(mismatches):
    """The signs with no mismatch in any degree, +1 before -1."""
    return tuple(sign for sign, found in mismatches.items() if not found)


def thmD_passes(n, conv):
    return _check_thmD(n, conv)[0]


def test_descending_sequences_counts():
    for l in range(1, 13):
        seqs = descending_opposite_parity_sequences(l)
        assert len(seqs) == jacobsthal_number(l)
        assert len(set(seqs)) == len(seqs)
        for seq in seqs:
            if not seq:
                assert l % 2 == 1
                continue
            assert l > seq[0] > 0
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert (l - seq[0]) % 2 == 1


def test_element_l1_is_identity():
    for conv in CONVENTIONS:
        for sign in (1, -1):
            jelt = jacobsthal_element(5, 1, conv, sign)
            assert jelt.element == AlgebraElement.one(5)
            assert jelt.term_count == 1


def test_element_l2_is_ratio_weighted_cup():
    for conv in CONVENTIONS:
        for sign in (1, -1):
            n = 5
            jelt = jacobsthal_element(n, 2, conv, sign)
            rho = mu_over_lambda(conv)
            if sign == -1:
                rho = -rho
            assert jelt.element == AlgebraElement.generator(n, n - 1).scale(rho)
            assert jelt.term_count == 1


def test_element_l0_is_zero():
    jelt = jacobsthal_element(4, 0, CONVENTION_A)
    assert not jelt.element
    assert jelt.term_count == 0


def test_term_counts_match_jacobsthal_numbers():
    for conv in CONVENTIONS:
        for n in range(1, 11):
            for l in range(1, n + 1):
                jelt = jacobsthal_element(n, l, conv)
                assert jelt.term_count == jacobsthal_number(l)
                # distinct descending sequences never collide as diagrams
                assert len(jelt.element.terms) == jelt.term_count


def test_element_validation():
    with pytest.raises(ValueError):
        jacobsthal_element(3, 4, CONVENTION_A)
    with pytest.raises(ValueError):
        jacobsthal_element(3, 2, CONVENTION_A, 0)


def test_theorem_D_small():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            assert thmD_passes(n, conv)
            signs = matching_signs(verify_theorem_D(n, conv))
            if n == 1:
                # the ratio never appears in degree 0, so both signs match
                assert signs == (1, -1)
            else:
                assert signs == (MATCHING_RATIO_SIGN,)


def test_theorem_D_records_mismatch_entries():
    wrong = verify_theorem_D(3, CONVENTION_A)[-MATCHING_RATIO_SIGN]
    assert wrong, "the opposite sign must fail somewhere for n >= 2"
    for degree, (word, left, right) in wrong.items():
        assert len(word) == 2 * (degree + 1)
        assert left != right


def test_element_route_agrees_with_matrix_route():
    # the elements are equal exactly where the matrices are, so comparing
    # elements decides every degree the matrix route decides
    for conv in CONVENTIONS:
        for n in range(1, 8):
            for i in range(n):
                expected = boundary_element(n, i, conv)
                for sign in (1, -1):
                    jelt = jacobsthal_element(n, i + 1, conv, sign).element
                    got = right_mult_matrix(jelt, chain_basis(n, i), chain_basis(n, i - 1))
                    assert (jelt == expected) == (got == differential(n, i, conv)), (conv.tag, n, i, sign)


def test_element_identity_implies_the_map_identity():
    # equal elements give equal maps; the converse fails where the
    # projection kills the difference, as for b_i + U_j with U_j inside
    # the target box, so the element identity is the stronger check
    verdicts = set()
    for conv in CONVENTIONS:
        for n in range(2, 7):
            for i in range(n):
                source, target = chain_basis(n, i), chain_basis(n, i - 1)
                full = differential(n, i, conv)
                expected = boundary_element(n, i, conv)
                elements = [jacobsthal_element(n, i + 1, conv, sign).element for sign in (1, -1)]
                elements += [expected + AlgebraElement.generator(n, j) for j in range(1, n)]
                for elt in elements:
                    same_map = right_mult_matrix(elt, source, target) == full
                    assert same_map or elt != expected, (conv.tag, n, i)
                    verdicts.add((elt == expected, same_map))
    assert verdicts == {(True, True), (False, False), (False, True)}


def _with_extra_term(monkeypatch, generator, index=2):
    """Make the sign -1 element with n = l = index gain a U_generator
    term, with an empty verdict cache that is dropped afterwards."""
    real = jacobsthal.jacobsthal_element

    def patched(n, l, c, ratio_sign=MATCHING_RATIO_SIGN):
        jelt = real(n, l, c, ratio_sign)
        if (n, l, ratio_sign) == (index, index, -1):
            extra = AlgebraElement.generator(index, generator)
            return jelt._replace(element=jelt.element + extra)
        return jelt

    monkeypatch.setattr(jacobsthal, "jacobsthal_element", patched)
    monkeypatch.setattr(jacobsthal, "theorem_D_mismatch", cache(jacobsthal.theorem_D_mismatch.__wrapped__))


def test_theorem_D_decides_on_the_elements(monkeypatch):
    # U_1 added to the second element: on three strands it lands in the
    # degree-0 box, and the projection kills it, so the maps of d^1 still
    # agree there; the element identity on two strands, which every
    # n >= 2 reads, is stricter and catches it
    killed = jacobsthal_element(3, 2, CONVENTION_A).element + AlgebraElement.generator(3, 1)
    assert right_mult_matrix(killed, chain_basis(3, 1), chain_basis(3, 0)) == differential(3, 1, CONVENTION_A)
    with monkeypatch.context() as m:
        _with_extra_term(m, 1)
        assert [thmD_passes(n, CONVENTION_A) for n in (1, 2, 3)] == [True, False, False]
        mismatches = verify_theorem_D(3, CONVENTION_A)
        assert matching_signs(mismatches) == ()
        assert mismatches[-1] == {1: ("udud", "v^1", "v^1+1")}
    # U_2 added to the third element: a mismatch at degree 2 alone
    with monkeypatch.context() as m:
        _with_extra_term(m, 2, index=3)
        assert not thmD_passes(3, CONVENTION_A)
        mismatches = verify_theorem_D(3, CONVENTION_A)
        assert matching_signs(mismatches) == ()
        wrong = mismatches[-1]
        assert list(wrong) == [2]
        word, left, right = wrong[2]
        assert word == word_of_pairing(generator_u(3, 2))
        assert left != right


def test_theorem_D_builds_no_matrix(monkeypatch):
    # every degree of both signs is an element identity on l strands,
    # each (l, sign) built once: l = 1 ... 9 for the matching sign, and
    # l = 1, 2 for the +1 control, which stops at degree 1; no matrix and
    # no generator table is built
    real = jacobsthal.jacobsthal_element
    built, elements = [], []

    def counting(n, l, c, ratio_sign=MATCHING_RATIO_SIGN):
        elements.append((n, l, ratio_sign))
        return real(n, l, c, ratio_sign)

    monkeypatch.setattr(jacobsthal, "jacobsthal_element", counting)
    monkeypatch.setattr(jacobsthal, "theorem_D_mismatch", cache(jacobsthal.theorem_D_mismatch.__wrapped__))
    monkeypatch.setattr(chains, "right_mult_matrix", lambda *args: built.append(args))
    generator_tables.cache_clear()
    for conv in CONVENTIONS:
        elements.clear()
        for n in range(2, 10):
            mismatches = verify_theorem_D(n, conv)
            wrong = [(sign, degree) for sign, found in mismatches.items() for degree in found]
            assert wrong == [(1, 1)]
        assert elements == [(1, 1, 1), (2, 2, 1)] + [(l, l, -1) for l in range(1, 10)]
    assert built == []
    assert generator_tables.cache_info().currsize == 0


def test_kernel_rank_equals_fine_number(monkeypatch):
    # the top element equals the top boundary element, so the kernel
    # rank is the top rank of the complex: the only Laurent matrices
    # assembled are the exactness certificate's boundary maps, each
    # built once
    real = chains.right_mult_matrix
    built = []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(chains, "right_mult_matrix", counting)
    exactness_certificate.cache_clear()
    for conv in CONVENTIONS:
        for n in range(1, 7):
            built.clear()
            assert jacobsthal_kernel_rank(n, conv) == fine(n)
            certificate = [chain_basis(n, i) for i in range(n)]
            assert [args[1] for args in built] == certificate
    exactness_certificate.cache_clear()


def test_kernel_rank_raises_where_the_top_maps_differ(monkeypatch, capsys):
    # a top element that differs from the top boundary element is a
    # Theorem D failure: the fineberg check fails on it, and no rank is
    # taken for it
    from planartl.cli import main

    _with_extra_term(monkeypatch, 2, index=3)
    real = jacobsthal.homology_ranks
    ranked = []

    def counting(n, *args):
        ranked.append(n)
        return real(n, *args)

    monkeypatch.setattr(jacobsthal, "homology_ranks", counting)
    message = "the top Jacobsthal map and d^{n-1} differ"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        jacobsthal_kernel_rank(3, CONVENTION_A)
    assert ranked == []
    assert main(["verify", "fineberg", "--n-max", "3", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in checks] == ["pass", "pass", "fail"]
    assert checks[2]["details"] == {"failed": message}
    assert 3 not in ranked


def test_kernel_rank_matches_top_homology():
    for conv in CONVENTIONS:
        for n in range(1, 6):
            _, homology = homology_ranks(n, conv)
            assert jacobsthal_kernel_rank(n, conv) == homology[n - 1]


def test_kernel_rank_point_validation(capsys):
    # the kernel rank takes no points; the fineberg check's points are
    # still validated, before any check runs
    from planartl.cli import main

    assert main(["verify", "fineberg", "--n-max", "3", "--points", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least two specialization points\n")
