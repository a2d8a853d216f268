import collections
import copy
import functools
import math
from fractions import Fraction

import pytest

from diagclass import abfp, homology
from diagclass.abfp import (
    ConsistencyResult,
    EVIDENCE,
    _skeleton_homology_evidence,
    _witness_evidence,
    abfp_consistency_test,
    compute_A,
    formality_report,
    inter_polynomial,
)
from diagclass.graphs import (
    DEFAULT_MEM_BUDGET,
    GraphInputError,
    connected_graphs_up_to_iso,
    induced_subgraph,
    make_graph,
    named_graph,
)
from diagclass.hessenberg import (
    HessenbergFunction,
    IndifferenceCertificate,
    betti_polynomial_hessenberg,
    connected_hessenberg_functions,
    hessenberg_to_graph,
    is_indifference,
    recognize_indifference,
    staircase_key,
)
from diagclass.linalg import ComputationBudgetError
from diagclass.polynomials import Polynomial, poly_divide_exact
from diagclass.posets import all_clusterings, assignment_multiplicity, clustering_rank

T_MINUS_1 = Polynomial([-1, 1])

K3 = named_graph("complete", 3)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def test_memos_are_bounded_lru():
    assert abfp._staircase_A.cache_info().maxsize == 1024


def test_inter_triangle():
    assert inter_polynomial(K3).coeffs == (-3, 9)


def test_A_triangle():
    assert compute_A(K3).coeffs == (4, 1)


def test_A_paths_are_trivial():
    for n in range(2, 6):
        assert compute_A(path(n)).coeffs == (1,)


def test_A_single_vertex():
    assert compute_A(make_graph(1, [])).coeffs == (1,)


def test_A_rejects_non_indifference():
    with pytest.raises(GraphInputError):
        compute_A(named_graph("claw"))
    # the fork: a claw centred at 3 with leaves 2, 4, 5, and vertex 1 pendant
    # at 2, so the claw is the component that the block {1} leaves
    fork = make_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    with pytest.raises(GraphInputError, match="requires an indifference graph"):
        inter_polynomial(fork)


def test_A_degree_and_nonnegativity():
    """deg A = E - n + 1 and A has nonnegative coefficients on every
    connected indifference graph with at most 5 vertices, and on every one
    of the 232 classes with 8 vertices, past the face-by-face reference."""
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            if not is_indifference(g):
                continue
            a = compute_A(g)
            assert a.degree == g.num_edges - (g.n - 1)
            assert all(c >= 0 for c in a.coeffs)
            # the identity B - Inter = A (t-1)^(n-1), re-checked explicitly
            if n > 1:
                cert = recognize_indifference(g)
                lhs = betti_polynomial_hessenberg(cert.h) - inter_polynomial(g)
                assert lhs == a * T_MINUS_1 ** (n - 1)
    classes = [h for h in connected_hessenberg_functions(8) if staircase_key(h) == h.h]
    assert len(classes) == 232
    for h in classes:
        g = hessenberg_to_graph(h)
        a = compute_A(g)
        assert a.degree == g.num_edges - 7, h
        assert all(c >= 0 for c in a.coeffs), h


def _inter_face_by_face(g, A):
    """Inter of g as the plain sum over its proper faces of the face's
    multiplicity, A and power of (t-1); a face's A is the product of A over
    its blocks' induced subgraphs, 1 on a single vertex."""
    powers = [T_MINUS_1 ** r for r in range(g.n)]
    out = Polynomial.zero()
    for c in all_clusterings(g).labels:
        if len(c) > 1:
            face = Polynomial([assignment_multiplicity(c, g.n)])
            for block in c:
                if len(block) > 1:
                    face = face * A(induced_subgraph(g, block))
            out = out + face * powers[clustering_rank(c, g.n)]
    return out


def test_A_and_inter_match_the_face_by_face_sum():
    # by induction on n: the blocks of a proper face have fewer vertices, and
    # their A, checked earlier on the staircase of their class, are taken from
    # compute_A (kept per graph, so each induced block is recognised once)
    A = functools.cache(compute_A)
    for n in range(2, 8):
        for h in connected_hessenberg_functions(n):
            g = hessenberg_to_graph(h)
            lhs = betti_polynomial_hessenberg(h) - _inter_face_by_face(g, A)
            a = compute_A(g)
            assert a == poly_divide_exact(lhs, T_MINUS_1 ** (n - 1)), h
            assert a.degree == g.num_edges - n + 1, h
            assert all(c >= 0 for c in a.coeffs), h
    for name, k in (("claw", None), ("net", None), ("sun3", None),
                    ("cycle", 4), ("cycle", 5), ("cycle", 6), ("cycle", 7)):
        g = named_graph(name, k)
        assert inter_polynomial(g) == _inter_face_by_face(g, A), (name, k)


def test_assignment_multiplicity():
    c = frozenset({frozenset({1, 2}), frozenset({3})})
    assert assignment_multiplicity(c, 3) == 3
    disc = frozenset(frozenset([v]) for v in range(1, 5))
    assert assignment_multiplicity(disc, 4) == math.factorial(4)


def test_inter_sun3_exact():
    assert inter_polynomial(named_graph("sun3")).coeffs == (
        306, -1362, 2322, -1560, 540, 384, 72, 18,
    )


def test_consistency_triangle_true_values():
    res = abfp_consistency_test(K3, beta2=2, beta4=2)
    assert res.consistent
    assert res.forced_b2 == 2


def test_consistency_triangle_wrong_beta4():
    res = abfp_consistency_test(K3, beta2=2, beta4=7)
    assert not res.consistent
    assert res.forced_b2 == 2
    assert "forced b2 = 2" in res.describe()


def test_consistency_sun3_contradiction():
    res = abfp_consistency_test(named_graph("sun3"), beta2=5, beta4=29)
    assert not res.consistent
    assert res.forced_b2 == Fraction(20)
    assert not res.system_infeasible
    assert res.describe() == "forced b2 = 20 contradicts beta4 = 29"


def test_formality_formal_patterns():
    for g in (path(4), named_graph("complete", 4), K3):
        rep = formality_report(g)
        assert rep.verdict == "formal"
        assert rep.certificate is not None and rep.certificate.validates(g)
        assert rep.witness is None


def test_formality_claw_skeleton_evidence():
    rep = formality_report(named_graph("claw"))
    assert rep.verdict == "nonformal"
    assert rep.witness.kind == "claw"
    assert rep.evidence["kind"] == "skeleton_homology"
    assert rep.evidence["h1"] == 2
    payload = rep.to_dict()
    assert payload["verdict"] == "nonformal"
    assert payload["witness"]["vertices"] == [1, 2, 3, 4]


def test_formality_cycles_skeleton_evidence():
    for k, h1 in ((4, 3), (5, 4)):
        rep = formality_report(named_graph("cycle", k))
        assert rep.verdict == "nonformal"
        assert rep.witness.kind == "cycle"
        assert rep.evidence["kind"] == "skeleton_homology"
        assert rep.evidence["h1"] == h1


def test_formality_embedded_witness():
    # a claw inside a larger pattern: verdict comes from the witness subgraph
    g = make_graph(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    rep = formality_report(g)
    assert rep.verdict == "nonformal"
    assert rep.evidence["kind"] == "skeleton_homology"


def test_formality_sun3_abfp_evidence():
    rep = formality_report(named_graph("sun3"))
    assert rep.verdict == "nonformal"
    assert rep.witness.kind == "sun3"
    assert rep.evidence["kind"] == "abfp_inconsistency"
    assert rep.evidence["beta2"] == 5
    assert rep.evidence["beta4"] == 29
    assert rep.evidence["forced_b2"] == "20"
    assert rep.evidence["detail"] == "forced b2 = 20 contradicts beta4 = 29"


def test_formality_net_orbit_space_evidence():
    # this budget refuses the total-Betti strategy, so the orbit space
    # decides; nothing is forced there, and the detail names the clash b1 = 20
    evidence, attempts = _witness_evidence("net", None, 100_000_000)
    assert [a["strategy"] for a in attempts] == ["total_betti_mismatch"]
    assert evidence == {
        "kind": "abfp_inconsistency",
        "beta2": 20,
        "beta4": 146,
        "forced_b2": "None",
        "detail": "substitution b1 = 20 is inconsistent with the orbit-space identity",
    }


def test_formality_undetermined_under_tiny_budget(monkeypatch):
    # the budget refuses both moment-graph strategies, and the net's
    # recomputation gives up without trying its acyclic skeleton
    def untried(*args, **kwargs):
        raise AssertionError("skeleton strategy tried for a net")

    monkeypatch.setattr(abfp, "_skeleton_homology_evidence", untried)
    evidence, attempts = _witness_evidence("net", None, 1000)
    assert evidence is None
    assert [a["strategy"] for a in attempts] == ["total_betti_mismatch", "abfp_inconsistency"]


@pytest.mark.parametrize("shape", list(EVIDENCE), ids=lambda shape: "-".join(map(str, shape)))
def test_evidence_rows_match_the_strategies(shape):
    # a row is what the strategies compute on the shape's model graph, in
    # the order the CLI prints it
    evidence, _ = _witness_evidence(*shape, DEFAULT_MEM_BUDGET)
    assert list(evidence.items()) == list(EVIDENCE[shape].items())


def test_evidence_rows_survive_a_changed_verdict():
    for name in ("claw", "net"):
        first = formality_report(named_graph(name))
        expected = copy.deepcopy(first.evidence)
        for value in first.evidence.values():
            if isinstance(value, list):
                value.append(-1)
        first.evidence["kind"] = "changed"
        assert formality_report(named_graph(name)).evidence == expected


def _raise(*args, **kwargs):
    raise AssertionError("strategy run for a witness with an evidence row")


def test_every_witness_up_to_seven_vertices_is_a_lookup(monkeypatch):
    # Roberts: a connected pattern that is not an indifference graph has a
    # claw, a net, a 3-sun or a chordless C_k; at n <= 7 only C7 lacks a row
    for name in ("_skeleton_homology_evidence", "_total_betti_evidence", "_abfp_evidence"):
        monkeypatch.setattr(abfp, name, _raise)
    shapes = collections.Counter()
    for n in range(1, 8):
        for g in connected_graphs_up_to_iso(n):
            result = recognize_indifference(g)
            if isinstance(result, IndifferenceCertificate):
                continue
            shapes[result.kind, result.length] += 1
            if result.kind == "cycle" and result.length >= 7:
                with pytest.raises(AssertionError, match="evidence row"):
                    formality_report(g)
                continue
            rep = formality_report(g, mem_budget=0)
            assert rep.verdict == "nonformal", g.sorted_edges()
            assert rep.evidence == EVIDENCE[result.kind, result.length]
    assert set(shapes) == {*EVIDENCE, ("cycle", 7)}
    assert shapes["cycle", 7] == 1


def test_net_rank_two_skeleton_has_no_h1():
    rep = homology.poset_homology(named_graph("net"), "cluster", 2, "gf2", 2 * 1024**3)
    assert rep["face_counts"] == [4800, 23400, 19440]
    assert rep["betti"][1] == 0


def test_skeleton_strategy_refuses_before_building_the_poset(monkeypatch):
    # C7's rank-2 skeleton has a 246,960 x 211,680 d_2: 6.5 GB packed
    def unbuilt(*args, **kwargs):
        raise AssertionError("poset built for a refused skeleton")

    monkeypatch.setattr(homology, "cluster_permutohedron", unbuilt)
    refusal = r"^d_2 needs a 246960x211680 matrix \(6535549440 bytes packed\)"
    with pytest.raises(ComputationBudgetError, match=refusal):
        _skeleton_homology_evidence(named_graph("cycle", 7), 2 * 1024**3)


def test_formality_requires_connected():
    with pytest.raises(GraphInputError):
        formality_report(make_graph(3, [(1, 2)]))
