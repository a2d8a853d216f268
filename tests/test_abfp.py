import json
import math
from fractions import Fraction

import pytest

from diagclass import abfp
from diagclass.abfp import (
    ConsistencyResult,
    _skeleton_homology_evidence,
    abfp_consistency_test,
    assignment_multiplicity,
    compute_A,
    formality_report,
    inter_polynomial,
)
from diagclass.graphs import (
    GraphInputError,
    connected_graphs_up_to_iso,
    make_graph,
    named_graph,
)
from diagclass.hessenberg import is_indifference, recognize_indifference
from diagclass.linalg import ComputationBudgetError
from diagclass.polynomials import Polynomial

T_MINUS_1 = Polynomial([-1, 1])

K3 = named_graph("complete", 3)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def test_memos_are_bounded_lru():
    assert abfp._staircase_A.cache_info().maxsize == 1024
    assert abfp._witness_evidence.cache_info().maxsize == 1024


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


def test_A_degree_and_nonnegativity():
    """deg A = E - n + 1 and A has nonnegative coefficients on every
    connected indifference graph with at most 5 vertices."""
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            if not is_indifference(g):
                continue
            a = compute_A(g)
            assert a.degree == g.num_edges - (g.n - 1)
            assert all(c >= 0 for c in a.coeffs)
            # the identity B - Inter = A (t-1)^(n-1), re-checked explicitly
            if n > 1:
                from diagclass.hessenberg import betti_polynomial_hessenberg

                cert = recognize_indifference(g)
                lhs = betti_polynomial_hessenberg(cert.h) - inter_polynomial(g)
                assert lhs == a * T_MINUS_1 ** (n - 1)


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
    payload = json.loads(rep.to_json())
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


def test_formality_undetermined_under_tiny_budget():
    rep = formality_report(named_graph("net"), mem_budget=1000)
    assert rep.verdict == "undetermined"
    assert rep.witness.kind == "net"


def test_skeleton_strategy_refuses_before_building_the_poset(monkeypatch):
    # C7's rank-2 skeleton has a 246,960 x 211,680 d_2: 6.5 GB packed
    def unbuilt(*args, **kwargs):
        raise AssertionError("poset built for a refused skeleton")

    monkeypatch.setattr(abfp, "cluster_permutohedron", unbuilt)
    with pytest.raises(ComputationBudgetError, match="packed GF"):
        _skeleton_homology_evidence(named_graph("cycle", 7), 2 * 1024**3)


def test_formality_requires_connected():
    with pytest.raises(GraphInputError):
        formality_report(make_graph(3, [(1, 2)]))
