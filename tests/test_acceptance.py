"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion.  Heavy results are computed once per session and shared."""

import math
import time

import pytest

from diagclass.abfp import abfp_consistency_test, compute_A, formality_report
from diagclass.gkm import gkm_total_betti
from diagclass.graphs import connected_graphs_up_to_iso, make_graph, named_graph
from diagclass.hessenberg import (
    HessenbergFunction,
    adi,
    betti_polynomial_hessenberg,
    hessenberg_to_graph,
    is_indifference,
    recognize_indifference,
)
from diagclass.homology import betti_numbers, chain_complex, integral_homology
from diagclass.posets import cluster_permutohedron, order_complex, skeleton


def _claw_skeleton_complex():
    cp = cluster_permutohedron(named_graph("claw"), max_rank=2)
    return order_complex(skeleton(cp, 2))


@pytest.fixture(scope="session")
def net_gkm_report():
    """The largest moment-graph computation in the suite (a few seconds):
    kernels of the net pattern through half the top degree, 2-element
    field."""
    return gkm_total_betti(named_graph("net"), field="gf2")


def test_criterion_01_star_pattern_fast_verdict():
    """3-star: total Betti number 28 from the published reference vector,
    NonFormal verdict with machine-checkable evidence, all within a minute."""
    t0 = time.monotonic()
    g = named_graph("claw")
    rep = gkm_total_betti(g)
    assert rep.equivariant == (1, 13, 61)
    assert rep.duality_violation  # naive expansion (1, 9, 15) is rejected
    assert rep.reference_vector == (1, 1, 12, 0, 12, 1, 1)
    assert rep.reference_total == 28
    verdict = formality_report(g)
    assert verdict.verdict == "nonformal"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"CRITERION 1 PASS: star total 28 (reference), nonformal, {elapsed:.1f}s")


def test_criterion_02_net_moment_graph_table(net_gkm_report):
    """Net pattern: equivariant table through degree 3 and a total Betti
    number of 730, which differs from the 720 fixed points."""
    rep = net_gkm_report
    assert rep.equivariant == (1, 26, 287, 1748)
    assert rep.ordinary_low == (1, 20, 146, 396)
    assert rep.poincare == (1, 20, 146, 396, 146, 20, 1)
    assert rep.total == 730
    assert rep.total != math.factorial(6)
    assert not rep.negative_coefficient and not rep.duality_violation
    print(f"CRITERION 2 PASS: net table {rep.equivariant}, total {rep.total} != 720")


def test_criterion_03_sun_orbit_space_contradiction():
    """3-sun: computed beta2 = 5, beta4 = 29; the orbit-space linear system
    forces b2 = 20, a contradiction, over both coefficient choices."""
    t0 = time.monotonic()
    g = named_graph("sun3")
    res = abfp_consistency_test(g, beta2=5, beta4=29)
    assert not res.consistent and res.forced_b2 == 20
    verdict = formality_report(g)
    assert verdict.verdict == "nonformal"
    assert verdict.evidence["kind"] == "abfp_inconsistency"
    assert verdict.evidence["beta2"] == 5 and verdict.evidence["beta4"] == 29
    elapsed = time.monotonic() - t0
    assert elapsed < 3600.0
    print(f"CRITERION 3 PASS: sun forced b2 = 20 vs beta4 = 29, {elapsed:.1f}s")


def test_criterion_04_triangle_orbit_polynomial():
    a = compute_A(named_graph("complete", 3))
    assert a.coeffs == (4, 1)  # A = 4 + t
    print("CRITERION 4 PASS: A(triangle) = 4 + t")


def test_criterion_05_skeleton_homology():
    """Rank-2 skeleton of the star's cluster-permutohedron is a 2-torus
    (reduced Betti (0, 2, 1) over Q, GF(2), Z; no torsion); the rank-2
    skeleta for 4- and 5-cycles have nonzero first homology."""
    sc = _claw_skeleton_complex()
    assert betti_numbers(sc, coeff="rational") == [0, 2, 1]
    assert betti_numbers(sc, coeff="gf2") == [0, 2, 1]
    ih = integral_homology(sc)
    assert ih.free_rank == (0, 2, 1)
    assert ih.torsion == ((), (), ())
    for k in (4, 5):
        cp = cluster_permutohedron(named_graph("cycle", k), max_rank=2)
        b = betti_numbers(order_complex(skeleton(cp, 2)), coeff="gf2")
        assert b[1] > 0
    print("CRITERION 5 PASS: star skeleton = 2-torus; cycle skeleta have H1 != 0")


def test_criterion_06_stretch_large_skeleta():
    """Rank-3 skeleton of the net's cluster permutohedron: an order complex
    of 233,490 chains (5,430 / 54,180 / 111,240 / 62,640 by dimension)
    whose GF(2) homology vanishes below the top degree."""
    sc = order_complex(
        skeleton(cluster_permutohedron(named_graph("net"), max_rank=3), 3)
    )
    assert sc.face_counts() == [5430, 54180, 111240, 62640]
    assert betti_numbers(sc, coeff="gf2") == [0, 0, 0, 151]


def test_criterion_07_moment_graph_matches_inversion_statistic():
    """On indifference patterns the moment-graph Poincare polynomial equals
    the inversion-statistic polynomial: all patterns on <= 4 vertices plus
    five 5-vertex staircase samples."""
    checked = 0
    for n in range(2, 5):
        for g in connected_graphs_up_to_iso(n):
            cert = recognize_indifference(g)
            if not hasattr(cert, "h"):
                continue
            rep = gkm_total_betti(g)
            assert rep.poincare == betti_polynomial_hessenberg(cert.h).coeffs
            checked += 1
    samples = [
        (2, 3, 4, 5, 5),
        (3, 3, 4, 5, 5),
        (3, 4, 5, 5, 5),
        (4, 4, 5, 5, 5),
        (2, 4, 4, 5, 5),
    ]
    for h in samples:
        hf = HessenbergFunction(h)
        rep = gkm_total_betti(hessenberg_to_graph(hf))
        assert rep.poincare == betti_polynomial_hessenberg(hf).coeffs
        checked += 1
    print(f"CRITERION 7 PASS: {checked} patterns, moment graph == inversion statistic")


def test_criterion_08_edge_addition_distance():
    assert adi(make_graph(5, [(i, i + 1) for i in range(1, 5)])) == (0, [])
    assert adi(named_graph("complete", 4))[0] == 0
    value, added = adi(named_graph("claw"))
    assert (value, added) == (1, [(2, 3)])
    for k in range(4, 8):
        v, added = adi(named_graph("cycle", k))
        assert v == k - 3
        fixed = make_graph(k, list(named_graph("cycle", k).sorted_edges()) + added)
        assert is_indifference(fixed)
    print("CRITERION 8 PASS: edge-addition distances (paths 0, star 1, k-cycles k-3)")


def test_criterion_09_end_to_end_small_patterns():
    """Exhaustive n <= 5: the verdict is formal exactly on indifference
    patterns, and every nonformal verdict carries numeric evidence."""
    formal = nonformal = 0
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            verdict = formality_report(g)
            if is_indifference(g):
                assert verdict.verdict == "formal"
                assert verdict.certificate.validates(g)
                formal += 1
            else:
                assert verdict.verdict == "nonformal"
                assert verdict.evidence
                nonformal += 1
    assert (formal, nonformal) == (18, 13)
    print("CRITERION 9 PASS: 31 patterns, formal (18) <=> indifference")


def test_criterion_10_structural_invariants():
    # boundary-of-boundary vanishes on the star's skeleton complex
    sc = _claw_skeleton_complex()
    cc = chain_complex(sc)
    for d in range(1, len(cc)):
        a = cc[d - 1].to_dense()
        b = cc[d].to_dense()
        for i in range(len(a)):
            for j in range(len(b[0])):
                assert sum(a[i][k] * b[k][j] for k in range(len(b))) == 0
    # inversion polynomial is palindromic and sums to n!
    for h in ((2, 3, 3), (3, 3, 3), (2, 3, 4, 4), (4, 4, 4, 4)):
        poly = betti_polynomial_hessenberg(HessenbergFunction(h))
        assert poly.is_palindromic()
        assert poly(1) == math.factorial(len(h))
    # tree patterns: edge-subset poset and clustering poset coincide
    from diagclass.posets import graphicahedron

    claw = named_graph("claw")
    assert len(graphicahedron(claw)) == len(cluster_permutohedron(claw))
    print("CRITERION 10 PASS: boundary^2 = 0, palindromes, tree poset agreement")
