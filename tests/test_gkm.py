import json
import math
import random

import pytest

from diagclass import gkm
from diagclass.gkm import (
    GkmGraph,
    build_gkm_graph,
    equivariant_betti,
    equivariant_betti_series,
    gkm_total_betti,
    kernel_matrix,
    kernel_matrix_shape,
    known_betti_vector,
    monomials,
    num_monomials,
    ordinary_betti_from_equivariant,
)
from diagclass.graphs import GraphInputError, make_graph, named_graph
from diagclass.hessenberg import (
    HessenbergFunction,
    betti_polynomial_hessenberg,
    hessenberg_to_graph,
)
from diagclass.linalg import ComputationBudgetError

K3 = named_graph("complete", 3)
PATH4 = make_graph(4, [(1, 2), (2, 3), (3, 4)])
CLAW = named_graph("claw")


def test_build_gkm_graph_structure():
    gg = build_gkm_graph(K3)
    assert gg.num_vertices == 6
    # each pattern edge contributes n!/2 moment-graph edges
    assert gg.num_edges == 3 * 6 // 2
    # regular of degree = number of pattern edges
    assert set(gg.degrees()) == {3}
    for u, v, (p, q) in gg.edges:
        assert gg.perms[u] < gg.perms[v]
        tau = list(gg.perms[u])
        tau[p - 1], tau[q - 1] = tau[q - 1], tau[p - 1]
        assert tuple(tau) == gg.perms[v]


def test_build_gkm_graph_requires_connected():
    with pytest.raises(GraphInputError):
        build_gkm_graph(make_graph(3, [(1, 2)]))


def test_monomials():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    for nvars in (1, 2, 3, 4):
        for d in range(4):
            assert len(monomials(nvars, d)) == num_monomials(nvars, d)


def test_kernel_matrix_shape_agrees():
    gg = build_gkm_graph(PATH4)
    for d in (0, 1, 2):
        m = kernel_matrix(gg, d)
        assert (m.rows, m.cols) == kernel_matrix_shape(4, 3, d)


def test_kernel_matrix_entries_fill_distinct_cells():
    """Every moment-graph edge gives a +1 and a -1 per degree-i monomial,
    and no two of them share a cell: nnz = 2 |E| C(n+i-1, i)."""
    for g in (CLAW, named_graph("cycle", 4), named_graph("net"), named_graph("sun3")):
        gg = build_gkm_graph(g)
        for d in range(4):
            m = kernel_matrix(gg, d)
            assert m.nnz == 2 * gg.num_edges * math.comb(g.n + d - 1, d)
            assert len({r * m.cols + c for r, c in zip(m.row, m.col)}) == m.nnz
            assert sorted(set(m.val)) == [-1, 1] and sum(m.val) == 0
            assert max(m.row) < m.rows and max(m.col) < m.cols


def test_equivariant_dims_triangle():
    assert equivariant_betti_series(K3, 2, field="gf2") == [1, 5, 14]
    assert equivariant_betti_series(K3, 2, field="rational") == [1, 5, 14]


def test_degree_zero_counts_components():
    # L_0 kernel = locally constant functions = one per component (always 1)
    for g in (K3, PATH4, CLAW, named_graph("cycle", 4)):
        gg = build_gkm_graph(g)
        assert equivariant_betti(gg, 0) == 1


def test_orientation_independence():
    gg = build_gkm_graph(PATH4)
    rng = random.Random(5)
    for _ in range(3):
        flipped = gg.reoriented(rng)
        for d in (1, 2):
            assert equivariant_betti(flipped, d) == equivariant_betti(gg, d)


def test_ordinary_betti_expansion():
    assert ordinary_betti_from_equivariant([1, 5, 14], 3) == [1, 2, 2]


def test_total_betti_triangle():
    rep = gkm_total_betti(K3)
    assert rep.equivariant == (1, 5, 14)
    assert rep.poincare == (1, 2, 2, 1)
    assert rep.total == 6
    assert not rep.negative_coefficient and not rep.duality_violation
    assert rep.reference_vector is None
    payload = json.loads(rep.to_json())
    assert payload["total"] == 6 and payload["equivariant_dims"] == [1, 5, 14]


def test_total_betti_path4():
    rep = gkm_total_betti(PATH4)
    assert rep.poincare == (1, 11, 11, 1)
    assert rep.total == math.factorial(4)


def test_total_betti_matches_inversion_statistic():
    """On indifference patterns the moment-graph Poincare polynomial must
    equal the inversion-statistic polynomial B(t)."""
    for h in ((2, 3, 3), (3, 3, 3), (2, 4, 4, 4), (2, 3, 4, 4)):
        hf = HessenbergFunction(h)
        g = hessenberg_to_graph(hf)
        rep = gkm_total_betti(g)
        assert rep.poincare == betti_polynomial_hessenberg(hf).coeffs


def test_claw_pipeline_is_flagged():
    """Pinned experiment: on the 3-star the naive expansion is (1, 9, 15),
    which breaks the palindrome, so the pipeline refuses a total and
    surfaces the published reference vector instead."""
    rep = gkm_total_betti(CLAW)
    assert rep.equivariant == (1, 13, 61)
    assert rep.ordinary_low == (1, 9, 15)
    assert rep.duality_violation
    assert rep.total is None and rep.poincare is None
    assert rep.reference_vector == (1, 1, 12, 0, 12, 1, 1)
    assert rep.reference_total == 28
    assert not rep.undetermined  # reference value still resolves it


def test_claw_dims_field_independent():
    assert equivariant_betti_series(CLAW, 2, field="rational") == [1, 13, 61]


def test_known_betti_vector_lookup():
    assert known_betti_vector(CLAW) == (1, 1, 12, 0, 12, 1, 1)
    # isomorphic relabelling is still recognized
    star = make_graph(4, [(2, 1), (2, 3), (2, 4)])
    assert known_betti_vector(star) == (1, 1, 12, 0, 12, 1, 1)
    assert known_betti_vector(K3) is None
    assert known_betti_vector(PATH4) is None


def test_budget_precheck_names_the_matrix():
    with pytest.raises(ComputationBudgetError) as ei:
        gkm_total_betti(named_graph("sun3"), mem_budget=2 * 1024**3)
    assert "L_" in str(ei.value)


def test_budget_precheck_charges_by_field(monkeypatch):
    """Over Q the net's L_3 (75,600 x 40,320) is charged by the rank
    kernel over Q, and refused before the moment graph is built."""
    def unbuilt(g):
        raise AssertionError("moment graph built for a refused kernel")

    monkeypatch.setattr(gkm, "build_gkm_graph", unbuilt)
    with pytest.raises(ComputationBudgetError) as ei:
        gkm_total_betti(named_graph("net"), field="rational", mem_budget=2 * 1024**3)
    assert str(ei.value) == (
        "L_3 needs a 75600x40320 matrix (13017759616 bytes for its rank over Q), "
        "budget 2147483648"
    )
    with pytest.raises(ComputationBudgetError) as series:
        equivariant_betti_series(named_graph("net"), 3, field="rational",
                                 mem_budget=2 * 1024**3)
    assert str(series.value) == str(ei.value)
    with pytest.raises(ComputationBudgetError) as ei:
        gkm_total_betti(named_graph("sun3"), field="gf2", mem_budget=2 * 1024**3)
    assert str(ei.value) == (
        "L_4 needs a 226800x90720 matrix (2572819200 bytes packed), budget 2147483648"
    )


def test_sun3_rational_agrees_with_gf2():
    """Three primes on each of L_0..L_2; sun3's L_2 (48,600 x 15,120) is
    the largest, and its two-entry rows are contracted before the
    echelon, which leaves 16,200 rows over 756 columns."""
    assert equivariant_betti_series(named_graph("sun3"), 2, field="rational") == [
        1, 11, 80,
    ]


def test_bad_field_rejected():
    gg = build_gkm_graph(K3)
    with pytest.raises(ValueError):
        equivariant_betti(gg, 1, field="gf3")


def test_to_dot():
    gg = build_gkm_graph(K3)
    dot = gg.to_dot()
    assert dot.startswith("graph") and dot.count("--") == gg.num_edges
