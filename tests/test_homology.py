import itertools

import pytest

import diagclass.homology as homology
import diagclass.linalg as linalg
from diagclass.graphs import make_graph, named_graph
from diagclass.homology import (
    betti_numbers,
    boundary_matrix,
    chain_complex,
    homology_report,
    integral_homology,
)
from diagclass.linalg import ComputationBudgetError, rank_gf2
from diagclass.posets import SimplicialComplex, cluster_permutohedron, order_complex, skeleton


def complex_from_top_faces(top_faces):
    faces = {}
    for f in top_faces:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            for sub in itertools.combinations(f, k):
                faces.setdefault(len(sub) - 1, set()).add(sub)
    dims = range(max(faces) + 1)
    nv = 1 + max(v for f in top_faces for v in f)
    return SimplicialComplex(n_vertices=nv, faces=[sorted(faces[d]) for d in dims])


CIRCLE = complex_from_top_faces([(0, 1), (1, 2), (0, 2)])

# minimal 6-vertex triangulation of the real projective plane
# (hemi-icosahedron: 6 vertices, 15 edges, 10 triangles)
RP2 = complex_from_top_faces(
    [
        (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ]
)

# standard 7-vertex triangulation of the torus
TORUS = complex_from_top_faces(
    [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    + [((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
)

TWO_POINTS = SimplicialComplex(n_vertices=2, faces=[[(0,), (1,)]])


def test_rp2_is_a_valid_closed_surface():
    assert RP2.face_counts() == [6, 15, 10]
    edge_use = {}
    for tri in RP2.faces[2]:
        for e in itertools.combinations(tri, 2):
            edge_use[e] = edge_use.get(e, 0) + 1
    assert set(edge_use.values()) == {2}


def test_boundary_squares_to_zero():
    for sc in (CIRCLE, RP2, TORUS):
        cc = chain_complex(sc)
        for d in range(1, len(cc)):
            a = cc[d - 1].to_dense()
            b = cc[d].to_dense()
            for i in range(len(a)):
                for j in range(len(b[0])):
                    assert sum(a[i][k] * b[k][j] for k in range(len(b))) == 0


def test_augmentation_matrix():
    b0 = boundary_matrix(CIRCLE, 0)
    assert (b0.rows, b0.cols) == (1, 3)


def test_betti_circle():
    assert betti_numbers(CIRCLE, coeff="rational") == [0, 1]
    assert betti_numbers(CIRCLE, coeff="gf2") == [0, 1]
    assert betti_numbers(CIRCLE, coeff="rational", reduced=False) == [1, 1]


def test_betti_two_points():
    assert betti_numbers(TWO_POINTS, coeff="rational") == [1]
    assert betti_numbers(TWO_POINTS, coeff="rational", reduced=False) == [2]


def test_betti_rp2_field_dependence():
    assert betti_numbers(RP2, coeff="rational") == [0, 0, 0]
    assert betti_numbers(RP2, coeff="gf2") == [0, 1, 1]


def test_betti_torus():
    assert betti_numbers(TORUS, coeff="rational") == [0, 2, 1]
    assert betti_numbers(TORUS, coeff="gf2") == [0, 2, 1]


def test_integral_homology_fixtures():
    h = integral_homology(RP2)
    assert h.free_rank == (0, 0, 0)
    assert h.torsion == ((), (2,), ())
    assert h.describe(1) == "Z/2"
    assert h.describe(0) == "0"

    h = integral_homology(TORUS)
    assert h.free_rank == (0, 2, 1)
    assert h.torsion == ((), (), ())
    assert h.describe(1) == "Z^2"

    h = integral_homology(CIRCLE)
    assert h.free_rank == (0, 1)
    assert h.describe(1) == "Z"


def test_euler_characteristic_matches_betti():
    for sc in (CIRCLE, RP2, TORUS):
        betti = betti_numbers(sc, coeff="rational", reduced=False)
        chi = sum((-1) ** i * b for i, b in enumerate(betti))
        assert chi == sc.euler_characteristic()


def test_order_complex_of_hexagon_boundary_is_circle():
    sk = skeleton(cluster_permutohedron(make_graph(3, [(1, 2), (2, 3)])), 1)
    sc = order_complex(sk)
    assert betti_numbers(sc, coeff="rational") == [0, 1]
    assert integral_homology(sc).describe(1) == "Z"


def test_claw_two_skeleton_is_a_torus():
    sk = skeleton(cluster_permutohedron(named_graph("claw")), 2)
    sc = order_complex(sk)
    assert betti_numbers(sc, coeff="rational") == [0, 2, 1]
    assert betti_numbers(sc, coeff="gf2") == [0, 2, 1]
    h = integral_homology(sc)
    assert h.free_rank == (0, 2, 1)
    assert h.torsion == ((), (), ())


def test_homology_report():
    rep = homology_report(CIRCLE, coeff="rational")
    assert rep["betti"] == [0, 1]
    integral = homology_report(RP2, coeff="integer")
    assert integral["coeff"] == "integer"
    assert integral["homology"] == ["0", "Z/2", "0"]


def test_unknown_coefficients_rejected():
    with pytest.raises(ValueError):
        betti_numbers(CIRCLE, coeff="gf3")


def test_integral_homology_refuses_before_any_smith_form(monkeypatch):
    # the 5-simplex has face counts 6 / 15 / 20 / 15 / 6 / 1: with the cap at
    # 15 only d_2 (15 x 20) and d_3 are over it, and d_2 is refused before
    # d_0 and d_1 are put in Smith normal form
    monkeypatch.setattr(linalg, "SNF_SIZE_CAP", 15)
    eliminated = []
    monkeypatch.setattr(homology, "smith_normal_form", lambda m: eliminated.append(m))
    with pytest.raises(ComputationBudgetError) as refused:
        integral_homology(complex_from_top_faces([range(6)]))
    assert str(refused.value) == "matrix 15x20 exceeds Smith normal form cap 15"
    assert eliminated == []


def test_budget_refuses_before_any_elimination(monkeypatch):
    # charged bytes: d_0 16, d_1 2304, d_2 5184
    sc = order_complex(skeleton(cluster_permutohedron(named_graph("claw"), max_rank=2), 2))
    with pytest.raises(ComputationBudgetError) as direct:
        rank_gf2(boundary_matrix(sc, 2), mem_budget=3000)
    eliminated = []
    monkeypatch.setattr(homology, "rank_gf2", lambda m, **kw: eliminated.append(m))
    with pytest.raises(ComputationBudgetError) as refused:
        betti_numbers(sc, coeff="gf2", mem_budget=3000)
    assert str(refused.value) == str(direct.value)
    assert str(refused.value) == "packed GF(2) matrix needs 5184 bytes, budget 3000"
    assert eliminated == []
