import json
import math

import networkx as nx
import pytest

import diagclass.posets as posets
from diagclass.graphs import (
    GraphInputError,
    connected_graphs_up_to_iso,
    make_graph,
    named_graph,
)
from diagclass.linalg import ComputationBudgetError
from diagclass.posets import (
    all_clusterings,
    assignments_for,
    cluster_permutohedron,
    clusterings,
    discrete_clustering,
    graphicahedron,
    order_complex,
    project_assignment,
    skeleton,
    skeleton_face_counts,
)

PATH3 = make_graph(3, [(1, 2), (2, 3)])


def test_clusterings_counts():
    assert len(clusterings(named_graph("complete", 3))) == 5
    assert len(clusterings(PATH3)) == 4
    assert len(clusterings(named_graph("claw"))) == 8


def test_clusterings_path3_elements():
    labels = {frozenset(frozenset(b) for b in c) for c in clusterings(PATH3).labels}
    expected = {
        frozenset({frozenset({1}), frozenset({2}), frozenset({3})}),
        frozenset({frozenset({1, 2}), frozenset({3})}),
        frozenset({frozenset({1}), frozenset({2, 3})}),
        frozenset({frozenset({1, 2, 3})}),
    }
    assert labels == expected  # {1,3} is not connected, so no {13|2}


def test_clusterings_requires_connected():
    with pytest.raises(GraphInputError):
        clusterings(make_graph(3, [(1, 2)]))


def test_assignments_count_and_projection():
    c = frozenset({frozenset({1, 2}), frozenset({3})})
    assigns = assignments_for(c, 3)
    assert len(assigns) == 3  # choose 2 labels of 3 for the merged block
    top = frozenset({frozenset({1, 2, 3})})
    for a in assigns:
        proj = project_assignment(a, top)
        (block, labels), = proj
        assert labels == frozenset({1, 2, 3})


def test_cluster_permutohedron_counts():
    assert len(cluster_permutohedron(PATH3)) == 13
    assert len(cluster_permutohedron(named_graph("complete", 3))) == 16
    cp = cluster_permutohedron(named_graph("claw"))
    assert len(cp) == 73
    assert [len(cp.elements_of_rank(r)) for r in range(4)] == [24, 36, 12, 1]


def test_cluster_permutohedron_structure():
    cp = cluster_permutohedron(PATH3)
    cp.validate()
    # hexagon face poset: 6 vertices, 6 edges, 1 top cell
    assert [len(cp.elements_of_rank(r)) for r in range(3)] == [6, 6, 1]
    assert len(cp.minimal_elements()) == math.factorial(3)
    # every rank-1 face covers exactly two vertices
    children = cp.children()
    for e in cp.elements_of_rank(1):
        assert len(children[e]) == 2


def test_cluster_permutohedron_element_count_formula():
    for g in (PATH3, named_graph("claw"), named_graph("cycle", 4)):
        expected = sum(
            math.factorial(g.n) // math.prod(math.factorial(len(b)) for b in c)
            for c in all_clusterings(g).labels
        )
        assert len(cluster_permutohedron(g)) == expected


def test_cluster_permutohedron_budget(monkeypatch):
    monkeypatch.setattr(posets, "ELEMENT_CAP", 10)
    with pytest.raises(ComputationBudgetError):
        cluster_permutohedron(named_graph("complete", 4))


def test_graphicahedron_cycle3():
    gr = graphicahedron(named_graph("cycle", 3))
    gr.validate(strict=False)
    # strictly more elements than the cluster-permutohedron: D = two edges
    # and D = all three edges both induce the full clustering
    assert len(gr) == 19
    assert len(cluster_permutohedron(named_graph("complete", 3))) == 16


def test_graphicahedron_tree_matches_cluster_permutohedron():
    for g in (named_graph("claw"), PATH3, make_graph(2, [(1, 2)])):
        gr = graphicahedron(g)
        cp = cluster_permutohedron(g)
        assert len(gr) == len(cp)
        # explicit order isomorphism: (D, A) -> (components(D), A); on a
        # tree the edge subset is determined by its partition into subtrees
        mapping = {}
        for i, (d, a) in enumerate(gr.labels):
            blocks = frozenset(block for block, _ in a)
            mapping[i] = (blocks, a)
        cp_index = {}
        for i, (c, a) in enumerate(cp.labels):
            cp_index[(c, a)] = i
        image = [cp_index[mapping[i]] for i in range(len(gr))]
        assert sorted(image) == list(range(len(cp)))
        gr_covers = {(image[lo], image[hi]) for lo, hi in gr.covers}
        assert gr_covers == set(cp.covers)


def test_graphicahedron_path2():
    assert len(graphicahedron(make_graph(2, [(1, 2)]))) == 3


def test_skeleton():
    cp = cluster_permutohedron(PATH3)
    sk = skeleton(cp, 1)
    assert len(sk) == 12
    assert len(sk.covers) == 12  # hexagon boundary: each edge covers 2 vertices
    assert skeleton(cp, cp.max_rank) is cp
    claw_sk = skeleton(cluster_permutohedron(named_graph("claw")), 2)
    assert len(claw_sk) == 72


def test_equality_ignores_cached_structure():
    p, q = cluster_permutohedron(PATH3), cluster_permutohedron(PATH3)
    assert p.strict_downsets() and p.children()
    assert p == q
    assert repr(p) == repr(q)


def test_skeleton_covers_are_the_transitive_reduction():
    # the reference: the order restricted to the kept elements, reduced
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            for build in (cluster_permutohedron, graphicahedron):
                p = build(g)
                below = p.strict_downsets()
                for r in range(p.max_rank + 1):
                    keep = [i for i in range(len(p)) if p.rank[i] <= r]
                    order = nx.DiGraph()
                    order.add_nodes_from(range(len(keep)))
                    order.add_edges_from(
                        (a, b)
                        for b, y in enumerate(keep)
                        for a, x in enumerate(keep)
                        if below[y] >> x & 1
                    )
                    sk = skeleton(p, r)
                    assert sk.labels == [p.labels[i] for i in keep]
                    assert set(sk.covers) == set(nx.transitive_reduction(order).edges)


def test_skeleton_max_rank_prebuild_agrees():
    g = named_graph("cycle", 4)
    full = skeleton(cluster_permutohedron(g), 2)
    pre = skeleton(cluster_permutohedron(g, max_rank=2), 2)
    assert len(full) == len(pre)
    assert set(full.covers) == set(pre.covers)


def test_order_complex_hexagon():
    sk = skeleton(cluster_permutohedron(PATH3), 1)
    sc = order_complex(sk)
    assert sc.face_counts() == [12, 12]
    assert sc.euler_characteristic() == 0


def test_skeleton_face_counts_match_order_complex():
    fork = make_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    bull = make_graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
    small = [named_graph("claw"), named_graph("cycle", 4), named_graph("cycle", 5),
             PATH3, named_graph("complete", 3), fork, bull]
    cases = [(g, r) for g in small for r in (1, 2, 3)]
    cases += [(named_graph(name), r) for name in ("net", "sun3") for r in (1, 2)]
    for g, r in cases:
        built = order_complex(cluster_permutohedron(g, max_rank=r))
        assert skeleton_face_counts(g, "cluster", r) == built.face_counts()
    # a graphicahedron cover may keep the rank, so its chains outgrow the rank
    for g in small:
        for r in (1, 2, 3, None):
            built = order_complex(graphicahedron(g, max_rank=r))
            assert skeleton_face_counts(g, "graphic", r) == built.face_counts()
    assert skeleton_face_counts(named_graph("cycle", 7), "cluster", 2) == [46200, 246960, 211680]


def test_order_complex_chains_are_chains():
    cp = cluster_permutohedron(named_graph("complete", 3))
    sc = order_complex(cp)
    for faces in sc.faces[1:]:
        for chain in faces:
            for a, b in zip(chain, chain[1:]):
                assert cp.leq(a, b) and a != b


def test_exports():
    cp = cluster_permutohedron(PATH3)
    payload = json.loads(cp.to_json())
    assert len(payload["elements"]) == 13
    assert len(payload["covers"]) == len(cp.covers)
    dot = cp.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(cp.covers)
