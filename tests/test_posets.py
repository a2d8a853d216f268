import math
import re
from itertools import combinations, islice

import networkx as nx
import pytest

import diagclass.graphs as graphs
import diagclass.posets as posets
from diagclass.graphs import (
    GraphInputError,
    connected_graphs_up_to_iso,
    make_graph,
    named_graph,
)
from diagclass.homology import check_homology_budget
from diagclass.linalg import ComputationBudgetError
from diagclass.posets import (
    all_clusterings,
    assignments_for,
    cluster_permutohedron,
    clusterings,
    discrete_clustering,
    graphicahedron,
    order_complex,
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
    # choose 2 labels of 3 for the merged block, one label mask per block
    assert assignments_for(c, 3) == [(0b011, 0b100), (0b101, 0b010), (0b110, 0b001)]
    # every assignment pushes forward to the one assignment of the top face
    cp = cluster_permutohedron(PATH3)
    top = len(cp) - 1
    assert cp.rank[top] == 2
    rank1 = {i for i, r in enumerate(cp.rank) if r == 1}
    assert {lo for lo, hi in cp.covers if hi == top} == rank1


def _reference_assignments(c, n):
    """Each distribution of labels 1..n over the blocks of c, as a
    frozenset of (block, labels) pairs."""
    blocks = sorted(c, key=min)
    out = []

    def rec(i, remaining, acc):
        if i == len(blocks):
            out.append(frozenset(acc))
            return
        for labels in combinations(sorted(remaining), len(blocks[i])):
            acc.append((blocks[i], frozenset(labels)))
            rec(i + 1, remaining - frozenset(labels), acc)
            acc.pop()

    rec(0, frozenset(range(1, n + 1)), [])
    return out


def _reference_project(a, coarser):
    """An assignment pushed forward to a coarser clustering, block by block."""
    lookup = dict(a)
    out = []
    for block in coarser:
        labels = set()
        for sub, lab in lookup.items():
            if sub <= block:
                labels |= lab
        assert sum(len(s) for s in lookup if s <= block) == len(block)
        out.append((block, frozenset(labels)))
    return frozenset(out)


def _reference_poset(g, kind, max_rank):
    """The assignment poset built as the definition reads: each (face
    cover, assignment) pair projects the assignment afresh, and elements are
    looked up by (face, frozenset of (block, labels))."""
    lattice, found = posets._face_lattice(g, kind, max_rank)
    assigned = [_reference_assignments(c, g.n) for c in found]
    labels, rank, index = [], [], {}
    for face, r, assignments in zip(lattice.labels, lattice.rank, assigned):
        for a in assignments:
            index[(face, a)] = len(labels)
            labels.append((face, a))
            rank.append(r)
    faces = lattice.labels
    covers = {
        (index[(faces[lo], a)], index[(faces[hi], _reference_project(a, found[hi]))])
        for lo, hi in lattice.covers
        for a in assigned[lo]
    }
    return posets.GradedPoset(labels=labels, rank=rank, covers=sorted(covers))


def _spelled_out(p):
    """An assignment poset with each label (face, blocks, masks) spelled out
    as the reference labels it, (face, frozenset of (block, labels))."""
    def label_set(mask):
        return frozenset(l + 1 for l in range(mask.bit_length()) if mask >> l & 1)

    labels = [(face, frozenset(zip(blocks, map(label_set, masks))))
              for face, blocks, masks in p.labels]
    return posets.GradedPoset(labels=labels, rank=p.rank, covers=p.covers)


def test_assignment_posets_match_the_projecting_reference():
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            for kind, build in (("cluster", cluster_permutohedron), ("graphic", graphicahedron)):
                for r in (*range(n), None):
                    p = build(g, max_rank=r)
                    # one blocks tuple per face, in order of least vertex
                    shared = {}
                    for face, blocks, masks in p.labels:
                        assert shared.setdefault(face, blocks) is blocks
                        assert [min(b) for b in blocks] == sorted(map(min, blocks))
                        assert len(masks) == len(blocks)
                    assert _spelled_out(p) == _reference_poset(g, kind, r), (g, kind, r)


def test_cluster_permutohedron_counts():
    assert len(cluster_permutohedron(PATH3)) == 13
    assert len(cluster_permutohedron(named_graph("complete", 3))) == 16
    cp = cluster_permutohedron(named_graph("claw"))
    assert len(cp) == 73
    assert [cp.rank.count(r) for r in range(4)] == [24, 36, 12, 1]


def test_cluster_permutohedron_structure():
    cp = cluster_permutohedron(PATH3)
    # covers raise the rank and follow the element order
    assert all(cp.rank[lo] < cp.rank[hi] and lo < hi for lo, hi in cp.covers)
    # hexagon face poset: 6 vertices, 6 edges, 1 top cell
    assert [cp.rank.count(r) for r in range(3)] == [6, 6, 1]
    children = cp.children()
    assert sum(not c for c in children) == math.factorial(3)
    # every rank-1 face covers exactly two vertices
    for e in [i for i, r in enumerate(cp.rank) if r == 1]:
        assert len(children[e]) == 2


def test_cluster_permutohedron_element_count_formula():
    for g in (PATH3, named_graph("claw"), named_graph("cycle", 4)):
        expected = sum(
            math.factorial(g.n) // math.prod(math.factorial(len(b)) for b in c)
            for c in all_clusterings(g).labels
        )
        assert len(cluster_permutohedron(g)) == expected


def test_cluster_permutohedron_budget(monkeypatch):
    monkeypatch.setattr(graphs, "ELEMENT_CAP", 10)
    with pytest.raises(ComputationBudgetError):
        cluster_permutohedron(named_graph("complete", 4))


def test_graphicahedron_cycle3():
    gr = graphicahedron(named_graph("cycle", 3))
    assert all(lo < hi for lo, hi in gr.covers)
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
        for i, (d, blocks, a) in enumerate(gr.labels):
            mapping[i] = (frozenset(blocks), a)
        cp_index = {}
        for i, (c, _, a) in enumerate(cp.labels):
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
    assert skeleton(cp, max(cp.rank)) is cp
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
                for r in range(max(p.rank) + 1):
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
        assert list(skeleton_face_counts(g, "cluster", r)) == built.face_counts()
    # a graphicahedron cover may keep the rank, so its chains outgrow the rank
    for g in small:
        for r in (1, 2, 3, None):
            built = order_complex(graphicahedron(g, max_rank=r))
            assert list(skeleton_face_counts(g, "graphic", r)) == built.face_counts()
    assert list(skeleton_face_counts(named_graph("cycle", 7), "cluster", 2)) == [
        46200, 246960, 211680]


def test_vertex_and_edge_counts_match_the_built_poset():
    # f_0 counts the elements and f_1 the pairs x < y, read off the built
    # poset's down-sets; at rank 0 there are no pairs, and no f_1
    k5 = named_graph("complete", 5)
    fork = make_graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    cases = [(k5, graphicahedron), (named_graph("cycle", 6), graphicahedron),
             (k5, cluster_permutohedron), (fork, cluster_permutohedron)]
    for g, build in cases:
        kind = "graphic" if build is graphicahedron else "cluster"
        for r in (0, 1, 2, None):
            p = build(g, max_rank=r)
            pairs = sum(b.bit_count() for b in p.strict_downsets())
            counts = skeleton_face_counts(g, kind, r)
            assert next(counts) == len(p)
            assert next(counts, 0) == pairs
    assert list(islice(skeleton_face_counts(k5, "graphic", None), 2)) == [4048, 865177]


def test_face_counts_are_made_only_when_asked_for():
    # the budget refuses K5's graphicahedron at d_1 and takes no deeper
    # count, which stays there for the next caller
    counts = skeleton_face_counts(named_graph("complete", 5), "graphic", None)
    with pytest.raises(ComputationBudgetError, match="^d_1 needs"):
        check_homology_budget(counts, "gf2", 10**8)
    assert next(counts) == 26_568_730


def test_order_complex_chains_are_chains():
    cp = cluster_permutohedron(named_graph("complete", 3))
    sc = order_complex(cp)
    for faces in sc.faces[1:]:
        for chain in faces:
            for a, b in zip(chain, chain[1:]):
                assert cp.strict_downsets()[b] >> a & 1


def test_exports():
    cp = cluster_permutohedron(PATH3)
    lines = list(cp.to_dot())
    assert lines[0] == "digraph hasse {" and lines[-1] == "}"
    assert sum("->" in line for line in lines) == len(cp.covers)
    assert all("\n" not in line for line in lines)


def _dot_labels(p) -> list[str]:
    return re.findall(r'label="([^"]*)"', "\n".join(p.to_dot()))


def test_face_labels_are_distinct_and_in_block_order():
    def braces(vertices):
        return "{" + ",".join(map(str, sorted(vertices))) + "}"

    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            for build in (clusterings, cluster_permutohedron, graphicahedron):
                labels = _dot_labels(build(g))
                assert len(set(labels)) == len(labels), (g, build)
            # blocks, and the (block, labels) pairs, by their least vertex
            cp = cluster_permutohedron(g)
            for (c, a), label in zip(_spelled_out(cp).labels, _dot_labels(cp)):
                blocks = sorted(c, key=min)
                held = dict(a)
                pairs = ",".join(f"({braces(b)},{braces(held[b])})" for b in blocks)
                assert label == f"({{{','.join(map(braces, blocks))}}},{{{pairs}}})"
