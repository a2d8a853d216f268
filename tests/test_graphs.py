import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

import diagclass
from diagclass.graphs import (
    Graph,
    GraphInputError,
    canonical_form,
    connected_graphs_up_to_iso,
    find_forbidden_induced,
    girth,
    induced_subgraph,
    make_graph,
    named_graph,
    parse_graph,
    relabel,
)


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices())
    out.add_edges_from(g.edges)
    return out


def test_make_graph_canonical_edges():
    g = make_graph(4, [(1, 2), (2, 1), (3, 4)])
    assert g.sorted_edges() == [(1, 2), (3, 4)]
    assert g.num_edges == 2


def test_make_graph_rejects_bad_edges():
    with pytest.raises(GraphInputError):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphInputError):
        make_graph(3, [(0, 2)])
    with pytest.raises(GraphInputError):
        make_graph(3, [(2, 4)])


def test_named_graphs():
    assert named_graph("sun3").num_edges == 9
    assert named_graph("net").num_edges == 6
    claw = named_graph("claw")
    assert claw.degree(1) == 3 and all(claw.degree(v) == 1 for v in (2, 3, 4))
    assert named_graph("cycle", 5).num_edges == 5
    assert named_graph("complete", 4).num_edges == 6
    assert named_graph("path", 4).num_edges == 3


def test_adjacency_is_built_once_and_not_compared():
    g = named_graph("net")
    assert g.neighbors(1) is g.neighbors(1)
    assert g.neighbors(1) == frozenset({2, 3, 4}) and g.degree(4) == 1
    # equality and hash stay on (n, edges), whether or not the map is built
    fresh = make_graph(6, list(g.edges))
    assert fresh == g and hash(fresh) == hash(g)
    assert repr(fresh) == repr(g)


def test_girth():
    assert girth(named_graph("claw")) == math.inf
    assert girth(named_graph("cycle", 5)) == 5
    assert girth(named_graph("sun3")) == 3
    assert girth(named_graph("net")) == 3


def test_induced_subgraph_relabels():
    g = named_graph("net")
    assert induced_subgraph(g, [1, 2, 3]) == named_graph("complete", 3)
    assert induced_subgraph(g, [2, 3, 5]) == make_graph(3, [(1, 2), (1, 3)])


def test_forbidden_witnesses():
    w = find_forbidden_induced(named_graph("cycle", 6))
    assert w is not None and w.kind == "cycle" and w.length == 6
    assert len(w.vertices) == 6
    assert find_forbidden_induced(named_graph("complete", 4)) is None
    w = find_forbidden_induced(named_graph("net"))
    assert w is not None and w.kind == "net"
    w = find_forbidden_induced(named_graph("sun3"))
    assert w is not None and w.kind == "sun3"
    # witness validates: the induced subgraph matches the model
    g = named_graph("sun3")
    assert nx.is_isomorphic(to_nx(induced_subgraph(g, w.vertices)), to_nx(w.model_graph()))


def test_witness_search_is_polynomial():
    """A relabelled C30, and a relabelled staircase on 40 vertices
    (h(i) = i + 3) with a leaf on vertex 20, whose witness is a claw."""
    rng = random.Random(30)
    staircase = [(i, j) for i in range(1, 41) for j in range(i + 1, min(i + 3, 40) + 1)]
    cases = [
        (named_graph("cycle", 30), ("cycle", 30)),
        (make_graph(41, staircase + [(20, 41)]), ("claw", None)),
    ]
    for g, shape in cases:
        perm = list(g.vertices())
        rng.shuffle(perm)
        g = relabel(g, perm)
        start = time.perf_counter()
        w = find_forbidden_induced(g)
        assert time.perf_counter() - start < 0.1
        assert (w.kind, w.length) == shape
        sub = to_nx(g).subgraph(w.vertices)
        assert nx.is_isomorphic(sub, to_nx(w.model_graph()))


def test_net_is_minimal_forbidden():
    # every proper induced connected subgraph of the net is clean
    net = named_graph("net")
    for v in net.vertices():
        rest = [u for u in net.vertices() if u != v]
        sub = induced_subgraph(net, rest)
        assert find_forbidden_induced(sub) is None


def test_canonical_form_invariant():
    g = named_graph("net")
    h = relabel(g, [3, 1, 2, 6, 4, 5])
    assert canonical_form(g) == canonical_form(h)
    assert canonical_form(g) != canonical_form(named_graph("sun3"))
    # against networkx: relabelled atlas graphs share a key exactly when
    # they are isomorphic
    from networkx.generators.atlas import graph_atlas_g

    rng = random.Random(5)
    atlas = [a for a in graph_atlas_g() if 0 < a.number_of_nodes() <= 5]
    keys = []
    for a in atlas:
        perm = list(range(1, a.number_of_nodes() + 1))
        rng.shuffle(perm)
        keys.append(canonical_form(make_graph(len(perm), [(perm[i], perm[j]) for i, j in a.edges])))
    for (a, ka), (b, kb) in combinations(zip(atlas, keys), 2):
        assert (ka == kb) == nx.is_isomorphic(a, b)


def test_connected_graphs_up_to_iso_counts():
    # OEIS A001349 (connected graphs): 1, 1, 2, 6, 21, 112
    counts = [len(connected_graphs_up_to_iso(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]


def test_connected_graphs_without_numpy():
    # a fresh interpreter in which importing numpy fails
    probe = ("import sys; sys.modules['numpy'] = None; "
             "from diagclass.graphs import connected_graphs_up_to_iso; "
             "print(len(connected_graphs_up_to_iso(6)))")
    src = str(Path(diagclass.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "112\n", "")


def test_connected_graphs_match_networkx_atlas():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = graph_atlas_g()
    for n in range(1, 8):
        expected = sum(
            1
            for g in atlas
            if g.number_of_nodes() == n and networkx.is_connected(g)
        )
        got = len(connected_graphs_up_to_iso(n))
        assert got == expected


def test_parse_round_trip():
    g = named_graph("net")
    assert parse_graph(g.to_json()) == g
    assert parse_graph(g.to_text()) == g
    with pytest.raises(GraphInputError):
        parse_graph("not a graph")
