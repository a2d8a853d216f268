import math
import random
import time
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagclass.graphs import (
    ForbiddenWitness,
    GraphInputError,
    canonical_form,
    connected_graphs_up_to_iso,
    find_forbidden_induced,
    make_graph,
    named_graph,
)
from diagclass.hessenberg import (
    HessenbergFunction,
    IndifferenceCertificate,
    adi,
    betti_polynomial_hessenberg,
    connected_hessenberg_functions,
    hessenberg_to_graph,
    inv_h,
    is_indifference,
    recognize_indifference,
    staircase_key,
)


def test_hessenberg_function_validation():
    HessenbergFunction((2, 3, 3))
    with pytest.raises(GraphInputError):
        HessenbergFunction((1, 3, 2))  # not weakly increasing
    with pytest.raises(GraphInputError):
        HessenbergFunction((0, 2, 3))  # below diagonal


def test_hessenberg_to_graph():
    g = hessenberg_to_graph(HessenbergFunction((2, 3, 3)))
    assert g.sorted_edges() == [(1, 2), (2, 3)]
    assert hessenberg_to_graph(HessenbergFunction((1,))).num_edges == 0


def test_recognition_example():
    g = make_graph(3, [(1, 2), (1, 3)])
    cert = recognize_indifference(g)
    assert isinstance(cert, IndifferenceCertificate)
    assert cert.ordering == (2, 1, 3)
    assert cert.h.h == (2, 3, 3)
    assert cert.validates(g)


def test_recognition_complete():
    cert = recognize_indifference(named_graph("complete", 4))
    assert isinstance(cert, IndifferenceCertificate)
    assert cert.ordering == (1, 2, 3, 4)
    assert cert.h.h == (4, 4, 4, 4)


def test_recognition_claw_witness():
    w = recognize_indifference(named_graph("claw"))
    assert isinstance(w, ForbiddenWitness)
    assert w.kind == "claw"


def test_recognition_requires_connected():
    with pytest.raises(GraphInputError):
        recognize_indifference(make_graph(4, [(1, 2)]))


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices())
    out.add_edges_from(g.edges)
    return out


# Roberts' forbidden induced subgraphs, built here, not by the package
NX_NET = nx.Graph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])
NX_SUN3 = nx.Graph([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6)])


def smallest_forbidden_size(g: nx.Graph):
    """Fewest vertices of an induced claw, net, 3-sun or k-cycle (k >= 4),
    by trying every vertex subset; None when there is none."""
    for size in range(4, len(g) + 1):
        shapes = [nx.cycle_graph(size)]
        shapes += {4: [nx.star_graph(3)], 6: [NX_NET, NX_SUN3]}.get(size, [])
        for vs in combinations(g, size):
            if any(nx.is_isomorphic(g.subgraph(vs), s) for s in shapes):
                return size
    return None


def test_recognition_agrees_with_forbidden_search():
    """On every connected graph with at most 7 vertices and three
    relabellings of each, a witness comes back exactly when the three
    sweeps find no staircase ordering; it induces its named shape, and no
    forbidden induced subgraph is smaller."""
    rng = random.Random(7)
    for n in range(1, 8):
        for g in connected_graphs_up_to_iso(n):
            smallest = smallest_forbidden_size(to_nx(g))
            for k in range(4):
                perm = list(g.vertices())
                if k:
                    rng.shuffle(perm)
                h = make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
                w = find_forbidden_induced(h)
                assert is_indifference(h) == (w is None) == (smallest is None)
                if w is not None:
                    assert len(w.vertices) == smallest
                    sub = to_nx(h).subgraph(w.vertices)
                    assert nx.is_isomorphic(sub, to_nx(named_graph(w.kind, w.length)))


def test_certificates_validate_everywhere():
    for n in range(1, 7):
        for g in connected_graphs_up_to_iso(n):
            result = recognize_indifference(g)
            if isinstance(result, IndifferenceCertificate):
                assert result.validates(g)
            else:
                sub = to_nx(g).subgraph(result.vertices)
                assert nx.is_isomorphic(sub, to_nx(named_graph(result.kind, result.length)))


def first_staircase_ordering(g):
    """The first ordering, in itertools.permutations order, whose
    relabelled graph is a staircase graph, or None."""
    for ordering in permutations(g.vertices()):
        label = {v: k for k, v in enumerate(ordering, start=1)}
        edges = {tuple(sorted((label[i], label[j]))) for i, j in g.edges}
        h = list(g.vertices())
        for i, j in edges:
            h[i - 1] = max(h[i - 1], j)
        staircase = {(i, j) for i in g.vertices() for j in range(i + 1, h[i - 1] + 1)}
        if h == sorted(h) and edges == staircase:
            return ordering
    return None


def test_certificate_is_first_staircase_ordering():
    """Exhaustively for n <= 6, with three relabellings of each graph."""
    rng = random.Random(7)
    for n in range(1, 7):
        for g in connected_graphs_up_to_iso(n):
            variants = [g]
            for _ in range(3):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                variants.append(make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges]))
            # a relabelling of a graph with no staircase ordering has none
            expected = first_staircase_ordering(g)
            for v in variants:
                result = recognize_indifference(v)
                if expected is None:
                    assert isinstance(result, ForbiddenWitness)
                else:
                    assert result.ordering == first_staircase_ordering(v)


def random_connected_staircase(rng, n):
    h = []
    for i in range(1, n + 1):
        lo = max(i + 1 if i < n else i, h[-1] if h else 1)
        h.append(rng.randint(lo, min(n, lo + 3)))
    return HessenbergFunction(tuple(h))


def test_relabelled_large_staircases_are_fast():
    rng = random.Random(20)
    for n in (20, 40):
        h = random_connected_staircase(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        g = make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in hessenberg_to_graph(h).edges])
        start = time.perf_counter()
        cert = recognize_indifference(g)
        assert time.perf_counter() - start < 1.0
        assert cert.validates(g)
        assert staircase_key(cert.h) == staircase_key(h)


def test_inv_h():
    h = HessenbergFunction((2, 3, 3))
    assert inv_h((2, 1, 3), h) == 1
    assert inv_h((3, 2, 1), h) == 2
    h_full = HessenbergFunction((3, 3, 3))
    assert inv_h((3, 2, 1), h_full) == 3


def test_betti_polynomial_values():
    assert betti_polynomial_hessenberg(HessenbergFunction((2, 3, 3))).coeffs == (
        1, 4, 1,
    )
    assert betti_polynomial_hessenberg(HessenbergFunction((3, 3, 3))).coeffs == (
        1, 2, 2, 1,
    )
    assert betti_polynomial_hessenberg(HessenbergFunction((2, 2))).coeffs == (1, 1)
    assert betti_polynomial_hessenberg(HessenbergFunction((1,))).coeffs == (1,)


def test_betti_polynomial_matches_permutation_sum():
    """The subset recursion against the definition, a sum over all n!
    permutations, for every connected h with n <= 7."""
    checked = 0
    for n in range(1, 8):
        for h in connected_hessenberg_functions(n):
            counts = [0] * (n * n)
            for sigma in permutations(range(1, n + 1)):
                counts[inv_h(sigma, h)] += 1
            assert betti_polynomial_hessenberg(h).coeffs == tuple(
                counts[: max(k for k, c in enumerate(counts) if c) + 1]
            ), h
            checked += 1
    assert checked == 197


@st.composite
def connected_hessenberg(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    h = []
    for i in range(1, n + 1):
        lo = max(i + 1 if i < n else i, h[-1] if h else 1)
        h.append(draw(st.integers(min_value=lo, max_value=n)))
    return HessenbergFunction(tuple(h))


@settings(max_examples=60, deadline=None)
@given(connected_hessenberg())
def test_betti_polynomial_properties(h):
    b = betti_polynomial_hessenberg(h)
    assert sum(b.coeffs) == math.factorial(h.n)
    assert b.coeffs == b.coeffs[::-1]
    assert b[0] == 1


def test_adi_indifference_graphs_zero():
    assert adi(make_graph(5, [(i, i + 1) for i in range(1, 5)])) == (0, [])
    assert adi(named_graph("complete", 4))[0] == 0


def test_adi_claw():
    value, added = adi(named_graph("claw"))
    assert value == 1
    assert added == [(2, 3)]


def test_adi_cycles():
    for n in range(4, 8):
        assert adi(named_graph("cycle", n))[0] == n - 3


def test_adi_girth_bound_random():
    rng = random.Random(11)
    done = 0
    while done < 200:
        n = rng.randint(4, 7)
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [e for e in possible if rng.random() < 0.5]
        g = make_graph(n, edges)
        if not g.is_connected():
            continue
        value, _ = adi(g)
        gi = nx.girth(to_nx(g))
        if gi != math.inf:
            assert value >= gi - 3
        done += 1


def test_staircase_key_classifies_up_to_isomorphism():
    rng = random.Random(11)
    total = 0
    for n in range(1, 8):
        hs = connected_hessenberg_functions(n)
        total += len(hs)
        keys, canon = {}, {}
        for h in hs:
            g = hessenberg_to_graph(h)
            keys[h] = staircase_key(h)
            canon[h] = canonical_form(g)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabelled = make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
            cert = recognize_indifference(relabelled)
            assert staircase_key(cert.h) == keys[h]
        for h1, h2 in combinations(hs, 2):
            assert (keys[h1] == keys[h2]) == (canon[h1] == canon[h2])
    assert total == 197  # sum of Catalan(n - 1) for n <= 7
