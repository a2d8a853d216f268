"""Hessenberg functions, indifference-graph recognition with
certificates, the inversion-statistic Betti polynomial, and the
edge-completion invariant.

An ordering v_1..v_n is valid iff it has no "umbrella" violation:
i < j < k with v_i ~ v_k requires v_i ~ v_j and v_j ~ v_k.  Valid
orderings are exactly the ones whose relabelled graph is a staircase
graph.  Recognition builds one: the third of three LexBFS+ sweeps is
valid iff the graph is an indifference graph (Corneil 2004).  By Roberts'
theorem a connected indifference graph has one valid ordering up to
reversal and reordering of twins (vertices with the same closed
neighbourhood), so sorting the twin runs of that sweep, forwards or
reversed, gives the lexicographically first valid ordering.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple, Optional, Union

from .graphs import (
    ForbiddenWitness,
    Graph,
    GraphInputError,
    find_forbidden_induced,
    make_graph,
)
from .polynomials import Polynomial


class HessenbergFunction:
    """A weakly increasing h with i <= h(i) <= n; equal, and hashed alike,
    exactly when the tuples h agree."""

    def __init__(self, h: tuple[int, ...]):
        n = len(h)
        if n == 0:
            raise GraphInputError("empty Hessenberg function")
        for i, hi in enumerate(h, start=1):
            if hi < i or hi > n:
                raise GraphInputError(f"h({i}) = {hi} outside [{i}, {n}]")
        if any(h[i] > h[i + 1] for i in range(n - 1)):
            raise GraphInputError("Hessenberg function must be weakly increasing")
        self.h = h

    def __eq__(self, other) -> bool:
        if other.__class__ is not HessenbergFunction:
            return NotImplemented
        return self.h == other.h

    def __hash__(self) -> int:
        return hash(self.h)

    def __repr__(self) -> str:
        return f"HessenbergFunction(h={self.h!r})"

    @property
    def n(self) -> int:
        return len(self.h)

    def is_connected(self) -> bool:
        return all(self.h[i - 1] >= i + 1 for i in range(1, self.n))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.h)


def connected_hessenberg_functions(n: int) -> list[HessenbergFunction]:
    """Every connected Hessenberg function on n positions (i < h(i) for
    i < n, weakly increasing, h(n) = n) in lexicographic order; there are
    Catalan(n - 1) of them."""

    def extend(prefix: tuple[int, ...]):
        i = len(prefix) + 1
        if i == n:
            yield HessenbergFunction((*prefix, n))
            return
        for v in range(max(prefix[-1] if prefix else 0, i + 1), n + 1):
            yield from extend((*prefix, v))

    return list(extend(()))


def hessenberg_to_graph(h: HessenbergFunction) -> Graph:
    """Staircase graph: edges {i, j} with i < j <= h(i)."""
    edges = [(i, j) for i in range(1, h.n + 1) for j in range(i + 1, h.h[i - 1] + 1)]
    return make_graph(h.n, edges)


class IndifferenceCertificate(NamedTuple):
    """ordering[k-1] is the vertex receiving new label k."""

    ordering: tuple[int, ...]
    h: HessenbergFunction

    def relabelled(self, g: Graph) -> Graph:
        label = {v: k for k, v in enumerate(self.ordering, start=1)}
        return make_graph(g.n, [(label[i], label[j]) for i, j in g.edges])

    def validates(self, g: Graph) -> bool:
        return self.relabelled(g) == hessenberg_to_graph(self.h)


def _lexbfs(adj: dict[int, frozenset[int]], prev: list[int]) -> list[int]:
    """Lexicographic breadth-first order, ties going to the vertex that
    comes latest in prev (LexBFS+).  A label lists the decreasing step
    numbers of the visited neighbours, so list comparison orders labels."""
    rank = {v: i for i, v in enumerate(prev)}
    label: dict[int, list[int]] = {v: [] for v in prev}
    order = []
    for step in range(len(prev), 0, -1):
        v = max(label, key=lambda u: (label[u], rank[u]))
        del label[v]
        order.append(v)
        for w in adj[v]:
            if w in label:
                label[w].append(step)
    return order


def _find_indifference_ordering(g: Graph) -> Optional[tuple[int, ...]]:
    """Lexicographically first umbrella-free ordering of a connected g, or None."""
    adj = {v: g.neighbors(v) for v in g.vertices()}
    sigma = list(g.vertices())
    for _ in range(3):
        sigma = _lexbfs(adj, sigma)
    # valid iff each vertex's later neighbours are the next positions and
    # the last of them never moves left
    pos = {v: i for i, v in enumerate(sigma)}
    last_end = 0
    for i, v in enumerate(sigma):
        later = [pos[w] for w in adj[v] if pos[w] > i]
        end = max(later, default=i)
        if end != i + len(later) or end < last_end:
            return None
        last_end = end
    # twins are consecutive in every valid ordering
    runs: list[list[int]] = []
    for v in sigma:
        if runs and adj[runs[-1][0]] | {runs[-1][0]} == adj[v] | {v}:
            runs[-1].append(v)
        else:
            runs.append([v])
    forward = [v for run in runs for v in sorted(run)]
    backward = [v for run in reversed(runs) for v in sorted(run)]
    return tuple(min(forward, backward))


def recognize_indifference(
    g: Graph,
) -> Union[IndifferenceCertificate, ForbiddenWitness]:
    """Either an ordering + Hessenberg function, or a forbidden witness."""
    if not g.is_connected():
        raise GraphInputError("recognition requires a connected graph")
    ordering = _find_indifference_ordering(g)
    if ordering is None:
        witness = find_forbidden_induced(g)
        if witness is None:
            raise RuntimeError("no staircase ordering but no forbidden induced subgraph")
        return witness
    pos = {v: k for k, v in enumerate(ordering, start=1)}
    h = tuple(
        max([k, *(pos[w] for w in g.neighbors(v))])
        for k, v in enumerate(ordering, start=1)
    )
    return IndifferenceCertificate(ordering, HessenbergFunction(h))


def staircase_key(h: HessenbergFunction) -> tuple[int, ...]:
    """min(h, h of the reversed ordering), a complete isomorphism invariant.

    By Roberts' theorem a connected indifference graph has one staircase
    ordering up to reversal and reordering of twins, and twins do not
    change h; so two connected indifference graphs are isomorphic exactly
    when their keys are equal.  Reversal sends edge {i, j} to
    {n+1-j, n+1-i}, so the reversed function is
    h'(a) = n + 1 - min{i : h(i) >= n + 1 - a}.
    """
    n = h.n
    rev = tuple(
        n + 1 - next(i for i in range(1, n + 1) if h.h[i - 1] >= n + 1 - a)
        for a in range(1, n + 1)
    )
    return min(h.h, rev)


def is_indifference(g: Graph) -> bool:
    if not g.is_connected():
        return False
    return _find_indifference_ordering(g) is not None


def inv_h(sigma: tuple[int, ...], h: HessenbergFunction) -> int:
    """#{(i, j) : i < j <= h(i), sigma(i) > sigma(j)}."""
    n = h.n
    if sorted(sigma) != list(range(1, n + 1)):
        raise GraphInputError("sigma is not a permutation of 1..n")
    count = 0
    for i in range(1, n + 1):
        for j in range(i + 1, h.h[i - 1] + 1):
            if sigma[i - 1] > sigma[j - 1]:
                count += 1
    return count


def betti_polynomial_hessenberg(h: HessenbergFunction) -> Polynomial:
    """Sum of t^{inv_h(sigma)} over all permutations.

    Coefficient of t^i is the 2i-th Betti number of the isospectral
    staircase manifold; requires a connected h.

    A subset dynamic programme in O(2^n * n) big-integer additions instead
    of n! permutations: the values 1..n are placed in ascending order, and
    placing one at position p adds one inversion with every filled position
    in (p, h(p)], since those hold smaller values.  counts[S] is the
    generating polynomial of the placements that fill the positions in S,
    packed into one int with a digit of `width` bits per coefficient; no
    coefficient exceeds n!, so no digit carries into the next.
    """
    if not h.is_connected():
        raise GraphInputError("Betti polynomial requires a connected Hessenberg function")
    n = h.n
    # window[p]: bitmask of the 0-based positions q with p < q < h.h[p],
    # which are the positions in (p, h(p)] counted from 1
    window = [((1 << h.h[p]) - 1) & ~((1 << (p + 1)) - 1) for p in range(n)]
    width = math.factorial(n).bit_length()
    full = (1 << n) - 1
    counts = [0] * (full + 1)
    counts[0] = 1
    for filled in range(full):
        cur = counts[filled]
        counts[filled] = 0  # every later state has more positions filled
        for p in range(n):
            bit = 1 << p
            if not filled & bit:
                k = (filled & window[p]).bit_count()
                counts[filled | bit] += cur << (width * k)
    packed, mask = counts[full], (1 << width) - 1
    top = sum(w.bit_count() for w in window)
    return Polynomial((packed >> (width * i)) & mask for i in range(top + 1))


def adi(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """Minimal number of edges to add so g becomes an indifference graph,
    with a deterministic witness (iterative deepening, lexicographic)."""
    if not g.is_connected():
        raise GraphInputError("adi requires a connected graph")
    if is_indifference(g):
        return 0, []
    non_edges = [
        (i, j)
        for i, j in combinations(g.vertices(), 2)
        if not g.has_edge(i, j)
    ]
    for k in range(1, len(non_edges) + 1):
        for extra in combinations(non_edges, k):
            candidate = make_graph(g.n, list(g.edges) + list(extra))
            if is_indifference(candidate):
                return k, list(extra)
    raise AssertionError("complete graph is an indifference graph")  # pragma: no cover
