"""Simple undirected graphs modelling matrix sparsity patterns.

Vertices are labelled 1..n, edges stored canonically as sorted pairs, so
two graphs are equal iff their (n, edges) data coincide.  Includes the
named graphs relevant to indifference-graph recognition and detection of
forbidden induced subgraphs (long induced cycles, the claw, the net and
the 3-sun).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence


class GraphInputError(ValueError):
    """Raised for malformed graph data (bad vertex labels, loops, ...)."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise GraphInputError("vertex count must be at least 1")
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise GraphInputError(f"bad edge ({i},{j}) for n={self.n}")

    # -- views ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Built on first use and kept; not a field, so equality and hash
        stay on (n, edges)."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {v: frozenset(s) for v, s in adj.items()}

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- connectivity --------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        adj = self._adjacency
        seen: set[int] = set()
        comps = []
        for v in self.vertices():
            if v in seen:
                continue
            stack = [v]
            comp = {v}
            seen.add(v)
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        seen.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.sorted_edges()]})

    def to_text(self) -> str:
        lines = [f"{self.n} {self.num_edges}"]
        lines += [f"{i} {j}" for i, j in self.sorted_edges()]
        return "\n".join(lines) + "\n"


def make_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical graph; duplicate pairs collapse, loops are errors."""
    canon = set()
    for pair in edges:
        if len(pair) != 2:
            raise GraphInputError(f"edge {pair!r} is not a pair")
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise GraphInputError(f"loop edge at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphInputError(f"edge ({i},{j}) out of range 1..{n}")
        canon.add((min(i, j), max(i, j)))
    return Graph(n, frozenset(canon))


def named_graph(name: str, k: Optional[int] = None) -> Graph:
    """Named graphs: cycle(k), path(n), complete(n), claw, net, sun3, star(k)."""
    name = name.lower()
    if name == "claw":
        return make_graph(4, [(1, 2), (1, 3), (1, 4)])
    if name == "net":
        # triangle 1,2,3 with pendant leaves 4,5,6
        return make_graph(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])
    if name == "sun3":
        # triangle 1,2,3 with outer vertices adjacent to two triangle vertices
        return make_graph(
            6,
            [(1, 2), (1, 3), (2, 3), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3), (6, 1)],
        )
    if name == "cycle":
        if k is None or k < 3:
            raise GraphInputError("cycle requires k >= 3")
        return make_graph(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])
    if name == "path":
        if k is None or k < 1:
            raise GraphInputError("path requires n >= 1")
        return make_graph(k, [(i, i + 1) for i in range(1, k)])
    if name == "complete":
        if k is None or k < 1:
            raise GraphInputError("complete requires n >= 1")
        return make_graph(k, list(combinations(range(1, k + 1), 2)))
    if name == "star":
        if k is None or k < 1:
            raise GraphInputError("star requires k >= 1 rays")
        return make_graph(k + 1, [(1, i) for i in range(2, k + 2)])
    raise GraphInputError(f"unknown graph name {name!r}")


def induced_subgraph(g: Graph, vs: Iterable[int]) -> Graph:
    """Subgraph induced on vs, relabelled 1..|vs| in sorted vertex order."""
    vlist = sorted(set(vs))
    if not vlist:
        raise GraphInputError("empty vertex subset")
    if vlist[0] < 1 or vlist[-1] > g.n:
        raise GraphInputError("subset contains vertices outside the graph")
    index = {v: i + 1 for i, v in enumerate(vlist)}
    edges = [
        (index[i], index[j]) for i, j in g.edges if i in index and j in index
    ]
    return make_graph(len(vlist), edges)


def girth(g: Graph):
    """Length of the shortest cycle; math.inf for forests."""
    adj = g._adjacency
    best = math.inf
    # BFS from each vertex; a non-tree edge at depths d1, d2 closes a cycle
    for s in g.vertices():
        dist = {s: 0}
        parent = {s: 0}
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cyc = dist[u] + dist[w] + 1
                        if cyc < best:
                            best = cyc
            queue = nxt
    return best


# -- forbidden induced subgraphs --------------------------------------

@dataclass(frozen=True)
class ForbiddenWitness:
    kind: str  # "cycle", "claw", "net", "sun3"
    length: Optional[int]  # cycle length when kind == "cycle"
    vertices: tuple[int, ...]

    def describe(self) -> str:
        if self.kind == "cycle":
            return f"Cycle({self.length})"
        return {"claw": "Claw", "net": "Net", "sun3": "Sun3"}[self.kind]

    def model_graph(self) -> Graph:
        return named_graph(self.kind, self.length)


def _claw(g: Graph) -> Optional[tuple[int, ...]]:
    """An induced claw: a vertex with three pairwise non-adjacent neighbours."""
    adj = g._adjacency
    for v in g.vertices():
        for a in sorted(adj[v]):
            far = sorted(x for x in adj[v] - adj[a] if x > a)
            for i, b in enumerate(far):
                for c in far[i + 1:]:
                    if c not in adj[b]:
                        return (v, a, b, c)
    return None


def _hole_through(
    adj: dict[int, frozenset[int]], b: int, a: int, longest: int
) -> Optional[tuple[int, ...]]:
    """A shortest chordless cycle, in cycle order, through the edge ab,
    if one has fewer than `longest` vertices.

    Such a cycle is b plus an a-c path whose inner vertices avoid N[b],
    for a neighbour c of b that is not adjacent to a; conversely b plus a
    shortest such path is chordless.  So it is found by a breadth-first
    search from a that avoids N[b] and stops at the first such c.
    """
    targets = adj[b] - adj[a] - {a}
    closed = adj[b] | {b}
    parent = {a: a}
    frontier = [a]
    size = 3  # vertices of a cycle closed from the frontier
    while frontier and targets and size < longest:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w in targets:
                    path = [w, u]
                    while path[-1] != a:
                        path.append(parent[path[-1]])
                    return (b, *path)
                if w not in parent and w not in closed:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
        size += 1
    return None


def _shortest_hole(g: Graph) -> Optional[tuple[int, ...]]:
    """A shortest chordless cycle of length at least 4, or None when g is
    chordal: the shortest of the holes through each edge, each direction."""
    adj = g._adjacency
    best: Optional[tuple[int, ...]] = None
    for b in g.vertices():
        for a in sorted(adj[b]):
            hole = _hole_through(adj, b, a, len(best) if best else g.n + 1)
            if hole is not None:
                best = hole
                if len(best) == 4:
                    return best
    return best


def _net_or_sun(g: Graph) -> Optional[ForbiddenWitness]:
    """An induced net or 3-sun: a triangle abc with three pairwise
    non-adjacent outside vertices whose neighbours in the triangle are a, b
    and c (net), or ab, bc and ca (3-sun)."""
    adj = g._adjacency
    for a in g.vertices():
        for b in sorted(x for x in adj[a] if x > a):
            for c in sorted(x for x in adj[a] & adj[b] if x > b):
                tri = frozenset((a, b, c))
                by_trace: dict[frozenset[int], list[int]] = {}
                for x in sorted((adj[a] | adj[b] | adj[c]) - tri):
                    by_trace.setdefault(adj[x] & tri, []).append(x)
                for kind, traces in (
                    ("net", ((a,), (b,), (c,))),
                    ("sun3", ((a, b), (b, c), (c, a))),
                ):
                    xs, ys, zs = (by_trace.get(frozenset(t), []) for t in traces)
                    for x in xs:
                        for y in ys:
                            if y in adj[x]:
                                continue
                            for z in zs:
                                if z not in adj[x] and z not in adj[y]:
                                    return ForbiddenWitness(
                                        kind, None, tuple(sorted((a, b, c, x, y, z)))
                                    )
    return None


def find_forbidden_induced(g: Graph) -> Optional[ForbiddenWitness]:
    """A smallest induced claw, net, 3-sun or chordless k-cycle (k >= 4) of
    g, or None when g has none, that is when each component of g is an
    indifference graph (Roberts' theorem).

    The claw has 4 vertices, and the net and the 3-sun have 6; so a claw
    comes first, then the shortest hole if it has at most 6 vertices, then
    a net or a 3-sun, then the longer hole.  Every step is polynomial.
    """
    claw = _claw(g)
    if claw is not None:
        return ForbiddenWitness("claw", None, tuple(sorted(claw)))
    hole = _shortest_hole(g)
    if hole is not None and len(hole) <= 6:
        return ForbiddenWitness("cycle", len(hole), tuple(sorted(hole)))
    witness = _net_or_sun(g)
    if witness is None and hole is not None:
        witness = ForbiddenWitness("cycle", len(hole), tuple(sorted(hole)))
    return witness


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertex v to perm[v-1]."""
    if sorted(perm) != list(g.vertices()):
        raise GraphInputError("relabelling is not a permutation of the vertices")
    return make_graph(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def _min_relabellings(masks: list[int], k: int) -> list[int]:
    """Each edge mask's minimum over the relabellings of vertices 1..k,
    bit b of a mask being the b-th vertex pair in lexicographic order.

    The masks are bit-sliced: column b holds bit b of every mask, one bit
    per mask.  A relabelling permutes the columns, and one lexicographic
    compare from the top pair down marks the masks its relabelling makes
    smaller.
    """
    pairs = list(combinations(range(k), 2))
    where = {}
    for b, (i, j) in enumerate(pairs):
        where[i, j] = where[j, i] = b
    columns = [0] * len(pairs)
    for m, mask in enumerate(masks):
        for b in range(len(pairs)):
            columns[b] |= (mask >> b & 1) << m
    best = list(columns)
    everyone = (1 << len(masks)) - 1
    for perm in permutations(range(k)):
        undecided, smaller = everyone, 0
        for b in reversed(range(len(pairs))):
            i, j = pairs[b]
            diff = (columns[where[perm[i], perm[j]]] ^ best[b]) & undecided
            smaller |= diff & best[b]
            undecided ^= diff
            if not undecided:
                break
        if smaller:
            for b, (i, j) in enumerate(pairs):
                best[b] ^= (best[b] ^ columns[where[perm[i], perm[j]]]) & smaller
    return [
        sum((column >> m & 1) << b for b, column in enumerate(best))
        for m in range(len(masks))
    ]


def canonical_form(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Canonical key under isomorphism: the edge set whose mask is least
    over all relabellings (n <= 8)."""
    if g.n > 8:
        raise GraphInputError("canonical_form is limited to n <= 8")
    pairs = list(combinations(range(1, g.n + 1), 2))
    mask = sum(1 << pairs.index(e) for e in g.edges)
    (least,) = _min_relabellings([mask], g.n)
    return (g.n, frozenset(p for b, p in enumerate(pairs) if least >> b & 1))


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Edge sets are encoded as bitmasks over the vertex pairs in
    lexicographic order, and a class is represented by its minimum bitmask
    over all vertex permutations.  The classes on k vertices come from
    those on k - 1 by adding vertex k with every nonempty neighbourhood:
    deleting a leaf of a spanning tree leaves a connected graph, so every
    class arises.  The minimum is taken over all candidates at once.
    """
    if n > 7:
        raise GraphInputError("exhaustive enumeration is limited to n <= 7")
    reps = [0]  # the one class on a single vertex
    pairs: list[tuple[int, int]] = []
    for k in range(2, n + 1):
        prev_pairs = pairs
        pairs = list(combinations(range(1, k + 1), 2))
        pair_index = {p: b for b, p in enumerate(pairs)}
        bases = [
            sum(1 << pair_index[p] for b, p in enumerate(prev_pairs) if mask >> b & 1)
            for mask in reps
        ]
        new_edges = [1 << pair_index[(v, k)] for v in range(1, k)]
        nbhds = [
            sum(bit for v, bit in enumerate(new_edges) if s >> v & 1)
            for s in range(1, 1 << (k - 1))
        ]
        reps = sorted(set(_min_relabellings([b | e for b in bases for e in nbhds], k)))
    return [
        make_graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])
        for mask in reps
    ]


# -- parsing ----------------------------------------------------------

def parse_graph_text(text: str) -> Graph:
    """Format: first line "n m", then m lines "i j" (1-based)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphInputError("empty graph text")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphInputError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphInputError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            i, j = map(int, ln.split())
        except ValueError as exc:
            raise GraphInputError(f"bad edge line {ln!r}") from exc
        edges.append((i, j))
    return make_graph(n, edges)


def parse_graph_json(text: str) -> Graph:
    """Format: {"n": int, "edges": [[i, j], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphInputError('graph JSON must have keys "n" and "edges"')
    return make_graph(int(data["n"]), data["edges"])


def parse_graph(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)
