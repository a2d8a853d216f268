"""Simple undirected graphs modelling matrix sparsity patterns.

Vertices are labelled 1..n, edges stored canonically as sorted pairs, so
two graphs are equal iff their (n, edges) data coincide.  Includes the
named graphs relevant to indifference-graph recognition and detection of
forbidden induced subgraphs (long induced cycles, the claw, the net and
the 3-sun).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import accumulate, combinations, permutations
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence


class GraphInputError(ValueError):
    """Raised for malformed graph data (bad vertex labels, loops, ...)."""


# The budget names live beside GraphInputError because every command loads
# this module, and not every command loads `linalg`.
class ComputationBudgetError(RuntimeError):
    """A computation would exceed the configured memory/size budget."""


class RankCertificationError(RuntimeError):
    """Modular ranks kept disagreeing beyond the retry budget."""


DEFAULT_MEM_BUDGET = 2 * 1024**3
# elements an n!-sized structure may have; read by `check_element_cap` alone
ELEMENT_CAP = 2_000_000


class Graph:
    """A pattern on the vertices 1..n; equal, and hashed alike, exactly
    when (n, edges) agree."""

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 1:
            raise GraphInputError("vertex count must be at least 1")
        for i, j in edges:
            if not (1 <= i < j <= n):
                raise GraphInputError(f"bad edge ({i},{j}) for n={n}")
        self.n = n
        self.edges = edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

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

    def is_connected(self) -> bool:
        """One component.  Fewer than n - 1 edges cannot connect n vertices,
        so such a pattern is refused before anything of size n is built."""
        return self.num_edges >= self.n - 1 and len(self.components()) == 1

    def components(self) -> list[set[int]]:
        """The vertex sets of the connected components, in order of least
        vertex: a search from each vertex no earlier search reached."""
        adj = self._adjacency
        out, seen = [], set()
        for v in self.vertices():
            if v not in seen:
                comp, stack = {v}, [v]
                while stack:
                    for w in adj[stack.pop()] - comp:
                        comp.add(w)
                        stack.append(w)
                seen |= comp
                out.append(comp)
        return out


def check_element_cap(structure: str, g: Graph, elements=int, listed: Optional[int] = None) -> None:
    """The one door of every structure on the n! labellings of a pattern g
    (the assignment posets, the moment graph), passed before any of it is
    priced, listed or built: a disconnected g is an input error, and more
    than ELEMENT_CAP elements are refused.  The count is `elements` (n! by
    default; nondecreasing) of 1!, 2!, ... in turn, so n! is never
    multiplied out past the cap; or a total `listed` past the door."""
    if listed is None:
        if not g.is_connected():
            raise GraphInputError(f"{structure} requires a connected pattern")
        counts = map(elements, accumulate(range(1, g.n + 1), mul))
        listed = next((c for c in counts if c > ELEMENT_CAP), 0)  # the first past the cap
    if listed > ELEMENT_CAP:
        raise ComputationBudgetError(f"{structure} would exceed {ELEMENT_CAP} elements")


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


# -- forbidden induced subgraphs --------------------------------------

class ForbiddenWitness(NamedTuple):
    kind: str  # "cycle", "claw", "net", "sun3"
    length: Optional[int]  # cycle length when kind == "cycle"
    vertices: tuple[int, ...]

    def describe(self) -> str:
        if self.kind == "cycle":
            return f"Cycle({self.length})"
        return {"claw": "Claw", "net": "Net", "sun3": "Sun3"}[self.kind]


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


def _whole(x) -> bool:
    """A JSON integer: not a boolean, a float or a string."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text: str) -> Graph:
    """Format: {"n": int, "edges": [[i, j], ...]}, every number an integer."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphInputError('graph JSON must have keys "n" and "edges"')
    n, edges = data["n"], data["edges"]
    if not _whole(n):
        raise GraphInputError(f'"n" must be an integer, got {json.dumps(n)}')
    if not isinstance(edges, list):
        raise GraphInputError(f'"edges" must be a list of pairs, got {json.dumps(edges)}')
    for pair in edges:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_whole, pair))):
            raise GraphInputError(f"edge {json.dumps(pair)} is not a pair of integers")
    return make_graph(n, edges)


def parse_graph(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)
