"""Clustering lattices, cluster-permutohedra, graphicahedra, skeleta and
order complexes.

A clustering is a partition of the vertex set into connected blocks.  An
element of the cluster-permutohedron pairs a clustering with an
assignment: a distribution of the labels 1..n over the blocks (block B
receives |B| labels).  The graphicahedron replaces the clustering by an
edge subset, remembering which edges produced the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .graphs import Graph, GraphInputError
from .linalg import ComputationBudgetError

Clustering = frozenset[frozenset[int]]
Assignment = frozenset[tuple[frozenset[int], frozenset[int]]]  # (block, labels)


def discrete_clustering(n: int) -> Clustering:
    return frozenset(frozenset([v]) for v in range(1, n + 1))


def clustering_rank(c: Clustering, n: int) -> int:
    """Effective-torus rank of the face: n - number of blocks."""
    return n - len(c)


def assignment_multiplicity(c: Clustering, n: int) -> int:
    """Number of assignments of labels 1..n to the blocks of c."""
    return math.factorial(n) // math.prod(math.factorial(len(b)) for b in c)


def assignments_for(c: Clustering, n: int) -> list[Assignment]:
    """All distributions of labels 1..n over the blocks of c."""
    blocks = sorted(c, key=min)
    out: list[Assignment] = []

    def rec(i: int, remaining: frozenset[int], acc: list):
        if i == len(blocks):
            out.append(frozenset(acc))
            return
        b = blocks[i]
        for labels in combinations(sorted(remaining), len(b)):
            acc.append((b, frozenset(labels)))
            rec(i + 1, remaining - frozenset(labels), acc)
            acc.pop()

    rec(0, frozenset(range(1, n + 1)), [])
    return out


def project_assignment(a: Assignment, coarser: Clustering) -> Assignment:
    """Push an assignment forward along a refinement to a coarser clustering."""
    lookup = dict(a)
    out = []
    for block in coarser:
        labels: set[int] = set()
        for sub, lab in lookup.items():
            if sub <= block:
                labels |= lab
        if sum(len(s) for s in lookup if s <= block) != len(block):
            raise ValueError("clustering is not a refinement of the target")
        out.append((block, frozenset(labels)))
    return frozenset(out)


@dataclass
class GradedPoset:
    """Finite poset given by elements with ranks and covering relations.

    Element order is a linear extension (x < y implies index(x) < index(y)).
    """

    labels: list
    rank: list[int]
    covers: list[tuple[int, int]]  # (lower, upper) index pairs

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def max_rank(self) -> int:
        return max(self.rank) if self.rank else 0

    def elements_of_rank(self, r: int) -> list[int]:
        return [i for i, rk in enumerate(self.rank) if rk == r]

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.labels]
        for lo, hi in self.covers:
            ch[hi].append(lo)
        return ch

    @cached_property
    def _below(self) -> list[int]:
        """Built on first use and kept; not a field, so equality stays on
        (labels, rank, covers)."""
        below = [0] * len(self.labels)
        for i, children in enumerate(self.children()):
            acc = 0
            for c in children:
                acc |= below[c] | (1 << c)
            below[i] = acc
        return below

    def strict_downsets(self) -> list[int]:
        """Bitset (python int) of all elements strictly below each element."""
        return self._below

    def leq(self, i: int, j: int) -> bool:
        return i == j or bool(self.strict_downsets()[j] >> i & 1)

    def minimal_elements(self) -> list[int]:
        uppers = {hi for _, hi in self.covers}
        return [i for i in range(len(self.labels)) if i not in uppers]

    def validate(self, strict: bool = True) -> None:
        for lo, hi in self.covers:
            if strict and self.rank[lo] >= self.rank[hi]:
                raise ValueError(f"cover {lo}->{hi} does not increase rank")
            if lo >= hi:
                raise ValueError("element order is not a linear extension")

    # -- exports -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": [
                    {"id": i, "rank": self.rank[i], "label": _label_str(self.labels[i])}
                    for i in range(len(self.labels))
                ],
                "covers": [[lo, hi] for lo, hi in self.covers],
            }
        )

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i in range(len(self.labels)):
            lines.append(f'  n{i} [label="{_label_str(self.labels[i])}"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines)


def _label_str(label) -> str:
    if isinstance(label, frozenset):
        try:
            parts = sorted(label, key=lambda b: sorted(b) if isinstance(b, (frozenset, tuple)) else b)
        except TypeError:
            parts = list(label)
        return "|".join(_label_str(p) for p in parts)
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(x) for x in label) + ")"
    if isinstance(label, (set, list)):
        return "{" + ",".join(str(x) for x in sorted(label)) + "}"
    return str(label)


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise GraphInputError("this construction requires a connected graph")


def all_clusterings(g: Graph, max_rank: Optional[int] = None) -> GradedPoset:
    """Partitions of the vertices into connected blocks, of rank at most
    max_rank (all of them by default), ordered by refinement.

    A breadth-first search merges two adjacent blocks per step, so its
    level r holds the clusterings of rank r, and the merges it makes are
    the covers.  Elements are listed by rank, then by their sorted blocks.
    """
    top = g.n - 1 if max_rank is None else min(max_rank, g.n - 1)
    elems: list[Clustering] = []
    merges: list[tuple[Clustering, Clustering]] = []
    level = {discrete_clustering(g.n)}
    for rank in range(top + 1):
        elems += sorted(level, key=lambda c: sorted(sorted(b) for b in c))
        if rank == top:
            break
        nxt: set[Clustering] = set()
        for c in level:
            reach = {b: frozenset().union(*map(g.neighbors, b)) for b in c}
            for b1, b2 in combinations(sorted(c, key=min), 2):
                if not reach[b1].isdisjoint(b2):
                    merged = frozenset((c - {b1, b2}) | {b1 | b2})
                    merges.append((c, merged))
                    nxt.add(merged)
        level = nxt
    index = {c: i for i, c in enumerate(elems)}
    return GradedPoset(
        labels=elems,
        rank=[clustering_rank(c, g.n) for c in elems],
        covers=sorted((index[lo], index[hi]) for lo, hi in merges),
    )


def clusterings(g: Graph) -> GradedPoset:
    """Lattice of connected partitions, ordered by refinement,
    rank = n - (number of blocks)."""
    _require_connected(g)
    return all_clusterings(g)


ELEMENT_CAP = 2_000_000  # elements an assignment poset may have


def _edge_subsets(g: Graph, max_rank: Optional[int]) -> tuple[GradedPoset, list[Clustering]]:
    """Edge subsets whose components have clustering rank at most max_rank
    (all of them by default), ordered by inclusion, with those clusterings.

    The kept subsets form a down-set, so each is its prefix (the subset
    without its largest edge) plus one edge, and its clustering is the
    prefix's with the edge's two blocks merged.  Elements are listed by
    size, then by their sorted edges; each cover adds one edge, and adding
    a chord inside a block keeps the rank.
    """
    edges = g.sorted_edges()
    if len(edges) > 20:
        raise ComputationBudgetError("graphicahedron limited to 20 edges")
    top = g.n - 1 if max_rank is None else max_rank
    # (next edge position, subset, clustering), listed breadth first
    kept = [(0, (), discrete_clustering(g.n))]
    for start, d, c in kept:
        for pos in range(start, len(edges)):
            bi, bj = (next(b for b in c if v in b) for v in edges[pos])
            merged = c if bi is bj else frozenset((c - {bi, bj}) | {bi | bj})
            if clustering_rank(merged, g.n) <= top:
                kept.append((pos + 1, d + (edges[pos],), merged))
    labels = [frozenset(d) for _, d, _ in kept]
    found = [c for _, _, c in kept]
    index = {d: k for k, d in enumerate(labels)}
    covers = sorted((index[d - {e}], k) for k, d in enumerate(labels) for e in d)
    ranks = [clustering_rank(c, g.n) for c in found]
    return GradedPoset(labels=labels, rank=ranks, covers=covers), found


def _face_lattice(g: Graph, kind: str, max_rank: Optional[int]) -> tuple[GradedPoset, list[Clustering]]:
    """The faces of the "cluster" or "graphic" assignment poset of rank at
    most max_rank, with the clustering of each face."""
    _require_connected(g)
    if kind == "cluster":
        lattice = all_clusterings(g, max_rank)
        return lattice, lattice.labels
    return _edge_subsets(g, max_rank)


def cluster_permutohedron(g: Graph, max_rank: Optional[int] = None) -> GradedPoset:
    """Poset of (clustering, assignment) pairs.

    max_rank restricts construction to elements of rank <= max_rank, which
    avoids building elements a later skeleton() call would drop.
    """
    return _assignment_poset(*_face_lattice(g, "cluster", max_rank), g.n, "cluster-permutohedron")


def graphicahedron(g: Graph, max_rank: Optional[int] = None) -> GradedPoset:
    """Poset of (edge subset, assignment) pairs, graded by the rank of the
    clustering induced by the subset's connected components.

    Covers may preserve rank (adding a chord inside a block), so this
    poset is only weakly graded.
    """
    return _assignment_poset(*_face_lattice(g, "graphic", max_rank), g.n, "graphicahedron")


def skeleton_face_counts(g: Graph, kind: str, max_rank: Optional[int]) -> list[int]:
    """Face counts of the order complex of cluster_permutohedron (kind
    "cluster") or graphicahedron (kind "graphic") of g up to max_rank,
    without building either.

    A chain of the poset is a chain f_0 < ... < f_d of faces with an
    assignment of f_0, which fixes the assignments above it; so the
    d-faces number the sum of assignment_multiplicity(f_0) over face
    chains.  A graphicahedron cover may keep the rank, so chains are as
    long as the face lattice's longest chain, not max_rank + 1.
    """
    lattice, found = _face_lattice(g, kind, max_rank)
    below = lattice.strict_downsets()
    counts: list[int] = []
    # ending[j][d]: chains of d + 1 faces ending at face j, each weighted
    # by the assignments of its bottom face
    ending: list[list[int]] = []
    for j, c in enumerate(found):
        weights = [assignment_multiplicity(c, g.n)]
        rest = below[j]
        while rest:
            low = rest & -rest
            rest ^= low
            shorter = ending[low.bit_length() - 1]
            weights += [0] * (len(shorter) + 1 - len(weights))
            for d, k in enumerate(shorter, 1):
                weights[d] += k
        ending.append(weights)
        counts += [0] * (len(weights) - len(counts))
        for d, k in enumerate(weights):
            counts[d] += k
    return counts


def _assignment_poset(
    lattice: GradedPoset, found: list[Clustering], n: int, name: str
) -> GradedPoset:
    """Poset of (face, assignment) pairs over a face lattice whose faces
    have the clusterings found.

    An element covers another when its face covers the other's and its
    assignment is the other's pushed forward to the coarser clustering.
    """
    total = 0
    for c in found:
        total += assignment_multiplicity(c, n)
        if total > ELEMENT_CAP:
            raise ComputationBudgetError(f"{name} would exceed {ELEMENT_CAP} elements")
    assigned = [assignments_for(c, n) for c in found]
    labels: list = []
    rank: list[int] = []
    index: dict = {}
    for face, r, assignments in zip(lattice.labels, lattice.rank, assigned):
        for a in assignments:
            index[(face, a)] = len(labels)
            labels.append((face, a))
            rank.append(r)
    faces = lattice.labels
    covers = {
        (index[(faces[lo], a)], index[(faces[hi], project_assignment(a, found[hi]))])
        for lo, hi in lattice.covers
        for a in assigned[lo]
    }
    return GradedPoset(labels=labels, rank=rank, covers=sorted(covers))


def skeleton(p: GradedPoset, r: int) -> GradedPoset:
    """Restriction to elements of rank <= r.

    Rank never drops along a cover, so the kept elements form a down-set:
    every interval between two of them lies inside it, and their covers
    are the parent's covers between kept elements.
    """
    if r < 0:
        raise ValueError("rank bound must be nonnegative")
    keep = [i for i in range(len(p)) if p.rank[i] <= r]
    if len(keep) == len(p):
        return p
    newindex = {old: new for new, old in enumerate(keep)}
    return GradedPoset(
        labels=[p.labels[i] for i in keep],
        rank=[p.rank[i] for i in keep],
        covers=[(newindex[lo], newindex[hi]) for lo, hi in p.covers if hi in newindex],
    )


@dataclass
class SimplicialComplex:
    """Full face list per dimension; faces are sorted vertex tuples."""

    n_vertices: int
    faces: list[list[tuple[int, ...]]]  # faces[d] = list of d-simplices

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))

    def face_counts(self) -> list[int]:
        return [len(fs) for fs in self.faces]


def order_complex(p: GradedPoset) -> SimplicialComplex:
    """Simplices are the totally ordered subsets (chains) of the poset."""
    n = len(p)
    below = p.strict_downsets()
    above: list[list[int]] = [[] for _ in range(n)]
    for y in range(n):
        d = below[y]
        while d:
            x = d & -d
            above[x.bit_length() - 1].append(y)
            d ^= x
    faces: list[list[tuple[int, ...]]] = []

    def record(chain: tuple[int, ...]) -> None:
        d = len(chain) - 1
        while len(faces) <= d:
            faces.append([])
        faces[d].append(chain)

    def extend(chain: list[int]) -> None:
        record(tuple(chain))
        for y in above[chain[-1]]:
            # keep only y comparable with every element (chain is nested, so
            # comparability with the top element suffices)
            chain.append(y)
            extend(chain)
            chain.pop()

    for v in range(n):
        extend([v])
    for fs in faces:
        fs.sort()
    return SimplicialComplex(n_vertices=n, faces=faces)
