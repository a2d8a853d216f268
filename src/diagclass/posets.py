"""Clustering lattices, cluster-permutohedra, graphicahedra, skeleta and
order complexes.

A clustering is a partition of the vertex set into connected blocks.  An
element of the cluster-permutohedron pairs a clustering with an
assignment: a distribution of the labels 1..n over the blocks (block B
receives |B| labels).  The graphicahedron replaces the clustering by an
edge subset, remembering which edges produced the blocks.  An element's
label is (face, blocks, masks): the face's blocks in order of their least
vertex, and the assignment as one label mask per block.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import combinations
from typing import Iterator, Optional

from .graphs import Graph, GraphInputError, check_element_cap

Clustering = frozenset[frozenset[int]]


def discrete_clustering(n: int) -> Clustering:
    return frozenset(frozenset([v]) for v in range(1, n + 1))


def clustering_rank(c: Clustering, n: int) -> int:
    """Effective-torus rank of the face: n - number of blocks."""
    return n - len(c)


def assignment_multiplicity(c: Clustering, n: int) -> int:
    """Number of assignments of labels 1..n to the blocks of c."""
    return math.factorial(n) // math.prod(math.factorial(len(b)) for b in c)


def assignments_for(c: Clustering, n: int) -> list[tuple[int, ...]]:
    """All distributions of labels 1..n over the blocks of c, each one
    label mask per block (bit l - 1 for label l), the blocks in order of
    their least vertex; listed as the blocks' label sets in order of
    `itertools.combinations`, the first block's choice leading."""
    partial = [((), tuple(range(1, n + 1)))]  # (masks of the blocks so far, labels left)
    for b in sorted(c, key=min):
        partial = [
            (masks + (sum(1 << (l - 1) for l in chosen),),
             tuple(l for l in rest if l not in chosen))
            for masks, rest in partial
            for chosen in combinations(rest, len(b))
        ]
    return [masks for masks, _ in partial]


class GradedPoset:
    """Finite poset given by elements with ranks and covering relations;
    equal exactly when (labels, rank, covers) agree.

    Element order is a linear extension (x < y implies index(x) < index(y)).
    """

    def __init__(self, labels: list, rank: list[int], covers: list[tuple[int, int]]):
        self.labels = labels
        self.rank = rank
        self.covers = covers  # (lower, upper) index pairs

    def __eq__(self, other) -> bool:
        if other.__class__ is not GradedPoset:
            return NotImplemented
        return (self.labels, self.rank, self.covers) == (other.labels, other.rank, other.covers)

    def __repr__(self) -> str:
        return f"GradedPoset(labels={self.labels!r}, rank={self.rank!r}, covers={self.covers!r})"

    def __len__(self) -> int:
        return len(self.labels)

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

    # -- exports -------------------------------------------------------

    def to_dot(self) -> Iterator[str]:
        """The Hasse diagram in Graphviz DOT, line by line."""
        yield from ("digraph hasse {", "  rankdir=BT;")
        face = None
        for i, label in enumerate(self.labels):
            if not isinstance(label, tuple):
                yield f'  n{i} [label="{_face_str(label)}"];'
                continue
            if label[0] is not face:  # a face's elements come one after another
                face, blocks, _ = label
                face_str, block_strs = _face_str(face), [_braces(sorted(b)) for b in blocks]
            pairs = ",".join(f"({b},{_mask_str(m)})" for b, m in zip(block_strs, label[2]))
            yield f'  n{i} [label="({face_str},{{{pairs}}})"];'
        yield from (f"  n{lo} -> n{hi};" for lo, hi in self.covers)
        yield "}"


def _braces(members) -> str:
    return "{" + ",".join(map(str, members)) + "}"


# one string per mask; n <= 9 under the element cap, so at most 511 of them
@cache
def _mask_str(mask: int) -> str:
    return _braces(l + 1 for l in range(mask.bit_length()) if mask >> l & 1)


def _face_str(face) -> str:
    """A clustering as {{1},{2,3}}, an edge subset as {(1,2),(2,3)}."""
    return _braces(f"({p[0]},{p[1]})" if isinstance(p, tuple) else _braces(sorted(p))
                   for p in sorted(face, key=sorted))


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
    if not g.is_connected():
        raise GraphInputError("this construction requires a connected graph")
    return all_clusterings(g)


def _edge_subsets(g: Graph, max_rank: Optional[int]) -> tuple[GradedPoset, list[Clustering]]:
    """Edge subsets whose components have clustering rank at most max_rank
    (all of them by default), ordered by inclusion, with those clusterings.

    The kept subsets form a down-set, so each is its prefix (the subset
    without its largest edge) plus one edge, and its clustering is the
    prefix's with the edge's two blocks merged.  Elements are listed by
    size, then by their sorted edges; each cover adds one edge, and adding
    a chord inside a block keeps the rank.  The listing stops, refused,
    once the subsets met carry more than ELEMENT_CAP assignments.
    """
    edges = g.sorted_edges()
    top = g.n - 1 if max_rank is None else max_rank
    # (next edge position, subset, clustering), listed breadth first
    kept = [(0, (), discrete_clustering(g.n))]
    carried = 0
    for start, d, c in kept:
        carried += assignment_multiplicity(c, g.n)
        check_element_cap("graphicahedron", g, listed=carried)
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
    most max_rank, with the clustering of each face.

    The poset's elements are the assignments its faces carry, held to
    ELEMENT_CAP by `check_element_cap`: before any face is listed, the
    discrete face's n! and, unless max_rank is 0, the |E| single-edge faces'
    n!/2 each, so n >= 10 and K9 are refused at once; then edge subsets
    while they are listed, clusterings once they are.
    """
    name = "cluster-permutohedron" if kind == "cluster" else "graphicahedron"
    edges = 0 if max_rank == 0 else g.num_edges
    check_element_cap(name, g, lambda labellings: labellings + labellings // 2 * edges)
    if kind == "graphic":
        return _edge_subsets(g, max_rank)
    lattice = all_clusterings(g, max_rank)
    check_element_cap(name, g, listed=sum(assignment_multiplicity(c, g.n) for c in lattice.labels))
    return lattice, lattice.labels


def cluster_permutohedron(g: Graph, max_rank: Optional[int] = None) -> GradedPoset:
    """Poset of (clustering, assignment) pairs.

    max_rank restricts construction to elements of rank <= max_rank, which
    avoids building elements a later skeleton() call would drop.
    """
    return _assignment_poset(*_face_lattice(g, "cluster", max_rank), g.n)


def graphicahedron(g: Graph, max_rank: Optional[int] = None) -> GradedPoset:
    """Poset of (edge subset, assignment) pairs, graded by the rank of the
    clustering induced by the subset's connected components.

    Covers may preserve rank (adding a chord inside a block), so this
    poset is only weakly graded.
    """
    return _assignment_poset(*_face_lattice(g, "graphic", max_rank), g.n)


def skeleton_face_counts(g: Graph, kind: str, max_rank: Optional[int]) -> Iterator[int]:
    """Face counts f_0, f_1, ... of the order complex of
    cluster_permutohedron (kind "cluster") or graphicahedron (kind
    "graphic") of g up to max_rank, without building either, each made
    only when it is asked for.

    A chain of the poset is a chain f_0 < ... < f_d of faces with an
    assignment of f_0, which fixes the assignments above it; so the
    d-faces number the chains of d + 1 faces ending at each face j, each
    weighted by the assignments of its bottom face, summed over j.  Those
    ending at j are the shorter ones ending strictly below j; faces with
    equal counts form a class, so each sum is one popcount of j's
    down-set per class.  At d = 1 the classes are the few multiplicities,
    which depend only on block sizes.  A graphicahedron cover may keep the
    rank, so chains are as long as the face lattice's longest chain, not
    max_rank + 1.
    """
    lattice, found = _face_lattice(g, kind, max_rank)
    below = lattice.strict_downsets()
    ending = [assignment_multiplicity(c, g.n) for c in found]
    while any(ending):
        yield sum(ending)
        classes: dict[int, int] = {}  # count -> bitset of the faces with it
        for j, k in enumerate(ending):
            if k:
                classes[k] = classes.get(k, 0) | 1 << j
        ending = [sum(k * (b & faces).bit_count() for k, faces in classes.items()) for b in below]


def _assignment_poset(lattice: GradedPoset, found: list[Clustering], n: int) -> GradedPoset:
    """Poset of (face, assignment) pairs over a face lattice whose faces
    have the clusterings found, each labelled (face, blocks, masks).

    An element covers another when its face covers the other's and its
    assignment is the other's pushed forward to the coarser clustering:
    each coarse block gets the labels of the fine blocks inside it.  Which
    coarse block holds each fine block depends on the face cover alone, so
    it is found once per cover, and with an assignment held as one label
    mask per block the push-forward is one OR per fine block.  The face
    lattice was held to the element cap as it was listed, so the
    elements are made without a count.
    """
    blocks = [tuple(sorted(c, key=min)) for c in found]
    labels: list = []
    rank: list[int] = []
    index: list[dict[tuple[int, ...], int]] = []  # per face: assignment -> element
    for face, r, c, bs in zip(lattice.labels, lattice.rank, found, blocks):
        at = {}
        for a in assignments_for(c, n):
            at[a] = len(labels)
            labels.append((face, bs, a))
        index.append(at)
        rank += [r] * len(at)
    covers = []
    for lo, hi in lattice.covers:
        into = [next(j for j, big in enumerate(blocks[hi]) if b <= big) for b in blocks[lo]]
        width, upper = len(blocks[hi]), index[hi]
        for a, i in index[lo].items():
            image = [0] * width
            for j, m in zip(into, a):
                image[j] |= m
            covers.append((i, upper[tuple(image)]))
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


class SimplicialComplex:
    """Full face list per dimension; faces are sorted vertex tuples."""

    def __init__(self, faces: list[list[tuple[int, ...]]]):
        self.faces = faces  # faces[d] = list of d-simplices

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces))

    def face_counts(self) -> list[int]:
        return [len(fs) for fs in self.faces]


def order_complex(p: GradedPoset) -> SimplicialComplex:
    """Simplices are the totally ordered subsets (chains) of the poset.

    The chains are listed level by level: a (d+1)-chain is a d-chain plus
    an element above its top, which is then above all of it.  The d-chains
    are in increasing order and each element's upper set is too, so every
    dimension comes out sorted.
    """
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
    level = [(v,) for v in range(n)]
    while level:
        faces.append(level)
        level = [chain + (y,) for chain in level for y in above[chain[-1]]]
    return SimplicialComplex(faces=faces)
