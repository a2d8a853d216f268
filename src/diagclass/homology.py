"""Reduced simplicial homology of order complexes over the 2-element
field, the rationals or the integers, and the homology of a skeleton of a
clustering poset.

One path serves every ring: each boundary map d_k goes through
`linalg.eliminate`, which picks the ring's kernel and gives its rank and,
over the integers, the Smith divisors above 1, the torsion.  The
augmentation is the boundary map d_0, so every Betti number is reduced.
Faces carry the orientation induced by sorted vertex tuples, so the
boundary of (v_0 < ... < v_d) is the alternating sum over vertex
deletions.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Optional

from .graphs import DEFAULT_MEM_BUDGET, Graph
from .linalg import SparseMatrix, check_rank_budget, eliminate
from .posets import (
    SimplicialComplex,
    cluster_permutohedron,
    graphicahedron,
    order_complex,
    skeleton_face_counts,
)


def boundary_matrix(sc: SimplicialComplex, d: int) -> SparseMatrix:
    """d-th boundary map, (d-1)-faces by d-faces; d = 0 is augmentation.

    The entries are listed column by column, each face's in the order of
    the vertex deleted; a face's d + 1 boundary faces are distinct, so no
    cell repeats.
    """
    faces = sc.faces[d]
    if d == 0:
        n = len(faces)
        return SparseMatrix(
            1, n, array("q", bytes(8 * n)), array("q", range(n)), array("q", [1]) * n
        )
    lower = {face: i for i, face in enumerate(sc.faces[d - 1])}
    cuts = [(i, i + 1) for i in range(d + 1)]
    row = array("q", [lower[face[:i] + face[j:]] for face in faces for i, j in cuts])
    col = array("q", [j for j in range(len(faces)) for _ in cuts])
    val = array("q", [(-1) ** i for i in range(d + 1)]) * len(faces)
    return SparseMatrix(len(sc.faces[d - 1]), len(faces), row, col, val)


def check_homology_budget(face_counts: Iterable[int], coeff: str, mem_budget: int) -> None:
    """Refuse, from the face counts alone, a complex one of whose boundary
    maps d_0, d_1, ... `reduced_homology` would refuse to eliminate over
    coeff, naming it; each d-face puts d + 1 entries in d_d.  The counts
    are taken one at a time, so none past the first refused map is asked
    for."""
    rows = 1
    for d, cols in enumerate(face_counts):
        check_rank_budget(rows, cols, (d + 1) * cols, coeff, mem_budget, f"d_{d}")
        rows = cols


def reduced_homology(
    sc: SimplicialComplex, coeff: str, mem_budget: int = DEFAULT_MEM_BUDGET
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Reduced Betti numbers and torsion of sc in each dimension, over
    coeff: "gf2", "rational" or "integer".

    torsion[d] is the divisibility chain of the finite cyclic summands of
    H_d, each above 1; it is empty over a field.  Every boundary map is
    checked against the budget before the first is eliminated, so a
    refusal costs no elimination.
    """
    if not sc.faces or not sc.faces[0]:
        return [], []
    check_homology_budget(sc.face_counts(), coeff, mem_budget)
    eliminated = [
        eliminate(boundary_matrix(sc, d), coeff, mem_budget, f"d_{d}")
        for d in range(sc.dim + 1)
    ]
    # the zero map above the top dimension; H_d's torsion comes from d_{d+1}
    ranks = [rank for rank, _ in eliminated] + [0]
    betti = [len(sc.faces[d]) - ranks[d] - ranks[d + 1] for d in range(sc.dim + 1)]
    return betti, [torsion for _, torsion in eliminated[1:]] + [()]


def betti_numbers(
    sc: SimplicialComplex, coeff: str = "rational", mem_budget: int = DEFAULT_MEM_BUDGET
) -> list[int]:
    """Reduced Betti numbers in each dimension.

    Over gf2 these are dimensions of homology with 2-element-field
    coefficients; over the rationals they are the ordinary Betti numbers.
    """
    return reduced_homology(sc, coeff, mem_budget)[0]


class IntegralHomology(NamedTuple):
    """free_rank[d] and torsion[d] (sorted divisibility chain, each > 1)."""

    free_rank: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def describe(self, d: int) -> str:
        parts = []
        if self.free_rank[d]:
            parts.append(f"Z^{self.free_rank[d]}" if self.free_rank[d] > 1 else "Z")
        parts += [f"Z/{t}" for t in self.torsion[d]]
        return " + ".join(parts) if parts else "0"


def integral_homology(sc: SimplicialComplex) -> IntegralHomology:
    """Reduced homology with integer coefficients."""
    free, torsion = reduced_homology(sc, "integer")
    return IntegralHomology(tuple(free), tuple(torsion))


def homology_report(
    sc: SimplicialComplex, coeff: str = "rational", mem_budget: int = DEFAULT_MEM_BUDGET
) -> dict:
    """JSON-ready summary of face counts, Euler characteristic and reduced
    Betti numbers over "gf2", "rational" or "integer" (with torsion).

    The budget bounds the rank computations; the Smith normal form is
    bounded by its size cap instead.
    """
    betti, torsion = reduced_homology(sc, coeff, mem_budget)
    report = {
        "coeff": coeff,
        "reduced": True,
        "face_counts": sc.face_counts(),
        "euler_characteristic": sc.euler_characteristic(),
        "betti": betti,
    }
    if coeff == "integer":
        ih = IntegralHomology(tuple(betti), tuple(torsion))
        report["torsion"] = [list(t) for t in torsion]
        report["homology"] = [ih.describe(d) for d in range(len(betti))]
    return report


def poset_homology(
    g: Graph, kind: str, max_rank: Optional[int], coeff: str, mem_budget: int
) -> dict:
    """`homology_report` of the order complex of the cluster-permutohedron
    (kind "cluster") or the graphicahedron (kind "graphic") of g up to
    rank max_rank, with the poset's kind, element count and rank bound.

    A poset over the element cap is refused before anything is counted,
    and the complex is refused from its face counts before the poset is
    built: d_0 and d_1 first, from the vertex and edge counts, which cost
    a fraction of the deeper ones.
    """
    check_homology_budget(skeleton_face_counts(g, kind, max_rank), coeff, mem_budget)
    build = cluster_permutohedron if kind == "cluster" else graphicahedron
    p = build(g, max_rank=max_rank)
    report = homology_report(order_complex(p), coeff=coeff, mem_budget=mem_budget)
    report.update(poset=kind, elements=len(p), skeleton=max_rank)
    return report
