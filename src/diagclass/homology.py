"""Simplicial homology of order complexes: boundary matrices, Betti
numbers over the 2-element field or the rationals, and integral homology
with torsion via Smith normal form.

Faces carry the orientation induced by sorted vertex tuples, so the
boundary of (v_0 < ... < v_d) is the alternating sum over vertex
deletions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import (
    DEFAULT_MEM_BUDGET,
    SparseMatrix,
    check_rank_budget,
    rank_gf2,
    rank_rational,
    smith_normal_form,
)
from .posets import SimplicialComplex

COEFF_FIELDS = ("gf2", "rational")


def boundary_matrix(sc: SimplicialComplex, d: int) -> SparseMatrix:
    """d-th boundary map, (d-1)-faces by d-faces; d = 0 is augmentation."""
    if d == 0:
        return SparseMatrix.from_triples(
            1, len(sc.faces[0]), ((0, j, 1) for j in range(len(sc.faces[0])))
        )
    lower = {face: i for i, face in enumerate(sc.faces[d - 1])}
    triples = []
    for j, face in enumerate(sc.faces[d]):
        for i in range(d + 1):
            sub = face[:i] + face[i + 1 :]
            triples.append((lower[sub], j, (-1) ** i))
    return SparseMatrix.from_triples(len(sc.faces[d - 1]), len(sc.faces[d]), triples)


def chain_complex(sc: SimplicialComplex) -> list[SparseMatrix]:
    """Boundary matrices [d_0 (augmentation), d_1, ..., d_dim]."""
    return [boundary_matrix(sc, d) for d in range(sc.dim + 1)]


def check_homology_budget(
    face_counts: list[int], coeff: str, mem_budget: int = DEFAULT_MEM_BUDGET
) -> None:
    """Refuse, from the face counts alone, a complex one of whose boundary
    maps `betti_numbers` (coeff "gf2" or "rational") would refuse to
    eliminate, or `integral_homology` (coeff "integer") to put in Smith
    normal form, with its message."""
    for d, cols in enumerate(face_counts):
        check_rank_budget(face_counts[d - 1] if d else 1, cols, coeff, mem_budget)


def _ranks(sc: SimplicialComplex, coeff: str, mem_budget: int) -> list[int]:
    # every boundary map is checked before the first is eliminated, so a
    # refusal costs no elimination
    check_homology_budget(sc.face_counts(), coeff, mem_budget)
    rank_fn = {"gf2": rank_gf2, "rational": rank_rational}[coeff]
    out = []
    for d in range(sc.dim + 1):
        m = boundary_matrix(sc, d)
        out.append(rank_fn(m, mem_budget=mem_budget) if m.cols and m.rows else 0)
    out.append(0)  # rank of the zero map above top dimension
    return out


def betti_numbers(
    sc: SimplicialComplex,
    coeff: str = "rational",
    reduced: bool = True,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> list[int]:
    """Reduced (default) or unreduced Betti numbers in each dimension.

    Over gf2 these are dimensions of homology with 2-element-field
    coefficients; over the rationals they are the ordinary Betti numbers.
    """
    if coeff not in COEFF_FIELDS:
        raise ValueError(f"coeff must be one of {COEFF_FIELDS}")
    if not sc.faces or not sc.faces[0]:
        return []
    r = _ranks(sc, coeff, mem_budget)
    betti = [len(sc.faces[d]) - r[d] - r[d + 1] for d in range(sc.dim + 1)]
    if not reduced:
        betti[0] += 1  # undo the augmentation
    return betti


@dataclass(frozen=True)
class IntegralHomology:
    """free_rank[d] and torsion[d] (sorted divisibility chain, each > 1)."""

    free_rank: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool

    def describe(self, d: int) -> str:
        parts = []
        if self.free_rank[d]:
            parts.append(f"Z^{self.free_rank[d]}" if self.free_rank[d] > 1 else "Z")
        parts += [f"Z/{t}" for t in self.torsion[d]]
        return " + ".join(parts) if parts else "0"


def integral_homology(sc: SimplicialComplex, reduced: bool = True) -> IntegralHomology:
    """Homology with integer coefficients from Smith normal forms."""
    if not sc.faces or not sc.faces[0]:
        return IntegralHomology((), (), reduced)
    # every boundary map is checked before the first Smith normal form
    check_homology_budget(sc.face_counts(), "integer")
    divisors = []
    for d in range(sc.dim + 1):
        m = boundary_matrix(sc, d)
        divisors.append(smith_normal_form(m) if m.cols else ())
    divisors.append(())
    free = []
    torsion = []
    for d in range(sc.dim + 1):
        r_d = len(divisors[d])
        r_up = len(divisors[d + 1])
        free.append(len(sc.faces[d]) - r_d - r_up)
        torsion.append(tuple(t for t in divisors[d + 1] if t not in (0, 1)))
    if not reduced:
        free[0] += 1
    return IntegralHomology(tuple(free), tuple(torsion), reduced)


def homology_report(
    sc: SimplicialComplex,
    coeff: str = "rational",
    reduced: bool = True,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> dict:
    """JSON-ready summary of face counts, Betti numbers, Euler characteristic,
    over "gf2", "rational" or "integer" (with torsion).

    The budget bounds the rank computations; integral homology is bounded
    by the Smith normal form's size cap instead.
    """
    report = {
        "coeff": coeff,
        "reduced": reduced,
        "face_counts": sc.face_counts(),
        "euler_characteristic": sc.euler_characteristic(),
    }
    if coeff == "integer":
        ih = integral_homology(sc, reduced=reduced)
        report["betti"] = list(ih.free_rank)
        report["torsion"] = [list(t) for t in ih.torsion]
        report["homology"] = [ih.describe(d) for d in range(len(ih.free_rank))]
    else:
        report["betti"] = betti_numbers(
            sc, coeff=coeff, reduced=reduced, mem_budget=mem_budget
        )
    return report
