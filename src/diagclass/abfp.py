"""Orbit-space Hilbert-polynomial recursion and the top-level
diagonalizability / formality verdict.

For a formal pattern the Betti polynomial B, the intermediate polynomial
Inter (a sum over proper faces of the clustering lattice) and the
orbit-space polynomial A satisfy B - Inter = A (t-1)^{n-1} exactly, and
A has nonnegative coefficients.  The recursion computes A bottom-up over
faces; the consistency test turns the same identity plus Poincare
duality into a linear system whose forced consequences can contradict a
computed Betti number - that contradiction is a formality obstruction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .gkm import (
    equivariant_betti_series,
    gkm_total_betti,
    ordinary_betti_from_equivariant,
)
from .graphs import (
    ForbiddenWitness,
    Graph,
    GraphInputError,
    induced_subgraph,
    named_graph,
)
from .hessenberg import (
    HessenbergFunction,
    IndifferenceCertificate,
    betti_polynomial_hessenberg,
    hessenberg_to_graph,
    recognize_indifference,
    staircase_key,
)
from .homology import betti_numbers, check_homology_budget
from .linalg import (
    DEFAULT_MEM_BUDGET,
    ComputationBudgetError,
    SparseMatrix,
    solve_affine_system,
)
from .polynomials import Polynomial, poly_divide_exact
from .posets import (
    Clustering,
    all_clusterings,
    assignment_multiplicity,
    cluster_permutohedron,
    clustering_rank,
    order_complex,
    skeleton_face_counts,
)

T_MINUS_1 = Polynomial([-1, 1])


def compute_A(g: Graph) -> Polynomial:
    """Orbit-space polynomial A = (B - Inter) / (t-1)^{n-1}.

    Requires a connected indifference graph; memoized per isomorphism
    class.  Single-vertex base case: A = 1.
    """
    if g.n == 1:
        return Polynomial.one()
    result = recognize_indifference(g)
    if isinstance(result, ForbiddenWitness):
        raise GraphInputError("compute_A requires an indifference graph")
    return _staircase_A(staircase_key(result.h))


@lru_cache(maxsize=1024)
def _staircase_A(key: tuple[int, ...]) -> Polynomial:
    """A of the staircase graph of h = key; the key is a complete
    isomorphism invariant, so this is A of every graph with that key."""
    h = HessenbergFunction(key)
    B = betti_polynomial_hessenberg(h)
    inter = inter_polynomial(hessenberg_to_graph(h))
    return poly_divide_exact(B - inter, T_MINUS_1 ** (h.n - 1))


def _face_A(c: Clustering, g: Graph) -> Polynomial:
    """A of a product face: product of the factors' A polynomials."""
    out = Polynomial.one()
    for block in sorted(c, key=min):
        out = out * compute_A(induced_subgraph(g, block))
    return out


def inter_polynomial(g: Graph) -> Polynomial:
    """Sum over proper faces of A_face (t-1)^{rank}, with assignment
    multiplicities; faces grouped by clustering."""
    if not g.is_connected():
        raise GraphInputError("intermediate polynomial requires a connected graph")
    out = Polynomial.zero()
    for c in all_clusterings(g).labels:
        if len(c) == 1:
            continue  # the top face is the manifold itself, not a proper face
        term = _face_A(c, g) * (T_MINUS_1 ** clustering_rank(c, g.n))
        out = out + assignment_multiplicity(c, g.n) * term
    return out


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    forced_b2: Optional[Fraction]
    beta4: int
    system_infeasible: bool = False

    def describe(self) -> str:
        if self.system_infeasible:
            return "linear system infeasible before substitutions"
        if self.consistent:
            return "consistent"
        return f"forced b2 = {self.forced_b2} contradicts beta4 = {self.beta4}"


def abfp_consistency_test(g: Graph, beta2: int, beta4: int) -> ConsistencyResult:
    """Can b0 = 1, b1 = beta2, b2 = beta4 extend to Betti coefficients
    satisfying the orbit-space identity and Poincare duality?

    Unknowns b_0..b_E and a_0..a_d with d = E - n + 1; the identity
    B - Inter = A (t-1)^{n-1} is imposed coefficientwise, duality as
    b_j = b_{E-j}.  Only forced consequences are compared against beta4,
    so the verdict does not depend on how the solution set is written.
    """
    n, E = g.n, g.num_edges
    d = E - (n - 1)
    if d < 0:
        raise GraphInputError("pattern has fewer edges than a spanning tree")
    inter = inter_polynomial(g)
    shift = [(T_MINUS_1 ** (n - 1)) * Polynomial.monomial(j) for j in range(d + 1)]
    nb = E + 1
    triples = []
    rhs: list[Fraction] = []
    row = 0
    # coefficient identity, degrees 0..E: b_j - sum_i a_i [(t-1)^{n-1} t^i]_j = Inter_j
    for j in range(E + 1):
        triples.append((row, j, 1))
        for i in range(d + 1):
            coef = shift[i][j]
            if coef:
                triples.append((row, nb + i, -coef))
        rhs.append(Fraction(inter[j]))
        row += 1
    # duality
    for j in range((E + 1) // 2):
        if j != E - j:
            triples.append((row, j, 1))
            triples.append((row, E - j, -1))
            rhs.append(Fraction(0))
            row += 1
    subst_start = row
    for col, value in ((0, 1), (1, beta2)):
        triples.append((row, col, 1))
        rhs.append(Fraction(value))
        row += 1
    a = SparseMatrix.from_triples(row, nb + d + 1, triples)
    sol = solve_affine_system(a, rhs)
    if not sol.consistent:
        # distinguish raw infeasibility from substitution clash
        raw = SparseMatrix.from_triples(
            subst_start, nb + d + 1,
            [t for t in triples if t[0] < subst_start],
        )
        raw_sol = solve_affine_system(raw, rhs[:subst_start])
        return ConsistencyResult(False, None, beta4, system_infeasible=not raw_sol.consistent)
    forced = sol.forced_coordinate(2)
    if forced is not None and forced != beta4:
        return ConsistencyResult(False, forced, beta4)
    return ConsistencyResult(True, forced, beta4)


@dataclass(frozen=True)
class FormalityVerdict:
    graph: Graph
    verdict: str  # "formal" | "nonformal" | "undetermined"
    certificate: Optional[IndifferenceCertificate] = None
    witness: Optional[ForbiddenWitness] = None
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "verdict": self.verdict,
        }
        if self.certificate is not None:
            payload["certificate"] = {
                "ordering": list(self.certificate.ordering),
                "h": list(self.certificate.h.h),
            }
        if self.witness is not None:
            payload["witness"] = {
                "kind": self.witness.describe(),
                "vertices": sorted(self.witness.vertices),
            }
        payload["evidence"] = self.evidence
        return json.dumps(payload)


def _skeleton_homology_evidence(wg: Graph, mem_budget: int) -> Optional[dict]:
    """Strategy (a): nonzero reduced H1 of the rank-2 skeleton of the
    witness's cluster-permutohedron.

    Formality forces these skeleta to be acyclic in low degrees over any
    coefficient ring, so a nonzero H1 over the 2-element field (the
    cheapest exact computation) is already an obstruction.
    """
    # the shapes are refused before the poset is built
    check_homology_budget(skeleton_face_counts(wg, "cluster", 2), "gf2", mem_budget)
    cp = cluster_permutohedron(wg, max_rank=2)
    betti = betti_numbers(order_complex(cp), coeff="gf2", mem_budget=mem_budget)
    h1 = betti[1] if len(betti) > 1 else 0
    if h1 == 0:
        return None
    return {
        "kind": "skeleton_homology",
        "skeleton_rank": 2,
        "reduced_betti": betti,
        "h1": h1,
    }


def _total_betti_evidence(wg: Graph, mem_budget: int) -> Optional[dict]:
    """Strategy (b): pipeline total Betti number differs from n!."""
    report = gkm_total_betti(wg, field="gf2", mem_budget=mem_budget)
    fixed_points = math.factorial(wg.n)
    if report.total is not None and report.total != fixed_points:
        return {
            "kind": "total_betti_mismatch",
            "total": report.total,
            "fixed_points": fixed_points,
            "poincare": list(report.poincare),
            "field": "gf2",
        }
    if report.duality_violation or report.negative_coefficient:
        return {
            "kind": "total_betti_mismatch",
            "total": None,
            "duality_violation": report.duality_violation,
            "negative_coefficient": report.negative_coefficient,
            "ordinary_low_degrees": list(report.ordinary_low),
            "fixed_points": fixed_points,
            "field": "gf2",
        }
    return None


def _abfp_evidence(wg: Graph, mem_budget: int) -> Optional[dict]:
    """Strategy (c): the consistency test contradicts a computed beta4."""
    dims = equivariant_betti_series(wg, 2, field="gf2", mem_budget=mem_budget)
    low = ordinary_betti_from_equivariant(dims, wg.n)
    result = abfp_consistency_test(wg, low[1], low[2])
    if result.consistent:
        return None
    return {
        "kind": "abfp_inconsistency",
        "beta2": low[1],
        "beta4": low[2],
        "forced_b2": str(result.forced_b2),
        "detail": result.describe(),
    }


def formality_report(
    g: Graph, mem_budget: int = DEFAULT_MEM_BUDGET
) -> FormalityVerdict:
    """Decide diagonalizability: Formal with a staircase certificate, or
    NonFormal with machine-checkable numeric evidence on the shape of a
    smallest forbidden witness, or undetermined if every strategy exceeds
    the budget.

    Strategies run cheapest-first.  The skeleton-homology obstruction is
    attempted for claw and cycle witnesses, where the rank-2 skeleton
    carries nonzero H1; for the other two witness shapes those skeleta
    are acyclic in low degrees, so the moment-graph and orbit-space
    strategies go first there.
    """
    if not g.is_connected():
        raise GraphInputError("formality verdict requires a connected graph")
    result = recognize_indifference(g)
    if isinstance(result, IndifferenceCertificate):
        return FormalityVerdict(g, "formal", certificate=result)
    witness = result
    evidence = _witness_evidence(witness.kind, witness.length, mem_budget)
    if evidence is None:
        return FormalityVerdict(g, "undetermined", witness=witness)
    return FormalityVerdict(g, "nonformal", witness=witness, evidence=evidence)


@lru_cache(maxsize=1024)
def _witness_evidence(kind: str, length: Optional[int], mem_budget: int) -> Optional[dict]:
    """Evidence computed on the model graph of a witness shape, or None when
    every strategy exceeds the budget.  Every evidence field is an
    isomorphism invariant of the witness, so the shape and the budget
    determine it.

    The strategies are looked up when this runs, not when the module is
    imported, so a rebinding of their names is seen.
    """
    wg = named_graph(kind, length)
    heavy = (_total_betti_evidence, _abfp_evidence)
    if kind in ("claw", "cycle"):
        strategies = (_skeleton_homology_evidence, *heavy)
    else:
        strategies = (*heavy, _skeleton_homology_evidence)
    budget_hit = False
    for strategy in strategies:
        try:
            evidence = strategy(wg, mem_budget)
        except ComputationBudgetError:
            budget_hit = True
            continue
        if evidence is not None:
            return evidence
    if budget_hit:
        return None
    raise AssertionError(
        "forbidden witness present but no obstruction found"
    )  # pragma: no cover
