"""Orbit-space Hilbert-polynomial recursion and the top-level
diagonalizability / formality verdict.

For a formal pattern the Betti polynomial B, the intermediate polynomial
Inter (a sum over proper faces of the clustering lattice) and the
orbit-space polynomial A satisfy B - Inter = A (t-1)^{n-1} exactly, and
A has nonnegative coefficients.  Inter is one sum over the block of
vertex 1, with the Betti polynomials of the rest; the consistency test
turns the same identity plus Poincare duality into a linear system whose
forced consequences can contradict a computed Betti number - that
contradiction is a formality obstruction.

A verdict needs only recognition, plus a lookup in `EVIDENCE` when the
witness has a row there, so the module imports the layers of the evidence
strategies (`homology`, `gkm`) and of the affine solve (`linalg`,
`fractions`) inside the functions that call them; its names for them are
looked up when those functions run.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional

from .graphs import (
    DEFAULT_MEM_BUDGET,
    ComputationBudgetError,
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
from .polynomials import Polynomial, poly_divide_exact

T_MINUS_1 = Polynomial([-1, 1])


def compute_A(g: Graph) -> Polynomial:
    """Orbit-space polynomial A = (B - Inter) / (t-1)^{n-1}.

    Requires a connected indifference graph; memoized per isomorphism
    class.  Single-vertex base case: A = 1.
    """
    if g.n == 1:
        return Polynomial.one()
    return _staircase_A(staircase_key(_staircase_h(g)))


def _staircase_h(g: Graph) -> HessenbergFunction:
    """The Hessenberg function of the connected indifference graph g."""
    result = recognize_indifference(g)
    if isinstance(result, ForbiddenWitness):
        raise GraphInputError("the orbit-space recursion requires an indifference graph")
    return result.h


@lru_cache(maxsize=1024)
def _staircase_A(key: tuple[int, ...]) -> Polynomial:
    """A of the staircase graph of h = key; the key is a complete
    isomorphism invariant, so this is A of every graph with that key."""
    h = HessenbergFunction(key)
    B = betti_polynomial_hessenberg(h)
    inter = inter_polynomial(hessenberg_to_graph(h))
    return poly_divide_exact(B - inter, T_MINUS_1 ** (h.n - 1))


def inter_polynomial(g: Graph) -> Polynomial:
    """Sum over the proper faces of g of multiplicity * A_face * (t-1)^rank.

    Split a face at its block B holding vertex 1.  The other blocks are
    connected, so they form one face of each component K of V - B, and the
    multiplicity n!/prod |block|! and rank sum(|block| - 1) factor the same
    way.  All faces of K, its top face included, sum to B_K: that is the
    identity that defines A_K.  So Inter is the sum over connected B
    containing 1, B != V, of n!/(|B|! prod |K|!) A_B (t-1)^(|B|-1) prod B_K.
    """
    if not g.is_connected():
        raise GraphInputError("intermediate polynomial requires a connected graph")
    out = Polynomial.zero()
    for size in range(g.n - 1):  # vertex 1 and `size` others: never all of V
        for extra in combinations(range(2, g.n + 1), size):
            block = induced_subgraph(g, (1, *extra))
            if block.is_connected():
                rest = induced_subgraph(g, set(range(2, g.n + 1)).difference(extra))
                parts = [induced_subgraph(rest, k) for k in rest.components()]
                scale = math.factorial(g.n) // math.prod(
                    math.factorial(p.n) for p in (block, *parts))
                term = scale * compute_A(block) * T_MINUS_1 ** size
                for p in parts:
                    term = term * betti_polynomial_hessenberg(_staircase_h(p))
                out = out + term
    return out


class ConsistencyResult(NamedTuple):
    consistent: bool
    forced_b2: Optional[Fraction]
    beta2: int
    beta4: int
    system_infeasible: bool = False

    def describe(self) -> str:
        if self.system_infeasible:
            return "linear system infeasible before substitutions"
        if self.consistent:
            return "consistent"
        if self.forced_b2 is None:
            # nothing was forced: the substitution b1 = beta2 itself clashes
            return f"substitution b1 = {self.beta2} is inconsistent with the orbit-space identity"
        return f"forced b2 = {self.forced_b2} contradicts beta4 = {self.beta4}"


def abfp_consistency_test(g: Graph, beta2: int, beta4: int) -> ConsistencyResult:
    """Can b0 = 1, b1 = beta2, b2 = beta4 extend to Betti coefficients
    satisfying the orbit-space identity and Poincare duality?

    Unknowns b_0..b_E and a_0..a_d with d = E - n + 1; the identity
    B - Inter = A (t-1)^{n-1} is imposed coefficientwise, duality as
    b_j = b_{E-j}.  Only forced consequences are compared against beta4,
    so the verdict does not depend on how the solution set is written.
    """
    from fractions import Fraction

    from .linalg import SparseMatrix, solve_affine_system

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
    forced_values = solve_affine_system(a, rhs)
    if forced_values is None:
        # distinguish raw infeasibility from substitution clash
        raw = SparseMatrix.from_triples(
            subst_start, nb + d + 1,
            [t for t in triples if t[0] < subst_start],
        )
        infeasible = solve_affine_system(raw, rhs[:subst_start]) is None
        return ConsistencyResult(False, None, beta2, beta4, system_infeasible=infeasible)
    forced = forced_values.get(2)
    if forced is not None and forced != beta4:
        return ConsistencyResult(False, forced, beta2, beta4)
    return ConsistencyResult(True, forced, beta2, beta4)


class FormalityVerdict(NamedTuple):
    graph: Graph
    verdict: str  # "formal" | "nonformal" | "undetermined"
    certificate: Optional[IndifferenceCertificate]
    witness: Optional[ForbiddenWitness]
    evidence: dict
    # {"strategy": evidence kind, "refused": the budget's sentence} for each
    # strategy the budget refused, in order; printed for an undetermined verdict
    attempts: list

    def to_dict(self) -> dict:
        """The verdict as the CLI prints it, its sequences as lists."""
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
        if self.verdict == "undetermined":
            payload["attempts"] = self.attempts
        return payload


def _skeleton_homology_evidence(wg: Graph, mem_budget: int) -> Optional[dict]:
    """Strategy (a): nonzero reduced H1 of the rank-2 skeleton of the
    witness's cluster-permutohedron.

    Formality forces these skeleta to be acyclic in low degrees over any
    coefficient ring, so a nonzero H1 over the 2-element field (the
    cheapest exact computation) is already an obstruction.
    """
    from .homology import poset_homology

    betti = poset_homology(wg, "cluster", 2, "gf2", mem_budget)["betti"]
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
    from .gkm import gkm_total_betti

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
    from .gkm import equivariant_betti_series, ordinary_betti_from_equivariant

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


# The evidence of each finite witness shape, keyed by (kind, length): the
# dict `_witness_evidence` computes on the shape's model graph under
# DEFAULT_MEM_BUDGET, written out; tests/test_abfp.py recomputes every row.
# C_k with k >= 7 has no row: every strategy exceeds the default budget.
EVIDENCE = {
    ("claw", None): {"kind": "skeleton_homology", "skeleton_rank": 2,
                     "reduced_betti": [0, 2, 1], "h1": 2},
    ("cycle", 4): {"kind": "skeleton_homology", "skeleton_rank": 2,
                   "reduced_betti": [0, 3, 6], "h1": 3},
    ("cycle", 5): {"kind": "skeleton_homology", "skeleton_rank": 2,
                   "reduced_betti": [0, 4, 73], "h1": 4},
    ("cycle", 6): {"kind": "skeleton_homology", "skeleton_rank": 2,
                   "reduced_betti": [0, 5, 904], "h1": 5},
    ("net", None): {"kind": "total_betti_mismatch", "total": 730, "fixed_points": 720,
                    "poincare": [1, 20, 146, 396, 146, 20, 1], "field": "gf2"},
    ("sun3", None): {"kind": "abfp_inconsistency", "beta2": 5, "beta4": 29,
                     "forced_b2": "20", "detail": "forced b2 = 20 contradicts beta4 = 29"},
}


def formality_report(
    g: Graph, mem_budget: int = DEFAULT_MEM_BUDGET
) -> FormalityVerdict:
    """Decide diagonalizability: Formal with a staircase certificate, or
    NonFormal with machine-checkable numeric evidence on the shape of a
    smallest forbidden witness, or undetermined if every strategy exceeds
    the budget.

    The evidence of a witness with a row in `EVIDENCE` is a copy of that
    row, whatever the budget; only a witness without one (a cycle of
    length 7 or more) goes to `_witness_evidence` and the budget.
    """
    if not g.is_connected():
        raise GraphInputError("formality verdict requires a connected graph")
    result = recognize_indifference(g)
    if isinstance(result, IndifferenceCertificate):
        return FormalityVerdict(g, "formal", result, None, {}, [])
    witness = result
    row = EVIDENCE.get((witness.kind, witness.length))
    if row is not None:
        # copied: a caller may change its verdict's lists, not the table's
        evidence = {key: list(v) if isinstance(v, list) else v for key, v in row.items()}
    else:
        evidence, attempts = _witness_evidence(witness.kind, witness.length, mem_budget)
        if evidence is None:
            return FormalityVerdict(g, "undetermined", None, witness, {}, attempts)
    return FormalityVerdict(g, "nonformal", None, witness, evidence, [])


def _witness_evidence(
    kind: str, length: Optional[int], mem_budget: int
) -> tuple[Optional[dict], list[dict]]:
    """Evidence computed on the model graph of a witness shape, or None when
    every strategy exceeds the budget, with the refusals met on the way.
    Every evidence field is an isomorphism invariant of the witness, so the
    shape and the budget determine it.  This is how an `EVIDENCE` row is
    recomputed, and the verdict path of a shape without a row.

    The strategies run in an order fixed per witness kind, not by cost:
    skeleton homology, then the moment-graph total Betti number, then the
    orbit-space test (the total runs first on the net too, where it is the
    slower).  The skeleton-homology obstruction is attempted only for claw
    and cycle witnesses, where the rank-2 skeleton carries nonzero H1; the
    rank-2 skeleta of the net and the 3-sun have no H1 over GF(2), so only
    the moment-graph and orbit-space strategies are tried there.  They are
    looked up when this runs, not when the module is imported, so a
    rebinding of their names is seen.
    """
    wg = named_graph(kind, length)
    skeleton = ("skeleton_homology", _skeleton_homology_evidence)
    total = ("total_betti_mismatch", _total_betti_evidence)
    orbit = ("abfp_inconsistency", _abfp_evidence)
    strategies = {
        "claw": (skeleton, total, orbit),
        "cycle": (skeleton, total, orbit),
        "net": (total, orbit),
        "sun3": (total, orbit),
    }[kind]
    attempts = []
    for name, strategy in strategies:
        try:
            evidence = strategy(wg, mem_budget)
        except ComputationBudgetError as exc:
            attempts.append({"strategy": name, "refused": str(exc)})
            continue
        if evidence is not None:
            return evidence, attempts
    if attempts:
        return None, attempts
    raise AssertionError(
        "forbidden witness present but no obstruction found"
    )  # pragma: no cover
