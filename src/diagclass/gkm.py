"""Moment-graph computation of equivariant and ordinary Betti numbers
for the isospectral manifold of a sparsity pattern.

Vertices are the n! permutations; sigma and sigma.t_pq are joined for
every edge {p,q} of the pattern, with weight x_p - x_q.  The degree-i
piece of equivariant cohomology is the kernel of the difference-and-
restrict map L_i sending a tuple of degree-i polynomials (one per
vertex) to, for each moment-graph edge, the difference of its endpoint
polynomials reduced modulo the edge weight (substitute x_q := x_p).

For a formal action the kernel dimensions determine the ordinary Betti
numbers by series expansion; for non-formal actions the same pipeline
still runs and its output is diagnostic (negative coefficients or a
broken Poincare palindrome are red flags, not Betti numbers).
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Optional

from .graphs import Graph, GraphInputError
from .linalg import (
    ComputationBudgetError,
    DEFAULT_MEM_BUDGET,
    SparseMatrix,
    gf2_packed_bytes,
    rank_gf2,
    rank_rational,
    rational_rank_bytes,
)
from .polynomials import Polynomial, series_expand_product

FIELDS = ("gf2", "rational")


@dataclass(frozen=True)
class GkmGraph:
    """Moment graph: permutation vertices, transposition edges with weights."""

    n: int
    perms: tuple[tuple[int, ...], ...]
    # (tail index, head index, (p, q)); weight of the edge is x_p - x_q
    edges: tuple[tuple[int, int, tuple[int, int]], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.perms)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def reoriented(self, rng: random.Random) -> "GkmGraph":
        """Random flip of edge orientations (kernel dims must not change)."""
        flipped = tuple(
            (v, u, pq) if rng.random() < 0.5 else (u, v, pq)
            for u, v, pq in self.edges
        )
        return GkmGraph(self.n, self.perms, flipped)

    def to_dot(self) -> str:
        lines = ["graph gkm {"]
        for i, p in enumerate(self.perms):
            lines.append(f'  v{i} [label="{"".join(map(str, p))}"];')
        for u, v, (p, q) in self.edges:
            lines.append(f'  v{u} -- v{v} [label="x{p}-x{q}"];')
        lines.append("}")
        return "\n".join(lines)


def build_gkm_graph(g: Graph) -> GkmGraph:
    """Cayley-type moment graph; tail of each edge is the lexicographically
    smaller one-line permutation."""
    if not g.is_connected():
        raise GraphInputError("moment graph requires a connected pattern")
    n = g.n
    perms = tuple(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    edges = []
    for p, q in g.sorted_edges():
        for i, sigma in enumerate(perms):
            tau = list(sigma)
            tau[p - 1], tau[q - 1] = tau[q - 1], tau[p - 1]
            j = index[tuple(tau)]
            if i < j:
                edges.append((i, j, (p, q)))
    edges.sort()
    return GkmGraph(n=n, perms=perms, edges=tuple(edges))


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree `degree` in `nvars` variables."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def num_monomials(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree - 1, degree)


def kernel_matrix(gg: GkmGraph, degree: int) -> SparseMatrix:
    """The map L_degree as a sparse integer matrix.

    Columns: (vertex, degree-i monomial in n variables).
    Rows: (edge, degree-i monomial in n-1 variables).
    Each edge u -> v puts +1 at column (u, m) and -1 at column (v, m) of
    row (edge, m with x_q := x_p) for every monomial m; the columns of one
    vertex are distinct monomials, so no two entries share a cell.
    """
    n = gg.n
    mons = monomials(n, degree)
    mcols = len(mons)
    mrows = num_monomials(n - 1, degree)
    reduced_index = {m: i for i, m in enumerate(monomials(n - 1, degree))}

    # substitution tables per pattern edge: x_q := x_p, then drop slot q
    subst: dict[tuple[int, int], list[int]] = {}
    for _, _, pq in gg.edges:
        if pq in subst:
            continue
        p, q = pq
        table = []
        for exp in mons:
            merged = list(exp)
            merged[p - 1] += merged[q - 1]
            del merged[q - 1]
            table.append(reduced_index[tuple(merged)])
        subst[pq] = table

    row, col = array("q"), array("q")
    for e, (u, v, pq) in enumerate(gg.edges):
        base, ucol, vcol = e * mrows, u * mcols, v * mcols
        for m, t in enumerate(subst[pq]):
            row.extend((base + t, base + t))
            col.extend((ucol + m, vcol + m))
    val = array("q", (1, -1)) * (gg.num_edges * mcols)
    return SparseMatrix(gg.num_edges * mrows, gg.num_vertices * mcols, row, col, val)


def equivariant_betti(
    gg: GkmGraph,
    degree: int,
    field: str = "gf2",
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> int:
    """dim of the degree-`degree` equivariant cohomology = dim ker L_degree."""
    m = kernel_matrix(gg, degree)
    if field == "gf2":
        rank = rank_gf2(m, mem_budget=mem_budget)
    elif field == "rational":
        rank = rank_rational(m, mem_budget=mem_budget)
    else:
        raise ValueError(f"field must be one of {FIELDS}")
    return m.cols - rank


def equivariant_betti_series(
    g: Graph,
    max_degree: int,
    field: str = "gf2",
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> list[int]:
    """[dim ker L_0, ..., dim ker L_max_degree] for a pattern graph; the
    budget is checked before the moment graph is built."""
    check_kernel_budget(g, max_degree, field, mem_budget)
    gg = build_gkm_graph(g)
    return [
        equivariant_betti(gg, i, field=field, mem_budget=mem_budget)
        for i in range(max_degree + 1)
    ]


def ordinary_betti_from_equivariant(
    dims: list[int], k: int, r: Optional[int] = None
) -> list[int]:
    """beta_0, beta_2, ..., beta_2r as the expansion of (sum dims t^i)(1-t)^k.

    k is the torus rank; the noneffective convention k = n matches the
    matrix sizes used throughout this module.  Valid only up to the
    degree the equivariant dimensions cover.
    """
    if r is None:
        r = len(dims) - 1
    if r >= len(dims):
        raise ValueError("not enough equivariant dimensions for that degree")
    return list(series_expand_product(Polynomial(dims), k, r))


def kernel_matrix_shape(n: int, pattern_edges: int, degree: int) -> tuple[int, int]:
    """(rows, cols) of L_degree without building it."""
    rows = num_monomials(n - 1, degree) * math.factorial(n) * pattern_edges // 2
    cols = num_monomials(n, degree) * math.factorial(n)
    return rows, cols


# field -> (bytes the rank kernel is charged for a shape, how they are held)
_KERNEL_CHARGE = {
    "gf2": (gf2_packed_bytes, "packed"),
    "rational": (rational_rank_bytes, "for its rank over Q"),
}


def check_kernel_budget(g: Graph, max_degree: int, field: str, mem_budget: int) -> None:
    """Refuse, before the n! moment graph is built, if the rank over `field`
    of any of L_0..L_max_degree would be charged more than the budget."""
    if field not in _KERNEL_CHARGE:
        raise ValueError(f"field must be one of {FIELDS}")
    charge, held = _KERNEL_CHARGE[field]
    for i in range(max_degree + 1):
        rows, cols = kernel_matrix_shape(g.n, g.num_edges, i)
        need = charge(rows, cols)
        if need > mem_budget:
            raise ComputationBudgetError(
                f"L_{i} needs a {rows}x{cols} matrix "
                f"({need} bytes {held}), budget {mem_budget}"
            )


def known_betti_vector(g: Graph) -> Optional[tuple[int, ...]]:
    """Full Betti vector (all cohomological degrees, odd included) for
    patterns whose isospectral space has published homology independent
    of the coefficient ring.  Currently: the 3-star, whose orbit space
    is a solid torus.  Returns None when no reference value is on file."""
    # the claw is the only graph on 4 vertices with degrees (3, 1, 1, 1)
    if g.n == 4 and sorted(map(g.degree, g.vertices())) == [1, 1, 1, 3]:
        return (1, 1, 12, 0, 12, 1, 1)
    return None


@dataclass(frozen=True)
class GkmBettiReport:
    graph: Graph
    field: str
    equivariant: tuple[int, ...]
    ordinary_low: tuple[int, ...]  # beta_{2i} for i = 0..half
    poincare: Optional[tuple[int, ...]]  # palindromic completion, or None
    total: Optional[int]
    negative_coefficient: bool
    duality_violation: bool
    reference_vector: Optional[tuple[int, ...]]  # published value, if any
    reference_total: Optional[int]

    @property
    def undetermined(self) -> bool:
        return self.total is None and self.reference_total is None

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.graph.n,
                "edges": [list(e) for e in self.graph.sorted_edges()],
                "field": self.field,
                "equivariant_dims": list(self.equivariant),
                "ordinary_low_degrees": list(self.ordinary_low),
                "poincare_coefficients": (
                    list(self.poincare) if self.poincare is not None else None
                ),
                "total": self.total,
                "negative_coefficient": self.negative_coefficient,
                "duality_violation": self.duality_violation,
                "reference_vector": (
                    list(self.reference_vector)
                    if self.reference_vector is not None
                    else None
                ),
                "reference_total": self.reference_total,
            }
        )


def gkm_total_betti(
    g: Graph,
    field: str = "gf2",
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> GkmBettiReport:
    """Total Betti number via low-degree kernels plus Poincare duality.

    The Poincare polynomial (in the t = degree/2 variable) has degree
    |E|; kernels up to ceil(|E|/2) determine the rest by the palindrome
    b_j = b_{|E|-j}.  A negative expansion coefficient or a palindrome
    mismatch inside the computed range means the numbers cannot be Betti
    numbers of a formal action; the pipeline total is then left
    undetermined and only a published reference value (if any) is
    reported.
    """
    top = g.num_edges
    half = (top + 1) // 2
    dims = equivariant_betti_series(g, half, field=field, mem_budget=mem_budget)
    low = ordinary_betti_from_equivariant(dims, g.n)
    negative = any(c < 0 for c in low)
    mirror = any(
        top - j <= half and low[j] != low[top - j] for j in range(half + 1)
    )
    ref = known_betti_vector(g)
    ref_total = sum(ref) if ref is not None else None
    if negative or mirror:
        return GkmBettiReport(
            g, field, tuple(dims), tuple(low), None, None, negative, mirror,
            ref, ref_total,
        )
    full = list(low) + [low[top - j] for j in range(half + 1, top + 1)]
    return GkmBettiReport(
        g, field, tuple(dims), tuple(low), tuple(full), sum(full),
        False, False, ref, ref_total,
    )
