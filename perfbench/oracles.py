"""Output checks for the pipeline benchmark, independent of the package.

Each check takes an item and the stdout/stderr of its finished CLI call and
returns None when the output is right, or a one-line reason when it is
wrong.  The checks use networkx and plain arithmetic; they import nothing
from `diagclass`.

- Certificates are re-checked by relabelling the input pattern.
- Witnesses must induce the named shape (networkx isomorphism).
- `batch-hessenberg` rows are checked against a brute-force inversion
  count, an isomorphism test against the staircase of h, and the number of
  connected unit interval graphs from the networkx graph atlas.
- Homology must satisfy the reduced Euler characteristic identity and
  match the pinned Betti numbers and torsion.
- Moment-graph reports must be the series expansion of their own
  equivariant dimensions and match the pinned values.
"""

from __future__ import annotations

import csv
import json
import math
import re
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Optional

import networkx as nx

from workloads import CLAW, NET, SUN3, FORK, BULL, Item, Pattern, cycle, staircase, star


def _graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return g


def _nx(p: Pattern) -> nx.Graph:
    return _graph(p.n, p.edges)


def _same_pattern(rep: dict, p: Pattern) -> bool:
    return rep.get("n") == p.n and sorted(map(tuple, rep.get("edges", []))) == list(p.edges)


def _pinned(table: dict, p: Pattern, *key):
    """Pinned value for the pattern's isomorphism class, or None."""
    g = _nx(p)
    for (model, *rest), value in table.items():
        if tuple(rest) == key and nx.is_isomorphic(g, _nx(model)):
            return value
    return None


# -- formality ------------------------------------------------------------

WITNESS_MODELS = {"Claw": CLAW, "Net": NET, "Sun3": SUN3}

# Reduced Betti numbers, over the 2-element field, of the rank-2 skeleton
# of the witness's cluster-permutohedron.  The claw's is the 2-torus.
SKELETON_BETTI = {
    (CLAW,): [0, 2, 1],
    (cycle(4),): [0, 3, 6],
    (cycle(5),): [0, 4, 73],
    (cycle(6),): [0, 5, 904],
}


def _witness_model(kind: str) -> Optional[Pattern]:
    m = re.fullmatch(r"Cycle\((\d+)\)", kind)
    if m:
        return cycle(int(m.group(1)))
    return WITNESS_MODELS.get(kind)


def _check_certificate(p: Pattern, cert: dict) -> Optional[str]:
    ordering, h = cert.get("ordering"), cert.get("h")
    n = p.n
    if sorted(ordering) != list(range(1, n + 1)):
        return "certificate ordering is not a permutation"
    if len(h) != n or any(not (i <= h[i - 1] <= n) for i in range(1, n + 1)):
        return "certificate h out of range"
    if any(h[i] > h[i + 1] for i in range(n - 1)):
        return "certificate h is not weakly increasing"
    label = {v: k for k, v in enumerate(ordering, start=1)}
    relabelled = sorted(tuple(sorted((label[i], label[j]))) for i, j in p.edges)
    if relabelled != sorted(staircase(h)):
        return "relabelled pattern is not the staircase of h"
    return None


def _check_evidence(wmodel: Pattern, ev: dict) -> Optional[str]:
    kind = ev.get("kind")
    if kind == "skeleton_homology":
        betti = ev["reduced_betti"]
        if ev["h1"] != betti[1] or betti[1] <= 0:
            return "skeleton evidence without nonzero H1"
        pin = _pinned(SKELETON_BETTI, wmodel)
        if pin is not None and betti != pin:
            return f"skeleton Betti {betti} != pinned {pin}"
        return None
    if kind == "abfp_inconsistency":
        if str(ev["forced_b2"]) == str(ev["beta4"]):
            return "orbit-space evidence is not a contradiction"
        if nx.is_isomorphic(_nx(wmodel), _nx(SUN3)):
            if (ev["beta2"], ev["beta4"], str(ev["forced_b2"])) != (5, 29, "20"):
                return f"sun3 orbit-space evidence {ev} != pinned (5, 29, 20)"
        return None
    if kind == "total_betti_mismatch":
        if ev["fixed_points"] != math.factorial(wmodel.n):
            return "fixed-point count is not n!"
        if ev["total"] is not None and ev["total"] == ev["fixed_points"]:
            return "total Betti evidence without a mismatch"
        if ev["total"] is None and not (ev["duality_violation"] or ev["negative_coefficient"]):
            return "total Betti evidence without a red flag"
        if nx.is_isomorphic(_nx(wmodel), _nx(NET)) and ev["total"] != 730:
            return f"net total {ev['total']} != pinned 730"
        return None
    return f"unknown evidence kind {kind!r}"


def check_formality(item: Item, out: str, err: str) -> Optional[str]:
    rep = json.loads(out)
    p = item.pattern
    if not _same_pattern(rep, p):
        return "report does not echo the input pattern"
    verdict = rep.get("verdict")
    if item.expect.get("verdict", verdict) != verdict:
        return f"verdict {verdict!r}, expected {item.expect['verdict']!r}"
    if verdict == "formal":
        return _check_certificate(p, rep["certificate"])
    if verdict != "nonformal":
        return f"unexpected verdict {verdict!r}"
    wit = rep["witness"]
    model = _witness_model(wit["kind"])
    vs = wit["vertices"]
    if model is None or len(set(vs)) != model.n or not set(vs) <= set(range(1, p.n + 1)):
        return f"bad witness {wit}"
    if not nx.is_isomorphic(_nx(p).subgraph(vs), _nx(model)):
        return f"witness vertices {vs} do not induce {wit['kind']}"
    return _check_evidence(model, rep["evidence"])


# -- moment graph ---------------------------------------------------------

# (pattern, field) -> equivariant dimensions, degrees 0..ceil(|E|/2)
GKM_DIMS = {
    (CLAW, "gf2"): (1, 13, 61),
    (NET, "gf2"): (1, 26, 287, 1748),
    (star(4), "rational"): (1, 21, 161),
    (star(4), "gf2"): (1, 21, 161),
    (cycle(4), "rational"): (1, 7, 35),
}
GKM_TOTAL = {(NET, "gf2"): 730, (star(4), "rational"): 100, (star(4), "gf2"): 100,
             (cycle(4), "rational"): 21}
# published Betti vector of the 3-star (orbit space a solid torus)
GKM_REFERENCE = {(CLAW,): (1, 1, 12, 0, 12, 1, 1)}


def _expand(dims: list[int], k: int, r: int) -> list[int]:
    """First r+1 coefficients of (sum dims_i t^i) (1-t)^k."""
    out = [0] * (r + 1)
    for i, d in enumerate(dims):
        for j in range(0, r + 1 - i):
            out[i + j] += d * (-1) ** j * math.comb(k, j)
    return out


def check_gkm(item: Item, out: str, err: str) -> Optional[str]:
    rep = json.loads(out)
    p = item.pattern
    if not _same_pattern(rep, p):
        return "report does not echo the input pattern"
    top = len(p.edges)
    half = (top + 1) // 2
    dims = rep["equivariant_dims"]
    if len(dims) != half + 1 or dims[0] != 1:
        return f"equivariant dims {dims} malformed"
    low = _expand(dims, p.n, half)
    if rep["ordinary_low_degrees"] != low:
        return "ordinary Betti numbers are not the expansion of the dims"
    negative = any(c < 0 for c in low)
    mirror = any(top - j <= half and low[j] != low[top - j] for j in range(half + 1))
    if (rep["negative_coefficient"], rep["duality_violation"]) != (negative, mirror):
        return "red flags disagree with the expansion"
    if negative or mirror:
        if rep["poincare_coefficients"] is not None or rep["total"] is not None:
            return "total reported despite a red flag"
    else:
        full = low + [low[top - j] for j in range(half + 1, top + 1)]
        if rep["poincare_coefficients"] != full or rep["total"] != sum(full):
            return "Poincare completion or total is wrong"
    field = rep["field"]
    pin = _pinned(GKM_DIMS, p, field)
    if pin is not None and tuple(dims) != pin:
        return f"equivariant dims {dims} != pinned {list(pin)}"
    total = _pinned(GKM_TOTAL, p, field)
    if total is not None and rep["total"] != total:
        return f"total {rep['total']} != pinned {total}"
    ref = _pinned(GKM_REFERENCE, p)
    got = rep["reference_vector"]
    if (tuple(got) if got is not None else None) != ref:
        return f"reference vector {got} != {ref}"
    if rep["reference_total"] != (sum(ref) if ref else None):
        return "reference total is not the sum of the reference vector"
    return None


def _num_monomials(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree - 1, degree)


def check_gkm_refused(item: Item, out: str, err: str) -> Optional[str]:
    """Exit 3 naming the first L_i whose packed matrix exceeds the budget.

    L_i has one row per (moment-graph edge, degree-i monomial in n-1
    variables) and one column per (permutation, degree-i monomial in n
    variables); packed, each row takes ceil(cols/64) 64-bit words.
    """
    if out.strip():
        return "refused call printed a report"
    p, budget = item.pattern, item.expect["budget"]
    n, top = p.n, len(p.edges)
    for i in range((top + 1) // 2 + 1):
        rows = _num_monomials(n - 1, i) * math.factorial(n) * top // 2
        cols = _num_monomials(n, i) * math.factorial(n)
        need = rows * ((cols + 63) // 64) * 8
        if need > budget:
            break
    else:
        return "no degree exceeds the budget, but the call was refused"
    want = (f"budget exceeded: L_{i} needs a {rows}x{cols} matrix "
            f"({need} bytes packed), budget {budget}")
    if want not in err:
        return f"refusal message does not name L_{i} ({rows}x{cols}, {need} bytes)"
    return None


# -- cell complexes -------------------------------------------------------

# (pattern, poset, skeleton, coeff) -> (reduced Betti, torsion); torsion is
# None for field coefficients
HOMOLOGY = {
    (cycle(5), "cluster", None, "gf2"): ([0, 0, 0, 0, 0], None),
    (cycle(5), "cluster", 3, "gf2"): ([0, 4, 6, 8], None),
    (FORK, "cluster", 3, "integer"): ([0, 0, 5, 1], [[], [], [], []]),
    (cycle(4), "cluster", None, "rational"): ([0, 0, 0, 0], None),
    (CLAW, "graphic", None, "rational"): ([0, 0, 0, 0], None),
    (FORK, "cluster", None, "integer"): ([0, 0, 0, 0, 0], [[], [], [], [], []]),
    (cycle(4), "graphic", None, "rational"): ([0, 0, 0, 0, 0], None),
    (BULL, "cluster", 2, "integer"): ([0, 0, 69], [[], [], []]),
    (CLAW, "cluster", None, "integer"): ([0, 0, 0, 0], [[], [], [], []]),
}


def _components(n: int, edges) -> list[int]:
    return [len(c) for c in nx.connected_components(_graph(n, edges))]


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def poset_size(p: Pattern, poset: str, skel: Optional[int]) -> int:
    """Elements of the cluster-permutohedron or graphicahedron of rank <= skel.

    A face is a connected partition (or an edge subset, through its
    components) with a distribution of the labels 1..n over its blocks:
    n! / prod |B|! of them.
    """
    g = _nx(p)
    if poset == "cluster":
        blockings = [
            [len(b) for b in part]
            for part in _set_partitions(list(range(1, p.n + 1)))
            if all(nx.is_connected(g.subgraph(b)) for b in part)
        ]
    else:
        blockings = [
            _components(p.n, sub)
            for k in range(len(p.edges) + 1)
            for sub in combinations(p.edges, k)
        ]
    total = 0
    for sizes in blockings:
        if skel is None or p.n - len(sizes) <= skel:
            total += math.factorial(p.n) // math.prod(math.factorial(s) for s in sizes)
    return total


def check_homology(item: Item, out: str, err: str) -> Optional[str]:
    rep = json.loads(out)
    p, poset, skel = item.pattern, item.expect["poset"], item.expect["skeleton"]
    faces, betti = rep["face_counts"], rep["betti"]
    if rep["poset"] != poset or rep["skeleton"] != skel or rep["reduced"] is not True:
        return "report does not echo the request"
    chi = sum((-1) ** d * f for d, f in enumerate(faces))
    if rep["euler_characteristic"] != chi:
        return "Euler characteristic is not the alternating face count"
    if len(betti) != len(faces) or sum((-1) ** d * b for d, b in enumerate(betti)) != chi - 1:
        return "reduced Euler characteristic identity fails"
    size = poset_size(p, poset, skel)
    if rep["elements"] != size or faces[0] != size:
        return f"poset has {rep['elements']} elements, expected {size}"
    pin = _pinned(HOMOLOGY, p, poset, skel, rep["coeff"])
    if pin is None:
        return None
    want_betti, want_torsion = pin
    if betti != want_betti:
        return f"Betti {betti} != pinned {want_betti}"
    if want_torsion is not None and rep.get("torsion") != want_torsion:
        return f"torsion {rep.get('torsion')} != pinned {want_torsion}"
    return None


# -- batch-hessenberg -----------------------------------------------------

def parse_poly(text: str) -> list[int]:
    """Coefficients of '3 + t - 2*t^4' style text, ascending."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = re.fullmatch(r"(-?)(\d*)\*?(t(?:\^(\d+))?)?", term.strip())
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError(f"bad polynomial term {term!r}")
        sign = -1 if m.group(1) else 1
        c = int(m.group(2)) if m.group(2) else 1
        d = 0 if not m.group(3) else int(m.group(4) or 1)
        coeffs[d] = coeffs.get(d, 0) + sign * c
    deg = max(coeffs)
    return [coeffs.get(d, 0) for d in range(deg + 1)]


def inversion_polynomial(h: list[int]) -> list[int]:
    """Sum over permutations of t^#{i < j <= h(i): s(i) > s(j)}."""
    n = len(h)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, h[i])]
    counts = [0] * (len(pairs) + 1)
    for s in permutations(range(n)):
        counts[sum(s[i] > s[j] for i, j in pairs)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


_FORBIDDEN = [_nx(CLAW), _nx(NET), _nx(SUN3)]


def is_unit_interval(g: nx.Graph) -> bool:
    """Roberts: chordal with no induced claw, net or 3-sun (tent)."""
    if not nx.is_chordal(g):
        return False
    return not any(
        nx.algorithms.isomorphism.GraphMatcher(g, f).subgraph_is_isomorphic()
        for f in _FORBIDDEN
    )


@lru_cache(maxsize=None)
def unit_interval_counts(max_n: int) -> tuple[int, ...]:
    """Connected unit interval graphs on n = 1..max_n vertices, up to iso."""
    counts = [0] * (max_n + 1)
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(g) and is_unit_interval(g):
            counts[n] += 1
    return tuple(counts[1:])


def check_batch_hessenberg(item: Item, out: str, err: str) -> Optional[str]:
    max_n = item.expect["max_n"]
    rows = list(csv.reader(out.splitlines()))
    if not rows or rows[0] != ["n", "edges", "h", "B", "A"]:
        return "missing CSV header"
    seen: dict[int, list[nx.Graph]] = {}
    for n_text, edges_text, h_text, b_text, a_text in rows[1:]:
        n = int(n_text)
        edges = [tuple(map(int, e.split("-"))) for e in edges_text.split(";") if e]
        h = [int(x) for x in h_text.split(",")]
        g = _graph(n, edges)
        if len(h) != n or not nx.is_isomorphic(g, _graph(n, staircase(h))):
            return f"row {edges_text!r}: pattern is not the staircase of h={h_text}"
        b = parse_poly(b_text)
        if b != inversion_polynomial(h):
            return f"row h={h_text}: B = {b_text} != inversion count"
        a = parse_poly(a_text)
        if min(a) < 0 or len(a) - 1 != len(edges) - n + 1 or a[-1] != 1:
            return f"row h={h_text}: A = {a_text} has a wrong shape"
        if any(nx.is_isomorphic(g, other) for other in seen.get(n, [])):
            return f"row {edges_text!r} repeats an isomorphism class"
        seen.setdefault(n, []).append(g)
    got = tuple(len(seen.get(n, [])) for n in range(1, max_n + 1))
    want = unit_interval_counts(max_n)
    if got != want:
        return f"rows per n {got} != connected unit interval graphs {want}"
    return None


CHECKS: dict[str, Callable[[Item, str, str], Optional[str]]] = {
    "formality": check_formality,
    "gkm": check_gkm,
    "gkm_refused": check_gkm_refused,
    "homology": check_homology,
    "batch_hessenberg": check_batch_hessenberg,
}


def check(item: Item, out: str, err: str) -> Optional[str]:
    """Reason the output is wrong, or None; unparseable output is wrong."""
    try:
        return CHECKS[item.oracle](item, out, err)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
