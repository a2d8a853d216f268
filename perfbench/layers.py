"""Layer boundaries timed by the traced runner, and the per-layer metrics
derived from the spans it records.

A layer is a module of the `diagclass` package.  A span is one call into
one of the public functions listed in BOUNDARIES (plus the three evidence
strategies of `abfp`), named "<module>.<function>"; the whole CLI call is
the root span "cli.main".  A span's self time is its duration minus the
durations of its child spans; calls are nested and synchronous, so the
self times of one call add up to the root span's duration exactly.

This module imports nothing from the package: it works on the objects the
wrapped functions receive and return.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

BOUNDARIES = {
    "graphs": ("find_forbidden_induced", "connected_graphs_up_to_iso", "canonical_form"),
    "hessenberg": ("recognize_indifference", "is_indifference", "betti_polynomial_hessenberg", "adi"),
    "posets": ("all_clusterings", "clusterings", "cluster_permutohedron", "graphicahedron",
               "skeleton", "order_complex"),
    "homology": ("boundary_matrix", "betti_numbers", "integral_homology", "homology_report"),
    "linalg": ("rank_gf2", "rank_rational", "rank_mod_p", "smith_normal_form",
               "solve_affine_system"),
    "gkm": ("build_gkm_graph", "kernel_matrix", "equivariant_betti", "gkm_total_betti"),
    "abfp": ("compute_A", "inter_polynomial", "abfp_consistency_test", "formality_report",
             "_skeleton_homology_evidence", "_total_betti_evidence", "_abfp_evidence"),
}
LAYERS = (*BOUNDARIES, "cli")
ROOT = "cli.main"
STRATEGIES = ("abfp._skeleton_homology_evidence", "abfp._total_betti_evidence",
              "abfp._abfp_evidence")


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Counts taken from a call's arguments, before it runs (so a refused call
# still shows what it asked for) ...
PRE_COUNTS = {
    "hessenberg.betti_polynomial_hessenberg":
        lambda a, k: {"perms": math.factorial(_first(a, k, "h").n)},
    "linalg.rank_gf2":
        lambda a, k: {"rows": _first(a, k, "m").rows, "cols": _first(a, k, "m").cols},
}
# ... and from its result.
POST_COUNTS = {
    "posets.cluster_permutohedron": lambda r: {"elements": len(r)},
    "posets.graphicahedron": lambda r: {"elements": len(r)},
    "posets.order_complex": lambda r: {"chains": sum(len(fs) for fs in r.faces)},
    "homology.boundary_matrix": lambda r: {"nnz": r.nnz},
    "gkm.kernel_matrix": lambda r: {"nnz": r.nnz},
    "abfp.formality_report": lambda r: {"formal": int(r.verdict == "formal")},
}


@dataclass
class PassStats:
    """Spans of every item of one traced pass, summed per span name."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    gf2_packed_bytes: int = 0
    gf2_tall_calls: int = 0
    modular_ranks: int = 0
    primes_in_modular_ranks: int = 0
    budget_refusals: int = 0
    root_s: float = 0.0

    def add_item(self, spans: list) -> None:
        """spans: [name, parent index, start, end, counts, exception] lists,
        exception being None or [type name, raised first here]."""
        dur = [end - start for _, _, start, end, _, _ in spans]
        child_s = [0.0] * len(spans)
        modp_children = [0] * len(spans)
        for i, (name, parent, _, _, _, _) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += dur[i]
                if name == "linalg.rank_mod_p" and spans[parent][0] == "linalg.rank_rational":
                    modp_children[parent] += 1
        for i, (name, parent, _, _, counts, exc) in enumerate(spans):
            self.self_s[name] += dur[i] - child_s[i]
            self.calls[name] += 1
            for key, value in (counts or {}).items():
                self.counts[name, key] += value
            if name == ROOT:
                self.root_s += dur[i]
            if exc is not None and exc[0] == "ComputationBudgetError" and exc[1]:
                self.budget_refusals += 1
            if name == "linalg.rank_gf2" and exc is None:
                rows, cols = counts["rows"], counts["cols"]
                self.gf2_packed_bytes += rows * ((cols + 63) // 64) * 8
                self.gf2_tall_calls += rows > cols
            if modp_children[i]:
                self.modular_ranks += 1
                self.primes_in_modular_ranks += modp_children[i]

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


RECOGNIZE = ("hessenberg.recognize_indifference", "hessenberg.is_indifference")
POSET_BUILD = ("posets.all_clusterings", "posets.clusterings", "posets.cluster_permutohedron",
               "posets.graphicahedron", "posets.skeleton")
INTER = ("abfp.inter_polynomial", "abfp.compute_A")

# name -> (unit, value from the PassStats of one traced pass)
LAYER_METRICS = {
    "hessenberg.recognize_s": ("s", lambda s: s.self_of(*RECOGNIZE)),
    "hessenberg.recognize_calls": ("count", lambda s: s.calls_of(*RECOGNIZE)),
    "hessenberg.betti_poly_s": ("s", lambda s: s.self_of("hessenberg.betti_polynomial_hessenberg")),
    "hessenberg.betti_poly_perms": ("count", lambda s: s.counts["hessenberg.betti_polynomial_hessenberg", "perms"]),
    "graphs.witness_search_s": ("s", lambda s: s.self_of("graphs.find_forbidden_induced")),
    "graphs.enumerate_s": ("s", lambda s: s.self_of("graphs.connected_graphs_up_to_iso")),
    "graphs.canonical_form_s": ("s", lambda s: s.self_of("graphs.canonical_form")),
    "graphs.canonical_form_calls": ("count", lambda s: s.calls_of("graphs.canonical_form")),
    "posets.build_s": ("s", lambda s: s.self_of(*POSET_BUILD)),
    "posets.elements": ("count", lambda s: s.counts["posets.cluster_permutohedron", "elements"]
                        + s.counts["posets.graphicahedron", "elements"]),
    "posets.order_complex_s": ("s", lambda s: s.self_of("posets.order_complex")),
    "posets.chains": ("count", lambda s: s.counts["posets.order_complex", "chains"]),
    "homology.boundary_s": ("s", lambda s: s.self_of("homology.boundary_matrix")),
    "homology.boundary_nnz": ("count", lambda s: s.counts["homology.boundary_matrix", "nnz"]),
    "linalg.rank_gf2_s": ("s", lambda s: s.self_of("linalg.rank_gf2")),
    "linalg.rank_gf2_calls": ("count", lambda s: s.calls_of("linalg.rank_gf2")),
    "linalg.rank_gf2_packed_mb": ("MiB", lambda s: s.gf2_packed_bytes / 2**20),
    "linalg.rank_gf2_tall_calls": ("count", lambda s: s.gf2_tall_calls),
    "linalg.rank_mod_p_s": ("s", lambda s: s.self_of("linalg.rank_mod_p")),
    "linalg.rank_mod_p_calls": ("count", lambda s: s.calls_of("linalg.rank_mod_p")),
    "linalg.primes_per_rank": ("ratio", lambda s: _ratio(s.primes_in_modular_ranks, s.modular_ranks)),
    "linalg.snf_s": ("s", lambda s: s.self_of("linalg.smith_normal_form")),
    "linalg.affine_s": ("s", lambda s: s.self_of("linalg.solve_affine_system")),
    "linalg.budget_refusals": ("count", lambda s: s.budget_refusals),
    "gkm.build_s": ("s", lambda s: s.self_of("gkm.build_gkm_graph")),
    "gkm.assemble_s": ("s", lambda s: s.self_of("gkm.kernel_matrix")),
    "gkm.matrix_nnz": ("count", lambda s: s.counts["gkm.kernel_matrix", "nnz"]),
    "abfp.inter_s": ("s", lambda s: s.self_of(*INTER)),
    "abfp.consistency_s": ("s", lambda s: s.self_of("abfp.abfp_consistency_test")),
    "abfp.strategies_per_verdict": ("ratio", lambda s: _ratio(
        s.calls_of(*STRATEGIES),
        s.calls_of("abfp.formality_report") - s.counts["abfp.formality_report", "formal"])),
    **{f"{layer}.self_s": ("s", lambda s, layer=layer: s.layer_self(layer)) for layer in LAYERS},
}


def layer_metrics(stats: PassStats) -> dict[str, float]:
    return {name: float(fn(stats)) for name, (_, fn) in LAYER_METRICS.items()}


def count_signature(values: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between runs: all but times."""
    return {k: v for k, v in values.items() if LAYER_METRICS[k][0] != "s"}
