"""diagclass: decide whether a matrix sparsity pattern admits an
asymptotic diagonalization flow, via indifference-graph recognition,
cluster-permutohedron homology, moment-graph kernel computations, and
the orbit-space polynomial recursion."""

from .graphs import (
    Graph,
    ForbiddenWitness,
    GraphInputError,
    make_graph,
    named_graph,
    induced_subgraph,
    girth,
    find_forbidden_induced,
    connected_graphs_up_to_iso,
    parse_graph,
)
from .polynomials import Polynomial, poly_divide_exact
from .hessenberg import (
    HessenbergFunction,
    IndifferenceCertificate,
    hessenberg_to_graph,
    recognize_indifference,
    is_indifference,
    inv_h,
    betti_polynomial_hessenberg,
    adi,
)
from .linalg import (
    SparseMatrix,
    ComputationBudgetError,
    RankCertificationError,
    rank_gf2,
    rank_rational,
    smith_normal_form,
    solve_affine_system,
)
from .posets import (
    GradedPoset,
    SimplicialComplex,
    clusterings,
    cluster_permutohedron,
    graphicahedron,
    skeleton,
    order_complex,
)
from .homology import (
    betti_numbers,
    integral_homology,
    homology_report,
)
from .gkm import (
    GkmGraph,
    GkmBettiReport,
    build_gkm_graph,
    equivariant_betti,
    equivariant_betti_series,
    ordinary_betti_from_equivariant,
    gkm_total_betti,
    known_betti_vector,
)
from .abfp import (
    FormalityVerdict,
    compute_A,
    inter_polynomial,
    abfp_consistency_test,
    formality_report,
)

__version__ = "0.1.0"
