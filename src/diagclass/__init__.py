"""diagclass: decide whether a matrix sparsity pattern admits an
asymptotic diagonalization flow, via indifference-graph recognition,
cluster-permutohedron homology, moment-graph kernel computations, and
the orbit-space polynomial recursion.

Each public name is imported from its layer module, such as
`diagclass.graphs`; the package root holds only `__version__`."""

__version__ = "0.1.0"
