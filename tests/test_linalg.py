import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from diagclass.gkm import build_gkm_graph, kernel_matrix
from diagclass.graphs import named_graph
from diagclass.homology import boundary_matrix
from diagclass.linalg import (
    ComputationBudgetError,
    SparseMatrix,
    _dense_rank_mod_p,
    _sketch_mod_p,
    gf2_packed_bytes,
    rank_gf2,
    rank_mod_p,
    rank_rational,
    smith_normal_form,
    solve_affine_system,
)
from diagclass.posets import cluster_permutohedron, order_complex, skeleton

PRIME = 2097593


def sparse_from_dense(rows):
    r = len(rows)
    c = len(rows[0]) if r else 0
    return SparseMatrix.from_triples(
        r, c, [(i, j, rows[i][j]) for i in range(r) for j in range(c) if rows[i][j]]
    )


def bitset_rank_gf2(rows):
    """Independent oracle: elimination on python-int bitsets."""
    bits = []
    for row in rows:
        b = 0
        for j, v in enumerate(row):
            if v % 2:
                b |= 1 << j
        if b:
            bits.append(b)
    rank = 0
    while bits:
        pivot = min(bits, key=lambda b: b & -b)
        bits.remove(pivot)
        low = pivot & -pivot
        bits = [b ^ pivot if b & low else b for b in bits]
        bits = [b for b in bits if b]
        rank += 1
    return rank


def fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    nrows, ncols = len(m), len(m[0])
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def minor_gcd_divisors(rows):
    """Independent Smith-form oracle: d_k = gcd of all k x k minors."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    nrows, ncols = len(rows), len(rows[0])
    gcds = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        gcds.append(g)
    divisors = []
    prev = 1
    for g in gcds:
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def test_sparse_matrix_rejects_duplicates_and_bounds():
    with pytest.raises(ValueError):
        SparseMatrix.from_triples(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix.from_triples(2, 2, [(2, 0, 1)])
    # explicit zeros are dropped, not stored
    m = SparseMatrix.from_triples(2, 2, [(0, 0, 0), (1, 1, 3)])
    assert m.nnz == 1


def test_sparse_matrix_storage():
    m = SparseMatrix.from_triples(3, 2, [(2, 1, -5), (0, 0, 0), (0, 1, 7)])
    assert all(a.typecode == "q" for a in (m.row, m.col, m.val))
    assert (list(m.row), list(m.col), list(m.val)) == ([2, 0], [1, 1], [-5, 7])
    t = m.transpose()
    assert (t.rows, t.cols, t.nnz) == (2, 3, 2)
    assert t.to_dense() == [[0, 0, 0], [7, 0, -5]]


def test_rank_gf2_ignores_entry_order_and_orientation():
    rng = random.Random(8)
    for _ in range(40):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        triples = [
            (i, j, rng.choice((-3, -1, 1, 2, 5)))
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.2
        ]
        dense = [[0] * cols for _ in range(rows)]
        for i, j, v in triples:
            dense[i][j] = v
        expected = bitset_rank_gf2(dense)
        rng.shuffle(triples)
        m = SparseMatrix.from_triples(rows, cols, triples)
        assert rank_gf2(m) == expected
        assert rank_gf2(m.transpose()) == expected
        even = SparseMatrix.from_triples(rows, cols, [(i, j, 2 * v) for i, j, v in triples])
        assert rank_gf2(even) == 0
    for rows, cols in [(1, 1), (5, 1), (1, 5), (7, 3)]:
        assert rank_gf2(SparseMatrix.from_triples(rows, cols, [])) == 0


def test_rank_gf2_drops_even_entries():
    # rank 2 over Q, but the even row vanishes mod 2
    m = sparse_from_dense([[2, 2], [1, 3]])
    assert rank_gf2(m) == 1
    assert rank_rational(m) == 2
    assert rank_gf2(sparse_from_dense([[2, 4], [-6, 8]])) == 0


def test_rank_gf2_exhaustive_small_shapes():
    for rows, cols in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]:
        for bits in product((0, 1), repeat=rows * cols):
            dense = [list(bits[i * cols:(i + 1) * cols]) for i in range(rows)]
            m = SparseMatrix.from_triples(
                rows, cols,
                [(i, j, 1) for i in range(rows) for j in range(cols) if dense[i][j]],
            )
            assert rank_gf2(m) == bitset_rank_gf2(dense), dense


def test_rank_gf2_against_bitset_oracle():
    rng = random.Random(3)
    for _ in range(50):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if not any(any(r) for r in dense):
            continue
        assert rank_gf2(sparse_from_dense(dense)) == bitset_rank_gf2(dense)


def test_rank_gf2_budget():
    m = sparse_from_dense([[1, 0], [0, 1]])
    with pytest.raises(ComputationBudgetError):
        rank_gf2(m, mem_budget=1)


@pytest.fixture(scope="module")
def suite_matrices():
    """The large GF(2) matrices the nonformal verdicts rest on."""
    sun3 = build_gkm_graph(named_graph("sun3"))
    net = build_gkm_graph(named_graph("net"))
    c5 = order_complex(
        skeleton(cluster_permutohedron(named_graph("cycle", 5), max_rank=3), 3)
    )
    return {
        "sun3 L_0": kernel_matrix(sun3, 0),
        "sun3 L_1": kernel_matrix(sun3, 1),
        "sun3 L_2": kernel_matrix(sun3, 2),
        "net L_2": kernel_matrix(net, 2),
        "net L_3": kernel_matrix(net, 3),
        "C5 skeleton d_2": boundary_matrix(c5, 2),
        "C5 skeleton d_3": boundary_matrix(c5, 3),
    }


def test_rank_gf2_suite_matrices(suite_matrices):
    # the ranks the bit-packed numpy elimination gave before this kernel
    expected = {
        "sun3 L_0": 719,
        "sun3 L_1": 4309,
        "sun3 L_2": 15040,
        "net L_2": 14833,
        "net L_3": 38572,
        "C5 skeleton d_2": 6002,
        "C5 skeleton d_3": 7192,
    }
    assert {name: rank_gf2(m) for name, m in suite_matrices.items()} == expected


def test_rank_gf2_peak_memory_within_charge(suite_matrices):
    m = suite_matrices["sun3 L_2"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert rank_gf2(m) == 15040
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < gf2_packed_bytes(m.rows, m.cols)


def test_rank_mod_p_against_fraction_oracle():
    rng = random.Random(9)
    for _ in range(30):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if not any(any(r) for r in dense):
            continue
        # small entries: rank mod a 21-bit prime equals the rational rank
        assert rank_mod_p(sparse_from_dense(dense), PRIME) == fraction_rank(dense)


def test_dense_lu_low_rank():
    rng = np.random.default_rng(4)
    U = rng.integers(-3, 4, size=(120, 17))
    V = rng.integers(-3, 4, size=(17, 90))
    M = ((U @ V) % PRIME).astype(np.float64)
    assert _dense_rank_mod_p(M, PRIME) == 17


def test_sketch_preserves_rank():
    rng = np.random.default_rng(12)
    U = rng.integers(-3, 4, size=(5000, 60))
    V = rng.integers(-3, 4, size=(60, 150))
    M = U @ V
    m = SparseMatrix.from_triples(
        5000, 150,
        [(i, j, int(M[i, j])) for i in range(5000) for j in range(150) if M[i, j]],
    )
    sk = _sketch_mod_p(m, PRIME, np.random.default_rng(0))
    assert sk.shape[0] == 150 + 32
    assert _dense_rank_mod_p(sk, PRIME) == 60


def test_rank_rational_paths_agree():
    rng = random.Random(21)
    dense = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(14)]
    m = sparse_from_dense(dense)
    assert rank_rational(m) == fraction_rank(dense)


def test_smith_normal_form_fixtures():
    assert smith_normal_form(sparse_from_dense([[2, 0], [0, 6]])) == (2, 6)
    assert smith_normal_form(sparse_from_dense([[2, 4], [4, 2]])) == (2, 6)
    assert smith_normal_form(sparse_from_dense([[1, 0], [0, 1]])) == (1, 1)
    # divisibility chain is enforced even when pivots arrive out of order
    assert smith_normal_form(sparse_from_dense([[6, 0], [0, 4]])) == (2, 12)


def test_smith_normal_form_against_minor_gcds():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if not any(any(r) for r in dense):
            continue
        got = smith_normal_form(sparse_from_dense(dense))
        assert got == minor_gcd_divisors(dense)


def test_solve_affine_system():
    a = sparse_from_dense([[1, 1], [1, -1]])
    sol = solve_affine_system(a, [Fraction(4), Fraction(0)])
    assert sol.consistent
    assert sol.forced_coordinate(0) == 2 and sol.forced_coordinate(1) == 2

    # underdetermined: x + y = 1 forces nothing
    a = sparse_from_dense([[1, 1]])
    sol = solve_affine_system(a, [Fraction(1)])
    assert sol.consistent
    assert sol.forced_coordinate(0) is None

    # inconsistent
    a = sparse_from_dense([[1, 1], [2, 2]])
    sol = solve_affine_system(a, [Fraction(1), Fraction(3)])
    assert not sol.consistent
