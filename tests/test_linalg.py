import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from diagclass import linalg
from diagclass.gkm import build_gkm_graph, kernel_matrix
from diagclass.graphs import connected_graphs_up_to_iso, named_graph
from diagclass.homology import boundary_matrix
from diagclass.linalg import (
    ComputationBudgetError,
    RankCertificationError,
    SparseMatrix,
    check_rank_budget,
    gf2_packed_bytes,
    rank_gf2,
    rank_mod_p,
    rank_rational,
    rational_rank_bytes,
    smith_normal_form,
    solve_affine_system,
)
from diagclass.posets import (
    cluster_permutohedron,
    graphicahedron,
    order_complex,
    skeleton,
)

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


def mod_p_rank(rows, p):
    """Independent oracle: dense Gaussian elimination modulo a prime p."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
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


# the GF(2) ranks of `suite_matrices`, as the bit-packed numpy elimination
# gave them before the streaming kernel
SUITE_GF2_RANKS = {
    "sun3 L_0": 719,
    "sun3 L_1": 4309,
    "sun3 L_2": 15040,
    "net L_2": 14833,
    "net L_3": 38572,
    "C5 skeleton d_2": 6002,
    "C5 skeleton d_3": 7192,
}


def test_rank_gf2_suite_matrices(suite_matrices):
    assert {name: rank_gf2(m) for name, m in suite_matrices.items()} == SUITE_GF2_RANKS


def test_rank_gf2_peak_memory_within_charge(suite_matrices):
    for name, m in suite_matrices.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert rank_gf2(m) == SUITE_GF2_RANKS[name]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < gf2_packed_bytes(m.rows, m.cols), name


def test_contraction_leaves_few_rows_and_columns(suite_matrices):
    """sun3's L_2 keeps a third of its rows, over 756 of 15,120 columns,
    after its two-entry rows are contracted; the C5 skeleton's d_2 has no
    short row, so nothing is contracted."""
    for name, p, links, width, long_rows in (
        ("sun3 L_2", 2, 14364, 756, 16200),
        ("sun3 L_2", PRIME, 14364, 756, 16200),
        ("C5 skeleton d_2", 2, 0, 6750, 13200),
    ):
        m = suite_matrices[name]
        got, k, rows = linalg._contract(m, p, m.nnz)
        assert (got, k, sum(1 for _ in rows)) == (links, width, long_rows), name


def short_row_matrix(rng, rows, cols):
    """Dense rows, most with one or two entries, the coefficients drawn from
    +-1, +-2, 3, 5 and 7 (so an entry can vanish mod 2, 3, 5 or 7)."""
    dense = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), min(cols, rng.choice((1, 2, 2, 2, 3, 4)))):
            row[j] = rng.choice((1, -1, 2, -2, 3, 5, 7))
        dense.append(row)
    return dense


def test_contraction_against_oracles():
    rng = random.Random(13)
    for _ in range(300):
        cols = rng.randint(1, 9)
        # at least as many rows as columns: these rows are contracted
        dense = short_row_matrix(rng, rng.randint(cols, 16), cols)
        m = sparse_from_dense(dense)
        assert rank_gf2(m) == bitset_rank_gf2(dense), dense
        for p in (3, 5, 7, PRIME):
            assert rank_mod_p(m, p) == mod_p_rank(dense, p), (p, dense)
        assert rank_rational(m) == fraction_rank(dense), dense


def test_contraction_odd_cycle():
    # e_a + e_b, e_b + e_c, e_a + e_c close an odd cycle: rank 3 over Q
    # and mod 3, but over GF(2) the third row is the sum of the others
    m = sparse_from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert (rank_rational(m), rank_mod_p(m, 3), rank_gf2(m)) == (3, 3, 2)
    # with differences the cycle closes to 0 in every field
    m = sparse_from_dense([[1, -1, 0], [0, 1, -1], [1, 0, -1]])
    assert (rank_rational(m), rank_mod_p(m, 3), rank_gf2(m)) == (2, 2, 2)


def test_contraction_row_vanishing_mod_p():
    # mod 3 the first row vanishes and the second has one entry left
    m = sparse_from_dense([[3, 6, 0], [1, 3, 0], [0, 1, 1]])
    assert rank_mod_p(m, 3) == 2
    assert (rank_rational(m), rank_mod_p(m, 5), rank_gf2(m)) == (3, 3, 3)
    # mod 2 a two-entry row of even entries vanishes
    m = sparse_from_dense([[2, 4, 0], [1, 1, 0], [0, 0, 1]])
    assert (rank_gf2(m), rank_rational(m)) == (2, 3)


def test_contraction_maps_a_long_row_to_zero():
    # the short rows give e_0 = e_1 and e_2 = e_3 ...
    shared_roots = [[1, -1, 0, 0], [0, 0, 1, -1], [1, -1, 1, -1], [0, 0, 0, 0]]
    # ... or e_0 = e_1 = 0 and e_2 = e_3
    sink = [[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1], [1, 1, 1, -1]]
    for dense, links, width in ((shared_roots, 2, 2), (sink, 3, 1)):
        m = sparse_from_dense(dense)
        for p in (2, 3, PRIME):
            got, k, rows = linalg._contract(m, p, m.nnz)
            assert (got, k) == (links, width)
            [(cols, vals)] = list(rows)
            assert len(cols) == 4
            # the long row's residues add up to 0 on every root
            assert all(
                sum(v for c, v in zip(cols, vals) if c == root) % p == 0
                for root in range(k)
            )
            assert rank_mod_p(m, p) == links
        assert (rank_gf2(m), rank_rational(m)) == (links, links)


def test_contraction_on_small_moment_graph_kernels():
    """L_0..L_2 of every connected pattern with n <= 4, whose rows with no
    x_p have two entries each, against the dense oracles."""
    checked = 0
    for n in range(2, 5):
        for g in connected_graphs_up_to_iso(n):
            gg = build_gkm_graph(g)
            for i in range(3):
                m = kernel_matrix(gg, i)
                dense = m.to_dense()
                assert rank_gf2(m) == bitset_rank_gf2(dense)
                for p in (3, PRIME):
                    assert rank_mod_p(m, p) == mod_p_rank(dense, p)
                checked += 1
    assert checked == 27


def test_rank_mod_p_against_fraction_oracle():
    rng = random.Random(9)
    for _ in range(30):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if not any(any(r) for r in dense):
            continue
        # small entries: rank mod a 21-bit prime equals the rational rank
        m = sparse_from_dense(dense)
        assert rank_mod_p(m, PRIME) == fraction_rank(dense)
        # a budget at the charge groups the entries in several passes
        tight = rational_rank_bytes(rows, cols)
        assert rank_mod_p(m, PRIME, mem_budget=tight) == fraction_rank(dense)


def low_rank_product(rng, rows, cols, rank):
    """The integer matrix U V for random U (rows x rank) and V (rank x cols)
    with entries in -3..3, and its nonzero entries as a SparseMatrix."""
    u = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    v = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    vt = list(zip(*v))
    triples = []
    for i, ui in enumerate(u):
        for j, vj in enumerate(vt):
            x = sum(map(mul, ui, vj))
            if x:
                triples.append((i, j, x))
    return SparseMatrix.from_triples(rows, cols, triples)


def test_rank_mod_p_low_rank_product():
    m = low_rank_product(random.Random(4), 120, 90, 17)
    assert rank_mod_p(m, PRIME) == 17
    assert rank_mod_p(m.transpose(), PRIME) == 17


def test_rank_mod_p_tall_low_rank_product():
    m = low_rank_product(random.Random(12), 5000, 150, 60)
    assert rank_mod_p(m, PRIME) == 60


def test_rank_rational_paths_agree():
    rng = random.Random(21)
    dense = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(14)]
    m = sparse_from_dense(dense)
    assert rank_rational(m) == fraction_rank(dense)


def test_rank_rational_matches_fractions_on_small_maps():
    """Every boundary map of both posets and every L_0..L_2 of every
    connected pattern with n <= 4, up to 40,000 entries dense."""
    checked = 0
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            maps = []
            for build in (cluster_permutohedron, graphicahedron):
                sc = order_complex(build(g))
                maps += [boundary_matrix(sc, d) for d in range(sc.dim + 1)]
            if n > 1:
                gg = build_gkm_graph(g)
                maps += [kernel_matrix(gg, i) for i in range(3)]
            for m in maps:
                if m.rows * m.cols <= 40_000:
                    assert rank_rational(m) == fraction_rank(m.to_dense())
                    checked += 1
    assert checked == 57


def test_rank_rational_prime_agreement(monkeypatch):
    m = sparse_from_dense([[1, 0], [0, 1]])

    def fake_ranks(ranks):
        it = iter(ranks)
        monkeypatch.setattr(linalg, "rank_mod_p", lambda m, p, mem_budget: next(it))

    fake_ranks([2, 1, 2, 2, 1, 2])
    assert rank_rational(m) == 2
    fake_ranks([2, 1, 2, 1, 1, 0])
    with pytest.raises(RankCertificationError, match=r"disagree: \[2, 1, 2, 1, 1, 0\]"):
        rank_rational(m)


def test_rank_rational_refusal_message():
    m = sparse_from_dense([[1, 2, 3], [4, 5, 6]])
    assert rational_rank_bytes(2, 3) == 8 * 2 * 34 + 24 * 3 + 4096
    budget = rational_rank_bytes(2, 3) - 1
    want = f"rank over Q of a 2x3 matrix needs {budget + 1} bytes, budget {budget}"
    for refuse in (
        lambda: rank_rational(m, mem_budget=budget),
        lambda: rank_mod_p(m, PRIME, mem_budget=budget),
        lambda: check_rank_budget(2, 3, "rational", budget),
    ):
        with pytest.raises(ComputationBudgetError) as ei:
            refuse()
        assert str(ei.value) == want
    assert rank_rational(m, mem_budget=budget + 1) == 2


def test_rank_mod_p_peak_memory_within_charge():
    star = kernel_matrix(build_gkm_graph(named_graph("star", 4)), 2)
    n = 20_000
    augmentation = SparseMatrix.from_triples(1, n, ((0, j, 1) for j in range(n)))
    # full rank, so the pivots hold 80 * 81 / 2 entries; a budget at the
    # charge groups its 6,400 entries 80 at a time
    rng = random.Random(5)
    dense = SparseMatrix.from_triples(
        80, 80, [(i, j, rng.randint(1, 9)) for i in range(80) for j in range(80)]
    )
    for m, rank, budget in (
        (star, 1639, linalg.DEFAULT_MEM_BUDGET),
        (augmentation, 1, linalg.DEFAULT_MEM_BUDGET),
        (dense, 80, rational_rank_bytes(80, 80)),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert rank_mod_p(m, PRIME, mem_budget=budget) == rank
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < rational_rank_bytes(m.rows, m.cols)


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
    # several non-unit divisors in no divisibility order, on the diagonal
    # and hidden by unimodular row and column operations
    for _ in range(40):
        k = rng.randint(2, 5)
        diag = [rng.choice((2, 3, 4, 6, 9, 10, 12, 15, 18, 25)) for _ in range(k)]
        dense = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
        expected = minor_gcd_divisors(dense)
        assert smith_normal_form(sparse_from_dense(dense)) == expected
        for _ in range(2 * k):
            i, j = rng.sample(range(k), 2)
            f = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                dense[i] = [x + f * y for x, y in zip(dense[i], dense[j])]
            else:
                for row in dense:
                    row[i] += f * row[j]
        assert smith_normal_form(sparse_from_dense(dense)) == expected


def test_solve_affine_system():
    a = sparse_from_dense([[1, 1], [1, -1]])
    assert solve_affine_system(a, [Fraction(4), Fraction(0)]) == {0: 2, 1: 2}

    # underdetermined: x + y = 1 forces nothing
    a = sparse_from_dense([[1, 1]])
    assert solve_affine_system(a, [Fraction(1)]) == {}

    # inconsistent
    a = sparse_from_dense([[1, 1], [2, 2]])
    assert solve_affine_system(a, [Fraction(1), Fraction(3)]) is None
