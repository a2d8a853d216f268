"""Exact sparse linear algebra: GF(2) rank, rank over Q, Smith normal
form over Z, and exact affine systems.

A `SparseMatrix` holds its entries in coordinate form, as three stdlib
`array('q')` columns (row, column, value).  GF(2) ranks use a streaming
sparse echelon over Python-int bitsets.  Rational ranks of small matrices
use fraction elimination; larger ones use multi-modular computation at
word-size primes with agreement certification, and very rectangular
sparse inputs are first compressed by a random row sketch, which can only
lower the rank, so agreement across independent sketches/primes certifies
the result.  Only that modular path uses NumPy and SciPy, and it imports
them when it runs: every other computation in the package starts without
them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

# There is one GF(2) kernel, written in Python; the constant stays for
# tools that record which kernel produced a measurement.
HAVE_NATIVE_GF2 = False


class ComputationBudgetError(RuntimeError):
    """A computation would exceed the configured memory/size budget."""


class RankCertificationError(RuntimeError):
    """Modular ranks kept disagreeing beyond the retry budget."""


DEFAULT_MEM_BUDGET = 2 * 1024**3

# Primes in (2^21, 2^22): small enough that blocked float64 GEMM with
# panel width 64 stays exact (64 * p^2 < 2^53), large enough that an
# unlucky prime is rare.
_PRIME_POOL = [
    2097593, 2097211, 2098081, 2097823, 2098481, 2099251,
    2100001, 2100221, 2101009, 2101481, 2102107, 2102681,
]


@dataclass(frozen=True)
class SparseMatrix:
    """Exact sparse matrix in coordinate form (0-based indices)."""

    rows: int
    cols: int
    row: array  # array('q'), one entry per nonzero
    col: array  # array('q')
    val: array  # array('q'), never 0

    @classmethod
    def from_triples(
        cls, rows: int, cols: int, triples: Iterable[tuple[int, int, int]]
    ) -> "SparseMatrix":
        """Nonzero entries in the order given; zeros are dropped, and a cell
        given twice or outside the shape is an error."""
        row, col, val = array("q"), array("q"), array("q")
        seen: set[int] = set()
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            cell = r * cols + c
            if cell in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add(cell)
            if v != 0:
                row.append(r)
                col.append(c)
                val.append(int(v))
        return cls(rows, cols, row, col, val)

    @property
    def nnz(self) -> int:
        return len(self.row)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, self.col, self.row, self.val)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in zip(self.row, self.col, self.val):
            out[r][c] = v
        return out


# -- budgets ---------------------------------------------------------

# Rational ranks of matrices with at most this many entries use exact
# fraction elimination, which the budget does not bound.
_FRACTION_RANK_MAX_ENTRIES = 40_000


def gf2_packed_bytes(rows: int, cols: int) -> int:
    """Bytes the budget charges a GF(2) rank: the bit-packed matrix, one
    64-bit word per 64 columns of each row."""
    return rows * ((cols + 63) // 64) * 8


def _check_mod_p_budget(rows: int, cols: int, mem_budget: int) -> bool:
    """Refuse a rank mod p that would not fit the budget; return whether
    the tall orientation is compressed by a random row sketch first."""
    tall, short = max(rows, cols), min(rows, cols)
    dense_bytes = tall * short * 8
    sketched = tall > short + 64 and dense_bytes > 512 * 1024**2
    need = (short + 32) * short * 8 if sketched else dense_bytes
    if need > mem_budget:
        kind = "sketched" if sketched else "dense"
        raise ComputationBudgetError(
            f"{kind} matrix needs {need} bytes, budget {mem_budget}"
        )
    return sketched


def check_rank_budget(rows: int, cols: int, field: str, mem_budget: int) -> None:
    """Refuse, from the shape alone, a rank that `rank_gf2` (field "gf2")
    or `rank_rational` (field "rational") would refuse, with its message."""
    if field == "gf2":
        need = gf2_packed_bytes(rows, cols)
        if need > mem_budget:
            raise ComputationBudgetError(
                f"packed GF(2) matrix needs {need} bytes, budget {mem_budget}"
            )
    elif field == "rational":
        if rows * cols > _FRACTION_RANK_MAX_ENTRIES:
            _check_mod_p_budget(rows, cols, mem_budget)
    else:
        raise ValueError(f"unknown field {field!r}")


# -- GF(2) ------------------------------------------------------------

def rank_gf2(m: SparseMatrix, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Exact rank over the 2-element field.

    Streaming echelon over Python-int bitsets: the rows of the tall
    orientation are built one at a time from the odd entries, and each is
    reduced against the pivots found so far, keyed by their highest set
    bit, until it is zero or becomes a new pivot.  The pivots are at most
    min(rows, cols) bitsets of min(rows, cols) bits, never more bits than
    the packed matrix the budget charges.
    """
    check_rank_budget(m.rows, m.cols, "gf2", mem_budget)
    work = m if m.cols <= m.rows else m.transpose()
    # group the columns of the odd entries by row (a counting sort):
    # ends[r] starts as the start of row r and is moved to its end
    counts = array("q", bytes(8 * (work.rows + 1)))
    for r, v in zip(work.row, work.val):
        if v & 1:
            counts[r + 1] += 1
    ends = array("q", accumulate(counts))
    del counts
    cols = array("q", bytes(8 * ends[-1]))
    for r, c, v in zip(work.row, work.col, work.val):
        if v & 1:
            k = ends[r]
            cols[k] = c
            ends[r] = k + 1
    pivots: dict[int, int] = {}
    start = 0
    for end in ends:  # the last end is the total: an empty row
        x = 0
        for c in cols[start:end]:
            x |= 1 << c
        start = end
        while x:
            key = x.bit_length()
            p = pivots.get(key)
            if p is None:
                pivots[key] = x
                break
            x ^= p
    return len(pivots)


# -- rank mod p -------------------------------------------------------

def _dense_rank_mod_p(M: np.ndarray, p: int, block: int = 64) -> int:
    """Right-looking blocked LU mod p on a float64 matrix; destroys M.

    Modular reduction is deferred: float64 arithmetic is exact below
    2^53, so trailing entries may absorb many unreduced block updates
    (each bounded by block * p^2) before a full remainder pass.  Pivot
    columns and pivot rows are reduced on demand; float remainder is
    slow enough that this deferral dominates the running time at scale.
    """
    import numpy as np

    m, n = M.shape
    # entries stay < (defer + 1) * block * p^2 < 2^53 between reductions
    defer = max(1, int(2**53 / (block * p * p)) - 1)
    r = 0
    col = 0
    dirty = 0
    while col < n and r < m:
        c1 = min(col + block, n)
        r0 = r
        pivcols: list[int] = []
        for j in range(col, c1):
            M[r:, j] %= p
            nz = np.nonzero(M[r:, j])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                M[[r, pr]] = M[[pr, r]]
            M[r, j:c1] %= p
            inv = pow(int(M[r, j]), p - 2, p)
            if r + 1 < m:
                f = (M[r + 1 :, j] * inv) % p
                M[r + 1 :, j:c1] -= np.outer(f, M[r, j:c1])
                M[r + 1 :, j] = f  # multipliers, reused by the trailing update
            pivcols.append(j)
            r += 1
        if pivcols and c1 < n:
            # finish the pivot-row block on trailing columns (unit lower solve)
            for i in range(len(pivcols) - 1):
                rowi = r0 + i
                M[rowi, c1:] %= p
                M[rowi + 1 : r, c1:] -= np.outer(
                    M[rowi + 1 : r, pivcols[i]], M[rowi, c1:]
                )
            M[r0:r, c1:] %= p  # U must be reduced before the matmul
            if r < m:
                L = M[r:, pivcols]
                slab = max(1, (64 * 1024**2) // (8 * max(1, m - r)))
                for j0 in range(c1, n, slab):
                    j1 = min(j0 + slab, n)
                    M[r:, j0:j1] -= L @ M[r0:r, j0:j1]
                dirty += 1
                if dirty >= defer:
                    M[r:, c1:] %= p
                    dirty = 0
        col = c1
    return r


def _sketch_mod_p(
    m: SparseMatrix, p: int, rng: np.random.Generator, pad: int = 32
) -> np.ndarray:
    """Random row compression S @ M mod p, shape (cols + pad, cols).

    S is a sparse random projection: each input row is scattered into a
    few output rows with random nonzero coefficients.  rank(S M) <=
    rank(M) always; equality holds with high probability and is
    certified by agreement across independent sketches and primes.  The
    sparse S keeps peak memory at roughly the size of the output.
    """
    import numpy as np
    from scipy.sparse import csr_matrix

    n = m.cols
    target = min(m.rows, n + pad)
    per_row = 8
    row, col, val = (np.frombuffer(a, dtype=np.int64) for a in (m.row, m.col, m.val))
    A = csr_matrix((val % p, (row, col)), shape=(m.rows, m.cols), dtype=np.int64)
    src = np.repeat(np.arange(m.rows), per_row)
    dst = rng.integers(0, target, size=m.rows * per_row)
    # int64 accumulation stays exact: entries < p^2 * (terms per cell) << 2^63
    coef = rng.integers(1, p, size=m.rows * per_row)
    S = csr_matrix((coef, (dst, src)), shape=(target, m.rows), dtype=np.int64)
    out = (S @ A).toarray()
    out %= p
    return out.astype(np.float64)


def rank_mod_p(
    m: SparseMatrix,
    p: int,
    seed: int = 0,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> int:
    """Rank of an integer matrix modulo p (randomised sketch for very
    rectangular sparse inputs)."""
    import numpy as np

    work = m if m.cols <= m.rows else m.transpose()
    if _check_mod_p_budget(work.rows, work.cols, mem_budget):
        rng = np.random.default_rng((seed, p, work.rows, work.cols))
        M = _sketch_mod_p(work, p, rng)
    else:
        row, col, val = (
            np.frombuffer(a, dtype=np.int64) for a in (work.row, work.col, work.val)
        )
        M = np.zeros((work.rows, work.cols), dtype=np.float64)
        M[row, col] = val % p
    return _dense_rank_mod_p(M, p)


def _rank_fraction_dense(dense: Sequence[Sequence[int]]) -> int:
    """Deterministic exact rank by fraction Gaussian elimination (small)."""
    M = [[Fraction(x) for x in row] for row in dense]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        for i in range(r + 1, rows):
            if M[i][c] != 0:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


def rank_rational(
    m: SparseMatrix,
    seed: int = 0,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> int:
    """Exact rank over Q.

    Small matrices use deterministic fraction elimination; larger ones use
    modular ranks at several word-size primes, certified by agreement.
    """
    if m.rows * m.cols <= _FRACTION_RANK_MAX_ENTRIES:
        return _rank_fraction_dense(m.to_dense())
    ranks = [rank_mod_p(m, p, seed=seed, mem_budget=mem_budget) for p in _PRIME_POOL[:3]]
    if len(set(ranks)) == 1:
        return ranks[0]
    ranks += [rank_mod_p(m, p, seed=seed + 1, mem_budget=mem_budget) for p in _PRIME_POOL[3:6]]
    best = max(ranks)
    if ranks.count(best) >= 3:
        return best
    raise RankCertificationError(f"modular ranks disagree: {ranks}")


# -- Smith normal form ------------------------------------------------

def smith_normal_form(
    m: SparseMatrix, size_cap: int = 200_000
) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    Classical elimination with smallest-pivot selection; intended for the
    small integral-homology targets.  A finished pivot's row and column
    leave the matrix, so each pivot search sees only what is left.
    """
    if max(m.rows, m.cols) > size_cap:
        raise ComputationBudgetError(
            f"matrix {m.rows}x{m.cols} exceeds Smith normal form cap {size_cap}"
        )
    rows: dict[int, dict[int, int]] = {}  # rows[r][c]: the nonzero entries
    cols: dict[int, set[int]] = {}  # cols[c]: rows with an entry in column c

    def put(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
        elif c in rows.get(r, ()):
            del rows[r][c]
            cols[c].discard(r)

    for r, c, v in zip(m.row, m.col, m.val):
        put(r, c, v)

    divisors: list[int] = []
    while rows:
        best = None
        for r, cs in rows.items():
            for c, v in cs.items():
                if best is None or abs(v) < best[0]:
                    best = (abs(v), r, c)
                    if best[0] == 1:
                        break
            if best[0] == 1:
                break
        _, pr, pc = best
        while True:
            pv = rows[pr][pc]
            reduced = False
            for r in list(cols[pc]):
                if r != pr:
                    q = round(Fraction(rows[r][pc], pv))
                    if q:
                        for c, v in list(rows[pr].items()):
                            put(r, c, rows[r].get(c, 0) - q * v)
                        if not rows[r]:
                            del rows[r]
                    reduced |= pc in rows.get(r, ())
            for c in list(rows[pr]):
                if c != pc:
                    q = round(Fraction(rows[pr][c], pv))
                    if q:
                        for r in list(cols[pc]):
                            put(r, c, rows[r].get(c, 0) - q * rows[r][pc])
                    reduced |= c in rows[pr]
            if not reduced:
                break
            # a nonzero remainder is smaller than the pivot: move to the
            # smallest entry of the pivot's row and column
            cand = None
            for r in cols[pc]:
                v = abs(rows[r][pc])
                if cand is None or v < cand[0]:
                    cand = (v, r, pc)
            for c, v in rows[pr].items():
                if abs(v) < cand[0]:
                    cand = (abs(v), pr, c)
            _, pr, pc = cand
        divisors.append(abs(rows.pop(pr)[pc]))
        del cols[pc]

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors)):
            for j in range(i + 1, len(divisors)):
                a, b = divisors[i], divisors[j]
                if b % a != 0:
                    g = math.gcd(a, b)
                    divisors[i], divisors[j] = g, a * b // g
                    changed = True
    return tuple(sorted(divisors))


# -- exact affine systems --------------------------------------------

@dataclass
class AffineSolutionSet:
    """Solutions of A x = b over Q: particular + homogeneous basis."""

    consistent: bool
    particular: Optional[list[Fraction]] = None
    basis: list[list[Fraction]] = field(default_factory=list)

    def forced_coordinate(self, i: int) -> Optional[Fraction]:
        """Value of coordinate i if it is constant on the solution set."""
        if not self.consistent or self.particular is None:
            return None
        if any(v[i] != 0 for v in self.basis):
            return None
        return self.particular[i]


def solve_affine_system(
    a: SparseMatrix, b: Sequence[Fraction | int]
) -> AffineSolutionSet:
    """Full exact solution set of A x = b, or an inconsistency verdict."""
    rows, cols = a.rows, a.cols
    if len(b) != rows:
        raise ValueError("right-hand side length mismatch")
    M = [[Fraction(0)] * cols + [Fraction(b[r])] for r in range(rows)]
    for r, c, v in zip(a.row, a.col, a.val):
        M[r][c] = Fraction(v)

    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if M[i][cols] != 0:
            return AffineSolutionSet(consistent=False)

    particular = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        particular[c] = M[i][cols]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -M[i][fc]
        basis.append(vec)
    return AffineSolutionSet(consistent=True, particular=particular, basis=basis)
