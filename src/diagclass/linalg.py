"""Exact sparse linear algebra: GF(2) rank, rank over Q, Smith normal
form over Z, and exact affine systems.

A `SparseMatrix` holds its entries in coordinate form, as three stdlib
`array('q')` columns (row, column, value).  There is one rank kernel per
field, and both are streaming sparse echelons over the rows of the tall
orientation, grouped by one counting sort: GF(2) ranks reduce Python-int
bitsets, and ranks over Q are ranks modulo word-size primes, reduced as
dicts and certified by agreement across primes.  The module uses only
the standard library.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

# There is one GF(2) kernel, written in Python; the constant stays for
# tools that record which kernel produced a measurement.
HAVE_NATIVE_GF2 = False


class ComputationBudgetError(RuntimeError):
    """A computation would exceed the configured memory/size budget."""


class RankCertificationError(RuntimeError):
    """Modular ranks kept disagreeing beyond the retry budget."""


DEFAULT_MEM_BUDGET = 2 * 1024**3

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

def gf2_packed_bytes(rows: int, cols: int) -> int:
    """Bytes the budget charges a GF(2) rank: the bit-packed matrix, one
    64-bit word per 64 columns of each row."""
    return rows * ((cols + 63) // 64) * 8


def rational_rank_bytes(rows: int, cols: int) -> int:
    """Bytes the budget charges a rank over Q, from the shape alone:
    8 * s * (s + 32) + 24 * t + 4096 for t = max(rows, cols) and
    s = min(rows, cols).

    The first term bounds the pivots of `rank_mod_p`: at most s of them,
    each with at most s entries of 8 bytes and about 256 bytes of Python
    objects, which also covers the row being reduced.  The second bounds
    the grouping temporaries of a matrix with at most t entries: the row
    starts, 8 bytes per row of the tall orientation (twice while they are
    summed), and the grouped entries, 8 bytes each.  A matrix with more
    entries is grouped in passes that fit the budget the charge leaves.
    The last is the kernel's fixed overhead.
    """
    tall, short = max(rows, cols), min(rows, cols)
    return 8 * short * (short + 32) + 24 * tall + 4096


# the largest side of a matrix the Smith normal form is attempted on
SNF_SIZE_CAP = 200_000


def check_rank_budget(
    rows: int, cols: int, field: str, mem_budget: int = DEFAULT_MEM_BUDGET
) -> None:
    """Refuse, from the shape alone, what `rank_gf2` (field "gf2"),
    `rank_rational` (field "rational") or `smith_normal_form` (field
    "integer", bounded by SNF_SIZE_CAP instead of the budget) would refuse,
    with its message."""
    if field == "gf2":
        need = gf2_packed_bytes(rows, cols)
        if need > mem_budget:
            raise ComputationBudgetError(
                f"packed GF(2) matrix needs {need} bytes, budget {mem_budget}"
            )
    elif field == "rational":
        need = rational_rank_bytes(rows, cols)
        if need > mem_budget:
            raise ComputationBudgetError(
                f"rank over Q of a {rows}x{cols} matrix needs {need} bytes, "
                f"budget {mem_budget}"
            )
    elif field == "integer":
        if max(rows, cols) > SNF_SIZE_CAP:
            raise ComputationBudgetError(
                f"matrix {rows}x{cols} exceeds Smith normal form cap {SNF_SIZE_CAP}"
            )
    else:
        raise ValueError(f"unknown field {field!r}")


def _tall_rows(m: SparseMatrix, p: int, cap: int) -> Iterator[tuple[array, array]]:
    """The rows of m's tall orientation in order, each as the columns and
    the residues mod p of its entries that p does not divide.

    A counting sort groups the entries by row: one pass counts them,
    `accumulate` gives the row starts, and one pass places them, moving
    each row's start to its end.  Consecutive rows are placed together
    while they hold at most `cap` entries, which must be at least the
    width of a row; each such group costs one pass over the entries.
    """
    work = m if m.cols <= m.rows else m.transpose()
    starts = array("q", bytes(8 * (work.rows + 1)))
    for r, v in zip(work.row, work.val):
        if v % p:
            starts[r + 1] += 1
    starts = array("q", accumulate(starts))
    top = 0
    while top < work.rows:
        first, base = top, starts[top]
        top = bisect_right(starts, base + cap, first + 1) - 1
        cols = array("i", bytes(4 * (starts[top] - base)))
        vals = array("i", bytes(4 * (starts[top] - base)))
        for r, c, v in zip(work.row, work.col, work.val):
            v %= p
            if v and first <= r < top:
                k = starts[r]
                cols[k - base] = c
                vals[k - base] = v
                starts[r] = k + 1
        start = 0
        for r in range(first, top):
            end = starts[r] - base
            yield cols[start:end], vals[start:end]
            start = end


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
    pivots: dict[int, int] = {}
    for cols, _ in _tall_rows(m, 2, m.nnz):
        x = 0
        for c in cols:
            x |= 1 << c
        while x:
            key = x.bit_length()
            p = pivots.get(key)
            if p is None:
                pivots[key] = x
                break
            x ^= p
    return len(pivots)


# -- rank over Q ------------------------------------------------------

# Primes in (2^21, 2^22): residues fit `array('i')` with room to spare,
# and a prime this large rarely divides the minors of a small-entry matrix.
_PRIME_POOL = [2097593, 2097211, 2098081, 2097823, 2098481, 2099251]


def rank_mod_p(m: SparseMatrix, p: int, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Rank of an integer matrix modulo a prime p < 2^31.

    Streaming sparse echelon, built like `rank_gf2`: each row of the tall
    orientation is held as a dict {column: residue} and reduced against
    the pivots found so far, keyed by their highest column, until it is
    zero or becomes a new pivot.  A pivot is normalised to a leading 1,
    which its key implies, and negated, so that reducing by it is an
    addition; its other entries are stored as two `array('i')`, columns
    and residues, at 8 bytes an entry.  The peak stays under
    `rational_rank_bytes` for a matrix with at most max(rows, cols)
    entries, and under the budget for any matrix: the entries are grouped
    in as few passes as the budget left over allows.
    """
    check_rank_budget(m.rows, m.cols, "rational", mem_budget)
    short, tall = min(m.rows, m.cols), max(m.rows, m.cols)
    spare = mem_budget - rational_rank_bytes(m.rows, m.cols)
    pivot_cols: list[Optional[array]] = [None] * short
    pivot_vals: list[Optional[array]] = [None] * short
    rank = 0
    for cols, vals in _tall_rows(m, p, tall + spare // 8):
        x = dict(zip(cols, vals))
        get = x.get
        while x:
            key = max(x)
            f = x.pop(key)
            pc = pivot_cols[key]
            if pc is None:
                g = p - pow(f, -1, p)
                pivot_cols[key] = array("i", x)
                pivot_vals[key] = array("i", [v * g % p for v in x.values()])
                rank += 1
                break
            for c, v in zip(pc, pivot_vals[key]):
                w = (get(c, 0) + f * v) % p
                if w:
                    x[c] = w
                else:
                    del x[c]
    return rank


def rank_rational(m: SparseMatrix, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Exact rank over Q, from ranks modulo word-size primes.

    A rank mod p never exceeds the rank r over Q, and falls below it only
    when p divides every r x r minor.  Three primes that agree give the
    rank; otherwise three more are tried, and the highest rank is returned
    if at least three of the six reach it.
    """
    ranks = [rank_mod_p(m, p, mem_budget) for p in _PRIME_POOL[:3]]
    if len(set(ranks)) == 1:
        return ranks[0]
    ranks += [rank_mod_p(m, p, mem_budget) for p in _PRIME_POOL[3:]]
    best = max(ranks)
    if ranks.count(best) >= 3:
        return best
    raise RankCertificationError(f"modular ranks disagree: {ranks}")


# -- Smith normal form ------------------------------------------------

def smith_normal_form(m: SparseMatrix) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    Classical elimination with smallest-pivot selection; intended for the
    small integral-homology targets.  A finished pivot's row and column
    leave the matrix, so each pivot search sees only what is left.
    """
    check_rank_budget(m.rows, m.cols, "integer")
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
