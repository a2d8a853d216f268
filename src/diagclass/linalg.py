"""Exact sparse linear algebra: GF(2) rank, rank over Q, Smith normal
form over Z, and exact affine systems.

A `SparseMatrix` holds its entries in coordinate form, as three stdlib
`array('q')` columns (row, column, value).  There is one rank kernel per
field, and both share one contraction step before their echelon.  The
rows of the tall orientation with at most two entries nonzero mod p
(p = 2 for GF(2)) are the edges of a graph on the columns and a sink that
stands for 0; a weighted union-find contracts it, and each link adds one
to the rank.  The other rows, mapped onto the roots left, go through a
streaming sparse echelon, grouped by one counting sort: GF(2) ranks
reduce Python-int bitsets, and ranks over Q are ranks modulo word-size
primes, reduced as dicts and certified by agreement across primes.  The
rank is exact, because rank(G + R) = rank(G) + rank(R modulo span G).
This is the graph step of structured Gaussian elimination (LaMacchia and
Odlyzko, 1990).  The module uses only the standard library.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
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


def _link_short_rows(
    work: SparseMatrix, p: int, count: array
) -> tuple[int, Optional[array], Optional[array]]:
    """Contract, by weighted union-find over the integers mod a prime p,
    the rows of `work` with one or two entries that p does not divide
    (count[r + 1] of them in row r).

    The nodes are the columns and a sink, the node `work.cols`, that
    stands for 0.  Each node c keeps a parent and a weight with
    e_c = weight[c] * e_parent[c] modulo the rows seen so far.  A row
    a*e_a + b*e_b whose ends have different roots links one root under
    the other; if the ends have one root r other than the sink, and the
    row does not vanish there, it links r to the sink.  A one-entry row
    is a row whose second end is the sink.  Each link raises the rank by
    one and leaves one root fewer besides the sink.

    Returns the number of links and, if there are any, each column's
    root as an index among the roots other than the sink, and its
    weight relative to that root; a column whose root is the sink gets
    index 0 and weight 0.  The counts of the short rows are set to 0.
    """
    if not (count.count(1) or count.count(2)):
        return 0, None, None
    sink = work.cols
    parent = array("q", range(sink + 1))
    weight = array("q", [1]) * (sink + 1)

    def find(c: int) -> tuple[int, int]:
        """c's root and c's weight relative to it, compressing the path."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        f = 1
        for x in reversed(path):
            f = f * weight[x] % p
            weight[x] = f
            parent[x] = c
        return c, f

    links = 0
    for r, a, alpha in zip(work.row, work.col, work.val):
        k = count[r + 1]
        if k > 2:
            continue
        alpha %= p
        if not alpha:
            continue
        if k == 2:
            # the first end of a two-entry row waits for the second
            count[r + 1] = -1 - (a * p + alpha)
            continue
        b, beta = divmod(-1 - k, p) if k < 0 else (sink, 1)
        count[r + 1] = 0
        ra = parent[a]
        if parent[ra] == ra:
            fa = weight[a]
        else:
            ra, fa = find(a)
        rb = parent[b]
        if parent[rb] == rb:
            fb = weight[b]
        else:
            rb, fb = find(b)
        if ra != rb:
            if ra == sink:
                ra, fa, alpha, rb, fb, beta = rb, fb, beta, ra, fa, alpha
            parent[ra] = rb
            weight[ra] = -beta * fb * pow(alpha * fa, -1, p) % p
            links += 1
        elif ra != sink and (alpha * fa + beta * fb) % p:
            parent[ra] = sink
            links += 1
    index = array("q", bytes(8 * (sink + 1)))
    roots = 0
    for c in range(sink):
        r = parent[c]
        if r == c:
            index[c] = roots
            roots += 1
            continue
        if parent[r] != r:
            r = find(c)[0]
        if r == sink:
            weight[c] = 0
    return links, array("q", (index[parent[c]] for c in range(sink))), weight


def _contract(
    m: SparseMatrix, p: int, cap: int
) -> tuple[int, int, Iterator[tuple[array, array]]]:
    """Contract the short rows of m's tall orientation, those with at most
    two entries that p does not divide, and map its long rows onto what
    is left, over the integers mod a prime p.

    The rank of m is the rank of the short rows plus the rank of the long
    rows modulo their span.  `_link_short_rows` gives the first as a
    number of links; the second is the rank of the long rows mapped onto
    the roots other than the sink.  Returns the number of links, the
    number k of those roots, and the mapped long rows in order, each as
    columns in range(k) and residues mod p.  An entry whose column
    contracted to the sink has residue 0 (and column 0), and a column
    repeats where two entries' columns share a root; its residues then
    add up.

    A counting sort groups the long rows' entries: one pass counts them,
    `accumulate` gives the row starts, and one pass places them, moving
    each row's start to its end.  Consecutive rows are placed together
    while they hold at most `cap` entries, which must be at least the
    width of a row; each such group costs one pass over the entries.
    """
    work = m if m.cols <= m.rows else m.transpose()
    count = array("q", bytes(8 * (work.rows + 1)))
    for r, v in zip(work.row, work.val):
        if v % p:
            count[r + 1] += 1
    links, target, weight = _link_short_rows(work, p, count)
    long_row = bytearray(map(bool, islice(count, 1, None)))
    starts = array("q", accumulate(count))
    del count

    def rows() -> Iterator[tuple[array, array]]:
        top = 0
        while starts[top] < starts[-1]:
            first, base = top, starts[top]
            top = bisect_right(starts, base + cap, first + 1) - 1
            placed = bytearray(work.rows)  # the group's long rows
            placed[first:top] = long_row[first:top]
            cols = array("i", bytes(4 * (starts[top] - base)))
            vals = array("i", bytes(4 * (starts[top] - base)))
            for r, c, v in zip(work.row, work.col, work.val):
                if placed[r]:
                    v %= p
                    if v:
                        if links:
                            v = v * weight[c] % p
                            c = target[c]
                        k = starts[r]
                        cols[k - base] = c
                        vals[k - base] = v
                        starts[r] = k + 1
            start = 0
            for r in range(first, top):
                end = starts[r] - base
                if end > start:
                    yield cols[start:end], vals[start:end]
                start = end

    return links, work.cols - links, rows()


# -- GF(2) ------------------------------------------------------------

def rank_gf2(m: SparseMatrix, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Exact rank over the 2-element field.

    The rows of the tall orientation with at most two odd entries are
    contracted by union-find, and the other rows, mapped onto the k roots
    left (`_contract`), go through a streaming echelon over Python-int
    bitsets: each is reduced against the pivots found so far, keyed by
    their highest set bit, until it is zero or becomes a new pivot.  The
    pivots are at most k bitsets of k bits, k <= min(rows, cols), never
    more bits than the packed matrix the budget charges.
    """
    check_rank_budget(m.rows, m.cols, "gf2", mem_budget)
    rank, width, rows = _contract(m, 2, m.nnz)
    pivots = [0] * (width + 1)  # pivots[k]: the pivot whose highest bit is k - 1
    for cols, vals in rows:
        x = 0
        for c, v in zip(cols, vals):
            x ^= v << c
        while x:
            key = x.bit_length()
            y = pivots[key]
            if not y:
                pivots[key] = x
                rank += 1
                break
            x ^= y
    return rank


# -- rank over Q ------------------------------------------------------

# Primes in (2^21, 2^22): residues fit `array('i')` with room to spare,
# and a prime this large rarely divides the minors of a small-entry matrix.
_PRIME_POOL = [2097593, 2097211, 2098081, 2097823, 2098481, 2099251]


def rank_mod_p(m: SparseMatrix, p: int, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Rank of an integer matrix modulo a prime p < 2^31.

    Built like `rank_gf2`: the rows of the tall orientation with at most
    two entries that p does not divide are contracted by weighted
    union-find, and each other row, mapped onto the k roots left
    (`_contract`), is held as a dict {column: residue} and reduced
    against the pivots found so far, keyed by their highest column, until
    it is zero or becomes a new pivot.  A pivot is normalised to a leading
    1, which its key implies, and negated, so that reducing by it is an
    addition; its other entries are stored as two `array('i')`, columns
    and residues, at 8 bytes an entry.  The peak stays under
    `rational_rank_bytes` for a matrix with at most max(rows, cols)
    entries, and under the budget for any matrix: the entries are grouped
    in as few passes as the budget left over allows.
    """
    check_rank_budget(m.rows, m.cols, "rational", mem_budget)
    spare = mem_budget - rational_rank_bytes(m.rows, m.cols)
    rank, width, rows = _contract(m, p, max(m.rows, m.cols) + spare // 8)
    pivot_cols: list[Optional[array]] = [None] * width
    pivot_vals: list[Optional[array]] = [None] * width
    for cols, vals in rows:
        x = dict(zip(cols, vals))
        if len(x) < len(cols) or not all(x.values()):
            # a column repeats or a residue is 0: add up, drop the zeros
            x = {}
            for c, v in zip(cols, vals):
                x[c] = (x.get(c, 0) + v) % p
            x = {c: v for c, v in x.items() if v}
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
    """Elementary divisors d1 | d2 | ... of an integer matrix; their
    number is its rank.

    Classical elimination with smallest-pivot selection: the pivot's row
    and column are cleared by floor-division quotients, and a nonzero
    remainder, smaller than the pivot, becomes the next pivot.  A finished
    pivot's row and column leave the matrix, so each pivot search sees
    only what is left.  The pivots are then folded into a divisibility
    chain by gcd/lcm insertion; pivots equal to 1, the common case on
    boundary maps, stay at the front of the chain and need no folding.
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

    units = 0
    chain: list[int] = []  # the other pivots' divisors, each dividing the next
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
                    q = rows[r][pc] // pv
                    if q:
                        for c, v in list(rows[pr].items()):
                            put(r, c, rows[r].get(c, 0) - q * v)
                        if not rows[r]:
                            del rows[r]
                    reduced |= pc in rows.get(r, ())
            for c in list(rows[pr]):
                if c != pc:
                    q = rows[pr][c] // pv
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
        x = abs(rows.pop(pr)[pc])
        del cols[pc]
        if x == 1:
            units += 1
            continue
        # diag(c, x) ~ diag(gcd, lcm): each link keeps the gcd and passes
        # the lcm on, which the next link divides or absorbs
        for i, c in enumerate(chain):
            g = math.gcd(c, x)
            chain[i], x = g, c // g * x
        chain.append(x)
    return (1,) * units + tuple(chain)


# -- exact affine systems --------------------------------------------

def solve_affine_system(
    a: SparseMatrix, b: Sequence[Fraction | int]
) -> Optional[dict[int, Fraction]]:
    """The coordinates that are constant on the solution set of A x = b
    over Q, as {coordinate: value}, or None when there is no solution.

    In the reduced echelon form a coordinate is constant exactly when it
    is a pivot whose row has no entry in a free column.
    """
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
            return None
    free = set(range(cols)).difference(pivots)
    return {
        c: M[i][cols] for i, c in enumerate(pivots) if not any(M[i][f] for f in free)
    }
