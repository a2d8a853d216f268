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
Odlyzko, 1990).  The rest of the package eliminates a map only through
`eliminate`, which prices it from its shape and entry count
(`check_rank_budget`) and picks the ring's kernel; the kernels take no
budget.  The module uses only the standard library.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import ComputationBudgetError, RankCertificationError

# There is one GF(2) kernel, written in Python; the constant stays for
# tools that record which kernel produced a measurement.
HAVE_NATIVE_GF2 = False


class SparseMatrix(NamedTuple):
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


def rational_rank_bytes(rows: int, cols: int, nnz: int) -> int:
    """Bytes the budget charges a rank over Q, from the shape and the
    number of entries: 8 * s * (s + 32) + 24 * t + 8 * nnz + 4096 for
    t = max(rows, cols) and s = min(rows, cols).

    The first term bounds the pivots of `rank_mod_p`: at most s of them,
    each with at most s entries of 8 bytes and about 256 bytes of Python
    objects, which also covers the row being reduced.  The second bounds
    what `_contract` keeps per row of the tall orientation: its count and
    its start, 8 bytes each and held together while the starts are
    summed, and a flag.  The third bounds the grouped copy of the long
    rows' entries, 8 bytes each.  The last is the kernel's fixed overhead.
    """
    tall, short = max(rows, cols), min(rows, cols)
    return 8 * short * (short + 32) + 24 * tall + 8 * nnz + 4096


# the largest side of a matrix the Smith normal form is attempted on
SNF_SIZE_CAP = 200_000


def check_rank_budget(
    rows: int, cols: int, nnz: int, field: str, mem_budget: int, name: str
) -> None:
    """Refuse a map with `nnz` entries whose rank over `field` would be
    charged more than the budget, in one sentence that names the map,
    `name`: the packed matrix over "gf2", `rational_rank_bytes` over
    "rational"; over "integer" the Smith normal form is bounded by
    SNF_SIZE_CAP on the longest side instead of the budget.

    `eliminate` calls this for the map it is given, and the pre-checks of
    `homology` and `gkm` for the maps they will build, from counts."""
    if field == "integer":
        if max(rows, cols) > SNF_SIZE_CAP:
            raise ComputationBudgetError(
                f"{name} needs a {rows}x{cols} matrix, "
                f"over the Smith normal form cap {SNF_SIZE_CAP}"
            )
        return
    if field == "gf2":
        need, held = gf2_packed_bytes(rows, cols), "packed"
    elif field == "rational":
        need, held = rational_rank_bytes(rows, cols, nnz), "for its rank over Q"
    else:
        raise ValueError(f"unknown field {field!r}")
    if need > mem_budget:
        raise ComputationBudgetError(
            f"{name} needs a {rows}x{cols} matrix ({need} bytes {held}), budget {mem_budget}"
        )


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


def _contract(m: SparseMatrix, p: int) -> tuple[int, int, Iterator[tuple[array, array]]]:
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
    `accumulate` gives the row starts, and one pass, skipped when no row
    is long, places them, moving each row's start to its end.
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
        if not starts[-1]:
            return
        cols = array("i", [0]) * starts[-1]
        vals = array("i", [0]) * starts[-1]
        for r, c, v in zip(work.row, work.col, work.val):
            if long_row[r]:
                v %= p
                if v:
                    if links:
                        v = v * weight[c] % p
                        c = target[c]
                    k = starts[r]
                    cols[k] = c
                    vals[k] = v
                    starts[r] = k + 1
        start = 0
        for end in islice(starts, work.rows):
            if end > start:
                yield cols[start:end], vals[start:end]
            start = end

    return links, work.cols - links, rows()


# -- GF(2) ------------------------------------------------------------

def rank_gf2(m: SparseMatrix) -> int:
    """Exact rank over the 2-element field.

    The rows of the tall orientation with at most two odd entries are
    contracted by union-find, and the other rows, mapped onto the k roots
    left (`_contract`), go through a streaming echelon over Python-int
    bitsets: each is reduced against the pivots found so far, keyed by
    their highest set bit, until it is zero or becomes a new pivot.  The
    pivots are at most k bitsets of k bits, k <= min(rows, cols), never
    more bits than the packed matrix the budget charges.
    """
    rank, width, rows = _contract(m, 2)
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

# Primes in (2^21, 2^22): residues fit `array('i')` with bits left over,
# and a prime this large rarely divides the minors of a small-entry matrix.
_PRIME_POOL = [2097593, 2097211, 2098081, 2097823, 2098481, 2099251]


def rank_mod_p(m: SparseMatrix, p: int) -> int:
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
    `rational_rank_bytes`.
    """
    rank, width, rows = _contract(m, p)
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


def rank_rational(m: SparseMatrix) -> int:
    """Exact rank over Q, from ranks modulo word-size primes.

    A rank mod p never exceeds the rank r over Q, and falls below it only
    when p divides every r x r minor.  Three primes that agree give the
    rank; otherwise three more are tried, and the highest rank is returned
    if at least three of the six reach it.
    """
    ranks = [rank_mod_p(m, p) for p in _PRIME_POOL[:3]]
    if len(set(ranks)) == 1:
        return ranks[0]
    ranks += [rank_mod_p(m, p) for p in _PRIME_POOL[3:]]
    best = max(ranks)
    if ranks.count(best) >= 3:
        return best
    raise RankCertificationError(f"modular ranks disagree: {ranks}")


# -- Smith normal form ------------------------------------------------

def smith_normal_form(m: SparseMatrix) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of an integer matrix; their
    number is its rank.

    Classical elimination from the smallest entry, one kind of step at a
    time.  Row steps clear the pivot's column by floor-division quotients,
    moving the pivot to the smallest remainder there until none is left;
    a column step then changes only the pivot row, whose entries are
    reduced modulo the pivot in place.  The row leaves when nothing else
    is left in it; otherwise its smallest remainder becomes the pivot.
    The pivots are then folded into a divisibility chain by gcd/lcm
    insertion; pivots equal to 1, the common case on boundary maps, stay
    at the front of the chain and need no folding.
    """
    rows: dict[int, dict[int, int]] = {}  # rows[r][c]: the nonzero entries
    cols: dict[int, set[int]] = {}  # cols[c]: rows with an entry in column c
    for r, c, v in zip(m.row, m.col, m.val):
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

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
            # row steps, until the pivot is alone in its column
            while True:
                pivot = rows[pr]
                pv = pivot[pc]
                for r in cols[pc] - {pr}:
                    row = rows[r]
                    q = row[pc] // pv
                    if not q:
                        continue
                    for c, v in pivot.items():
                        if c in row:
                            w = row[c] - q * v
                            if w:
                                row[c] = w
                            else:
                                del row[c]
                                cols[c].discard(r)
                        else:
                            row[c] = -q * v
                            cols[c].add(r)
                    if not row:
                        del rows[r]
                if len(cols[pc]) == 1:
                    break
                pr = min(cols[pc], key=lambda r: abs(rows[r][pc]))
            # a column step: the pivot row's remainders modulo the pivot
            rest ={c: w for c, v in pivot.items() if (w := v % pv)}
            if not rest:
                break
            for c in pivot.keys() - rest.keys() - {pc}:
                cols[c].discard(pr)
            rows[pr] = {**rest, pc: pv}
            pc = min(rest, key=lambda c: abs(rest[c]))
        for c in rows.pop(pr):
            cols[c].discard(pr)
        x = abs(pv)
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


def eliminate(
    m: SparseMatrix, ring: str, mem_budget: int, name: str
) -> tuple[int, tuple[int, ...]]:
    """The rank of m over ring "gf2", "rational" or "integer", and over
    the integers its Smith divisors above 1; the one way the package
    eliminates a map.

    This is the one place a map is priced: m, with its shape and its
    entries, is checked against the budget first (`check_rank_budget`),
    in a refusal that names the map `name`, and the kernels take no
    budget.  An empty map has rank 0.  The kernels are looked up when
    this runs, so a rebinding of their names in this module is seen.
    """
    check_rank_budget(m.rows, m.cols, m.nnz, ring, mem_budget, name)
    if not (m.rows and m.cols):
        return 0, ()
    if ring == "integer":
        divisors = smith_normal_form(m)
        return len(divisors), tuple(d for d in divisors if d > 1)
    return (rank_gf2 if ring == "gf2" else rank_rational)(m), ()


# -- exact affine systems --------------------------------------------

def solve_affine_system(
    a: SparseMatrix, b: Sequence[Fraction | int]
) -> Optional[dict[int, Fraction]]:
    """The coordinates that are constant on the solution set of A x = b
    over Q, as {coordinate: value}, or None when there is no solution.

    In the reduced echelon form a coordinate is constant exactly when it
    is a pivot whose row has no entry in a free column.
    """
    from fractions import Fraction

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
