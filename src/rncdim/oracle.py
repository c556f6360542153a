"""Interpolation-matrix oracle: h0 by exact (or modular) linear algebra.

The oracle evaluates the dimension of a system L(n, d; m_1..m_s) with no
recourse to any closed formula: put s points with pairwise distinct
parameters t_i on one rational normal curve, write down the vanishing
conditions as an integer matrix, and count h0 = (#monomials of degree <= d)
- rank.

The curve is C_n(t) = (prod_{k != j} (t - a_k))_{j=0..n} with the nodes
a = (0, 1, -1, 2, -2, ...)[:n+1]: it passes through the n+1 coordinate
points, C_n(a_j) being a multiple of e_j.  Every rational normal curve of
degree n is projectively equivalent to it (Harris, Algebraic Geometry: A
First Course, Lecture 1), and the paper's formula holds for any distinct
points on any such curve, so the dimension does not depend on the choice.

Columns are the monomials x^gamma of degree d, indexed by gamma' =
(gamma_1..gamma_n) with gamma_0 = d - |gamma'|.

  * A parameter equal, as an integer, to the node a_j is the point e_j.  In
    the chart x_j = 1 the monomial x^gamma has local degree d - gamma_j and
    is its own Taylor coefficient, so multiplicity m there deletes the
    columns with gamma_j > d - m and adds no rows.  Unit rows on the deleted
    columns add exactly their number to the rank, so h0 is (#kept columns)
    - rank of the kept block, also when several deletions overlap.
  * Any other parameter t gives the point q = C_n(t) / gcd, every q_j
    nonzero.  Its row for the order alpha (|alpha| < m) is its Taylor
    coefficient of that order in the chart x_0 = 1, times
    q_0^(d - |alpha|) * q'^alpha with q'^alpha = prod_{j>=1} q_j^alpha_j:

        B[alpha, gamma] * q^gamma,
        B[alpha, gamma] = prod_j binom(gamma_j, alpha_j),

    so a point's rows are B with column gamma scaled by the monomial
    q^gamma.  The Taylor coefficient scales the derivative by 1/alpha!,
    and vanishing of all of order < m is equivalent to multiplicity >= m
    (characteristic zero).  The row factors are nonzero, so they keep the
    rank over the rationals.  Rank mod p never exceeds the rational rank
    for any integer matrix, and for h0's own parameters every factor
    t - a_k of a q_j is below n + s + 2 in magnitude, far below p >= 2^30,
    so q'^alpha is a unit mod p and the rank mod p is kept too.

The nodes keep the box of monomials gamma_j <= d - m_j (j = 0..n, m_j the
multiplicity at e_j), so the oracle lists that box alone, never the
binom(n+d, n) monomials around it.  B depends only on the box and m, so one
cached block per (n, d, box, m) serves every point: one private builder
scales the block's columns by the point's monomials, exactly over the
integers (conditions_matrix, and h0's exact elimination) or mod a prime
(h0's ranks mod p).  Mod p the rows are the plain int64 products of B and
the monomials, congruent to the exact rows but not reduced: rank_modular
reduces its input once, so each block is reduced mod p exactly once.  The
node index {a_k: k} is built once per n.  The monomials, q^gamma on the
box, do not depend on m and are cached per (n, d, box, t, p), t the curve
parameter and p the prime (None for exact values), in one bounded
lru_cache; the point q itself is cached per (n, t), and each coordinate's
exponent range on the box is read from the caps, so a new prime costs only
the powers and their products.  Primes are drawn once per (seed, trials)
per process, so repeated calls, a sweep's included, find a point's
monomials there.  The box-keyed caches (the listing _columns, the blocks
_structural_block and the box count _kept_count) share one bound,
BOX_CACHE = 512, sized from a criterion-3 sweep's working set of 178
boxes, 251 blocks and 385 box counts: its 9,030 instances share those, and
each is built once whatever the cell order.  h0 puts the n+1 largest
multiplicities on the nodes, so only the other s-n-1 points add rows; it
lays the points out once, counts the kept block before listing any
monomial (the box count and the rows per multiplicity are looked up), and
builds the block for each prime from that layout.  That block,
conditions_matrix at h0's parameters, is the one matrix h0 names: its rows
and cols are the result's, the cell cap bounds it and OracleSizeError
reports it.  Every array it builds is at most as wide as the box, and its
binomial and power tables run only over exponents the box holds, so the
cell cap bounds the work too.

Both kernels eliminate along the block's shorter side, transposing a tall
block, since rank is transpose-invariant.  Both rank modes run one loop on
that kept block: the max rank mod each of their primes, stopping at the
first full rank (min(rows, cols)).  A nonzero minor mod p is a nonzero
integer, so rank mod p never exceeds the rational rank, and a full rank
mod p is the rational rank: a proof, not a probability.  An empty block
(no rows or no columns) has rank 0 and is neither built nor eliminated.
  * exact: one prime, FULL_RANK_PRIME.  Only below full rank (a special
    system) does fraction-free elimination over Python integers run, on
    primitive rows (see rank_exact).
  * modular: several random ~31-bit primes, each drawn from the seed once
    per process, no exact elimination.  The reported h0 is an upper bound
    on the exact h0 at the same parameters, wrong only if every sampled
    prime divides the same nonzero minor.

rank_modular eliminates in panels of PANEL = 16 columns, after FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 34(3), 2008): the small, latency-bound
steps in exact integer arithmetic, the bulk in a floating-point matrix
product that is provably exact.  A panel's columns are eliminated in int64,
entries reduced into [0, p) after every update, so every intermediate
stays below p + (p-1)^2 < 2^63.  The rows below then take the panel's
pivot rows at once, as X @ A12 mod p: X their coefficients on the pivot
rows, A12 the pivot rows' trailing part.  That product is two float64
BLAS products, one on each 16-bit half of A12, every sum below
16 * 2^31 * 2^16 = 2^51 < 2^53 and so exact in any summation order.  The
arithmetic is exact for every prime p < 2^31.  The elimination ends once
the rows below are all zero, as rank-revealing eliminations of that family
do: on a special system's rank-deficient block that comes well before the
last column.

verify_one returns one system's record (RECORD_KEYS), every evaluator
against the oracle, and consistency_sweep that record for a whole grid.

numpy is imported inside the functions that build or eliminate arrays
(_columns, _structural_block, _point_monomials, _point_rows, _block,
rank_exact and rank_modular), not at module level: the closed formula and
the recursion are integer arithmetic, so importing the package and every
command that does not run the oracle leave numpy unloaded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Sequence

from . import castelnuovo, formula, systems
from .binomials import binom
from .systems import LinearSystemSpec

if TYPE_CHECKING:
    import numpy as np

# Entries of each box-keyed cache (_columns, _structural_block, _kept_count).
# A sweep over the criterion-3 family (n = 2..3, d = 0..6, s = 5..9,
# m = 1..4), in any cell order, lists 178 boxes, builds 251 blocks and
# counts 385 boxes, the empty ones included, so 512 holds all three working
# sets.  A bound below a working set evicts what a later cell of a shuffled
# pass needs again, and each such entry is built over and over.
BOX_CACHE = 512


def rank_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free elimination on primitive rows.

    The elimination runs along the shorter side, as in rank_modular: rank
    is transpose-invariant, so a tall matrix is read transposed.  Its rows
    are read as Python integers in one conversion (int64 products would
    wrap) and divided by their contents (gcd of entries), zero rows
    dropped; a matrix with no entries has rank 0.  Each
    column's pivot is the row with the smallest nonzero entry there, to
    slow coefficient growth.  Every other row with a nonzero entry v in
    that column becomes (piv/g) * row - (v/g) * pivot row, g = gcd(piv, v),
    divided by its content, and leaves when it is zero; rows with a zero
    entry are untouched.  Each step keeps the row space, so the rank is the
    number of pivots.  After k pivots a row is the primitive multiple of
    the vector of (k+1)-minors that Bareiss elimination would hold, so its
    entries are never larger.  Columns left of the current one are no
    longer read, so updates work on row tails only.
    """
    import numpy as np

    M = np.asarray(matrix, dtype=object)
    if not M.size:
        return 0
    if M.shape[0] > M.shape[1]:
        M = M.T
    rows = M.tolist()
    m = [[x // g for x in row] for row in rows if (g := math.gcd(*row))]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        if not m:
            break
        piv_i = -1
        piv_abs = 0
        for i, row in enumerate(m):
            v = row[col]
            if v and (piv_i < 0 or abs(v) < piv_abs):
                piv_i, piv_abs = i, abs(v)
        if piv_i < 0:
            continue
        pivot = m.pop(piv_i)
        rank += 1
        piv = pivot[col]
        piv_tail = pivot[col + 1 :]
        rest = []
        for row in m:
            v = row[col]
            if v:
                g = math.gcd(piv, v)
                a, b = piv // g, v // g
                tail = [a * x - b * y for x, y in zip(row[col + 1 :], piv_tail)]
                c = math.gcd(*tail)
                if not c:
                    continue  # a zero row adds nothing to the rank
                row[col + 1 :] = [x // c for x in tail] if c > 1 else tail
            rest.append(row)
        m = rest
    return rank


def _is_probable_prime(x: int) -> bool:
    """Deterministic Miller-Rabin for x < 3.3e24 (fixed witness set)."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random) -> int:
    """A random prime in [2^30, 2^31): (p-1)^2 < 2^63 keeps int64 products exact."""
    while True:
        c = rng.randrange(1 << 30, 1 << 31) | 1
        while not _is_probable_prime(c):
            c += 2
        if c < (1 << 31):
            return c


@lru_cache(maxsize=64)
def _seeded_primes(seed: int, trials: int) -> tuple[int, ...]:
    """The first `trials` primes _random_prime draws from Random(seed),
    drawn once per (seed, trials) per process, all trials at once."""
    rng = random.Random(seed)
    return tuple(_random_prime(rng) for _ in range(trials))


def _node(k: int) -> int:
    """The k-th integer (from 0) of 0, 1, -1, 2, -2, ...: the node a_k of
    C_n for k <= n; h0 puts the points off the nodes at k = n+1, n+2, ..."""
    return (k + 1) // 2 if k % 2 else -(k // 2)


@lru_cache(maxsize=1024)
def _curve_point(n: int, t: int) -> tuple[int, ...]:
    """C_n(t) / gcd, the primitive integer point of the curve at t, cached
    per (n, t)."""
    nodes = [_node(k) for k in range(n + 1)]
    q = [1] * (n + 1)
    for j in range(n + 1):
        for k, a in enumerate(nodes):
            if k != j:
                q[j] *= t - a
    g = math.gcd(*q)
    return tuple(x // g for x in q)


@lru_cache(maxsize=BOX_CACHE)
def _columns(n: int, d: int, caps: tuple[int, ...] | None = None) -> np.ndarray:
    """The monomial columns in the box gamma_j <= caps[j] (j = 0..n; all of
    them when caps is None) as an array H, one row (gamma_0, gamma') each,
    gamma_0 = d - |gamma'|, in the order of the full listing: (gamma_0..
    gamma_n) lexicographically descending, listed one coordinate at a time.
    Callers must not mutate the returned array."""
    import numpy as np

    caps = (d,) * (n + 1) if caps is None else caps
    room = [sum(caps[j + 1 :]) for j in range(n)]  # what later coordinates hold
    left = np.array([d], dtype=np.intp)  # the degree each row has left
    H: list[np.ndarray] = []
    for j in range(n):  # gamma_j = hi, hi-1, ..., max(0, left - room[j])
        hi = np.minimum(left, caps[j])
        counts = np.maximum(hi - np.maximum(left - room[j], 0) + 1, 0)
        left = np.repeat(left, counts)
        start = np.repeat(np.cumsum(counts) - counts, counts)
        g = np.repeat(hi, counts) - np.arange(left.size) + start
        H = [np.repeat(col, counts) for col in H] + [g]
        left -= g
    return np.column_stack(H + [left])


def _exponent_ranges(d: int, caps: tuple[int, ...]) -> list[tuple[int, int]]:
    """The least and the largest gamma_j in the box _columns(n, d, caps),
    one pair per coordinate j = 0..n, read from the caps alone: gamma_j
    runs from max(0, d - (the other caps' sum)) to min(caps[j], d), every
    exponent in between included.  The box must not be empty."""
    total = sum(caps)
    return [(max(0, d - total + cap), min(cap, d)) for cap in caps]


@lru_cache(maxsize=BOX_CACHE)
def _structural_block(n: int, d: int, caps: tuple[int, ...], m: int) -> np.ndarray:
    """B[alpha, gamma] = prod_{j>=1} binom(gamma_j, alpha_j), orders alpha
    (|alpha| < m) by the columns gamma of the box _columns(n, d, caps): the
    point-independent factor of one point's condition rows.  The box must
    not be empty.  Each coordinate's binomial table has one column per
    alpha_j < m and one row per exponent from its least to its largest in
    the box; the box takes every exponent in between, so there are no more
    rows than columns of B.  B <= 2^d, so int64 is exact up to d = 62;
    beyond that the coefficients are Python integers (object dtype).
    Callers must not mutate the returned array."""
    import numpy as np

    G = _columns(n, d, caps)[:, 1:]
    A = _columns(n, m - 1)[:, 1:]
    dtype = np.int64 if d <= 62 else object
    B = np.ones((len(A), len(G)), dtype=dtype)
    for g, a, (lo, hi) in zip(G.T, A.T, _exponent_ranges(d, caps)[1:]):
        table = np.array(
            [[math.comb(x, k) for k in range(m)] for x in range(lo, hi + 1)],
            dtype=dtype,
        )
        B = B * table[g[None, :] - lo, a[:, None]]
    return B


@lru_cache(maxsize=BOX_CACHE)
def _kept_count(n: int, d: int, caps: tuple[int, ...]) -> int:
    """The size of the box _columns(n, d, caps), counted without listing a
    monomial.  By inclusion-exclusion over the coordinates: the monomials of
    degree d with gamma_j >= caps[j] + 1 for every j in a set S number
    binom(n + d - e, n), e = sum_{j in S} (caps[j] + 1), so the count is
    sum_e c_e binom(n + d - e, n), c_e the coefficient of x^e in
    prod_j (1 - x^(caps[j] + 1)).  Caps >= d add no term.  Cached per box."""
    if min(caps) < 0:
        return 0
    c = {0: 1}  # the nonzero c_e, e <= d: at most 2^(n+1), whatever d
    for cap in caps:
        for e, ce in list(c.items()):
            if e + cap < d:
                c[e + cap + 1] = c.get(e + cap + 1, 0) - ce
    return sum(ce * math.comb(n + d - e, n) for e, ce in c.items() if ce)


@lru_cache(maxsize=64)
def _point_row_count(n: int, m: int) -> int:
    """binom(n + m - 1, n): the orders alpha, |alpha| < m, so the rows of
    one point of multiplicity m off the nodes; looked up per (n, m)."""
    return binom(n + m - 1, n)


@lru_cache(maxsize=64)
def _node_index(n: int) -> dict[int, int]:
    """{a_k: k} for the nodes a_0..a_n of C_n, built once per n.  Callers
    must not mutate the returned dict."""
    return {_node(k): k for k in range(n + 1)}


def _layout(
    sys: LinearSystemSpec, params: Sequence[int]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The caps d - m_j of the kept box, m_j the multiplicity at the node
    e_j (0 where no point is, so the cap is d), and the (t, m) of every
    point that adds rows.  Checks that there is one parameter per point,
    pairwise distinct.  Whether a parameter is a node is decided on the
    integer, so a parameter congruent to a node only mod p adds rows like
    any other when the block is built mod p."""
    n, d = sys.n, sys.d
    if len(params) != len(sys.mults):
        raise ValueError("need one curve parameter per point")
    if len(set(params)) != len(params):
        raise ValueError("curve parameters must be pairwise distinct")
    node_of = _node_index(n)
    caps = [d] * (n + 1)
    rows = []
    for t, m in zip(params, sys.mults):
        if t in node_of:
            caps[node_of[t]] = d - max(m, 0)
        elif m > 0:
            rows.append((t, m))
    return tuple(caps), rows


@lru_cache(maxsize=1024)
def _point_monomials(
    n: int, d: int, caps: tuple[int, ...], t: int, p: int | None
) -> np.ndarray:
    """The monomials q^gamma of the point q = _curve_point(n, t), one per
    column of the box _columns(n, d, caps): exact Python integers (object
    dtype), or int64 mod p.  The box must not be empty.  Each q_j is raised
    to the exponents from its least to its largest in the box, no more
    powers than columns (see _structural_block).  Callers must not mutate
    the returned array."""
    import numpy as np

    H = _columns(n, d, caps)
    dtype = object if p is None else np.int64
    v = np.ones(len(H), dtype=dtype)
    for x, col, (lo, hi) in zip(_curve_point(n, t), H.T, _exponent_ranges(d, caps)):
        pw = [x**lo if p is None else pow(x, lo, p)]
        for _ in range(lo, hi):
            pw.append(pw[-1] * x if p is None else pw[-1] * x % p)
        v = v * np.array(pw, dtype=dtype)[col - lo]
        if p is not None:
            v %= p
    return v


def _point_rows(
    n: int, d: int, caps: tuple[int, ...], t: int, m: int, p: int | None
) -> np.ndarray:
    """The condition rows of the point at parameter t (not a node) with
    multiplicity m on the box of caps: its structural block B with each
    column scaled by the point's monomial v, exactly, or mod p as the
    plain int64 products B * v, congruent to the rows mod p but not
    reduced.  The monomials mod p lie in [0, p), p < 2^31, so up to d = 31,
    where B <= 2^d, every product is below 2^62; beyond that B is reduced
    first."""
    import numpy as np

    B = _structural_block(n, d, caps, m)
    v = _point_monomials(n, d, caps, t, p)
    if p is not None and d > 31:
        B = (B % p).astype(np.int64, copy=False)
    return B * v


def _block(
    n: int,
    d: int,
    caps: tuple[int, ...],
    rows: list[tuple[int, int]],
    p: int | None,
) -> np.ndarray:
    """The kept block of a _layout: the rows of every (t, m) in rows on the
    box of caps, exact (object dtype), or mod p as int64 entries in
    [0, 2^62) congruent to the exact ones but not reduced: rank_modular's
    input reduction is the block's one reduction mod p."""
    import numpy as np

    ncols = len(_columns(n, d, caps))
    if not rows or not ncols:
        nrows = sum(_point_row_count(n, m) for _, m in rows)
        return np.zeros((nrows, ncols), dtype=object if p is None else np.int64)
    return np.concatenate([_point_rows(n, d, caps, t, m, p) for t, m in rows])


def conditions_matrix(sys: LinearSystemSpec, params: Sequence[int]) -> np.ndarray:
    """Conditions matrix; rows (point, order), columns the kept monomials.

    A parameter equal to a node a_j is the point e_j: it adds no rows and
    deletes the monomial columns with gamma_j > d - m (see the module
    docstring), so the matrix has binom(n+d, n) columns only when no
    parameter is a node.  Every other point q adds the rows
    B[alpha, gamma] * q^gamma, its Taylor rows scaled by q'^alpha (see the
    module docstring), one per order alpha, |alpha| < m.  The entries are
    exact Python integers (object dtype).  The degree must be >= 0 and the
    parameters pairwise distinct.  At h0's parameters this is the block h0
    eliminates, and its shape is the result's (rows, cols).
    """
    if sys.d < 0:
        raise ValueError("conditions matrix undefined for negative degree")
    return _block(sys.n, sys.d, *_layout(sys, params), None)


# Columns per panel of rank_modular.  The float64 trailing update is exact
# for panels up to 64 wide; on the certificate blocks 8 and 12 were slower
# than 16, and 24 and 32 no faster.
PANEL = 16


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x %= p in place for an int64 array, as x - (x // p) * p: numpy
    floor-divides an int64 array by a scalar without the hardware division
    per entry that its % does.  Returns x."""
    q = x // p
    q *= p
    x -= q
    return x


def rank_modular(M: np.ndarray, p: int) -> int:
    """Rank over GF(p) by blocked elimination; requires p < 2^31.

    The elimination runs along the shorter side (a tall matrix is
    transposed), PANEL columns at a time, each column's pivot the first
    row with a nonzero entry there.  A panel's columns of the rows not yet
    pivots are eliminated in an int64 work array, entries in [0, p), every
    update reduced at once: an entry less a multiplier times a pivot entry
    stays above -(p-1)^2 > -2^62.  When columns remain to the right, the
    work array also carries, for each row, its coefficients on the panel's
    original pivot rows, so after the panel each remaining row is its own
    original trailing part plus X @ A12 (mod p), X those coefficients and
    A12 the original trailing part of the pivot rows; no triangular solve
    is needed.  X @ A12 is two float64 matrix products, one on each 16-bit
    half of A12: every sum is below k * 2^31 * 2^16 <= 2^51 for the k <=
    PANEL = 16 pivots of a panel (2^53 would allow 64), so each product is
    exact whatever the order of summation.  The elimination stops as soon as
    the trailing update leaves the rows not yet pivots all zero: they then
    lie in the span of the pivot rows mod p, so no later panel can add a
    pivot, and the rank is the pivots so far.  The input, any integer
    array (h0's blocks come from the build unreduced, entries below 2^62),
    is reduced into [0, p) first, once: the block's one reduction mod p.
    """
    import numpy as np

    if not 1 < p < 1 << 31:  # products of two residues must fit int64
        raise ValueError(f"the prime must be in [2, 2^31) for int64 products, got {p}")
    R = M // p  # R = M % p as in _reduce; M may hold Python integers
    R *= -p
    R += M
    M = R.astype(np.int64, copy=False)
    if M.shape[0] > M.shape[1]:
        M = np.ascontiguousarray(M.T)
    rank = 0
    while M.size:  # M: the rows not yet pivots, right of the last panel
        nrows, ncols = M.shape
        w = min(PANEL, ncols)
        more = ncols > w  # columns remain right of the panel
        W = np.zeros((nrows, 2 * w if more else w), dtype=np.int64)
        W[:, :w] = M[:, :w]
        order = list(range(nrows))  # W's rows as rows of M
        k = 0  # pivots so far in this panel
        for j in range(w):
            nz = W[k:, j].nonzero()[0]
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            if i > k:
                W[k], W[i] = W[i], W[k].copy()
                order[k], order[i] = order[i], order[k]
            if more:
                W[k, w + k] = 1
            if nz.size > 1:  # some row below has a nonzero entry in this column
                f = W[k + 1 :, j] * pow(int(W[k, j]), -1, p) % p
                end = w + k + 1 if more else w  # later coefficients are 0
                below = W[k + 1 :, j:end]
                below -= np.multiply.outer(f, W[k, j:end])
                _reduce(below, p)
            k += 1
            if k == nrows:
                break
        rank += k
        if not more or k == nrows:
            break
        A12 = M[order[:k], w:]
        X = W[k:, w : w + k].astype(np.float64)
        # (X @ hi mod p) * 2^16 + X @ lo + A22 < 2^47 + 2^51 + 2^31 fits int64.
        T = _reduce((X @ (A12 >> 16).astype(np.float64)).astype(np.int64), p)
        T <<= 16
        T += (X @ (A12 & 0xFFFF).astype(np.float64)).astype(np.int64)
        T += M[order[k:], w:]
        M = _reduce(T, p)
        if not M.any():  # the rows left lie in the pivot rows' span mod p
            break
    return rank


CAP_CELLS = 2_000_000  # default cell cap (rows * cols of the eliminated block)
FULL_RANK_PRIME = (1 << 31) - 1  # exact mode's one prime; < 2^31 for rank_modular


class OracleSizeError(ValueError):
    """Raised when the block the oracle would eliminate exceeds the cell cap."""


@dataclass(frozen=True)
class OracleResult:
    """Rank computation outcome.  rows x cols is the block h0 eliminated,
    conditions_matrix(sys, params) when d >= 0 (no columns when d < 0),
    the block cap_cells bounds; h0 is cols less its rank, exact or an upper
    bound by the mode (see h0).  params holds the curve parameters, one per
    point, the nodes included; primes the primes whose rank was taken, in
    the order tried."""

    h0: int
    rows: int
    cols: int
    params: tuple[int, ...]
    primes: tuple[int, ...]


def _default_params(n: int, mults: Sequence[int]) -> tuple[int, ...]:
    """The nodes a_0..a_n for the n+1 largest multiplicities, largest
    first (ties go to the lower index), and a_{n+1}, a_{n+2}, ... = the
    smallest unused integers of 0, 1, -1, 2, -2, ... for the other points
    in index order."""
    order = sorted(range(len(mults)), key=mults.__getitem__, reverse=True)
    node = {i: k for k, i in enumerate(order[: n + 1])}
    rest = iter(range(n + 1, len(mults)))
    return tuple(
        _node(node[i] if i in node else next(rest)) for i in range(len(mults))
    )


def h0(
    sys: LinearSystemSpec,
    *,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 3,
    cap_cells: int = CAP_CELLS,
) -> OracleResult:
    """Oracle dimension of the system, as an affine count.

    The points are the curve parameters _default_params(sys.n, sys.mults):
    the n+1 largest multiplicities on the nodes, where they only delete
    columns (see conditions_matrix), and the other points at the next
    integers of 0, 1, -1, 2, -2, ... in index order.  The dimension is the
    same at any distinct points of the curve.  h0 is the kept column count
    less the rank of the kept block M' = conditions_matrix(sys, params),
    and the result's rows and cols are M'.shape.  Both modes take the max
    rank of M' mod each of their primes, built mod p by the private
    builder as unreduced int64 products that rank_modular reduces once,
    and stop at the first full rank (min of M'.shape), which no
    later prime can exceed.  The parameters are distinct mod every prime
    used here.
    mode="exact": h0 exactly.  The one prime is FULL_RANK_PRIME; a full
    rank mod p is the rational rank, since rank mod p never exceeds rank
    over the rationals.  Otherwise rank_exact, fraction-free elimination
    of M' (or of its transpose, when M' is tall) on primitive integer
    rows, gives the rank.
    mode="modular": `trials` (>= 1) random ~31-bit primes drawn from seed
    (once per (seed, trials) per process), no exact elimination.  h0 is an
    upper bound on the exact h0 at the same parameters, equal to it unless
    every prime divides the same minor.
    In both modes M' must fit in cap_cells (rows * cols, >= 0), CAP_CELLS
    unless given; its shape is counted before any monomial is listed.  M'
    and every array it is built from are no wider than the kept box, so
    the cap bounds the work too.  Multiplicities <= 0 impose no conditions.
    An empty M' (no rows or no columns; a degree d < 0 keeps no column)
    has rank 0 and is neither built nor eliminated; primes still names
    the first prime of the mode.
    The points are laid out once, and M' is built from that layout for
    each prime (and once exactly for rank_exact), from each point's cached
    monomials (see the module docstring).
    """
    n, d = sys.n, sys.d
    ps = _default_params(n, sys.mults)
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if cap_cells < 0:
        raise ValueError(f"cap_cells must be >= 0, got {cap_cells}")
    caps, rows = _layout(sys, ps)
    erows = sum(_point_row_count(n, m) for _, m in rows)
    ecols = _kept_count(n, d, caps)
    if erows * ecols > cap_cells:
        raise OracleSizeError(f"oracle matrix {erows}x{ecols} exceeds cap {cap_cells}")
    primes = (FULL_RANK_PRIME,) if mode == "exact" else _seeded_primes(seed, trials)
    full = min(erows, ecols)
    rank = 0
    used: list[int] = []
    for p in primes:
        used.append(p)
        if full:  # an empty block (no rows or no columns) has rank 0
            rank = max(rank, rank_modular(_block(n, d, caps, rows, p), p))
        if rank == full:
            break
    if mode == "exact" and rank < full:
        rank = rank_exact(_block(n, d, caps, rows, None))
    return OracleResult(ecols - rank, erows, ecols, ps, tuple(used))


# ---------------------------------------------------------------------------
# Cross-evaluator consistency sweep.


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive bounds for a sweep: n, d, s ranges and the multiplicity
    window every point draws from; cap_cells bounds the oracle's matrix."""

    n: tuple[int, int]
    d: tuple[int, int]
    s: tuple[int, int]
    m: tuple[int, int]
    cap_cells: int = CAP_CELLS


EVALUATORS = ("oracle", "formula", "recursive", "planar", "ldim")
RECORD_KEYS = (
    "n", "d", "mults", "s", "kc", "epsilon", *EVALUATORS, "notes", "verdict",
)


def verify_one(
    spec: LinearSystemSpec,
    *,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 3,
    cap_cells: int = CAP_CELLS,
    state: castelnuovo.RecState | None = None,
) -> dict:
    """Every evaluator on one system, compared against the oracle.

    Returns the system's record, the fields RECORD_KEYS in that order: the
    input's n, d, mults and s, the kc and epsilon of the normalized system
    (systems.kc_epsilon, one division: the k_C the formula uses and dim
    prints, None when normalization leaves fewer than n+3 points), the
    value of each evaluator, None for what was not computed, notes on what
    was skipped or changed, and the verdict.
    The oracle runs, at h0's settings, unless its block exceeds cap_cells.
    The closed formula runs on the normalized system whenever
    formula.in_domain, the recursion always, the planar form for n = 2 with
    normalized s >= 5, and ldim for at most n+2 positive multiplicities.
    Every value is compared, empty systems included.  With the oracle, the
    verdict is agree when all values equal it and disagree:<names> naming
    the ones that do not.
    Without it, the verdict is skip-size when the closed values agree with
    each other and disagree:<names> naming all of them when they do not,
    since none can be preferred.  One agreement is not an independent
    check: for at most n+2 positive multiplicities with n >= 2, ldim and
    the recursion both compute max(ldim_sum, 0); the oracle is the check
    there.  The recursion never calls planar_h0, so at n = 2 the planar
    form checks it where the oracle cannot reach.  state carries the
    recursion memo across calls.  Evaluators are looked up in their
    modules at call time.
    """
    n, d, ms = spec.n, spec.d, spec.mults
    rec = dict.fromkeys(RECORD_KEYS)
    rec.update(n=n, d=d, mults=list(ms), s=len(ms), notes=[])
    positive = [m for m in ms if m > 0]
    norm = systems.normalize(spec)
    rec["kc"], rec["epsilon"] = systems.kc_epsilon(norm.n, norm.d, norm.mults)
    try:
        rec["oracle"] = h0(
            spec, mode=mode, seed=seed, trials=trials, cap_cells=cap_cells
        ).h0
    except OracleSizeError:
        rec["notes"].append(f"oracle skipped: matrix exceeds --cap-cells {cap_cells}")

    if formula.in_domain(norm):
        rec["formula"] = formula.dimension(norm).dimension
        if norm.mults != tuple(sorted(positive, reverse=True)):
            rec["notes"].append("formula evaluated on the normalized system")
    rec["recursive"] = castelnuovo.recursive_h0(norm, state=state)
    if n == 2 and norm.s >= 5:
        rec["planar"] = formula.planar_h0(norm)
    if len(positive) <= n + 2:
        rec["ldim"] = formula.ldim(spec)

    values = {k: rec[k] for k in EVALUATORS if rec[k] is not None}
    if rec["oracle"] is not None:
        bad = [k for k, v in values.items() if v != rec["oracle"]]
        rec["verdict"] = "disagree:" + ",".join(bad) if bad else "agree"
    elif len(set(values.values())) == 1:
        rec["verdict"] = "skip-size"
    else:
        rec["verdict"] = "disagree:" + ",".join(values)
    return rec


def consistency_sweep(
    grid: SweepGrid,
    *,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 3,
) -> list[dict]:
    """verify_one's record for every grid instance, at h0's settings.

    Instances are the multisets of grid.m of each size in grid.s, listed
    non-increasingly.  One recursion memo is shared by the instances of
    each (n, d) block of the grid, so the memo holds one block at a time.  A
    failure inside one instance becomes a record with its n, d, mults and
    s, no values, and the verdict error:<type>:<message>, never an
    exception.
    """
    records: list[dict] = []
    for n in range(grid.n[0], grid.n[1] + 1):
        for d in range(grid.d[0], grid.d[1] + 1):
            rec_state = castelnuovo.RecState()
            for s in range(grid.s[0], grid.s[1] + 1):
                for combo in combinations_with_replacement(
                    range(grid.m[0], grid.m[1] + 1), s
                ):
                    ms = tuple(sorted(combo, reverse=True))
                    try:
                        rec = verify_one(
                            LinearSystemSpec(n, d, ms), mode=mode, seed=seed,
                            trials=trials, cap_cells=grid.cap_cells, state=rec_state,
                        )
                    except Exception as exc:  # a sweep must survive any instance
                        rec = dict.fromkeys(RECORD_KEYS)
                        rec.update(n=n, d=d, mults=list(ms), s=s, notes=[],
                                   verdict=f"error:{type(exc).__name__}:{exc}")
                    records.append(rec)
    return records
