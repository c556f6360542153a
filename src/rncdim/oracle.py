"""Interpolation-matrix oracle: h0 by exact (or modular) linear algebra.

The oracle evaluates the dimension of a system L(n, d; m_1..m_s) with no
recourse to any closed formula: put s points with pairwise distinct
parameters t_i on the standard rational normal curve [1 : t : ... : t^n],
write down the vanishing conditions as an integer matrix, and count
h0 = (#monomials of degree <= d) - rank.

Condition rows use Taylor coefficients rather than raw partial derivatives:
in the affine chart x_0 = 1 the row for (point i, order alpha) has entry

    prod_j binom(gamma_j, alpha_j) * t_i^(sum_j j*(gamma_j - alpha_j))

at the monomial column gamma.  This scales the derivative by 1/alpha! and
keeps every entry an integer.  Vanishing of all Taylor coefficients of order
< m_i is equivalent to multiplicity >= m_i (characteristic zero).

Both binomial products and exponents depend only on (n, d, m_i), so one
cached structural block per (n, d, m) serves every point, and
conditions_matrix, the one builder, substitutes the parameters into it:
exactly over the integers, or mod a prime.

Two parameters are the curve's coordinate points and add no rows.  At
t = 0 (the point e_0) every Taylor row is the unit vector at column alpha,
so multiplicity m there deletes the monomial columns with |gamma| < m.  The
parameter None stands for t = infinity, the point e_n = [0 : ... : 0 : 1];
in the chart x_n = 1 the monomial x^gamma has local degree d - gamma_n, so
multiplicity m there deletes the columns with gamma_n > d - m.  Unit rows on
the deleted columns add exactly their number to the rank, so h0 is
(#kept columns) - rank of the kept block, also when the two deletions
overlap.  PGL(2) acts 3-transitively on the curve through projective
automorphisms of P^n, so any two points can be moved to 0 and infinity
without leaving the standard curve, and the dimension does not depend on
which distinct points of the curve carry the multiplicities (the paper's
formula holds for arbitrary distinct points).  So h0 places the largest
multiplicity at t = 0, the next at infinity and the others at 1..s-2.

Both rank modes run one loop on that kept block: the max rank mod each of
their primes, stopping at the first full rank (min(rows, cols)).  A nonzero
minor mod p is a nonzero integer, so rank mod p never exceeds the rational
rank, and a full rank mod p is the rational rank: a proof, not a
probability.
  * exact: one prime, FULL_RANK_PRIME.  Only below full rank (a special
    system) does fraction-free (Bareiss) elimination over Python integers
    run.
  * modular: several random ~31-bit primes, no Bareiss.  The reported h0
    is an upper bound on the exact h0 at the same parameters, wrong only
    if every sampled prime divides the same nonzero minor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from . import castelnuovo, formula, systems
from .binomials import binom
from .systems import LinearSystemSpec, NormalizedSystem


def monomial_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of degree <= d in n variables,
    graded (total degree ascending), lexicographic within a degree."""
    out: list[tuple[int, ...]] = []
    for deg in range(d + 1):
        block = []
        for comb in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for v in comb:
                e[v] += 1
            block.append(tuple(e))
        block.sort(reverse=True)
        out.extend(block)
    return out


def rank_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    One-step Bareiss: every 2x2 update is divided by the previous pivot, a
    division that is exact by Sylvester's determinant identity, so entries
    stay integers (they are minors of the input).  The update must be applied
    to every row of the active block, zero factor or not, or the exactness
    invariant breaks.  Row pivoting picks the smallest nonzero entry in the
    column to slow coefficient growth.  Columns left of the current one are
    zero throughout the active block, so updates work on row tails only.
    """
    m = [list(row) for row in matrix if any(row)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv_i = -1
        piv_abs = 0
        for i in range(rank, nrows):
            v = m[i][col]
            if v and (piv_i < 0 or abs(v) < piv_abs):
                piv_i, piv_abs = i, abs(v)
        if piv_i < 0:
            continue
        m[rank], m[piv_i] = m[piv_i], m[rank]
        piv_tail = m[rank][col:]
        piv = piv_tail[0]
        for i in range(rank + 1, nrows):
            row = m[i]
            vi = row[col]
            if vi:
                row[col:] = [
                    (piv * a - vi * b) // prev for a, b in zip(row[col:], piv_tail)
                ]
            elif piv != prev:
                row[col:] = [piv * a // prev for a in row[col:]]
        prev = piv
        rank += 1
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


@lru_cache(maxsize=32)
def _structural_block(n: int, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and parameter exponents of one point's condition rows.

    The entry at (order alpha, monomial gamma) is coeff * t^exp with
    coeff = prod_j binom(gamma_j, alpha_j) and exp = sum_j j*(gamma_j -
    alpha_j); both depend only on (n, d, m), not on the point, so the pair
    of arrays is cached and reused across points, primes and oracle calls.
    coeff <= 2^d, so int64 is exact up to d = 62; beyond that the
    coefficients are kept as Python integers (object dtype).  Callers must
    not mutate the returned arrays.
    """
    cols = monomial_exponents(n, d)
    alphas = monomial_exponents(n, m - 1)  # the orders alpha with |alpha| < m
    dtype = np.int64 if d <= 62 else object
    B = np.zeros((len(alphas), len(cols)), dtype=dtype)
    E = np.zeros((len(alphas), len(cols)), dtype=np.int64)
    for ri, alpha in enumerate(alphas):
        for ci, gamma in enumerate(cols):
            c = 1
            for gj, aj in zip(gamma, alpha):
                if gj < aj:
                    c = 0
                    break
                c *= binom(gj, aj)
            if c:
                B[ri, ci] = c
                E[ri, ci] = sum(
                    (j + 1) * (gj - aj) for j, (gj, aj) in enumerate(zip(gamma, alpha))
                )
    return B, E


@lru_cache(maxsize=64)
def _kept_columns(n: int, d: int, m_zero: int, m_inf: int) -> np.ndarray:
    """Indices of the monomial columns that multiplicity m_zero at t = 0 and
    m_inf at t = infinity leave: |gamma| >= m_zero and gamma_n <= d - m_inf.
    Callers must not mutate the returned array."""
    return np.array(
        [
            ci
            for ci, gamma in enumerate(monomial_exponents(n, d))
            if sum(gamma) >= m_zero and gamma[-1] <= d - m_inf
        ],
        dtype=np.intp,
    )


def _layout(
    sys: LinearSystemSpec | NormalizedSystem,
    params: Sequence[int | None],
    p: int | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The kept monomial columns and the (t, m) of every point that adds
    rows, t reduced mod p when p is given.  Checks that there is one
    parameter per point, pairwise distinct (mod p when p is given).  Whether
    a parameter is the coordinate point t = 0 is decided on the integer, so
    a parameter that is 0 only mod p adds rows like any other."""
    if sys.d < 0:
        raise ValueError("conditions matrix undefined for negative degree")
    if len(params) != len(sys.mults):
        raise ValueError("need one curve parameter per point")
    ts = tuple(t if t is None or p is None else t % p for t in params)
    if len(set(ts)) != len(ts):
        where = "" if p is None else f" mod {p}"
        raise ValueError(f"curve parameters must be pairwise distinct{where}")
    m_zero = m_inf = 0
    rows = []
    for t0, t, m in zip(params, ts, sys.mults):
        if t0 is None:
            m_inf = m
        elif t0 == 0:
            m_zero = m
        elif m > 0:
            rows.append((t, m))
    return _kept_columns(sys.n, sys.d, max(m_zero, 0), max(m_inf, 0)), rows


def conditions_matrix(
    sys: LinearSystemSpec | NormalizedSystem,
    params: Sequence[int | None],
    p: int | None = None,
) -> np.ndarray:
    """Conditions matrix; rows (point, order), columns the kept monomials.

    Each point's rows are its cached structural block with t_i substituted.
    A parameter 0 or None (t = infinity) is a coordinate point of the curve:
    it adds no rows and deletes the monomial columns it forces to vanish
    (see the module docstring), so the matrix has binom(n+d, n) columns only
    when neither is given.  With p None the entries are exact Python
    integers (object dtype); with a prime p < 2^31 they are reduced mod p in
    int64, and conditions_matrix(sys, ps, p) equals conditions_matrix(sys,
    ps) % p.  The parameters must be pairwise distinct, mod p when p is
    given: congruent parameters are the same point over GF(p).
    """
    n, d = sys.n, sys.d
    keep, rows = _layout(sys, params, p)
    dtype = object if p is None else np.int64
    blocks = []
    for t, m in rows:
        B, E = _structural_block(n, d, m)
        B, E = B[:, keep], E[:, keep]
        tp = np.empty(int(E.max(initial=0)) + 1, dtype=dtype)
        acc = 1
        for e in range(tp.size):
            tp[e] = acc
            acc = acc * t if p is None else acc * t % p
        if p is None:
            blocks.append(B * tp[E])
        else:
            Bp = (B % p).astype(np.int64) if B.dtype == object else B % p
            blocks.append(Bp * tp[E] % p)
    if not blocks:
        return np.zeros((0, keep.size), dtype=dtype)
    return np.vstack(blocks)


def rank_modular(M: np.ndarray, p: int) -> int:
    """Rank over GF(p) by vectorized elimination; requires p < 2^31."""
    M = M % p
    nrows, ncols = M.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivots = np.nonzero(M[rank:, col])[0]
        if pivots.size == 0:
            continue
        i = rank + int(pivots[0])
        if i != rank:
            M[[rank, i]] = M[[i, rank]]
        inv = pow(int(M[rank, col]), p - 2, p)
        M[rank, col:] = M[rank, col:] * inv % p
        below = M[rank + 1 :, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            idx = nz + rank + 1
            M[idx, col:] = (M[idx, col:] - np.outer(M[idx, col], M[rank, col:])) % p
        rank += 1
    return rank


CAP_CELLS = 2_000_000  # default cell cap (rows * cols of the eliminated block)
FULL_RANK_PRIME = (1 << 31) - 1  # exact mode's one prime; < 2^31 for rank_modular


class OracleSizeError(ValueError):
    """Raised when the block the oracle would eliminate exceeds the cell cap."""


@dataclass(frozen=True)
class OracleResult:
    """Rank computation outcome.  mode is "exact" (h0 exact) or "modular"
    (h0 an upper bound on the exact h0, see h0).  rows, cols and rank are
    those of the full conditions matrix, sum_i binom(n+m_i-1, n) by
    binom(n+d, n) with rank = cols - h0, whichever block was eliminated.
    params holds the curve parameters, one per point, 0 and None (t =
    infinity) included; primes the primes whose rank was taken, in the
    order tried."""

    h0: int
    rank: int
    rows: int
    cols: int
    mode: str
    params: tuple[int | None, ...]
    primes: tuple[int, ...] = ()


def _default_params(mults: Sequence[int]) -> tuple[int | None, ...]:
    """0 for the largest multiplicity, None (t = infinity) for the next
    largest, 1..s-2 for the other points in index order; ties go to the
    lower index."""
    coord = sorted(range(len(mults)), key=lambda i: -mults[i])[:2]
    rest = iter(range(1, len(mults)))
    return tuple(
        (0, None)[coord.index(i)] if i in coord else next(rest)
        for i in range(len(mults))
    )


def h0(
    sys: LinearSystemSpec | NormalizedSystem,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 3,
    cap_cells: int | None = None,
) -> OracleResult:
    """Oracle dimension of the system, as an affine count.

    The points are the curve parameters _default_params(sys.mults): the
    largest multiplicity at t = 0, the next at infinity (parameter None) and
    the rest at 1..s-2 in index order.  The two coordinate points only delete
    columns (see conditions_matrix), and the dimension is the same at any
    distinct points of the curve.  h0 is the kept column count less the rank
    of the kept block M'.  Both modes take the max rank of M' =
    conditions_matrix(sys, params, p) over their primes and stop at the
    first full rank (min of M'.shape), which no later prime can exceed.  The
    parameters are distinct mod every prime used here.
    mode="exact": h0 exactly.  The one prime is FULL_RANK_PRIME; a full
    rank mod p is the rational rank, since rank mod p never exceeds rank
    over the rationals.  Otherwise Bareiss elimination of M' over the
    integers gives the rank.
    mode="modular": `trials` (>= 1) random ~31-bit primes drawn from seed,
    no Bareiss.  h0 is an upper bound on the exact h0 at the same
    parameters, equal to it unless every prime divides the same minor.
    In both modes M' must fit in cap_cells (rows * cols) when that is given;
    its shape is known before it is built.  Degrees d < 0 give h0 = 0;
    multiplicities <= 0 impose no conditions.
    """
    n, d = sys.n, sys.d
    mults = tuple(sys.mults)
    ps = _default_params(mults)
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if d < 0:
        return OracleResult(0, 0, 0, 0, mode, ps)
    keep, rows = _layout(sys, ps)
    erows = sum(binom(n + m - 1, n) for _, m in rows)
    ecols = keep.size
    if cap_cells is not None and erows * ecols > cap_cells:
        raise OracleSizeError(
            f"oracle matrix {erows}x{ecols} exceeds cap {cap_cells}"
        )
    if mode == "exact":
        primes = (FULL_RANK_PRIME,)
    else:
        rng = random.Random(seed)
        primes = (_random_prime(rng) for _ in range(trials))
    full = min(erows, ecols)
    rank = 0
    used: list[int] = []
    for p in primes:
        used.append(p)
        rank = max(rank, rank_modular(conditions_matrix(sys, ps, p), p))
        if rank == full:
            break
    if mode == "exact" and rank < full:
        rank = rank_exact(conditions_matrix(sys, ps))
    h = ecols - rank
    ncols = binom(n + d, n)
    nrows = sum(binom(n + m - 1, n) for m in mults if m > 0)
    return OracleResult(h, ncols - h, nrows, ncols, mode, ps, tuple(used))


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


@dataclass(frozen=True)
class Verification:
    """One instance checked by every evaluator whose domain covers it.

    values maps evaluator name (oracle, formula, recursive, planar, ldim)
    to its h0, for the evaluators that ran; notes say what was skipped or
    changed; verdict is agree, skip-size or disagree:<names>."""

    values: dict[str, int]
    notes: tuple[str, ...]
    verdict: str


def verify_one(
    spec: LinearSystemSpec,
    oracle_mode: str = "exact",
    trials: int = 3,
    seed: int = 0,
    cap_cells: int | None = None,
    state: castelnuovo.RecState | None = None,
) -> Verification:
    """Every evaluator on one system, compared against the oracle.

    The oracle runs unless the block it would eliminate exceeds cap_cells.
    The closed formula runs on the normalized system whenever
    formula.in_domain, the recursion always, the planar form for n = 2 with
    normalized s >= 5, and ldim for at most n+2 positive multiplicities.  Every value is compared,
    empty systems included.  With the oracle, the verdict is agree when all
    values equal it and disagree:<names> naming the ones that do not.
    Without it, the verdict is skip-size when the closed values agree with
    each other and disagree:<names> naming all of them when they do not,
    since none can be preferred.  state carries the recursion memo across
    calls.  Evaluators are looked up in their modules at call time.
    """
    norm = systems.normalize(spec)
    values: dict[str, int] = {}
    notes: list[str] = []
    try:
        values["oracle"] = h0(
            spec, mode=oracle_mode, seed=seed, trials=trials, cap_cells=cap_cells
        ).h0
    except OracleSizeError:
        notes.append(f"oracle skipped: matrix exceeds --cap-cells {cap_cells}")

    if formula.in_domain(norm):
        values["formula"] = formula.dimension(norm).dimension
        if norm.mults != tuple(sorted((m for m in spec.mults if m > 0), reverse=True)):
            notes.append("formula evaluated on the normalized system")
    values["recursive"] = castelnuovo.recursive_h0(norm, state=state)
    if norm.n == 2 and norm.s >= 5:
        values["planar"] = formula.planar_h0(norm)
    if sum(m > 0 for m in spec.mults) <= spec.n + 2:
        values["ldim"] = formula.ldim(spec)

    if "oracle" in values:
        bad = [k for k, v in values.items() if v != values["oracle"]]
        verdict = "disagree:" + ",".join(bad) if bad else "agree"
    elif len(set(values.values())) == 1:
        verdict = "skip-size"
    else:
        verdict = "disagree:" + ",".join(values)
    return Verification(values, tuple(notes), verdict)


RECORD_KEYS = (
    "n", "d", "mults", "s", "kc", "epsilon",
    "oracle", "formula", "recursive", "planar", "ldim", "verdict",
)


def consistency_sweep(
    grid: SweepGrid,
    seed: int = 0,
    oracle_mode: str = "exact",
    trials: int = 3,
) -> list[dict]:
    """verify_one on every grid instance, one record each.

    Instances are the multisets of grid.m of each size in grid.s, listed
    non-increasingly.  Record fields are RECORD_KEYS in that order: kc and
    epsilon of the input when s >= n+3, the value of each evaluator
    (None when it did not run), and the verdict of verify_one.  One
    recursion memo is shared across the sweep.  A failure inside one
    instance becomes its error:<type>:<message> verdict, never an
    exception.
    """
    rec_state = castelnuovo.RecState()
    records: list[dict] = []
    for n in range(grid.n[0], grid.n[1] + 1):
        for d in range(grid.d[0], grid.d[1] + 1):
            for s in range(grid.s[0], grid.s[1] + 1):
                for combo in combinations_with_replacement(
                    range(grid.m[0], grid.m[1] + 1), s
                ):
                    ms = tuple(sorted(combo, reverse=True))
                    rec = dict.fromkeys(RECORD_KEYS)
                    rec.update(n=n, d=d, mults=list(ms), s=s, verdict="")
                    try:
                        if s >= n + 3:
                            rec["kc"] = systems.kc_value(n, d, ms)
                            rec["epsilon"] = systems.epsilon_value(n, d, ms)
                        res = verify_one(
                            LinearSystemSpec(n, d, ms), oracle_mode, trials, seed,
                            grid.cap_cells, rec_state,
                        )
                        rec.update(res.values, verdict=res.verdict)
                    except Exception as exc:  # a sweep must survive any instance
                        rec["verdict"] = f"error:{type(exc).__name__}:{exc}"
                    records.append(rec)
    return records
