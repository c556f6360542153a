"""Interpolation oracle: matrix construction, exact and modular rank."""

import dataclasses
import inspect
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from rncdim import cli, formula, oracle
from rncdim.binomials import binom
from rncdim.castelnuovo import RecState, recursive_h0
from rncdim.oracle import (
    OracleSizeError,
    SweepGrid,
    conditions_matrix,
    consistency_sweep,
    h0,
    rank_exact,
    rank_modular,
    verify_one,
)
from rncdim.systems import LinearSystemSpec, normalize, system, vdim


def monomial_exponents(n, d):
    """Exponent vectors of the monomials of degree <= d in n variables,
    graded (total degree ascending), lexicographic descending within a
    degree: the reference the oracle's numpy listing is checked against."""
    out = []
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


RECORD_KEYS = [
    "n", "d", "mults", "s", "kc", "epsilon",
    "oracle", "formula", "recursive", "planar", "ldim", "notes", "verdict",
]
EVALUATORS = RECORD_KEYS[6:11]


def _values(rec):
    """The values of the evaluators that ran, by name."""
    return {key: rec[key] for key in EVALUATORS if rec[key] is not None}


def test_h0_exact_values():
    assert h0(system(2, 1, [1, 1])).h0 == 1
    assert h0(system(2, 2, [1] * 5)).h0 == 1
    assert h0(system(3, 2, [2, 2])).h0 == 3
    assert h0(system(2, 4, [2] * 5)).h0 == 1
    assert h0(system(3, 6, [2] * 10)).h0 == 45
    assert h0(system(2, -1, [1])).h0 == 0


def test_h0_result_shape():
    # Both points sit on the nodes 0 and 1: no rows, and of the 3 lines
    # only x_2 (gamma_0 = gamma_1 = 0) stays.
    res = h0(system(2, 1, [1, 1]))
    assert res.params == (0, 1)
    assert res.primes == (2**31 - 1,)
    assert (res.h0, res.rows, res.cols) == (1, 0, 1)


def test_monomial_exponents_enumeration():
    for n in range(1, 5):
        for d in range(0, 6):
            exps = monomial_exponents(n, d)
            assert len(exps) == binom(n + d, n)
            assert len(set(exps)) == len(exps)
            degrees = [sum(e) for e in exps]
            assert degrees == sorted(degrees)
            assert all(deg <= d for deg in degrees)


def test_conditions_matrix_shape():
    # Off the nodes 0, 1, -1 every point adds rows and no column goes.
    sys = system(2, 4, [2, 2, 1])
    M = conditions_matrix(sys, (2, 3, 4))
    assert len(M) == 2 * binom(3, 2) + 1 == 7
    assert all(len(row) == binom(6, 2) for row in M)
    # Zero multiplicities contribute no rows but still need a parameter slot.
    M2 = conditions_matrix(system(2, 4, [2, 0, 2, 1]), (2, 5, 3, 4))
    assert len(M2) == 7


def test_conditions_matrix_guards():
    with pytest.raises(ValueError):
        conditions_matrix(system(2, -1, [1]), (1,))
    with pytest.raises(ValueError):
        conditions_matrix(system(2, 3, [1, 1]), (2, 2))
    with pytest.raises(ValueError):
        conditions_matrix(system(2, 3, [1, 1]), (1, 2, 3))


def fraction_rank(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot_row = m[rank]
        for i in range(rank + 1, nrows):
            if m[i][col]:
                fac = m[i][col] / pivot_row[col]
                m[i] = [a - fac * b for a, b in zip(m[i], pivot_row)]
        rank += 1
        if rank == nrows:
            break
    return rank


def test_rank_exact_matches_fraction_elimination():
    rng = random.Random(29)
    for _ in range(120):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 10)
        M = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows >= 2:
            M[-1] = M[0][:]  # force a dependent row
        if rng.random() < 0.2:
            M[0] = [0] * ncols
        assert rank_exact(M) == fraction_rank(M), M
    # Tall inputs, up to twice as many rows as columns, whose extra rows
    # are combinations of the others: rank_exact eliminates the transpose,
    # and the rank is the same read either way.
    for _ in range(120):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(ncols + 1, 2 * ncols)
        base = [[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(rng.randint(1, ncols))]
        M = base + [[sum(rng.randint(-2, 2) * row[j] for row in base) for j in range(ncols)]
                    for _ in range(nrows - len(base))]
        rng.shuffle(M)
        T = [list(col) for col in zip(*M)]
        assert rank_exact(M) == rank_exact(T) == fraction_rank(M), M


def test_rank_exact_on_int64_and_scaled_rows():
    # 34-bit int64 entries: Bareiss products reach about 2^70, so entries
    # kept as numpy int64 would wrap.  The last row is row 0 + row 1.
    rng = random.Random(31)
    for _ in range(300):
        ncols = rng.randint(3, 5)
        nrows = rng.randint(3, ncols + 1)
        M = [[rng.randrange(-(1 << 34), 1 << 34) for _ in range(ncols)]
             for _ in range(nrows - 1)]
        M.append([a + b for a, b in zip(M[0], M[1])])
        want = rank_exact(np.array(M, dtype=object))
        assert want == fraction_rank(M) < nrows
        assert rank_exact(np.array(M, dtype=np.int64)) == want, M
        # Rows scaled by nonzero integers of either sign, and zero rows.
        factors = [rng.choice((-1, 1)) * rng.randint(1, 1 << 20) for _ in M]
        scaled = [[f * x for x in row] for f, row in zip(factors, M)]
        assert rank_exact(scaled + [[0] * ncols]) == want, M
        assert rank_exact(np.array([[0] * ncols] + M, dtype=np.int64)) == want, M
    assert rank_exact(np.zeros((3, 0), dtype=np.int64)) == 0
    assert rank_exact([[], []]) == 0


def test_rank_modular_matches_exact_on_small_matrices():
    rng = random.Random(37)
    p = (1 << 31) - 1
    for _ in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        got = rank_modular(np.array(M, dtype=np.int64), p)
        assert got == fraction_rank(M)


def rank_mod_reference(matrix, p):
    """Rank over GF(p) by Gaussian elimination on Python integers."""
    m = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            fac = m[i][col] * inv % p
            m[i] = [(a - fac * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629], ids=["2^31-1", "2^31-19"])
def test_rank_modular_worst_case_magnitudes(p):
    # K pivot rows e_k + v * (1..1) on the tail, and rows below that are
    # combinations of them with coefficients -h, h = (p-1)/2: with v = h
    # every one of the K eliminations on those rows adds h^2 (about 2^60)
    # to each tail entry, the largest step the centered kernel takes; with
    # v = p-1 (-1 centered) an uncentered pivot row would add about 2^61.
    # Correct arithmetic leaves the rows below zero (rank K); a wrapped
    # int64 entry leaves a nonzero residue mod p and a higher rank.
    h = (p - 1) // 2
    for K, v in itertools.product((8, 9, 12, 20), (h, p - 1)):
        tail = 2 * K
        pivots = [[int(j == k) for j in range(K)] + [v] * tail for k in range(K)]
        for coeffs in ([-h] * K, [h + 1] * K, [p - 1] * K, [-h, h] * (K // 2)):
            dep = [sum(c * row[j] for c, row in zip(coeffs, pivots)) % p
                   for j in range(K + tail)]
            # One row at p-1 everywhere: rank K+1, and the rows below
            # also start at the largest residue.
            for extra in ([], [[p - 1] * (K + tail)]):
                M = pivots + [dep, [(-x) % p for x in dep]] + extra
                want = rank_mod_reference(M, p)
                assert want == K + len(extra)
                assert rank_modular(np.array(M, dtype=np.int64), p) == want, (K, v, coeffs)
                # The transpose is tall: the kernel eliminates it transposed.
                assert rank_modular(np.array(M, dtype=np.int64).T, p) == want


def test_rank_modular_matches_reference():
    # Tall, wide and square blocks; zero columns and rows; rank-deficient
    # blocks; tiny primes, and entries outside [0, p) of either sign.
    rng = random.Random(83)
    for p in (2, 3, 7, 2147483629, 2**31 - 1):
        for _ in range(60):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            pool = [0, 1, p - 1, p // 2, -(p // 2), p, -p, 3 * p + 1]
            M = [[rng.choice(pool) if rng.random() < 0.5 else rng.randint(-p, 2 * p)
                  for _ in range(ncols)] for _ in range(nrows)]
            if ncols > 1:
                for row in M:
                    row[rng.randrange(ncols)] = 0 if rng.random() < 0.5 else row[0]
            if nrows > 2:
                a, b = rng.randrange(1, p) if p > 2 else 1, rng.randrange(p)
                M[-1] = [(a * x + b * y) % p for x, y in zip(M[0], M[1])]
            if rng.random() < 0.2:
                for row in M:
                    row[0] = 0
            got = rank_modular(np.array(M, dtype=np.int64), p)
            assert got == rank_mod_reference(M, p), (p, M)
    for shape in ((0, 5), (5, 0), (0, 0), (3, 4), (4, 3)):
        assert rank_modular(np.zeros(shape, dtype=np.int64), 7) == 0


@pytest.mark.parametrize("p", [2, 3, 7, 2147483629, 2**31 - 1],
                         ids=["2", "3", "7", "2^31-19", "2^31-1"])
def test_rank_modular_panels_match_reference(p):
    # Blocks around the panel width, each eliminated wide and (transposed)
    # tall: columns with no pivot at a panel's first and last column, top
    # rows that only become pivots in a later panel (so row swaps carry
    # them across panel edges), and rank-deficient blocks.
    w = oracle.PANEL
    rng = random.Random(89)
    for nrows, ncols in combinations_with_replacement((w - 1, w, w + 1, 2 * w + 3), 2):
        for case in ("dense", "pivotless", "late rows", "deficient"):
            M = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            if case == "pivotless":  # zero, or a copy of an earlier column
                for c in (0, w - 1, w, 2 * w - 1):
                    if c < ncols:
                        src = rng.randrange(c) if c and rng.random() < 0.5 else None
                        for row in M:
                            row[c] = 0 if src is None else row[src]
            elif case == "late rows":
                for row in M[:3]:
                    row[: min(w + 2, ncols - 1)] = [0] * min(w + 2, ncols - 1)
            elif case == "deficient":
                keep = rng.randint(1, nrows - 1)
                for row in M[keep:]:
                    coeffs = [rng.randrange(p) for _ in range(keep)]
                    row[:] = [sum(c * r[j] for c, r in zip(coeffs, M[:keep])) % p
                              for j in range(ncols)]
                rng.shuffle(M)
            want = rank_mod_reference(M, p)
            if case == "deficient":
                assert want < nrows
            A = np.array(M, dtype=np.int64)
            assert rank_modular(A, p) == want, (p, nrows, ncols, case)
            assert rank_modular(A.T, p) == want, (p, nrows, ncols, case)


def _low_rank(rng, nrows, ncols, k, p):
    """A random nrows x ncols product of nrows x k and k x ncols factors mod
    p, as Python integers: rank at most k."""
    L = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
    R = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*R)] for row in L]


@pytest.mark.parametrize("p", [7, 2147483629, 2**31 - 1], ids=["7", "2^31-19", "2^31-1"])
def test_rank_modular_low_rank_spans_panels(p):
    # Low-rank blocks three or more panels wide, eliminated wide and
    # (transposed) tall: the rows left vanish after the first panel or
    # two, where the elimination stops, and a rank above PANEL carries
    # pivots across panel edges first.
    w = oracle.PANEL
    rng = random.Random(101)
    for nrows, ncols, k in ((40, 200, 12), (40, 200, 1), (40, 3 * w, w + 3), (50, 4 * w + 1, 35)):
        M = _low_rank(rng, nrows, ncols, k, p)
        want = rank_mod_reference(M, p)
        assert want <= k
        A = np.array(M, dtype=np.int64)
        assert rank_modular(A, p) == want, (p, nrows, ncols, k)
        assert rank_modular(A.T, p) == want, (p, nrows, ncols, k)


@pytest.mark.parametrize("p", [7, 2147483629, 2**31 - 1], ids=["7", "2^31-19", "2^31-1"])
def test_rank_modular_last_pivot_in_last_panel(p):
    # Rows in the span of a few rows, but one of them off it by a single
    # entry in the last panel (its first or its last column).  Once the
    # span's pivots are taken, that row is zero except for that entry and
    # the panels before the last add no pivot, so an elimination that
    # stopped on a panel without a pivot, on the next panel's columns, or
    # one panel early in any other way would miss the last pivot.
    w = oracle.PANEL
    rng = random.Random(103)
    for ncols in (3 * w, 3 * w + 5):
        first = (ncols - 1) // w * w  # the last panel's first column
        for late, k in itertools.product((first, ncols - 1), (3, w + 2)):
            M = _low_rank(rng, 2 * k + 4, ncols, k, p)
            row = rng.randrange(len(M))
            M[row][late] = (M[row][late] + rng.randrange(1, p)) % p
            want = rank_mod_reference(M, p)
            A = np.array(M, dtype=np.int64)
            assert rank_modular(A, p) == want, (p, ncols, late, k)
            assert rank_modular(A.T, p) == want, (p, ncols, late, k)
            assert want == rank_mod_reference(M[:row] + M[row + 1 :], p) + 1
    # Rows that copy combinations of the top rows on the first panel and
    # are zero right of it: their later pivots come from the trailing
    # update alone, so a stop that read the rows' own entries right of
    # the panel, before that update, would miss them.
    for k in (3, w):
        top = _low_rank(rng, k, 3 * w + 5, k, p)
        low = [[sum(c * r[j] for c, r in zip(coeffs, top)) % p if j < w else 0
                for j in range(3 * w + 5)]
               for coeffs in [[rng.randrange(p) for _ in range(k)] for _ in range(6)]]
        M = top + low
        want = rank_mod_reference(M, p)
        assert want > rank_mod_reference(top, p)
        A = np.array(M, dtype=np.int64)
        assert rank_modular(A, p) == want, (p, k)
        assert rank_modular(A.T, p) == want, (p, k)


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629], ids=["2^31-1", "2^31-19"])
def test_rank_modular_trailing_update_at_its_bound(p):
    # PANEL pivot rows e_k followed by the largest residues: p-1 (the
    # largest high half) and the largest residue whose low half is 2^16-1.
    # A row with 1 in every panel column takes every pivot with multiplier
    # 1, so all its coefficients on the pivot rows are p-1 and every sum
    # of the two float64 products is at its largest: PANEL (p-1) times
    # the half.  The sum of the pivot rows then reduces to zero; the same
    # row with one trailing entry changed does not.
    w = oracle.PANEL
    top = (p - 1) | 0xFFFF
    if top >= p:
        top -= 1 << 16
    tail = [p - 1, top] * (w + 2)
    pivots = [[int(j == k) for j in range(w)] + tail for k in range(w)]
    total = [1] * w + [w * x % p for x in tail]
    changed = total[:-1] + [(total[-1] + 1) % p]
    for below, want in (([total], w), ([total, changed], w + 1),
                        ([total, [1] * w + [p - 1] * len(tail)], w + 1)):
        M = pivots + below
        assert rank_mod_reference(M, p) == want
        A = np.array(M, dtype=np.int64)
        assert rank_modular(A, p) == want
        assert rank_modular(A.T, p) == want


def test_h0_bounds_and_monotonicity():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 3)
        s = rng.randint(1, n + 5)
        d = rng.randint(0, 5)
        mults = [rng.randint(1, 3) for _ in range(s)]
        sys = system(n, d, mults)
        res = h0(sys)
        assert max(vdim(sys), 0) <= res.h0 <= res.cols
        # Raising the degree can only add sections.
        assert h0(system(n, d + 1, mults)).h0 >= res.h0
        # Adding a point can only remove them.
        assert h0(system(n, d, mults + [1])).h0 <= res.h0


def exact_h0_at(sys_, params):
    """h0 at the given curve parameters: kept columns less the exact rank."""
    M = conditions_matrix(sys_, params)
    return M.shape[1] - rank_exact(M)


def test_h0_point_choice_independence():
    sys = system(2, 4, [2] * 5)
    vals = {
        exact_h0_at(sys, random.Random(seed).sample(range(1, 64), 5))
        for seed in (1, 2, 3)
    }
    assert vals == {1}
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 3)
        s = rng.randint(n + 3, n + 5)
        d = rng.randint(0, 5)
        mults = sorted((rng.randint(1, 3) for _ in range(s)), reverse=True)
        sys = system(n, d, mults)
        canonical = h0(sys).h0
        drawn = exact_h0_at(sys, rng.sample(range(1, 64), s))
        assert drawn == canonical, (n, d, mults)


def test_h0_mult_permutation_invariance():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 3)
        s = rng.randint(n + 3, n + 5)
        d = rng.randint(0, 5)
        mults = [rng.randint(0, 3) for _ in range(s)]
        want = h0(system(n, d, mults)).h0
        shuffled = mults[:]
        rng.shuffle(shuffled)
        assert h0(system(n, d, shuffled)).h0 == want


def test_h0_modular_matches_exact():
    rng = random.Random(59)
    for _ in range(12):
        n = rng.randint(2, 3)
        s = rng.randint(n + 3, n + 5)
        d = rng.randint(0, 5)
        mults = sorted((rng.randint(1, 3) for _ in range(s)), reverse=True)
        sys = system(n, d, mults)
        exact = h0(sys)
        mod = h0(sys, mode="modular", seed=rng.randrange(999), trials=3)
        assert mod.h0 == exact.h0, (n, d, mults)
        # No prime can exceed a full rank, so the primes stop there.
        draws = 3 if mod.cols - mod.h0 < min(mod.rows, mod.cols) else 1
        assert len(mod.primes) == draws
        # Both modes use the default points: the sorted multiplicities sit
        # at 0, 1, -1, 2, -2, ..., the first n+1 of them on the nodes.
        assert mod.params == exact.params == NODE_SEQUENCE[:s]


def test_h0_modular_bounds_exact_at_same_params():
    # The same matrix mod p: its rank can only drop, so h0 can only rise.
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 3)
        s = rng.randint(1, n + 5)
        sys_ = system(n, rng.randint(0, 5), [rng.randint(0, 3) for _ in range(s)])
        pts = tuple(rng.sample(range(-50, 50), s))
        p = oracle._random_prime(random.Random(rng.randrange(999)))
        M = conditions_matrix(sys_, pts)
        mod_h0 = M.shape[1] - rank_modular(M, p)
        assert mod_h0 >= exact_h0_at(sys_, pts), (sys_, pts)


# Full rank, so the one-prime check settles them, and rank-deficient.
FULL_RANK = (system(2, 5, [2] * 5), system(3, 4, [2] * 5))
RANK_DEFICIENT = (system(2, 4, [2] * 5), system(3, 6, [2] * 10))


def _seeded_systems(count=50, seed=67):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        s = rng.randint(1, n + 5)
        yield system(n, rng.randint(0, 6), [rng.randint(0, 4) for _ in range(s)])


# The curve's nodes a_0, a_1, ... and the default parameters after them.
NODE_SEQUENCE = (0,) + tuple(x for k in range(1, 40) for x in (k, -k))


def default_params(n, mults):
    """The nodes 0, 1, -1, ... for the n+1 largest multiplicities in
    decreasing order (ties to the lower index), then the next integers of
    that sequence for the other points in index order."""
    ranked = sorted(range(len(mults)), key=lambda i: (-mults[i], i))
    rest = iter(NODE_SEQUENCE[n + 1 :])
    return tuple(
        NODE_SEQUENCE[ranked.index(i)] if ranked.index(i) <= n else next(rest)
        for i in range(len(mults))
    )


def curve_point(n, t):
    """C_n(t) / gcd: coordinate j is prod over the other nodes of (t - a_k)."""
    nodes = NODE_SEQUENCE[: n + 1]
    q = [math.prod(t - a for k, a in enumerate(nodes) if k != j) for j in range(n + 1)]
    return [x // math.gcd(*q) for x in q]


def test_h0_exact_matches_bareiss():
    full_rank = {}
    for sys_ in (*FULL_RANK, *RANK_DEFICIENT, *_seeded_systems()):
        res = h0(sys_)
        params = default_params(sys_.n, sys_.mults)
        assert (res.primes, res.params) == ((2**31 - 1,), params)
        kept = conditions_matrix(sys_, params)
        assert kept.shape == (res.rows, res.cols)
        assert res.h0 == kept.shape[1] - rank_exact(kept), sys_
        # The full matrix at node-free points has the same corank.
        n, s = sys_.n, len(sys_.mults)
        node_free = conditions_matrix(sys_, NODE_SEQUENCE[n + 1 : n + 1 + s])
        assert res.h0 == node_free.shape[1] - rank_exact(node_free), sys_
        full_rank[sys_] = res.cols - res.h0 == min(res.rows, res.cols)
    assert [full_rank[s] for s in FULL_RANK + RANK_DEFICIENT] == [True, True, False, False]


def test_h0_exact_full_rank_needs_no_bareiss(monkeypatch):
    def no_bareiss(matrix):
        raise AssertionError("Bareiss ran on a full-rank matrix")

    monkeypatch.setattr(oracle, "rank_exact", no_bareiss)
    # The point off the 4 nodes gives 4 rows on the 19 monomials of
    # degree 4 with every exponent <= 2.
    res = h0(system(3, 4, [2] * 5))
    assert (res.h0, res.rows, res.cols) == (15, 4, 19)


def test_h0_exact_below_full_rank_mod_p_is_not_trusted(monkeypatch):
    # A prime that divides every maximal minor lowers the rank mod p; a rank
    # below full proves nothing over the rationals, so Bareiss decides.
    monkeypatch.setattr(oracle, "rank_modular", lambda M, p: 0)
    assert h0(system(3, 4, [2] * 5)).h0 == 15
    assert h0(system(2, 4, [2] * 5)).h0 == 1


@pytest.mark.parametrize(
    "sys_, want",
    [
        # Every point on a node: no rows.
        (system(3, 4, [2, 2, 1]), (26, 0, 26, (0, 1, -1))),
        # m_1 = 3 > d on the node e_0 deletes every column.
        (system(2, 2, [3, 1, 1, 1, 1]), (0, 2, 0, (0, 1, -1, 2, -2))),
    ],
    ids=["no-rows", "no-columns"],
)
@pytest.mark.parametrize("mode, prime", [("exact", 2**31 - 1), ("modular", 1580651243)])
def test_h0_empty_block_is_not_eliminated(monkeypatch, sys_, want, mode, prime):
    # The result, primes included, is that of eliminating the empty block:
    # the exact prime, or the first prime drawn from the seed.
    def unused(*args, **kwargs):
        raise AssertionError("an empty block was built or eliminated")

    monkeypatch.setattr(oracle, "_block", unused)
    monkeypatch.setattr(oracle, "rank_modular", unused)
    res = h0(sys_, mode=mode, seed=4, trials=3)
    assert (res.h0, res.rows, res.cols, res.params) == want
    assert res.primes == (prime,)


def modular_block(sys_, params, p):
    """The block at params built mod p, the build h0 runs for each prime."""
    return oracle._block(sys_.n, sys_.d, *oracle._layout(sys_, params), p)


def test_block_mod_p_matches_conditions_matrix_on_boxes():
    # The block h0 builds mod each prime, at h0's own parameters, is
    # congruent to the exact conditions matrix mod p, with int64 entries in
    # [0, 2^62) left for rank_modular to reduce, on boxes that the nodes cut
    # to different caps: the full box, one or several coordinates cut, caps
    # down to 0, d > 31 (B reduced first) and n = 1.  Each point's
    # monomials and curve point come from the caches on the second build.
    systems_ = (
        system(2, 4, [1] * 6), system(3, 6, [2] * 10), system(3, 10, [7, 4, 4, 3, 3, 3, 2]),
        system(4, 8, [8, 3, 3, 3, 3, 3, 3]), system(2, 9, [9, 5, 2, 2, 2, 2]),
        system(5, 5, [4, 3, 2, 2, 2, 2, 2, 2]), system(2, 40, [30, 12, 5, 21, 21]),
        system(1, 20, [15, 3, 3, 3]),
    )
    for sys_ in systems_:
        params = oracle._default_params(sys_.n, sys_.mults)
        exact = conditions_matrix(sys_, params)
        assert exact.size, sys_
        for p in (7, 1580651243, 2**31 - 1):
            want = [[x % p for x in row] for row in exact]
            for _ in range(2):
                mod = modular_block(sys_, params, p)
                assert mod.dtype == np.int64
                assert 0 <= mod.min() and mod.max() < 1 << 62, (sys_, p)
                assert (mod % p).tolist() == want, (sys_, p)


@pytest.mark.parametrize("p", [None, 2**31 - 1], ids=["exact", "modular"])
def test_repeated_params_rejected(p):
    def build(sys_, params):
        return conditions_matrix(sys_, params) if p is None else modular_block(sys_, params, p)

    # The true value is 1; a repeated parameter is one point, not two.
    with pytest.raises(ValueError, match="distinct"):
        build(system(2, 4, [2] * 5), (1, 1, 2, 3, 4))
    # Also when no point imposes a condition.
    with pytest.raises(ValueError, match="distinct"):
        build(system(2, 4, [0, 0]), (1, 1))
    # A parameter off the nodes, repeated, is one point too.
    with pytest.raises(ValueError, match="distinct"):
        build(system(2, 4, [2] * 5), (0, 1, -1, 5, 5))


def test_conditions_matrix_modular_matches_exact():
    # L_2,2(2) at t = 2, the point q = C_2(2) = (3, 6, 2): row alpha =
    # (1, 0), column gamma = (2, 0) (gamma_0 = 0) is the Taylor coefficient
    # binom(2, 1) * q_0^0 * q_1^(2-1) = 12 scaled by q_1^1 = 6: 72.
    M = conditions_matrix(system(2, 2, [2]), (2,))
    cols = monomial_exponents(2, 2)
    rows = monomial_exponents(2, 1)
    assert M[rows.index((1, 0))][cols.index((2, 0))] == 72
    rng = random.Random(61)
    for p in (7, 101, (1 << 31) - 1):
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(0, 5)
            s = rng.randint(1, 5)
            mults = [rng.randint(0, 3) for _ in range(s)]
            # Distinct residues, lifted to parameters of either sign.
            ps = tuple(r + p * rng.randint(-3, 3) for r in rng.sample(range(min(p, 99)), s))
            sys_ = system(n, d, mults)
            exact = conditions_matrix(sys_, ps)
            mod = modular_block(sys_, ps, p)
            assert mod.dtype == np.int64
            assert mod.shape == exact.shape
            assert [[x % p for x in row] for row in exact] == (mod % p).tolist(), (n, d, mults)
    # High degrees: B reaches binom(40, 20) > 2^37 at d = 40, so B times a
    # residue overflows int64 unless B is reduced first; d = 63 has object B.
    # Up to d = 31, B <= 2^31 times a residue fits int64 unreduced.
    for n, d, m in ((2, 31, 16), (1, 32, 17), (2, 33, 12), (1, 40, 21), (1, 63, 32)):
        sys_ = system(n, d, [m, m])
        exact = conditions_matrix(sys_, (2, -2))
        for p in ((1 << 31) - 1, 1580651243):
            mod = modular_block(sys_, (2, -2), p)
            assert 0 <= mod.min() and mod.max() < 1 << 62, (n, d, p)
            assert [[x % p for x in row] for row in exact] == (mod % p).tolist(), (n, d, p)


def test_conditions_matrix_coordinate_points():
    # n = 2, nodes 0, 1, -1.  The node 1 is e_1: no rows, and multiplicity 2
    # keeps the columns with gamma_1 <= d - m = 0: 1, x_2, x_2^2.
    assert conditions_matrix(system(2, 2, [2]), (1,)).shape == (0, 3)
    # t = 2 is q = C_2(2) = (3, 6, 2); its value row is q^gamma.  The node 0
    # keeps the columns of degree 2 (gamma_0 = 0), the node 1 the gamma_1 = 0.
    assert conditions_matrix(system(2, 2, [2, 1]), (0, 2)).tolist() == [[36, 12, 4]]
    assert conditions_matrix(system(2, 2, [2, 1]), (1, 2)).tolist() == [[9, 6, 4]]
    # A node deletes exactly the columns with gamma_j > d - m, and an
    # ordinary point's value row is q^gamma on the columns that stay.
    for n in range(1, 4):
        for d in range(4):
            homogeneous = [(d - sum(g), *g) for g in monomial_exponents(n, d)]
            for j, a_j in enumerate(NODE_SEQUENCE[: n + 1]):
                for m in range(d + 2):
                    t = NODE_SEQUENCE[n + 1 + j]
                    q = curve_point(n, t)
                    want = [math.prod(x**e for x, e in zip(q, g))
                            for g in homogeneous if g[j] <= d - m]
                    got = conditions_matrix(system(n, d, [m, 1]), (a_j, t))
                    assert got.tolist() == [want], (n, d, j, m)
    # A parameter congruent to a node only mod p is an ordinary point: no
    # column goes, and the mod-p block is congruent to the exact one mod p.
    mod = modular_block(system(2, 2, [1, 1]), (7, 2), 7)
    assert mod.shape == (2, 6)
    assert (mod % 7).tolist() == (conditions_matrix(system(2, 2, [1, 1]), (7, 2)) % 7).tolist()


def test_h0_coordinate_points():
    # m_1 + m_2 = 4 > d + 1: the deletions at two nodes overlap (the line
    # through the two points is in the base locus).  The double line.
    assert h0(system(2, 2, [2, 2])).h0 == 1
    # Which points sit on the nodes does not change h0: special and
    # non-special systems, each at 25 shuffles of nodes and other points.
    rng = random.Random(79)
    for sys_, want in (
        (system(2, 4, [2] * 5), 1),
        (system(2, 5, [3, 2, 2, 2, 1, 1]), 4),
        (system(3, 4, [3, 2, 2, 1, 1, 1, 1]), 13),
        (system(3, 6, [2] * 10), 45),
    ):
        assert h0(sys_).h0 == want
        s = len(sys_.mults)
        for _ in range(25):
            pts = rng.sample(NODE_SEQUENCE[: s + 2], s)
            assert exact_h0_at(sys_, pts) == want, (sys_, pts)


def test_h0_default_points_match_points_1_to_s():
    # Unsorted multiplicities, zeros and some m_i > d.
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(1, 4)
        d = rng.randint(0, 6)
        s = rng.randint(1, n + 3)
        sys_ = system(n, d, [rng.randint(0, min(d + 2, 4)) for _ in range(s)])
        res = h0(sys_)
        assert res.params == default_params(n, sys_.mults)
        # 1..s puts some points on nodes, others off them.
        at_1_to_s = conditions_matrix(sys_, range(1, s + 1))
        assert res.h0 == at_1_to_s.shape[1] - rank_exact(at_1_to_s), sys_
        mod = h0(sys_, mode="modular", seed=rng.randrange(999), trials=1)
        assert mod.params == res.params and mod.h0 >= res.h0, sys_


def test_h0_with_zero_mult_slots():
    pts = random.Random(3).sample(range(1, 64), 7)
    assert exact_h0_at(system(2, 4, [2, 2, 2, 0, 2, 2, 0]), pts) == 1


@pytest.mark.parametrize("d", [-1, 1])
def test_h0_unknown_mode_rejected(d):
    # Every degree rejects it, a negative one (no columns) included.
    with pytest.raises(ValueError, match="unknown oracle mode"):
        h0(system(2, d, [1]), mode="bogus")


@pytest.mark.parametrize("trials", [0, -2])
def test_h0_trials_must_be_positive(trials):
    # No prime would be drawn; the CLI rejects the same count at parse time.
    with pytest.raises(ValueError, match="trials must be >= 1"):
        h0(system(2, 4, [2] * 5), mode="modular", trials=trials)


def test_oracle_size_cap():
    # The cap bounds the eliminated block, in both modes: the 6 points off
    # the 4 nodes give 24 rows; each node deletes the 4 columns with
    # gamma_j > 4, leaving 68 of 84.
    sys_ = system(3, 6, [2] * 10)
    for mode in ("exact", "modular"):
        with pytest.raises(OracleSizeError, match="24x68 exceeds cap 1631"):
            h0(sys_, mode=mode, trials=1, cap_cells=1631)
        res = h0(sys_, mode=mode, trials=1, cap_cells=24 * 68)
        assert (res.h0, res.rows, res.cols) == (45, 24, 68)


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_h0_result_is_the_eliminated_block(mode):
    # The result's rows x cols is the block h0 eliminated: the shape of
    # conditions_matrix at its parameters, the figure the cell cap bounds,
    # and in exact mode cols less its rank is h0.  A negative degree keeps
    # no column.  Each system draws its multiplicities up to its own top,
    # and larger s more often, so that many blocks are not empty.
    rng = random.Random(97)
    first = 2**31 - 1 if mode == "exact" else oracle._seeded_primes(0, 2)[0]
    negative = filled = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        d = rng.randint(-1, 8)
        top = rng.randint(-1, d + 2)
        s = max(rng.randint(0, n + 6), rng.randint(0, n + 6))
        sys_ = system(n, d, [rng.randint(min(1, top), top) for _ in range(s)])
        res = h0(sys_, mode=mode, trials=2)
        if d < 0:
            assert (res.h0, res.cols, res.primes) == (0, 0, (first,)), sys_
            negative += 1
            continue
        M = conditions_matrix(sys_, res.params)
        assert M.shape == (res.rows, res.cols), sys_
        if mode == "exact":
            assert res.h0 == res.cols - rank_exact(M), sys_
        cells = res.rows * res.cols
        if cells:
            assert h0(sys_, mode=mode, trials=2, cap_cells=cells) == res
            with pytest.raises(OracleSizeError):
                h0(sys_, mode=mode, trials=2, cap_cells=cells - 1)
            filled += 1
    assert negative >= 10 and filled >= 40


@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_cap_rejected(cap):
    # A negative cap would skip every oracle; it is an error, not a cap.
    with pytest.raises(ValueError, match="cap_cells must be >= 0"):
        h0(system(2, 4, [2] * 5), cap_cells=cap)
    # All three points on nodes: the block has no rows, so it fits cap 0.
    assert h0(system(2, 4, [2] * 3), cap_cells=0).h0 == 6


def test_primes_from_2_31_rejected():
    # int64 products of residues overflow from p = 2^31 on; unchecked,
    # p = 2^61 - 1 gave rank 28 here, above the rational rank 27.
    sys_ = system(2, 6, [3] * 5)
    pts = range(10**9 + 1, 10**9 + 6)
    exact = conditions_matrix(sys_, pts)
    assert exact.shape == (30, 28) and rank_exact(exact) == 27
    assert rank_modular(exact, 2**31 - 1) == 27
    for big in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\^31"):
            rank_modular(exact, big)


def test_structural_block_entries():
    # The vectorized block against the per-entry definition on the box of
    # caps, the full box (caps d) included, int64 and object (d > 62)
    # coefficients.
    for n, d, caps, m in (
        (1, 3, (3, 3), 2), (2, 4, (4, 4, 4), 3), (3, 3, (3, 3, 3, 3), 5),
        (4, 2, (2, 2, 2, 2, 2), 2), (2, 63, (63, 63, 63), 2),
        (2, 6, (2, 4, 3), 3), (3, 7, (4, 1, 3, 2), 4), (2, 63, (40, 30, 20), 3),
    ):
        B = oracle._structural_block(n, d, caps, m)
        cols = [g for g in monomial_exponents(n, d)
                if all(e <= c for e, c in zip((d - sum(g), *g), caps))]
        rows = monomial_exponents(n, m - 1)
        assert B.shape == (len(rows), len(cols)), (n, d, caps, m)
        for r, alpha in enumerate(rows):
            for c, gamma in enumerate(cols):
                coeff = math.prod(binom(g, a) for g, a in zip(gamma, alpha))
                assert B[r, c] == coeff, (n, d, caps, m, alpha, gamma)
        assert B.dtype == (object if d > 62 else np.int64)


@pytest.mark.parametrize("n,d,m,t", [
    (2, 4, 3, 2), (3, 5, 3, -2), (1, 6, 4, 3), (4, 3, 2, 3), (2, 63, 2, 2),
])
def test_point_rows_are_scaled_taylor_rows(n, d, m, t):
    # Row alpha is the Taylor row B[alpha, gamma] * q_0^gamma_0 *
    # q'^(gamma' - alpha) scaled by q'^alpha, which is nonzero off the
    # nodes, so the rank is that of the Taylor rows.  d = 63 takes the
    # object-dtype path.
    q = curve_point(n, t)
    M = conditions_matrix(system(n, d, [m]), (t,))
    cols = monomial_exponents(n, d)
    rows = monomial_exponents(n, m - 1)
    assert M.shape == (len(rows), len(cols))
    for r, alpha in enumerate(rows):
        scale = math.prod(x**a for x, a in zip(q[1:], alpha))
        for c, gamma in enumerate(cols):
            coeff = math.prod(binom(g, a) for g, a in zip(gamma, alpha))
            taylor = coeff and coeff * q[0] ** (d - sum(gamma)) * math.prod(
                x ** (g - a) for x, g, a in zip(q[1:], gamma, alpha))
            assert M[r, c] == scale * taylor, (alpha, gamma)


def test_consistency_sweep_small_grid(capsys):
    grid = SweepGrid(n=(2, 2), d=(1, 3), s=(5, 5), m=(1, 2))
    records = consistency_sweep(grid, seed=1)
    assert len(records) == 3 * 6  # 3 degrees x multisets of {1,2}^5
    for rec in records:
        assert list(rec.keys()) == RECORD_KEYS
        assert rec["verdict"] == "agree", rec
        assert rec["oracle"] is not None
        assert rec["recursive"] is not None
        # kc and epsilon are the normalized system's, the ones dim prints.
        assert cli.main(["dim", "-n", "2", "-d", str(rec["d"]),
                         "-m", ",".join(map(str, rec["mults"])),
                         "--format", "structured"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (rec["kc"], rec["epsilon"]) == (obj["kc"], obj["epsilon"]), rec


def test_consistency_sweep_survives_a_failing_instance(monkeypatch):
    # An instance whose evaluator raises becomes an error record with its
    # input and no values; the instances after it are still verified.
    real = formula.dimension

    def failing(sys):
        if sys.mults == (2, 2, 1, 1, 1):
            raise ZeroDivisionError("injected")
        return real(sys)

    monkeypatch.setattr(formula, "dimension", failing)
    grid = SweepGrid(n=(2, 2), d=(4, 4), s=(5, 5), m=(1, 2))
    records = consistency_sweep(grid, seed=1)
    assert len(records) == 6
    bad = [rec for rec in records if rec["verdict"].startswith("error")]
    assert bad == [{
        **dict.fromkeys(RECORD_KEYS), "n": 2, "d": 4, "mults": [2, 2, 1, 1, 1],
        "s": 5, "notes": [], "verdict": "error:ZeroDivisionError:injected",
    }]
    assert list(bad[0]) == RECORD_KEYS
    assert records[2] is bad[0]
    assert [rec["verdict"] for rec in records if rec is not bad[0]] == ["agree"] * 5


def test_consistency_sweep_n4_n5_agrees():
    # 1632 instances where the nodes carry 5 or 6 of the 7..9 points.
    grid = SweepGrid(n=(4, 5), d=(0, 5), s=(7, 9), m=(1, 3))
    records = consistency_sweep(grid)
    assert len(records) == 1632
    assert [r for r in records if r["verdict"] != "agree"] == []


def test_consistency_sweep_size_skip():
    grid = SweepGrid(n=(2, 2), d=(2, 2), s=(5, 5), m=(1, 1))
    records = consistency_sweep(grid, seed=1, cap_cells=4)
    assert [rec["verdict"] for rec in records] == ["skip-size"]
    assert records[0]["oracle"] is None


@pytest.mark.parametrize("mode,trials", [("exact", 3), ("modular", 2)])
def test_consistency_sweep_matches_per_instance_calls(mode, trials):
    # Zero multiplicities, m > d, d = 0 and systems with every point on a
    # node; the sweep's calls run in one order on one recursion memo and
    # monomial cache, the per-instance calls after them on a fresh memo.
    grid = SweepGrid(n=(2, 3), d=(0, 6), s=(3, 7), m=(0, 4))
    records = consistency_sweep(grid, mode=mode, seed=5, trials=trials)
    state = RecState()
    for rec in records:
        spec = LinearSystemSpec(rec["n"], rec["d"], tuple(rec["mults"]))
        got = verify_one(spec, mode=mode, seed=5, trials=trials, state=state)
        assert got == rec, rec


def test_modular_sweep_draws_each_prime_once(monkeypatch):
    # Every h0 call of a sweep gets the primes of one seed; they are drawn
    # once per (seed, trials) per process, all trials at once, so a sweep
    # draws at most `trials` primes per seed, and the primes are those of
    # Random(seed), in the order drawn.
    real = oracle._random_prime
    calls = []

    def counting(rng):
        calls.append(rng)
        return real(rng)

    monkeypatch.setattr(oracle, "_random_prime", counting)
    oracle._seeded_primes.cache_clear()
    grid = SweepGrid(n=(2, 3), d=(2, 5), s=(5, 7), m=(1, 3))
    drawn = []
    for seed in (5, 6, 5):
        calls.clear()
        records = consistency_sweep(grid, mode="modular", seed=seed, trials=3)
        assert all(rec["verdict"] == "agree" for rec in records)
        drawn.append(len(calls))
    assert 1 <= drawn[0] <= 3 and 1 <= drawn[1] <= 3
    assert drawn[2] == 0  # the second sweep at seed 5 drew none
    for seed in (5, 6):
        rng = random.Random(seed)
        fresh = [real(rng) for _ in range(3)]
        primes = h0(system(3, 5, [3] * 9), mode="modular", seed=seed, trials=3).primes
        assert primes == tuple(fresh[: len(primes)])
    # The primality test behind every draw, below 2 and through its witnesses.
    small = [x for x in range(-2, 40) if oracle._is_probable_prime(x)]
    assert small == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_point_monomial_cache_keeps_results():
    # The full OracleResult is the same with the monomial cache emptied
    # before each call (cold) and shared by all of them (warm).  The calls
    # mix n, d, both modes and several seeds at the same curve parameters,
    # and the special systems among them (h0 above max(0, cols - rows))
    # make exact mode eliminate over the integers (p None) after the
    # full-rank prime.  A key without d hands a warm call another degree's
    # monomials; one without p hands exact elimination some prime's
    # residues, cold too, so every h0 is also checked against the recursion.
    rng = random.Random(89)
    calls = []
    for _ in range(40):
        mults = [rng.randint(0, 4) for _ in range(rng.randint(1, 12))]
        sys_ = system(rng.choice((2, 3)), rng.choice((4, 5)), mults)
        for mode, seed in (("modular", rng.randrange(3)), ("exact", 0),
                           ("modular", rng.randrange(3))):
            calls.append((sys_, mode, seed))
    assert {(sys_.n, sys_.d) for sys_, _, _ in calls} == {(2, 4), (2, 5), (3, 4), (3, 5)}
    cold = []
    for sys_, mode, seed in calls:
        oracle._point_monomials.cache_clear()
        cold.append(h0(sys_, mode=mode, seed=seed, trials=2))
    oracle._point_monomials.cache_clear()
    warm = [h0(sys_, mode=mode, seed=seed, trials=2) for sys_, mode, seed in calls]
    assert warm == cold
    assert oracle._point_monomials.cache_info().hits > 0
    for (sys_, mode, _), res in zip(calls, cold):
        assert res.h0 == recursive_h0(normalize(sys_)), (sys_, mode)
    assert sum(res.h0 > max(0, res.cols - res.rows) for res in cold) >= 10


def test_sweep_builds_each_box_and_block_once():
    # Cells of two (n, d) slices in interleaved order, as a shuffled sweep
    # visits them: the box-keyed caches hold both slices at once, so every
    # box listing and every structural block is built once (one miss per
    # entry) and none is evicted before a later cell needs it again.
    oracle._columns.cache_clear()
    oracle._structural_block.cache_clear()
    for n, d, s in ((3, 6, 8), (3, 5, 8), (3, 6, 7), (3, 5, 7)):
        consistency_sweep(SweepGrid(n=(n, n), d=(d, d), s=(s, s), m=(1, 4)))
    for cache in (oracle._columns, oracle._structural_block):
        info = cache.cache_info()
        assert info.misses == info.currsize, info


def test_box_listing_matches_filtered_reference():
    # The box listing against the full reference listing filtered by the
    # caps, in the same order, and its length against the count made
    # without listing; caps from -2 (an empty box) to d, as multiplicities
    # 0..d+2 at the nodes give.
    rng = random.Random(7)
    for _ in range(300):
        n, d = rng.randint(1, 4), rng.randint(0, 9)
        caps = tuple(rng.randint(-2, d) for _ in range(n + 1))
        want = [(d - sum(g), *g) for g in monomial_exponents(n, d)]
        want = [g for g in want if all(e <= c for e, c in zip(g, caps))]
        H = oracle._columns(n, d, caps)
        assert H.shape == (len(want), n + 1), (n, d, caps)
        assert H.tolist() == [list(g) for g in want], (n, d, caps)
        assert oracle._kept_count(n, d, caps) == len(want), (n, d, caps)
        if want:  # each coordinate's exponent range, read from the caps
            ranges = [(min(col), max(col)) for col in zip(*want)]
            assert oracle._exponent_ranges(d, caps) == ranges, (n, d, caps)


def test_cap_checked_before_any_monomial_is_listed(monkeypatch, capsys):
    # binom(403, 3) ~ 1.1e7 monomials at n = 3, d = 400: the cell cap ends
    # the call, and the CLI with exit 3, before any of them is listed.
    def unused(*args):
        raise AssertionError("monomials listed before the cap check")

    monkeypatch.setattr(oracle, "_columns", unused)
    with pytest.raises(OracleSizeError, match="exceeds cap 1000"):
        h0(system(3, 400, [2] * 8), cap_cells=1000)
    # With no cap given, the library applies CAP_CELLS, as the CLI does.
    with pytest.raises(OracleSizeError, match=f"exceeds cap {oracle.CAP_CELLS}$"):
        h0(system(3, 400, [2] * 8))
    # The box is counted in time and memory that do not grow with d.
    tracemalloc.start()
    try:
        with pytest.raises(OracleSizeError, match=f"exceeds cap {oracle.CAP_CELLS}$"):
            h0(system(2, 10**6, [1] * 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    argv = ["dim", "-n", "3", "-d", "400", "-m", "2^8", "--evaluators", "oracle",
            "--cap-cells", "1000"]
    assert cli.main(argv) == 3
    assert "exceeds cap 1000" in capsys.readouterr().err


def test_every_entry_point_defaults_to_cap_cells():
    # One size guard: the library calls and the commands that run the
    # oracle all cap the block at CAP_CELLS unless told otherwise.
    defaults = [
        inspect.signature(fn).parameters["cap_cells"].default
        for fn in (h0, verify_one, consistency_sweep)
    ]
    commands = cli._parsers()[1]
    defaults += [commands[name].get_default("cap_cells") for name in ("dim", "verify")]
    assert defaults == [oracle.CAP_CELLS] * 5
    # The oracle settings have h0's names, defaults and order in every entry
    # point, keyword-only, so no positional call can swap seed and trials;
    # the sweep's grid holds only its ranges.
    assert [f.name for f in dataclasses.fields(SweepGrid)] == ["n", "d", "s", "m"]
    want = [("mode", "exact"), ("seed", 0), ("trials", 3), ("cap_cells", oracle.CAP_CELLS)]
    for fn in (h0, verify_one, consistency_sweep):
        params = list(inspect.signature(fn).parameters.values())[1:]
        assert [(p.name, p.default) for p in params[:4]] == want, fn
        assert all(p.kind is p.KEYWORD_ONLY for p in params), fn


def test_cap_bounds_the_box_build(monkeypatch):
    # The nodes keep few columns of many: 1 of binom(304, 4) = 348,881,876
    # at n = 4, d = 300 and 5 of 2001 at n = 1, d = 2000.  The blocks are
    # built on the kept box alone, so both answer at once, and no listing
    # is larger than the kept block counted before it.
    real = oracle._columns
    listed = []

    def recording(n, d, caps=None):
        H = real(n, d, caps)
        listed.append((H.shape[0], oracle._kept_count(n, d, caps or (d,) * (n + 1))))
        return H

    monkeypatch.setattr(oracle, "_columns", recording)
    oracle._structural_block.cache_clear()  # so that the listings run
    oracle._point_monomials.cache_clear()
    for sys_, want in ((system(4, 300, [240] * 5 + [1]), 0),
                       (system(1, 2000, [1995, 1, 1]), 4)):
        res = h0(sys_, cap_cells=oracle.CAP_CELLS)
        assert res.h0 == want == recursive_h0(normalize(sys_)), sys_
    assert listed and all(rows <= kept for rows, kept in listed), listed


def test_columns_match_monomial_exponents():
    # The numpy listing of the columns against the Python reference: the
    # same monomials in the same order, gamma_0 = d - |gamma'|.
    for n in range(1, 6):
        for d in range(0, 9):
            H = oracle._columns(n, d)
            G = np.array(monomial_exponents(n, d)).reshape(-1, n)
            assert np.array_equal(H[:, 1:], G), (n, d)
            assert np.array_equal(H[:, 0], d - G.sum(axis=1)), (n, d)


# Empty systems: some m_i > d.  The first 20 are the instances of the
# criterion-3 family where the recursion and ldim gave positive dimensions;
# the last four are where the closed formula gave -11, -5, -1 and -1.
EMPTY_SYSTEMS = (
    "L_2,2(4,1,1,1,1)", "L_2,2(4,2,1,1,1)",
    "L_2,2(4,1,1,1,1,1)", "L_2,2(4,2,1,1,1,1)",
    "L_2,2(4,1,1,1,1,1,1)", "L_2,2(4,2,1,1,1,1,1)",
    "L_2,2(4,1,1,1,1,1,1,1)", "L_2,2(4,2,1,1,1,1,1,1)",
    "L_3,2(4,1,1,1,1,1)", "L_3,2(4,2,1,1,1,1)", "L_3,2(4,2,2,1,1,1)",
    "L_3,2(4,1,1,1,1,1,1)", "L_3,2(4,2,1,1,1,1,1)", "L_3,2(4,2,2,1,1,1,1)",
    "L_3,2(4,1,1,1,1,1,1,1)", "L_3,2(4,2,1,1,1,1,1,1)", "L_3,2(4,2,2,1,1,1,1,1)",
    "L_3,2(4,1,1,1,1,1,1,1,1)", "L_3,2(4,2,1,1,1,1,1,1,1)", "L_3,2(4,2,2,1,1,1,1,1,1)",
    "L_4,3(5,1,1,1,1,1,1)", "L_4,3(5,2,1,1,1,1,1)",
    "L_4,3(5,3,1,1,1,1,1)", "L_4,3(5,2,2,1,1,1,1)",
)


def _parse_label(label):
    n, d, body = re.fullmatch(r"L_(\d+),(\d+)\(([\d,]+)\)", label).groups()
    return system(int(n), int(d), [int(m) for m in body.split(",")])


@pytest.mark.parametrize("label", EMPTY_SYSTEMS)
def test_empty_systems_every_evaluator_zero(label):
    sys_ = _parse_label(label)
    assert max(sys_.mults) > sys_.d
    norm = normalize(sys_)
    assert h0(sys_).h0 == 0
    assert recursive_h0(norm) == 0
    if norm.s >= norm.n + 3:
        rep = formula.dimension(norm)
        assert rep.dimension == 0 and rep.contributions == ()
        assert formula.dimension(sys_).dimension == 0
    if norm.n == 2 and norm.s >= 5:
        assert formula.planar_h0(norm) == 0
    if sys_.s <= sys_.n + 2:
        assert formula.ldim(sys_) == 0
    res = verify_one(sys_)
    assert set(_values(res).values()) == {0} and res["verdict"] == "agree", res


def test_verify_one_names_wrong_evaluators(monkeypatch):
    real = formula.dimension
    monkeypatch.setattr(
        formula, "dimension",
        lambda sys: dataclasses.replace(real(sys), dimension=real(sys).dimension + 1),
    )
    sys_ = system(2, 4, [2] * 5)
    res = verify_one(sys_)
    assert _values(res) == {"oracle": 1, "formula": 2, "recursive": 1, "planar": 1}
    assert res["verdict"] == "disagree:formula"
    # Without the oracle no evaluator can be preferred: all are named.
    skipped = verify_one(sys_, cap_cells=5)
    assert skipped["oracle"] is None
    assert skipped["verdict"] == "disagree:formula,recursive,planar"
    assert skipped["notes"] == ["oracle skipped: matrix exceeds --cap-cells 5"]
