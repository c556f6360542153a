"""Truncated binomial coefficients and the recursive speciality count f.

Everything here is exact integer arithmetic (Python ints, no overflow).

The binomial convention is the truncated one used throughout the package:
binom(a, n) = 0 whenever a < n (negative a included) or n < 0, binom(a, 0) = 1
for a >= 0, and the ordinary value otherwise.  The recursion for f can
formally reach ambient dimension n - i < 0; those calls return 0.  This is
the convention under which the shift identity

    f(t, a, s, eps, n) = f(t, a-1, s, eps, n) + f(t, a-1, s-1, eps, n-1)

holds on the widest parameter grid: every a >= 1, any n >= 0 (exhaustively
scanned over t <= 5, n <= 6, s <= n+10, eps <= 12, |a| <= 12).  Truncation
breaks the Pascal rule at binom(0, 0), which poisons the strip
n - t <= a <= 0.  The identity suite in tests/test_binomials.py states each
identity with the side conditions under which it holds exactly, and
samples from that domain.
"""

from __future__ import annotations

import functools
import math


def binom(a: int, n: int) -> int:
    """Truncated binomial coefficient, zero outside 0 <= n <= a."""
    if n < 0 or a < n:
        return 0
    return math.comb(a, n)


@functools.lru_cache(maxsize=1024)
def f(t: int, a: int, s: int, eps: int, n: int) -> int:
    """Recursive count of sections forced by a degree-t join in the base locus.

    f(0, a, s, eps, n) = binom(a, n), and for t >= 1

        f(t, ...) = binom(a, n)
                  + sum_{i=1..t} binom(s-n-4+i, i) * binom(a+i, n)
                  - sum_{i=1..t} binom(eps, i) * f(t-i, a, s, eps, n-i).

    a may be any integer; t, s, eps, n are expected nonnegative (recursive
    calls with n - i < 0 return 0).  Memoized in an LRU cache of at most
    1024 entries; f.cache_clear() resets it.
    """
    if n < 0:
        return 0
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return binom(a, n)
    val = binom(a, n)
    for i in range(1, t + 1):
        val += binom(s - n - 4 + i, i) * binom(a + i, n)
    for i in range(1, t + 1):
        c = binom(eps, i)
        if c:
            val -= c * f(t - i, a, s, eps, n - i)
    return val


def f_cache_size() -> int:
    return f.cache_info().currsize
