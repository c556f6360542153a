"""Closed-form dimension engine for systems with points on a normal curve.

The central object is the signed sum

    h0 = sum over (t, I) of (-1)^|I| * f(t, n + k - r - 1, s, eps, n)

where t runs over 0..floor(n/2), I over subsets of the points with
|I| <= n - 2t, k = sigma + t*kc - (t + |I| - 1)*d with sigma the sum of the
multiplicities in I, and r = |I| + 2t - 1.  Subsets enter only through
(|I|, sigma), so instead of 2^s terms we count subsets by size and sum with
a generating-function DP over the multiplicity multiset and weight each
(c, sigma, t) class by its count.  Only the empty class and the classes
with k >= 1 are listed: f is evaluated only when k >= c + t, so any other
class adds 0, and a special effect needs k >= 1.

The module also carries the small-s evaluator ldim (inclusion-exclusion
over all subsets, valid for s <= n+2), the planar closed form with its
self-checking reduction, the regularity index, and the homogeneous
double-point speciality formulas.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .binomials import binom, f
from .systems import (
    LinearSystemSpec,
    NormalizedSystem,
    kc_epsilon,
    kc_value,
    normalize,
    speciality,
    vdim,
)


# ---------------------------------------------------------------------------
# Join classes: subsets grouped by (size, multiplicity sum).


@dataclass(frozen=True)
class JoinClass:
    """One (c, sigma, t) orbit of terms in the dimension sum.

    count is the number of c-subsets of the points whose multiplicities sum
    to sigma; every such subset contributes the same term f, so the class
    adds signed = (-1)^c * count * f.  f is 0, and not evaluated, when its
    argument a = n + k - r - 1 satisfies a < n - t, that is when
    k < c + t (pruning invariant).  So a class with k < 1 adds 0 unless it
    is the empty class (c = t = 0), and enumerate_join_classes skips it.
    """

    c: int
    sigma: int
    t: int
    k: int
    r: int
    count: int
    f: int
    signed: int


def subset_counts(mults: Sequence[int], cmax: int) -> list[dict[int, int]]:
    """counts[c][sigma] = number of c-subsets of mults with sum sigma.

    Knapsack product over (1 + x*y^m), truncated at x^cmax; exact integer
    counts.  counts[0] = {0: 1} always.
    """
    counts: list[dict[int, int]] = [dict() for _ in range(cmax + 1)]
    counts[0][0] = 1
    for m in mults:
        for c in range(min(cmax, len(counts) - 1), 0, -1):
            lower = counts[c - 1]
            if not lower:
                continue
            target = counts[c]
            for sigma, cnt in lower.items():
                target[sigma + m] = target.get(sigma + m, 0) + cnt
    return counts


def enumerate_join_classes(sys: LinearSystemSpec) -> list[JoinClass]:
    """The (c, sigma, t) classes of the dimension sum that can count, for a
    system with s >= n+3, ordered by (t, c, sigma), each with its f value
    and signed term.

    k = sigma + t*kc - (t + c - 1)*d and r = c + 2t - 1; the empty class
    (c=0, sigma=0, t=0) is always present with k = d, r = -1.  Every other
    class is listed only if k >= 1: below that its f is 0 (f needs
    k >= c + t) and it is no special effect, so the sum is unchanged.
    """
    n, d, mults = sys.n, sys.d, sys.mults
    s = len(mults)
    kc, eps = kc_epsilon(n, d, mults)
    counts = subset_counts(mults, n)
    classes: list[JoinClass] = []
    for t in range(n // 2 + 1):
        for c in range(n - 2 * t + 1):
            r = c + 2 * t - 1
            for sigma in sorted(counts[c]):
                k = sigma + t * kc - (t + c - 1) * d
                if k < 1 and (c or t):
                    continue
                a = n + k - r - 1
                val = f(t, a, s, eps, n) if a >= n - t else 0
                count = counts[c][sigma]
                classes.append(
                    JoinClass(c, sigma, t, k, r, count, val, (-1) ** c * count * val)
                )
    return classes


# ---------------------------------------------------------------------------
# The dimension formula.


@dataclass(frozen=True)
class DimensionReport:
    """contributions lists the classes with f != 0; special_effects the
    classes with k >= 1 and r >= 1, whose f and signed term may be 0.  In
    an empty system special_effects is what empties it: the point of
    multiplicity above d (one class, r = 0) or the joins that fill P^n
    (r = n), with f = signed = 0."""

    normalized: NormalizedSystem
    kc: int
    epsilon: int
    dimension: int
    vdim: int
    speciality: int
    contributions: tuple[JoinClass, ...]
    special_effects: tuple[JoinClass, ...]


class DomainViolation(ValueError):
    """Input is well-formed but outside the requested evaluator's domain."""


def in_domain(norm: NormalizedSystem) -> bool:
    """Whether dimension covers the normalized system: n >= 2 and s >= n+3.
    On a line (n = 1) the sum can go negative, e.g. -1 for L_1,3(1^5)."""
    return norm.n >= 2 and norm.s >= norm.n + 3


def dimension(sys: LinearSystemSpec) -> DimensionReport:
    """Dimension (affine h0) of a system in_domain after normalization.

    Sums the signed terms of enumerate_join_classes exactly.  That lists
    only the empty class and the classes with k >= 1; the skipped ones have
    f = 0 and are no special effects, so they add nothing.  Inputs
    outside in_domain raise DomainViolation; route those to the recursion
    (or ldim for s <= n+2).

    vdim and speciality refer to the normalized system (dropping a redundant
    point changes the virtual dimension but not the dimension); speciality
    is systems.speciality, dimension - max(vdim, 0).  A point of
    multiplicity m_1 > d empties the system: the report then has dimension
    0 and one class, c = 1, sigma = k = m_1, t = r = 0, count the points of
    multiplicity m_1, and f = signed = 0.  So does a join that fills P^n,
    which the class sum never lists (its classes have r <= n-1): for
    t = 0..floor((n+1)/2) the span of c = n+1-2t points joined with the
    secant variety sigma_t(C) is all of P^n, and every form vanishes on it
    to order k = sigma_c + t*kc - (n-t)*d, sigma_c the sum of the c largest
    multiplicities.  When some k > 0, every form is zero, and the report's
    classes are those joins, with r = n, count the c-subsets of sum
    sigma_c, and f = signed = 0.
    PAPER.md holds only the abstract, so this rule rests on its check
    against the oracle and the recursion.
    """
    norm = sys if isinstance(sys, NormalizedSystem) else normalize(sys)
    n, d, mults = norm.n, norm.d, norm.mults
    if not in_domain(norm):
        raise DomainViolation(
            f"dimension formula needs s >= n+3 after normalization and n >= 2"
            f" (got s={norm.s}, n={n})"
        )
    kc, eps = kc_epsilon(n, d, mults)
    # A degree-d form with a point of multiplicity m_1 > d, or vanishing
    # along a join that fills P^n, is zero; that point or those joins are
    # then the classes and the special effects.
    m1 = mults[0]
    if m1 > d:
        effects = [JoinClass(1, m1, 0, m1, 0, mults.count(m1), 0, 0)]
    else:
        effects = []
        for t in range((n + 1) // 2 + 1):
            c = n + 1 - 2 * t
            sigma = sum(mults[:c])
            k = sigma + t * kc - (n - t) * d
            if k > 0:
                count = subset_counts(mults, c)[c][sigma]
                effects.append(JoinClass(c, sigma, t, k, n, count, 0, 0))
    classes = effects
    if not effects:
        classes = enumerate_join_classes(norm)
        effects = [jc for jc in classes if jc.k >= 1 and jc.r >= 1]
    total = sum(jc.signed for jc in classes)
    v = vdim(norm)
    return DimensionReport(
        normalized=norm,
        kc=kc,
        epsilon=eps,
        dimension=total,
        vdim=v,
        speciality=speciality(total, v),
        contributions=tuple(jc for jc in classes if jc.f),
        special_effects=tuple(effects),
    )


# ---------------------------------------------------------------------------
# Small point counts: inclusion-exclusion over all subsets.


def ldim_sum(n: int, d: int, mults: Sequence[int]) -> int:
    """Signed subset sum  sum_I (-1)^|I| binom(n + k_I - |I|, n)  with
    k_I = sum_{i in I} m_i - (|I| - 1)d and k_empty = d.

    Grouped by (|I|, sigma) through the same DP as the main formula, so s
    need not be tiny.  No clamping; callers decide what negatives mean.
    """
    ms = [m for m in mults if m > 0]
    counts = subset_counts(ms, len(ms))
    total = 0
    for c in range(len(ms) + 1):
        for sigma, cnt in counts[c].items():
            k = sigma - (c - 1) * d
            total += (-1) ** c * cnt * binom(n + k - c, n)
    return total


def ldim(sys: LinearSystemSpec) -> int:
    """Dimension for s <= n+2 points (after dropping m <= 0): the subset
    formula clipped at zero, and 0 when some m_i > d."""
    ms = [m for m in sys.mults if m > 0]
    if len(ms) > sys.n + 2:
        raise ValueError(
            f"ldim needs at most n+2 = {sys.n + 2} points, got {len(ms)}"
        )
    if any(m > sys.d for m in ms):
        return 0  # a point of multiplicity above d empties the system
    return max(ldim_sum(sys.n, sys.d, ms), 0)


# ---------------------------------------------------------------------------
# The planar closed form and its self-checking reduction.


def planar_g(d: int, mults: Sequence[int]) -> int:
    """The planar counting function G for n = 2 and s >= 5 points.

    G = binom(d+2,2) - sum binom(m_i+1,2) + sum_{i<j} binom(k_ij,2)
        + binom(kc,2) + (s-5)*binom(kc+1,2) - eps*binom(kc,1)

    with k_ij = m_i + m_j - d.  Truncated binomials kill every negative-k
    term.  s is len(mults), zeros included: reduction steps keep every
    point slot.
    """
    s = len(mults)
    kc, eps = kc_epsilon(2, d, mults)
    g = binom(d + 2, 2) - sum(binom(m + 1, 2) for m in mults)
    for mi, mj in combinations(mults, 2):
        g += binom(mi + mj - d, 2)
    g += binom(kc, 2) + (s - 5) * binom(kc + 1, 2) - eps * binom(kc, 1)
    return g


def planar_reduction_steps(
    d: int, mults: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """The divisor after each base-component peel, input included.

    Repeatedly subtracts k_ij+ times the line class through the first pair
    with k_ij > 0 (each subtraction lowers d by at least 1, bounding the
    loop), then kc+ times the conic class.  Stops as soon as the degree goes
    negative.  The end divisor of a nonempty system has all k_ij <= 0 and
    kc <= 0 and is nef.
    """
    d = int(d)
    mults = list(mults)
    s = len(mults)
    steps = [(d, tuple(mults))]
    while d >= 0:
        hit = False
        for i, j in combinations(range(s), 2):
            kij = mults[i] + mults[j] - d
            if kij > 0:
                d -= kij
                mults[i] -= kij
                mults[j] -= kij
                hit = True
                break
        if not hit:
            break
        steps.append((d, tuple(mults)))
    if d >= 0:
        kc = kc_value(2, d, mults)
        if kc > 0:
            d -= 2 * kc
            mults = [m - kc for m in mults]
            steps.append((d, tuple(mults)))
    return steps


def planar_nef(d: int, mults: Sequence[int]) -> bool:
    """Nef inequalities for n = 2: nonnegative multiplicities, no pair
    exceeding the degree, total at most twice the degree."""
    return (
        d >= 0
        and all(m >= 0 for m in mults)
        and all(mi + mj <= d for mi, mj in combinations(mults, 2))
        and 2 * d >= sum(mults)
    )


def planar_h0(sys: LinearSystemSpec) -> int:
    """Planar dimension by the closed form G, certified by reduction.

    Evaluates G directly, then re-derives it by peeling base components
    (planar_reduction_steps), checking after every step that G is
    unchanged.  For a nonempty system every peel removes a fixed component,
    preserves G, keeps multiplicities nonnegative, and the end divisor is
    nef with h0 = G, so the answer is max(G, 0).  Each of those properties
    is inherited step by step, so observing any violation (G changed,
    degree went negative, end divisor not nef) certifies the input system
    was empty and the answer is 0.

    Expects n = 2, s >= 5, normalized input (m_i >= 1, non-redundant).
    """
    if sys.n != 2:
        raise ValueError("planar_h0 handles n = 2 only")
    if len(sys.mults) < 5:
        raise ValueError("planar_h0 needs s >= 5; use ldim below that")
    steps = planar_reduction_steps(sys.d, sys.mults)
    g0 = planar_g(*steps[0])
    for d, mults in steps[1:]:
        if d < 0:
            return 0
        if planar_g(d, mults) != g0:
            return 0
    d, mults = steps[-1]
    if not planar_nef(d, mults):
        return 0
    return max(g0, 0)


# ---------------------------------------------------------------------------
# Regularity index and homogeneous double points.


def regularity_index(n: int, mults: Sequence[int]) -> int:
    """Least degree from which the system is non-special:
    max(m_1 + m_2 - 1, floor((sum m_i + n - 2) / n)) for the two largest
    multiplicities m_1 >= m_2.  Needs n >= 1 and at least two points."""
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    ms = sorted((m for m in mults if m > 0), reverse=True)
    if len(ms) < 2:
        raise ValueError("regularity index needs at least two points")
    return max(ms[0] + ms[1] - 1, (sum(ms) + n - 2) // n)


def double_points_h1(n: int, d: int, s: int) -> int:
    """Speciality of the system of degree-d hypersurfaces with s general
    double points on the curve (s >= n+3):

        0                        if n*d >= 2s - 1
        2s - n*d - 1             if s + n + 2 <= n*d < 2s - 1
        s(n+1) - n^2(d-1) - 2    if n*d < s + n + 2

    Exact integer regime tests throughout.
    """
    if s < n + 3:
        raise ValueError("double-point formulas assume s >= n+3")
    nd = n * d
    if nd >= 2 * s - 1:
        return 0
    if nd >= s + n + 2:
        return 2 * s - nd - 1
    return s * (n + 1) - n * n * (d - 1) - 2


def double_points_h1_f1(n: int, d: int, s: int) -> int | None:
    """The same speciality written through f, for cross-assertion:
    f(1, n-1, s, n*d-n-s-2, n) in the middle regime and
    f(1, n, s, n*(d-2)-4, n) in the low regime.  None when the regime's
    excess parameter is negative (only non-effective corners)."""
    if s < n + 3:
        raise ValueError("double-point formulas assume s >= n+3")
    nd = n * d
    if nd >= 2 * s - 1:
        return 0
    if nd >= s + n + 2:
        eps = nd - n - s - 2
        return f(1, n - 1, s, eps, n) if eps >= 0 else None
    eps = n * (d - 2) - 4
    return f(1, n, s, eps, n) if eps >= 0 else None
