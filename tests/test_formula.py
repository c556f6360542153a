"""Closed-form evaluators: join classes, dimension, ldim, planar, regimes."""

import random
from dataclasses import astuple
from itertools import combinations

import pytest

from rncdim.binomials import binom, f
from rncdim.castelnuovo import recursive_h0
from rncdim.formula import (
    JoinClass,
    dimension,
    double_points_h1,
    double_points_h1_f1,
    enumerate_join_classes,
    in_domain,
    ldim,
    ldim_sum,
    planar_g,
    planar_h0,
    planar_nef,
    planar_reduction_steps,
    regularity_index,
    subset_counts,
)
from rncdim.oracle import h0
from rncdim.systems import kc_epsilon, kc_value, normalize, system, vdim

WORKED = system(5, 8, [7, 6, 6] + [5] * 7)

# Every nonzero contribution of the worked example, as
# (c, sigma, t, k, r, count, f, signed), in report order.
WORKED_CONTRIBUTIONS = [
    (0, 0, 0, 8, -1, 1, 1287, 1287),
    (1, 5, 0, 5, 0, 7, 126, -882),
    (1, 6, 0, 6, 0, 2, 252, -504),
    (1, 7, 0, 7, 0, 1, 462, -462),
    (2, 10, 0, 2, 1, 21, 1, 21),
    (2, 11, 0, 3, 1, 14, 6, 84),
    (2, 12, 0, 4, 1, 8, 21, 168),
    (2, 13, 0, 5, 1, 2, 56, 112),
    (3, 19, 0, 3, 2, 1, 1, -1),
    (0, 0, 1, 5, 1, 1, 238, 238),
    (1, 5, 1, 2, 2, 7, 1, -7),
    (1, 6, 1, 3, 2, 2, 8, -16),
    (1, 7, 1, 4, 2, 1, 33, -33),
    (0, 0, 2, 2, 3, 1, 1, 1),
]


def test_worked_example_contributions():
    report = dimension(WORKED)
    got = [astuple(jc) for jc in report.contributions]
    assert got == WORKED_CONTRIBUTIONS
    assert sum(jc.signed for jc in report.contributions) == 6


def test_worked_example_report_fields():
    report = dimension(system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3))
    assert report.dimension == 6
    assert report.kc == 5
    assert report.epsilon == 1
    assert report.vdim == -561
    assert report.speciality == 6
    assert report.normalized.mults == (7, 6, 6, 5, 5, 5, 5, 5, 5, 5)
    assert len(report.special_effects) == 15


def test_dimension_values():
    assert dimension(system(3, 6, [2] * 10)).dimension == 45
    assert dimension(system(2, 4, [2] * 5)).dimension == 1
    assert dimension(system(3, 7, [2] * 10)).dimension == 80
    assert dimension(system(3, 8, [2] * 10)).dimension == 125
    report = dimension(system(2, 3, [3, 1, 1, 1, 1]))
    assert report.dimension == 0


# Empty systems with every m_i <= d whose emptying join fills P^3 or P^5:
# sigma_2(C) (2*kc > d), a line's span joined with C, sigma_3(C).  The class
# sum alone gave -1, -1, -1, -3, -4 and -4.
FILLING_JOIN_ORACLE = ((3, 9, [9, 9] + [3] * 5), (3, 10, [10, 10, 4] + [3] * 4),
                       (3, 10, [6] * 7))
FILLING_JOIN_RECURSIVE = ((3, 26, [16] * 3 + [15] * 2 + [14] * 3),
                          (5, 30, [22] * 3 + [21] * 7), (3, 35, [24, 21] + [20] * 4))
# The filling join that report names for each, as (c, sigma, t, k, count).
FILLING_JOIN_CLASS = {
    (3, 9, 9): (2, 18, 1, 3, 1), (3, 10, 10): (2, 20, 1, 3, 1),
    (3, 10, 6): (0, 0, 2, 2, 1), (3, 26, 16): (0, 0, 2, 2, 1),
    (5, 30, 22): (0, 0, 3, 3, 1), (3, 35, 24): (0, 0, 2, 5, 1),
}


@pytest.mark.parametrize("n,d,mults", FILLING_JOIN_ORACLE + FILLING_JOIN_RECURSIVE)
def test_filling_join_empties_the_system(n, d, mults):
    norm = normalize(system(n, d, mults))
    assert max(norm.mults) <= d and norm.s >= n + 3
    rep = dimension(norm)
    c, sigma, t, k, count = FILLING_JOIN_CLASS[(n, d, mults[0])]
    named = JoinClass(c, sigma, t, k, n, count, 0, 0)
    assert (rep.dimension, rep.contributions, rep.special_effects) == (0, (), (named,))
    assert rep.speciality == 0 - max(rep.vdim, 0)
    exact = (n, d, mults) in FILLING_JOIN_ORACLE
    assert (h0(system(n, d, mults)).h0 if exact else recursive_h0(norm)) == 0


@pytest.mark.parametrize("mults,count", [((6,) + (2,) * 6, 1), ((6, 6, 1, 1, 1, 1), 2)])
def test_point_above_d_empties_the_system(mults, count):
    # The class of the points of multiplicity 6 > d = 5: c = 1, sigma = k = 6.
    rep = dimension(system(3, 5, mults))
    point = JoinClass(1, 6, 0, 6, 0, count, 0, 0)
    assert (rep.dimension, rep.contributions, rep.special_effects) == (0, (), (point,))


def test_dimension_speciality_rule():
    # Nonempty: speciality = dimension - max(vdim, 0).
    rep = dimension(system(3, 6, [2] * 10))
    assert rep.speciality == 45 - 44 == rep.dimension - max(rep.vdim, 0)
    # Empty systems follow the same rule: dimension 0 with vdim < 0 is not
    # special.
    rep = dimension(system(2, 3, [3, 1, 1, 1, 1]))
    assert rep.speciality == rep.dimension - max(rep.vdim, 0) == 0
    rep = dimension(system(4, 3, [5, 1, 1, 1, 1, 1, 1]))
    assert (rep.dimension, rep.vdim, rep.speciality) == (0, -41, 0)


def test_dimension_prune_invariance():
    # Classes with a < n - t get f = 0 without evaluating f; f must be 0.
    rng = random.Random(5)
    checked = 0
    for _ in range(250):
        n = rng.randint(2, 5)
        s = rng.randint(n + 3, n + 6)
        d = rng.randint(0, 8)
        mults = sorted((rng.randint(1, 5) for _ in range(s)), reverse=True)
        norm = normalize(system(n, d, mults))
        if norm.s < n + 3 or norm.mults[0] > d:
            continue
        eps = kc_epsilon(n, d, norm.mults)[1]
        for jc in enumerate_join_classes(norm):
            a = n + jc.k - jc.r - 1
            if a < n - jc.t:
                assert jc.f == 0 == f(jc.t, a, norm.s, eps, n), (norm, jc)
        checked += 1
    assert checked >= 60


def test_dimension_rejects_small_point_counts():
    with pytest.raises(ValueError):
        dimension(system(3, 4, [2, 2]))
    # Raw s >= n+3 but zeros normalize away.
    with pytest.raises(ValueError):
        dimension(system(2, 3, [2, 2, 0, 0, 0]))
    # s >= n+3 on a line, where the sum would answer -1.
    with pytest.raises(ValueError, match="n >= 2"):
        dimension(system(1, 3, [1] * 5))


def test_subset_counts_row_sums():
    rng = random.Random(9)
    for _ in range(30):
        s = rng.randint(4, 12)
        mults = [rng.randint(1, 6) for _ in range(s)]
        cmax = rng.randint(1, s)
        counts = subset_counts(mults, cmax)
        for c in range(cmax + 1):
            assert sum(counts[c].values()) == binom(s, c)


def test_enumerate_join_classes_structure():
    classes = enumerate_join_classes(WORKED)
    n, d = WORKED.n, WORKED.d
    kc, eps = kc_epsilon(n, d, WORKED.mults)
    keys = [(jc.t, jc.c, jc.sigma) for jc in classes]
    assert keys == sorted(keys)
    assert classes[0].c == 0 and classes[0].k == d and classes[0].r == -1
    for jc in classes:
        assert jc.r == jc.c + 2 * jc.t - 1
        a = n + jc.k - jc.r - 1
        want = f(jc.t, a, WORKED.s, eps, n) if a >= n - jc.t else 0
        assert (jc.f, jc.signed) == (want, (-1) ** jc.c * jc.count * want)
    # Past the empty class (t = c = 0) only classes with k >= 1 are listed,
    # so the (t, c = 0) class is listed iff t = 0 or t*kc - (t-1)*d >= 1.
    want = {(t, 0) for t in range(n // 2 + 1) if t == 0 or t * kc - (t - 1) * d >= 1}
    assert {(jc.t, jc.c) for jc in classes if jc.c == 0} == want == {(0, 0), (1, 0), (2, 0)}
    assert all(jc.k >= 1 for jc in classes[1:])
    assert len(classes) == 19
    # The empty class is listed even where its k = d is below 1.
    empty = enumerate_join_classes(system(2, 0, [1] * 5))[0]
    assert astuple(empty) == (0, 0, 0, 0, -1, 1, 1, 1)


def full_join_classes(sys):
    """Every (c, sigma, t) class, k < 1 included: the reference that the
    classes enumerate_join_classes skips are checked against."""
    n, d, mults = sys.n, sys.d, sys.mults
    kc, eps = kc_epsilon(n, d, mults)
    counts = subset_counts(mults, n)
    classes = []
    for t in range(n // 2 + 1):
        for c in range(n - 2 * t + 1):
            r = c + 2 * t - 1
            for sigma in sorted(counts[c]):
                k = sigma + t * kc - (t + c - 1) * d
                a = n + k - r - 1
                val = f(t, a, len(mults), eps, n) if a >= n - t else 0
                count = counts[c][sigma]
                classes.append(
                    JoinClass(c, sigma, t, k, r, count, val, (-1) ** c * count * val)
                )
    return classes


def test_join_classes_skip_only_classes_that_add_nothing():
    rng = random.Random(31)
    systems = [normalize(WORKED)]
    while len(systems) < 520:
        n = rng.randint(2, 8)
        d = rng.randint(0, 14)
        s = rng.randint(n + 3, n + 8)
        norm = normalize(system(n, d, [rng.randint(1, max(d, 1)) for _ in range(s)]))
        if in_domain(norm):
            systems.append(norm)
    summed = dropped = 0
    for norm in systems:
        n, d = norm.n, norm.d
        full = full_join_classes(norm)
        kept = enumerate_join_classes(norm)
        skipped = set(full) - set(kept)
        # Kept classes equal the reference's field for field, in its order.
        assert kept == [jc for jc in full if jc not in skipped], norm
        kc = kc_value(n, d, norm.mults)
        for t in range(n // 2 + 1):
            listed = any(jc.t == t and jc.c == 0 for jc in kept)
            assert listed == (t == 0 or t * kc - (t - 1) * d >= 1), (norm, t)
        rep = dimension(norm)
        for jc in skipped:
            assert (jc.c, jc.t) != (0, 0) and jc.k < 1 and jc.f == 0, (norm, jc)
            assert jc not in rep.special_effects, (norm, jc)
        dropped += len(skipped)
        # A point above d or a filling join (r = n) empties the system
        # without the class sum; otherwise the sum is the reference's.
        if norm.mults[0] > d or any(jc.r == n for jc in rep.special_effects):
            continue
        assert rep.dimension == sum(jc.signed for jc in full), norm
        assert rep.contributions == tuple(jc for jc in full if jc.f), norm
        effects = tuple(jc for jc in full if jc.k >= 1 and jc.r >= 1)
        assert rep.special_effects == effects, norm
        summed += 1
    assert summed >= 500 and dropped >= 50_000


def test_ldim_values():
    assert ldim(system(2, 1, [1, 1])) == 1
    assert ldim(system(3, 2, [2, 2])) == 3
    assert ldim(system(2, 4, [2, 2, 2])) == 6
    assert ldim(system(3, 5, [])) == binom(8, 3)
    assert ldim(system(2, 2, [2, 2, 2, 1])) == 0


def test_ldim_drops_nonpositive_mults():
    assert ldim(system(2, 3, [2, 0, -1, 2])) == ldim(system(2, 3, [2, 2]))


def test_ldim_rejects_large_point_counts():
    with pytest.raises(ValueError):
        ldim(system(2, 3, [1] * 5))


def brute_ldim_sum(n, d, mults):
    s = len(mults)
    total = 0
    for c in range(s + 1):
        for idx in combinations(range(s), c):
            k = sum(mults[i] for i in idx) - (c - 1) * d
            total += (-1) ** c * binom(n + k - c, n)
    return total


def test_ldim_sum_matches_brute_force():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 5)
        d = rng.randint(0, 9)
        s = rng.randint(0, n + 2)
        mults = [rng.randint(1, 7) for _ in range(s)]
        assert ldim_sum(n, d, mults) == brute_ldim_sum(n, d, mults)


def test_planar_h0_values():
    assert planar_h0(system(2, 4, [2] * 5)) == 1
    assert planar_h0(system(2, 6, [2] * 10)) == dimension(system(2, 6, [2] * 10)).dimension
    assert planar_h0(system(2, 3, [3, 1, 1, 1, 1, 1])) == 0
    assert planar_h0(system(2, 1, [1, 1, 1, 1, 1])) == 0
    # m_1 > d: every peel keeps G, but the end divisor is not nef.
    assert planar_h0(system(2, 17, [18, 5, 3, 2, 1])) == 0


def test_planar_h0_guards():
    with pytest.raises(ValueError):
        planar_h0(system(3, 4, [2] * 6))
    with pytest.raises(ValueError):
        planar_h0(system(2, 4, [2, 2, 2, 2]))


def test_planar_reduction_steps_conic_peel():
    steps = planar_reduction_steps(4, (2, 2, 2, 2, 2))
    assert steps == [(4, (2, 2, 2, 2, 2)), (0, (0, 0, 0, 0, 0))]
    g = [planar_g(d, ms) for d, ms in steps]
    assert g == [1, 1]
    assert planar_nef(*steps[-1])


def test_planar_reduction_steps_line_peel():
    steps = planar_reduction_steps(3, (2, 2, 1, 1, 1))
    # First pair has k = 2+2-3 = 1: one line through the two double points.
    assert steps[1] == (2, (1, 1, 1, 1, 1))
    d_end, ms_end = steps[-1]
    assert d_end >= 0
    assert planar_nef(d_end, ms_end)
    g = {planar_g(d, ms) for d, ms in steps}
    assert g == {1}
    assert planar_h0(system(2, 3, [2, 2, 1, 1, 1])) == 1


def test_planar_nef_inequalities():
    assert planar_nef(2, (1, 1, 1, 1))
    assert not planar_nef(-1, (0, 0))
    assert not planar_nef(2, (2, 1))  # pair exceeds degree
    assert not planar_nef(3, (2, 2, 2, 1))  # total exceeds 2d
    assert not planar_nef(2, (1, -1))


def test_planar_matches_dimension_on_effective_instances():
    # Two independent routes to the same planar count.
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        s = rng.randint(5, 9)
        d = rng.randint(0, 8)
        mults = sorted((rng.randint(1, 4) for _ in range(s)), reverse=True)
        norm = normalize(system(2, d, mults))
        if norm.s < 5 or norm.mults != tuple(mults):
            continue
        val = dimension(norm).dimension
        if val <= 0:
            continue
        assert planar_h0(norm) == val, (d, mults)
        checked += 1
    assert checked >= 40


def test_regularity_index_values():
    assert regularity_index(2, [2] * 5) == 5
    assert regularity_index(5, [7, 6, 6] + [5] * 7) == 12
    assert regularity_index(3, [2] * 10) == 7
    assert regularity_index(2, [3, 3]) == 5
    with pytest.raises(ValueError):
        regularity_index(3, [4])


def test_regularity_index_ignores_nonpositive():
    assert regularity_index(2, [3, 0, -2, 2]) == regularity_index(2, [3, 2])


def test_double_points_h1_regimes():
    assert double_points_h1(3, 7, 10) == 0
    assert double_points_h1(3, 6, 10) == 1
    assert double_points_h1(3, 4, 10) == 11
    with pytest.raises(ValueError):
        double_points_h1(3, 4, 5)


def test_double_points_h1_f1_agreement():
    for s in range(6, 14):
        for d in range(2, 12):
            via_f = double_points_h1_f1(3, d, s)
            if via_f is not None:
                assert via_f == double_points_h1(3, d, s), (d, s)
    # Low-regime corner with negative excess parameter.
    assert double_points_h1_f1(3, 2, 6) is None
    with pytest.raises(ValueError):
        double_points_h1_f1(3, 4, 5)


def test_dimension_matches_vdim_in_regular_range():
    # Above the regularity index the system is non-special.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        s = rng.randint(n + 3, n + 6)
        mults = sorted((rng.randint(1, 4) for _ in range(s)), reverse=True)
        delta = regularity_index(n, mults)
        for d in (delta, delta + 2):
            sys = system(n, d, mults)
            assert dimension(sys).dimension == max(vdim(sys), 0), (n, d, mults)
