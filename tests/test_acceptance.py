"""Acceptance gate: ten end-to-end criteria, one pass line each.

Every criterion prints a single "criterion N PASS: ..." line after its
asserts, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
All comparisons are exact; the only tolerances are wall-clock budgets on
criterion 1.  Shared oracle results are cached per (n, d, mults).
"""

import random
import time
from itertools import combinations_with_replacement

from rncdim.binomials import f
from rncdim.castelnuovo import RecState, l_map, recursive_h0
from rncdim.formula import (
    dimension,
    double_points_h1,
    double_points_h1_f1,
    in_domain,
    ldim_sum,
    planar_g,
    planar_h0,
    planar_nef,
    planar_reduction_steps,
    regularity_index,
)
from rncdim.oracle import SweepGrid, consistency_sweep, h0
from rncdim.systems import kc_value, normalize, system, vdim
from test_binomials import identity_suite

WORKED_RAW = system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3)
WORKED_NORM_MULTS = (7, 6, 6, 5, 5, 5, 5, 5, 5, 5)

_ORACLE_CACHE: dict[tuple[int, int, tuple[int, ...]], int] = {}


def oracle_h0(n: int, d: int, mults: tuple[int, ...]) -> int:
    key = (n, d, mults)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = h0(system(n, d, mults)).h0
    return _ORACLE_CACHE[key]


def grid_multisets(s: int, lo: int = 1, hi: int = 4):
    for combo in combinations_with_replacement(range(lo, hi + 1), s):
        yield tuple(sorted(combo, reverse=True))


def test_criterion_1_worked_example():
    assert kc_value(5, 8, WORKED_RAW.mults) == 4
    norm = normalize(WORKED_RAW)
    assert norm.mults == WORKED_NORM_MULTS

    t0 = time.perf_counter()
    report = dimension(WORKED_RAW)
    formula_elapsed = time.perf_counter() - t0
    assert report.kc == 5
    assert report.epsilon == 1
    assert report.dimension == 6
    assert formula_elapsed < 1.0, f"formula path took {formula_elapsed:.2f}s"

    k_values = {(jc.c, jc.sigma, jc.t): jc.k for jc in report.special_effects}
    assert k_values[(1, 6, 1)] == 3
    assert f(1, 5, 10, 1, 5) == 8

    t0 = time.perf_counter()
    res = h0(system(5, 8, WORKED_NORM_MULTS), mode="modular", seed=0, trials=3)
    oracle_elapsed = time.perf_counter() - t0
    assert (res.rows, res.cols) == (504, 177)
    assert res.h0 == 6
    assert oracle_elapsed < 60.0, f"modular oracle took {oracle_elapsed:.1f}s"

    t0 = time.perf_counter()
    exact = h0(system(5, 8, WORKED_NORM_MULTS))
    exact_elapsed = time.perf_counter() - t0
    assert exact.h0 == 6

    print(
        f"criterion 1 PASS: worked example kc 4->5 eps 1 dimension 6 "
        f"(formula {formula_elapsed:.3f}s, modular oracle {oracle_elapsed:.1f}s,"
        f" exact oracle {exact_elapsed:.1f}s)"
    )


def test_criterion_2_special_effect_listing():
    # (c, sigma, t, k, count) per excess dimension r, frozen.
    expected = {
        1: {(2, 10, 0, 2, 21), (2, 11, 0, 3, 14), (2, 12, 0, 4, 8),
            (2, 13, 0, 5, 2), (0, 0, 1, 5, 1)},
        2: {(3, 17, 0, 1, 28), (3, 18, 0, 2, 14), (3, 19, 0, 3, 1),
            (1, 5, 1, 2, 7), (1, 6, 1, 3, 2), (1, 7, 1, 4, 1)},
        3: {(2, 12, 1, 1, 8), (2, 13, 1, 2, 2), (0, 0, 2, 2, 1)},
        4: {(1, 7, 2, 1, 1)},
    }
    report = dimension(WORKED_RAW)
    got: dict[int, set] = {}
    for jc in report.special_effects:
        got.setdefault(jc.r, set()).add((jc.c, jc.sigma, jc.t, jc.k, jc.count))
    assert got == expected
    tier_counts = {
        r: sum(item[4] for item in classes) for r, classes in got.items()
    }
    assert tier_counts == {1: 46, 2: 53, 3: 11, 4: 1}
    print(
        "criterion 2 PASS: 15 special-effect classes in 4 tiers, "
        "counts {1: 46, 2: 53, 3: 11, 4: 1}"
    )


def test_criterion_3_cross_evaluator_sweep():
    t0 = time.perf_counter()
    counts = {}
    for n in (2, 3):
        grid = SweepGrid(n=(n, n), d=(0, 6), s=(n + 3, n + 6), m=(1, 4))
        records = consistency_sweep(grid, seed=0)
        bad = [rec for rec in records if rec["verdict"] != "agree"]
        assert not bad, bad[:5]
        counts[n] = len(records)
    elapsed = time.perf_counter() - t0
    assert counts == {2: 2975, 3: 4123}
    assert elapsed < 1800, f"sweep took {elapsed:.0f}s, budget 30 min"
    print(
        f"criterion 3 PASS: {sum(counts.values())} instances "
        f"(n=2: {counts[2]}, n=3: {counts[3]}) all agree in {elapsed:.0f}s"
    )


def test_criterion_4_identity_suite():
    failures = identity_suite(trials=1000, seed=0)
    bad = {name: cases[:3] for name, cases in failures.items() if cases}
    assert not bad, bad
    print(
        f"criterion 4 PASS: {len(failures)} identities x 1000 tuples, "
        "no failures"
    )


def test_criterion_5_planar_closed_form():
    checked = 0
    for s in (5, 6, 7):
        for d in range(0, 7):
            for ms in grid_multisets(s):
                norm = normalize(system(2, d, ms))
                if norm.mults != ms:
                    continue  # redundant as given; outside the claim
                val = oracle_h0(2, d, ms)
                if val == 0:
                    continue  # non-effective; outside the claim
                assert planar_h0(norm) == val, (d, ms, val)
                steps = planar_reduction_steps(d, ms)
                g0 = planar_g(d, ms)
                for d_i, ms_i in steps[1:]:
                    assert d_i >= 0, (d, ms, steps)
                    assert planar_g(d_i, ms_i) == g0, (d, ms, steps)
                assert planar_nef(*steps[-1]), (d, ms, steps)
                checked += 1
    assert checked == 247
    print(
        f"criterion 5 PASS: planar closed form = oracle and G preserved "
        f"stepwise on {checked} effective instances"
    )


def test_criterion_6_small_kc_regime():
    checked = 0
    for n in (2, 3):
        for d in range(0, 7):
            for s in range(n + 3, n + 7):
                for ms in grid_multisets(s):
                    if sum(ms) > n * d:
                        continue
                    want = oracle_h0(n, d, ms)
                    assert dimension(system(n, d, ms)).dimension == want, (n, d, ms)
                    assert ldim_sum(n, d, ms) == want, (n, d, ms)
                    checked += 1
    assert checked == 600
    print(
        f"criterion 6 PASS: formula = subset sum = oracle on {checked} "
        "instances with sum(m) <= n*d"
    )


def test_criterion_7_regularity_index():
    rng = random.Random(7001)
    strict_checked = 0
    for _ in range(50):
        n = rng.choice((2, 3))
        s = rng.randint(n + 3, 9)
        mults = tuple(sorted((rng.randint(1, 4) for _ in range(s)), reverse=True))
        delta = regularity_index(n, mults)
        for d in range(delta, delta + 4):
            sys_d = system(n, d, mults)
            assert oracle_h0(n, d, mults) == max(vdim(sys_d), 0), (n, d, mults)
        d_below = delta - 1
        if d_below >= 0:
            below = system(n, d_below, mults)
            val = oracle_h0(n, d_below, mults)
            if val > 0 and normalize(below).mults == mults:
                assert val > vdim(below), (n, d_below, mults)
                strict_checked += 1
    assert strict_checked > 0
    print(
        f"criterion 7 PASS: 50 vectors non-special on [delta, delta+3], "
        f"strictly special below delta on {strict_checked} effective cases"
    )


def test_criterion_8_double_points():
    regimes_hit = {"regular": 0, "middle": 0, "low": 0}
    for s in range(6, 13):
        d_top = -((1 - 2 * s) // 3) + 1  # ceil((2s-1)/3) + 1
        for d in range(2, d_top + 1):
            mults = (2,) * s
            val = oracle_h0(3, d, mults)
            if val == 0:
                continue
            # Speciality is the gap between the dimension and the signed
            # virtual count (at d=4, s>=9 the quartics are doubly along the
            # curve: h0 = 6 with vdim < 0, so the clamp would undercount).
            h1 = val - vdim(system(3, d, mults))
            assert h1 == double_points_h1(3, d, s), (d, s, val)
            via_f = double_points_h1_f1(3, d, s)
            if via_f is not None:
                assert via_f == h1, (d, s)
            nd = 3 * d
            if nd >= 2 * s - 1:
                regimes_hit["regular"] += 1
            elif nd >= s + 5:
                regimes_hit["middle"] += 1
            else:
                regimes_hit["low"] += 1
    assert all(count > 0 for count in regimes_hit.values()), regimes_hit
    print(
        f"criterion 8 PASS: double-point speciality matches the oracle, "
        f"regimes covered {regimes_hit}"
    )


def test_criterion_9_castelnuovo_step():
    rng = random.Random(901)
    checked = 0
    while checked < 100:
        s = rng.randint(6, 9)
        d = rng.randint(1, 6)
        mults = tuple(sorted((rng.randint(1, 4) for _ in range(s)), reverse=True))
        norm = normalize(system(3, d, mults))
        if norm.n != 3 or norm.s < 6:
            continue
        n, d, ms = norm.n, norm.d, norm.mults
        up_raw = (ms[0] - 1,) + ms[1:]
        proj = l_map(system(n, d, up_raw))
        lhs = oracle_h0(n, d, ms)
        rhs = oracle_h0(n, d, up_raw) - oracle_h0(proj.n, proj.d, proj.mults)
        assert lhs == rhs, (n, d, ms, lhs, rhs)
        checked += 1
    print(
        "criterion 9 PASS: one-step projection identity oracle-exact on "
        "100 instances"
    )


def test_criterion_10_formula_matches_recursion_beyond_the_oracle():
    """The closed formula equals the projection recursion on large systems,
    which the oracle's cell cap keeps it from checking.

    A draw of random.Random(1010) in six strata, n parity x k_C regime, 400
    candidates each, in this order: n from 2..9 of the stratum's parity,
    d from 4..40, s from n+3..n+10, a k_C target from -d..0 (low),
    d//2-2..d//2+2 (near d/2) or d//2..d (high), and each multiplicity
    round((n*d + k_C*(s-n-2))/s) plus a value from -2..2, clamped to 1..d.
    Every candidate whose normalized system is in the formula's domain is
    checked; none is chosen by its value.  Without formula.dimension's rule
    for joins that fill P^n, 7 of them fail: odd n, k_C near d/2 or high.
    """
    rng = random.Random(1010)
    state = RecState()
    checked: dict[tuple[str, str], int] = {}
    empty = 0
    for parity in ("even", "odd"):
        for regime in ("low", "mid", "high"):
            for _ in range(400):
                n = rng.randrange(2 if parity == "even" else 3, 10, 2)
                d = rng.randint(4, 40)
                s = rng.randint(n + 3, n + 10)
                lo, hi = {"low": (-d, 0), "mid": (d // 2 - 2, d // 2 + 2),
                          "high": (d // 2, d)}[regime]
                kc = rng.randint(lo, hi)
                mean = round((n * d + kc * (s - n - 2)) / s)
                mults = [min(max(mean + rng.randint(-2, 2), 1), d) for _ in range(s)]
                norm = normalize(system(n, d, mults))
                if not in_domain(norm):
                    continue
                value = dimension(norm).dimension
                assert value == recursive_h0(norm, state=state), (n, d, mults)
                checked[parity, regime] = checked.get((parity, regime), 0) + 1
                empty += value == 0
    assert len(checked) == 6 and min(checked.values()) >= 60, checked
    print(
        f"criterion 10 PASS: formula = recursion on {sum(checked.values())}"
        f" drawn systems ({empty} empty), per stratum {checked}"
    )
