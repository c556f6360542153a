"""Projection recursion: l_map, base cases, memoization, trace."""

import random
import re
from collections import Counter

import pytest

from rncdim import castelnuovo
from rncdim.castelnuovo import (
    RecState,
    RecursionGuardError,
    _base_value,
    _children,
    _eval,
    _stretch,
    l_map,
    recursive_h0,
)
from rncdim.formula import dimension, in_domain, planar_h0
from rncdim.oracle import OracleSizeError, h0
from rncdim.systems import kc_from_sum, kc_value, normalize, points_of, runs_of, system, vdim


def test_l_map_worked_example():
    proj = l_map(system(5, 8, [7, 6, 6] + [5] * 7))
    assert proj.n == 4
    assert proj.d == 7
    assert proj.mults == (5, 5, 4, 4, 4, 4, 4, 4, 4, 5)


def test_l_map_degree_equal_multiplicity():
    proj = l_map(system(3, 4, [4, 2, 2, 1, 1, 1]))
    assert (proj.n, proj.d, proj.mults) == (2, 4, (2, 2, 1, 1, 1, 0))


def test_l_map_appends_positive_kc_only():
    # kc < 0 contributes a zero-multiplicity slot, not a negative one.
    proj = l_map(system(3, 6, [2, 1, 1, 1, 1, 1]))
    assert proj.mults[-1] == 0


def test_l_map_guards():
    with pytest.raises(ValueError):
        l_map(system(1, 3, [2, 2, 2, 2, 2]))
    with pytest.raises(ValueError):
        l_map(system(3, 4, [2, 2, 2]))


def _run_key(norm):
    return (norm.n, norm.d, runs_of(norm.mults))


def _sums(key):
    """The key's point count and multiplicity sum, as _eval passes them."""
    runs = key[2]
    return sum(c for _, c in runs), sum(m * c for m, c in runs)


def test_children_match_normalize():
    # The key-level step against the spec-level one, along the first +E1
    # steps of random raw systems with multiplicities in -2..d+1, with
    # normalize's keys in run-length form.  Half the systems draw from
    # lo..d+1; the other half sit near n*d/(n+2), where k_C is close to the
    # multiplicities and lowering m_1 makes a point redundant.
    rng = random.Random(29)
    seen = Counter()
    for i in range(3000):
        n = rng.randint(2, 10)
        d = rng.randint(0, 60)
        s = rng.randint(n + 3, n + 12)
        if i % 2:
            lo, hi = rng.randint(-2, d + 1), d + 1
        else:
            lo = max(n * d // (n + 2) - rng.randint(0, 2), -2)
            hi = min(lo + 2, d + 1)
        key = _run_key(normalize(system(n, d, [rng.randint(lo, hi) for _ in range(s)])))
        for _ in range(20):
            if _base_value(key, *_sums(key)) is not None:
                break
            n, d, runs = key
            mults = points_of(runs)
            up = system(n, d, (mults[0] - 1,) + mults[1:])
            up_norm, proj_norm = normalize(up), normalize(l_map(up))
            want = (_run_key(up_norm), _run_key(proj_norm))
            assert _children(key, *_sums(key)) == want, key
            seen["keys"] += 1
            seen["kc<0"] += kc_value(n, d, up.mults) < 0
            seen.update(step.action for step in up_norm.trace + proj_norm.trace)
            key = _run_key(up_norm)
    assert seen["keys"] > 10_000
    assert min(seen[k] for k in ("kc<0", "clamp", "drop-zero", "drop-redundant")) > 0


def _walk_chain(key):
    """h0 of a key by walking its +E1 chain to the leaf: the leaf's value
    minus the projection values along the way, each projection child
    being a leaf itself."""
    h = 0
    while (leaf := _base_value(key, *_sums(key))) is None:
        key, proj_key = _children(key, *_sums(key))
        proj = _base_value(proj_key, *_sums(proj_key))
        assert proj is not None, proj_key
        h -= proj
    return h + leaf


def _near_region_key(rng):
    """A canonical non-leaf key near both bounds of the summed region:
    n*d + 1 - T in -1..3 and d + 1 - (m_1 + m_2) in -1..2 when the draw
    hits, T being the multiplicity sum and m_1 >= m_2 the two largest
    multiplicities; or None if it misses."""
    n = rng.randint(3, 7)
    d = rng.randint(2, 16)
    s = rng.randint(n + 3, n + 10)
    m1 = rng.randint(1, d)
    lo, hi = max(1, d - m1 - 1), min(m1, d + 2 - m1)
    if lo > hi:
        return None
    m2 = rng.randint(lo, hi)
    # The other s - 2 points in 1..m2, summing to a target near n*d + 1.
    target = n * d + 1 + rng.choice((-3, -1, 0, 0, 0, 1)) - m1 - m2
    if not s - 2 <= target <= (s - 2) * m2:
        return None
    rest = [1] * (s - 2)
    extra = target - (s - 2)
    for i in rng.sample(range(s - 2), s - 2):
        step = min(extra, m2 - 1)
        rest[i] += step
        extra -= step
    mults = sorted([m1, m2, *rest], reverse=True)
    key = (n, d, runs_of(mults))
    if _run_key(normalize(system(n, d, mults))) != key:
        return None  # past T = n*d + 1, k_C can make a point redundant
    return key if _base_value(key, *_sums(key)) is None else None


def test_summed_chain_matches_walk():
    # Inside the one-point region (T <= n*d + 1 and m_1 + m_2 <= d + 1)
    # the closed form equals the walked chain; one past the region's bound
    # the key is not summed where it stands, its first projection child is
    # not empty, and what the stepper does take matches the walk.  At
    # T = n*d + 2 one step reaches T = n*d + 1, so
    # the stretch is summed after that step (or declines at m_1 = 1, where
    # the step drops a point).
    rng = random.Random(43)
    seen = Counter()
    for _ in range(200_000):  # 43,273 draws of this seed reach the counts
        if seen["inside"] >= 5000:
            break
        key = _near_region_key(rng)
        if key is None:
            continue
        n, d, runs = key
        mults = points_of(runs)
        t_gap = n * d + 1 - sum(mults)
        r_gap = d + 1 - mults[0] - mults[1]
        got = _stretch(key, *_sums(key), castelnuovo.MAX_NODES)
        if t_gap >= 0 and r_gap >= 0:
            assert got == (None, 0, _walk_chain(key), 0), key
            seen["inside"] += 1
            seen["T = nd+1"] += t_gap == 0
            seen["r+m1 = d+1"] += r_gap == 0
            seen["both bounds"] += t_gap == r_gap == 0
            seen["c1 > 1"] += runs[0][1] > 1
            seen["c1 = 1"] += runs[0][1] == 1
            seen["m1 = 1"] += mults[0] == 1
        elif r_gap == -1:
            assert got is None or got[1] > 0, key
            assert _children(key, *_sums(key))[1][2] != (), key
            if got is not None:
                landing, steps, value, _ = got
                leaf, taken = _walk_steps(key)
                if landing is None:
                    h = _base_value(leaf, *_sums(leaf))
                    assert value == h - sum(v for _, _, v in taken), key
                else:
                    assert landing == taken[steps][0], key
                    assert value == sum(v for _, _, v in taken[:steps]), key
            seen["r+m1 = d+2"] += 1
        elif t_gap == -1 and r_gap >= 0:
            want = None if mults[0] == 1 else (None, 1, _walk_chain(key), 1)
            assert got == want, key
            seen["T = nd+2"] += 1
    assert seen["inside"] >= 5000, seen
    assert min(seen.values()) >= 50, seen


def _walk_steps(key, steps=None):
    """Walk the +E1 chain from key through _children, `steps` steps, or to
    a leaf when steps is None, evaluating every projection child with
    _eval on a fresh state.  Returns the key reached and, for each step,
    (the key stepped from, its projection child, the child's value)."""
    taken = []
    while _base_value(key, *_sums(key)) is None if steps is None else len(taken) < steps:
        up, proj_key = _children(key, *_sums(key))
        value = _eval(proj_key, RecState(), None, 0, "root", castelnuovo.MAX_NODES)
        taken.append((key, proj_key, value))
        key = up
    return key, taken


def _key_vdim(key):
    n, d, runs = key
    return vdim(system(n, d, points_of(runs)))


def _step_kc(key):
    """k_C of the key's +E1 child before the redundant-point rule."""
    n, d, runs = key
    return kc_from_sum(n, d, sum(c for _, c in runs), sum(m * c for m, c in runs) - 1)


def _blocked(key):
    """Why the stepper may not take the key's next +E1 step, or None: the
    step drops a point (the redundant-point rule, or m_1 = 1), or its
    projection child (n', d', runs') fails the test for being worth its
    vdim: the two largest multiplicities sum to at most d' + 1, and the
    child is a few-point leaf (s' <= n' + 2), or T' <= n'd' + 1, the
    summed closed form.  A few-point leaf that passes is worth its vdim
    because that is >= 0: castelnuovo's module docstring proves it, and
    this asserts it."""
    up, child = _children(key, *_sums(key))
    if sum(c for _, c in up[2]) < sum(c for _, c in key[2]):
        return "drop"
    n, d, runs = child
    mults = points_of(runs)
    if sum(mults[:2]) > d + 1:
        return "pair"
    if len(mults) <= n + 2:
        assert _key_vdim(child) >= 0, key
        return None
    return "T'" if sum(mults) > n * d + 1 else None


def _stretch_key(rng, mode):
    """A canonical non-leaf key, or None when the draw misses.

    mode 0: multiplicities near a level from 1 to d/2 + 1, sometimes one
    point above the rest so that c_1 = 1; with many points k_C nears the
    lowest multiplicity.  mode 1: a leading run of c_1 points at m_1 with
    a1 = 2*m_1 - 1 - d in -2..m_1/2 + 1, so the first projection child
    keeps some images and often meets the pair bound; c_1 is 1 or 2 in
    two draws of three, and in three draws of ten the other points have
    no positive image.  mode 2: the first
    projection child has T' = n'd' + 2.  When every image is positive,
    T' - n'd' - 1 = (q + 1)(kc + m_1 - 1 - d) - eps - 1, q = s - n - 2 and
    eps = kc*q - (T - 1 - n*d) in 0..q-1, so kc = d + 2 - m_1 and
    eps = q - 1.  Every other point is then in kc..m_1 - 1, so none is
    dropped, and d >= (3m_1 - 4)/2 keeps the pair bound.  mode 3: two runs
    (m_1, c_1), (m_1 - 1, b) with T - n*d in (m_1 - 2)q + c_1 + 2..
    (m_1 - 1)q, so kc = m_1 - 1 while the c_1 points step down, and the
    point the next step lowers to m_1 - 2 is redundant, or dropped at 0
    when m_1 = 2."""
    n = rng.randint(3, 7)
    if mode == 0:
        d = rng.randint(2, 24)
        s = rng.randint(n + 3, n + 24)
        hi = rng.randint(1, d // 2 + 1)
        mults = [rng.randint(max(1, hi - rng.randint(0, 3)), hi) for _ in range(s)]
        if rng.random() < 0.4:
            mults[0] = rng.randint(hi, d + 2 - hi)
    elif mode == 1:
        m1 = rng.randint(2, 24)
        d = 2 * m1 - 1 - rng.randint(-2, min(m1 // 2 + 1, m1 - 1))
        s = rng.randint(n + 3, n + 12)
        c1 = rng.choice((1, 2, rng.randint(3, s)))
        low, high = max(1, m1 - rng.randint(1, 5)), m1 - 1
        if rng.random() < 0.3:
            low, high = 1, max(1, min(m1 - 1, d + 1 - m1))
        mults = [m1] * c1 + [rng.randint(low, high) for _ in range(s - c1)]
    elif mode == 3:
        m1, c1 = rng.randint(2, 20), rng.randint(1, 6)
        b = rng.randint(n + 4, n + 20)
        q = c1 + b - n - 2
        total = m1 * c1 + (m1 - 1) * b
        lo = max(m1, -(((m1 - 1) * q - total) // n))
        hi = (total - (m1 - 2) * q - c1 - 2) // n
        if lo > hi:
            return None
        d = rng.randint(lo, hi)
        mults = [m1] * c1 + [m1 - 1] * b
    else:
        m1 = rng.randint(3, 24)
        d = rng.randint((3 * m1 - 3) // 2, 2 * m1 - 3)
        kc = d + 2 - m1
        q = rng.randint(2, 10)
        s = n + 2 + q
        extra = (kc - 1) * q + 2 + n * d - m1 - (s - 1) * kc
        if not 0 <= extra <= (s - 1) * (m1 - 1 - kc):
            return None
        mults = [m1] + [kc] * (s - 1)
        for i in rng.sample(range(1, s), s - 1):
            step = min(extra, m1 - 1 - kc)
            mults[i] += step
            extra -= step
    norm = normalize(system(n, d, mults))
    key = (n, d, runs_of(norm.mults))
    return key if norm.s >= n + 3 and _base_value(key, *_sums(key)) is None else None


STRETCH_CASES = (
    "c1 >= 3, a1 > 0", "c1 = 2, a1 > 0", "c1 = 1, a1 > 0", "s' falls in a run",
    "r'+m1' = d'+2 declines", "T' = n'd'+2 declines", "planar child stepped",
    "redundant stop", "stop before kc > m1 - 1", "m1 = 1 stop", "summed",
)


def test_stretch_matches_walk():
    # Each stretch against the same steps walked one at a time through
    # _children and _eval: the landing key and the sum of the projection
    # values agree, no step drops a point, every projection child's value
    # is its vdim and passes the stepper's test (_blocked), and the stretch
    # stops only where its next step is blocked.  A summed stretch equals
    # the whole chain walked to its leaf.  A key whose first step is
    # blocked declines, the boundaries of the test included: a pair of
    # multiplicities one above d' + 1 and T' = n'd' + 2, at n = 3 too.
    # The test is the same at every n: n = 3 stretches step over planar
    # children with s' >= 5, chain nodes rather than leaves.  Within a
    # run of constant k_C the images at a1 = 2m - 1 - d move one by one to
    # a1 - 1; at a1 = 1 they leave the child, so its point count falls
    # within the run.
    # A few-point child under the pair bound never has vdim < 0 (the
    # module docstring proves it; _blocked asserts it on every key tried).
    # L_3,20(11^5,1) comes first: its first step leaves n + 1 = 4 positive
    # images, 1 each, and k_C < 0, so its child L_2,10(1^4) is a few-point
    # leaf with the most points a leaf has.
    rng = random.Random(30)
    seen = Counter()
    fixed = [(3, 20, ((11, 5), (1, 1)))]
    for _ in range(50_000):  # 5,383 draws of this seed reach the counts
        if min(seen[k] for k in STRETCH_CASES) >= 50:
            break
        key = fixed.pop() if fixed else _stretch_key(rng, rng.randrange(4))
        if key is None:
            continue
        n, d, runs = key
        m1, c1 = runs[0]
        s = sum(c for _, c in runs)
        got = _stretch(key, *_sums(key), castelnuovo.MAX_NODES)
        if got is None:
            why = _blocked(key)
            assert why is not None, key
            child = _children(key, *_sums(key))[1]
            pair = sum(points_of(child[2])[:2])
            t1 = sum(m * c for m, c in child[2])
            seen["r'+m1' = d'+2 declines"] += why == "pair" and pair == m1 + 1
            seen["T' = n'd'+2 declines"] += why == "T'" and t1 == (n - 1) * (m1 - 1) + 2
            continue
        landing, steps, value, runs_stepped = got
        assert (runs_stepped > 0) == (steps > 0) and runs_stepped <= steps, key
        if landing is None:
            leaf, taken = _walk_steps(key)
            h = _base_value(leaf, *_sums(leaf))
            assert value == h - sum(v for _, _, v in taken), key
            taken = taken[:steps]
            seen["summed"] += steps > 0
        else:
            walked, taken = _walk_steps(key, steps)
            assert (landing, value) == (walked, sum(v for _, _, v in taken)), key
            assert sum(c for _, c in landing[2]) == s, key
            why = _blocked(landing)
            assert why is not None, key
            if why == "drop":
                m_low = landing[2][0][0]
                seen["m1 = 1 stop" if m_low == 1 else "redundant stop"] += 1
                seen["stop before kc > m1 - 1"] += m_low > 1 and _step_kc(landing) > m_low - 1
        for step_key, child, child_value in taken:
            assert child_value == _key_vdim(child), (key, child)
            assert _blocked(step_key) is None, (key, step_key)
        seen["planar child stepped"] += n == 3 and any(
            sum(c for _, c in child[2]) >= 5 for _, child, _ in taken
        )
        if steps and 2 * m1 - 1 - d > 0:
            seen[f"c1 {'>= 3' if c1 >= 3 else f'= {c1}'}, a1 > 0"] += 1
        seen["s' falls in a run"] += any(
            a[1][1] == b[1][1] and _step_kc(a[0]) == _step_kc(b[0])
            and sum(c for _, c in b[1][2]) < sum(c for _, c in a[1][2])
            for a, b in zip(taken, taken[1:])
        )
    assert min(seen[k] for k in STRETCH_CASES) >= 50, seen


def test_formula_matches_recursion_far_above_nd():
    # Systems with T - n*d far above d, where a walked chain would take
    # about T - n*d steps: the closed formula and the recursion agree on
    # every in-domain draw of random.Random(61), none chosen by its value.
    # Every other draw raises one point above d/2, so that its chain is
    # walked until it enters the stepped region.
    big = normalize(system(3, 300000, [144000] * 11))
    assert recursive_h0(big) == dimension(big).dimension == 507248442193001
    rng = random.Random(61)
    checked = 0
    for i in range(300):
        n = rng.randint(3, 6)
        d = rng.randint(50, 600)
        s = rng.randint(3 * n + 15, 3 * n + 22)
        mults = [rng.randint(d // 3, d // 2) for _ in range(s)]
        if i % 2:
            mults[0] = rng.randint(d // 2, 3 * d // 4)
        assert sum(mults) - n * d >= 5 * d
        norm = normalize(system(n, d, mults))
        if not in_domain(norm):
            continue
        assert recursive_h0(norm) == dimension(norm).dimension, (n, d, mults)
        checked += 1
    assert checked >= 250, checked


def test_planar_recursion_matches_planar_h0_and_oracle():
    # At n = 2 the recursion walks and steps its chain down to projection
    # children on P^1 and never calls planar_h0, so the two check each
    # other.  They agree on the normalized system of every draw of
    # random.Random(71) that keeps s >= 5 points, and the exact oracle
    # agrees wherever its block fits 3000 cells; none is chosen by its
    # value.  Every other draw raises one point to between d/2 and d, where
    # the stretch's P^1 children sit at the edge of vdim >= 0.  planar_h0
    # expects normalized input: on the raw system below it gives 0, where
    # the dimension is 1.
    raw = system(2, 12, [1, 5, 4, 5, 9, 4])
    assert planar_h0(raw) == 0
    assert recursive_h0(raw) == planar_h0(normalize(raw)) == h0(raw).h0 == 1
    rng = random.Random(71)
    state = RecState()
    planar = oracled = 0
    for i in range(1200):
        d = rng.randint(2, 40)
        mults = [rng.randint(1, d // 2 + 1) for _ in range(rng.randint(5, 12))]
        if i % 2:
            mults[0] = rng.randint(d // 2, d)
        norm = normalize(system(2, d, mults))
        value = recursive_h0(norm, state=state)
        if len(norm.mults) >= 5:
            assert value == planar_h0(norm), norm
            planar += 1
        try:
            assert value == h0(norm, cap_cells=3000).h0, norm
            oracled += 1
        except OracleSizeError:
            pass
    assert planar >= 700 and oracled >= 600, (planar, oracled)
    assert state.stats.steps > state.stats.nodes, state.stats


def test_formula_matches_recursion_outside_one_point_region():
    # Large-d systems whose two largest multiplicities exceed d + 1, so
    # that the root's projection children keep images and the chain is
    # stepped, where it is, on children worth their vdim: the closed
    # formula and the recursion agree on every in-domain draw of
    # random.Random(30), none chosen by its value.
    rng = random.Random(30)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        d = rng.randint(100, 2000)
        s = rng.randint(n + 3, n + 10)
        c1 = rng.randint(2, 4)
        mults = [rng.randint((d + 3) // 2, 3 * d // 5) for _ in range(c1)]
        mults += [rng.randint(d // 4, d // 2) for _ in range(s - c1)]
        norm = normalize(system(n, d, mults))
        if not in_domain(norm):
            continue
        assert 2 * norm.mults[1] > d + 1, (n, d, mults)
        assert recursive_h0(norm) == dimension(norm).dimension, (n, d, mults)
        checked += 1
    assert checked >= 180, checked


@pytest.mark.parametrize(
    "n, d, mults, want",
    [
        # h0, nodes, steps, memo_hits, max_depth, memo size
        (10, 30, [20] * 20, (459077106, 23, 56, 0, 11, 23)),
        (4, 200, [120] * 9, (2309586, 55, 786, 0, 27, 55)),
        (6, 40, [30] * 12, (1, 267, 784, 8, 29, 259)),
        (5, 8, [7, 6, 6] + [5] * 7 + [2] * 3, (6, 11, 12, 0, 4, 11)),
        (3, 200, [96] * 11, (154175, 1, 110, 0, 0, 1)),
        (4, 13000, [6800] * 12, (269544566535671, 1, 7400, 0, 0, 1)),
    ],
)
def test_recursion_counters_pinned(n, d, mults, want):
    # The h0 values are the ones every earlier form of the recursion gave.
    # The counters pin the walk that steps each stretch of projection
    # children worth their vdim as one node, one run of constant k_C per
    # step counted, and sums the rest of a chain in closed form from
    # T = n*d + 1 in the one-point region: neither the stepped nodes nor
    # their projection children are visited or memoized.
    state = RecState()
    h = recursive_h0(system(n, d, mults), state=state)
    stats = state.stats
    got = (h, stats.nodes, stats.steps, stats.memo_hits, stats.max_depth, len(state.memo))
    assert got == want


def test_memo_keys_are_runs():
    state = RecState()
    assert recursive_h0(system(3, 6, [2] * 10), state=state) == 45
    assert (3, 6, ((2, 10),)) in state.memo
    for n, d, runs in state.memo:
        assert all(m >= 1 and c >= 1 for m, c in runs)
        assert [m for m, _ in runs] == sorted({m for m, _ in runs}, reverse=True)


def test_recursive_base_cases():
    assert recursive_h0(system(3, -2, [1, 1])) == 0
    assert recursive_h0(system(3, 8, [])) == 165
    assert recursive_h0(system(1, 5, [2, 2])) == 2
    assert recursive_h0(system(1, 5, [3, 3])) == 0
    assert recursive_h0(system(3, 2, [2, 2])) == 3
    assert recursive_h0(system(2, 4, [2] * 5)) == 1


def test_recursive_worked_example():
    assert recursive_h0(system(5, 8, [7, 6, 6] + [5] * 7)) == 6
    assert recursive_h0(system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3)) == 6


def test_recursive_permutation_invariance():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 4)
        s = rng.randint(n + 3, n + 5)
        d = rng.randint(0, 6)
        mults = [rng.randint(0, 4) for _ in range(s)]
        want = recursive_h0(system(n, d, mults))
        shuffled = mults[:]
        rng.shuffle(shuffled)
        assert recursive_h0(system(n, d, shuffled)) == want


def test_recursive_memo_consistency():
    # One memo across all 20 systems, checked against the exact oracle.
    state = RecState()
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(3, 4)
        s = rng.randint(n + 3, n + 5)
        d = rng.randint(0, 5)
        mults = sorted((rng.randint(1, 3) for _ in range(s)), reverse=True)
        sys = system(n, d, mults)
        assert recursive_h0(sys, state=state) == h0(sys).h0, (n, d, mults)
    assert state.stats.memo_hits > 0


def test_recursive_shared_state():
    # L_4,4(4^2,2^6) walks a chain of depth 1 (L_3,6(2^10), summed at the
    # root, has depth 0).
    state = RecState()
    first = recursive_h0(system(4, 4, [4, 4] + [2] * 6), state=state)
    assert first == 1
    nodes_after_first = state.stats.nodes
    hits_after_first = state.stats.memo_hits
    again = recursive_h0(system(4, 4, [4, 4] + [2] * 6), state=state)
    assert again == 1
    assert state.stats.memo_hits > hits_after_first
    # The repeat is answered from the memo root.
    assert state.stats.nodes == nodes_after_first + 1
    assert state.stats.max_depth >= 1


def test_recursive_trace_render():
    # The root's projection children would all be empty: its chain is
    # summed, and the listing is one line.
    trace: list[str] = []
    val = recursive_h0(system(3, 4, [2, 2, 2, 1, 1, 1]), trace=trace)
    assert val == 20
    assert trace == ["root L_3,4(2,2,2,1,1,1) = 20 [summed]"]
    # The root's first projection child and its +E1 child are each summed
    # after a stretch whose projection children are worth their vdim.
    trace = []
    val = recursive_h0(system(4, 4, [4, 4, 2, 2, 2, 2, 2, 2]), trace=trace)
    assert val == 1
    assert trace == [
        "root L_4,4(4,4,2,2,2,2,2,2) = 1",
        "  project L_3,3(3,2,1,1,1,1,1,1) = 2 [summed]",
        "  +E1 L_4,4(4,3,2,2,2,2,2,2) = 3 [summed]",
    ]
    # Two walked steps of the root chain, above its own summed node.  The
    # first projection child is summed at once: its chain steps over the
    # planar child L_2,5(2,2,1,1,1,1), a chain node rather than a leaf.
    trace = []
    val = recursive_h0(system(4, 8, [8, 7, 5, 4, 4, 4, 3, 3]), trace=trace)
    assert val == 3
    assert trace == [
        "root L_4,8(8,7,5,4,4,4,3,3) = 3",
        "  project L_3,7(6,4,3,3,3,3,2,2) = 10 [summed]",
        "  +E1 L_4,8(7,7,5,4,4,4,3,3) = 13",
        "    project L_3,6(5,3,2,2,2,2,1,1) = 22 [summed]",
        "    +E1 L_4,8(7,6,5,4,4,4,3,3) = 35 [summed]",
    ]
    # A stretch of 4 stepped +E1 steps stops where the next step would drop
    # a point of multiplicity 1 < k_C = 2; that step is walked.
    trace = []
    val = recursive_h0(system(3, 5, [3] * 4 + [2] * 8), trace=trace)
    assert val == 6
    assert trace == [
        "root L_3,5(3,3,3,3,2,2,2,2,2,2,2,2) = 6 [stepped 4]",
        "  +E1 L_3,5(2,2,2,2,2,2,2,2,2,2,2,2) = 18",
        "    project L_2,1(2) = 0",
        "    +E1 L_3,5(2,2,2,2,2,2,2,2,2,2,2) = 18 [summed]",
    ]


TRACE_LINE = re.compile(
    r" *(?:root|project|\+E1) L_(\d+),(-?\d+)\(([-\d,]*)\) = (\d+)"
    r"(?: \[(?:memo|summed|stepped \d+)\])?"
)


def _trace_systems():
    # The four pinned listings' systems, the worked example, a walk into a
    # stepped stretch, and one perturbation (d and each m_i by -1..1) of six
    # shapes of the `queries` benchmark workload's strata.
    yield system(3, 4, [2, 2, 2, 1, 1, 1])
    yield system(4, 4, [4, 4, 2, 2, 2, 2, 2, 2])
    yield system(4, 8, [8, 7, 5, 4, 4, 4, 3, 3])
    yield system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3)
    yield system(3, 5, [3] * 4 + [2] * 8)
    yield system(4, 6, [5, 4] + [3] * 7 + [2] * 16)
    rng = random.Random(24)
    for n, d, m, s in [
        (3, 130, 62, 8), (4, 60, 32, 12), (5, 45, 25, 13),
        (6, 90, 53, 14), (8, 20, 15, 13), (10, 16, 12, 15),
    ]:
        yield system(n, d + rng.randint(-1, 1), [m + rng.randint(-1, 1) for _ in range(s)])


def test_trace_values_match_fresh_evaluation():
    # The listing reads each node's value from the memo after the walk;
    # each line's system, evaluated again with a fresh state, must give the
    # printed value.  Tracing changes no counter and no memo entry.
    for sys in _trace_systems():
        plain, traced = RecState(), RecState()
        trace: list[str] = []
        want = recursive_h0(sys, state=plain)
        assert recursive_h0(sys, state=traced, trace=trace) == want, sys
        assert traced.stats == plain.stats, sys
        assert traced.memo == plain.memo, sys
        assert len(trace) == plain.stats.nodes, sys
        for line in trace:
            match = TRACE_LINE.fullmatch(line)
            assert match, line
            n, d, body, value = match.groups()
            mults = [] if body == "-" else [int(m) for m in body.split(",")]
            fresh = recursive_h0(system(int(n), int(d), mults), state=RecState())
            assert fresh == int(value), (sys, line)


def test_recursion_guard(monkeypatch):
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 2)
    with pytest.raises(RecursionGuardError):
        recursive_h0(system(5, 8, [7, 6, 6] + [5] * 7))


def test_recursion_guard_charges_stretch_runs(monkeypatch):
    # A stretch is one node however many runs of constant k_C it steps;
    # each run counts against the budget too, so a stretch longer than the
    # budget fails instead of running on.  L_3,300000(144000^11) is one
    # node and 165,817 runs.
    big = system(3, 300000, [144000] * 11)
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 165_818)
    state = RecState()
    assert recursive_h0(big, state=state) == 507248442193001
    assert (state.stats.nodes, state.stats.steps) == (1, 165_817)
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 165_817)
    with pytest.raises(RecursionGuardError, match="exceeded 165817 nodes"):
        recursive_h0(big, state=RecState())


def test_recursion_guard_counts_one_call(monkeypatch):
    # The budget is per call; RecStats counts over every call that shares
    # the state, so a long shared run must not trip on small systems.
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 50)
    state = RecState()
    for _ in range(100):
        before = state.stats.nodes + state.stats.steps
        assert recursive_h0(system(3, 6, [2] * 10), state=state) == 45
        assert state.stats.nodes + state.stats.steps - before <= 50
    assert (state.stats.nodes, state.stats.steps) == (100, 1)


def test_three_evaluators_agree_on_fixed_instances():
    for n, d, mults in [
        (3, 4, (2, 2, 2, 1, 1, 1)),
        (3, 6, (2,) * 10),
        (3, 5, (3, 3, 2, 2, 1, 1)),
    ]:
        sys = system(n, d, mults)
        want = h0(sys).h0
        assert want > 0
        assert recursive_h0(sys) == want
        assert dimension(sys).dimension == want
