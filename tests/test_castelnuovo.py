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
from rncdim.formula import dimension, in_domain
from rncdim.oracle import h0
from rncdim.systems import kc_from_sum, kc_value, normalize, points_of, runs_of, system


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
        l_map(system(2, 3, [2, 2, 2, 2, 2]))
    with pytest.raises(ValueError):
        l_map(system(3, 4, [2, 2, 2]))


def _run_key(norm):
    return (norm.n, norm.d, runs_of(norm.mults))


def test_children_match_normalize():
    # The key-level step against the spec-level one, along the first +E1
    # steps of random raw systems with multiplicities in -2..d+1, with
    # normalize's keys in run-length form.  Half the systems draw from
    # lo..d+1; the other half sit near n*d/(n+2), where k_C is close to the
    # multiplicities and lowering m_1 makes a point redundant.
    rng = random.Random(29)
    seen = Counter()
    for i in range(3000):
        n = rng.randint(3, 10)
        d = rng.randint(0, 60)
        s = rng.randint(n + 3, n + 12)
        if i % 2:
            lo, hi = rng.randint(-2, d + 1), d + 1
        else:
            lo = max(n * d // (n + 2) - rng.randint(0, 2), -2)
            hi = min(lo + 2, d + 1)
        key = _run_key(normalize(system(n, d, [rng.randint(lo, hi) for _ in range(s)])))
        for _ in range(20):
            if _base_value(key) is not None:
                break
            n, d, runs = key
            mults = points_of(runs)
            up = system(n, d, (mults[0] - 1,) + mults[1:])
            up_norm, proj_norm = normalize(up), normalize(l_map(up))
            assert _children(key) == (_run_key(up_norm), _run_key(proj_norm)), key
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
    while (leaf := _base_value(key)) is None:
        key, proj_key = _children(key)
        proj = _base_value(proj_key)
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
    return key if _base_value(key) is None else None


def test_summed_chain_matches_walk():
    # Inside the region (T <= n*d + 1 and m_1 + m_2 <= d + 1) the closed
    # form equals the walked chain; one past the region's bound the stepper
    # declines, and there the first projection child is not empty.  At
    # T = n*d + 2 one step reaches T = n*d + 1, so the stretch is summed
    # after that step (or declines at m_1 = 1, where the step drops a
    # point).
    rng = random.Random(43)
    seen = Counter()
    while seen["inside"] < 5000:
        key = _near_region_key(rng)
        if key is None:
            continue
        n, d, runs = key
        mults = points_of(runs)
        t_gap = n * d + 1 - sum(mults)
        r_gap = d + 1 - mults[0] - mults[1]
        if t_gap >= 0 and r_gap >= 0:
            assert _stretch(key) == (None, 0, _walk_chain(key)), key
            seen["inside"] += 1
            seen["T = nd+1"] += t_gap == 0
            seen["r+m1 = d+1"] += r_gap == 0
            seen["both bounds"] += t_gap == r_gap == 0
            seen["c1 > 1"] += runs[0][1] > 1
            seen["c1 = 1"] += runs[0][1] == 1
            seen["m1 = 1"] += mults[0] == 1
        elif r_gap == -1:
            assert _stretch(key) is None, key
            assert _children(key)[1][2] != (), key
            seen["r+m1 = d+2"] += 1
        elif t_gap == -1 and r_gap >= 0:
            want = None if mults[0] == 1 else (None, 1, _walk_chain(key))
            assert _stretch(key) == want, key
            seen["T = nd+2"] += 1
    assert min(seen.values()) >= 50, seen


def _walk_steps(key, steps=None):
    """Walk the +E1 chain from key through _children, `steps` steps, or to
    a leaf when steps is None, evaluating every projection child with
    _eval on a fresh state.  Returns the key reached, the sum of the
    projection values, and how many of them are 0."""
    proj_sum = zeros = 0
    while (_base_value(key) is None) if steps is None else steps > 0:
        key, proj_key = _children(key)
        value = _eval(proj_key, RecState(), None, 0, "root", castelnuovo.MAX_NODES)
        proj_sum += value
        zeros += value == 0
        if steps is not None:
            steps -= 1
    return key, proj_sum, zeros


def _stretch_key(rng):
    """A canonical non-leaf key with r + m_1 <= d + 2, r the largest
    multiplicity the first step leaves alone; often with many points, so
    that k_C nears the lowest multiplicity, or with one point above the
    rest, so that c_1 = 1."""
    n = rng.randint(3, 6)
    d = rng.randint(2, 24)
    s = rng.randint(n + 3, n + 24)
    hi = rng.randint(1, d // 2 + 1)
    mults = [rng.randint(max(1, hi - rng.randint(0, 3)), hi) for _ in range(s)]
    if rng.random() < 0.4:
        mults[0] = rng.randint(hi, d + 2 - hi)
    norm = normalize(system(n, d, mults))
    key = (n, d, runs_of(norm.mults))
    if norm.n != n or _base_value(key) is not None:
        return None
    (m1, c1), rest = key[2][0], key[2][1:]
    r = m1 if c1 > 1 else rest[0][0]
    return key if r + m1 <= d + 2 else None


def test_stretch_matches_walk():
    # Each stretch against the same steps walked one at a time through
    # _children and _eval: the landing key and the sum of the projection
    # values agree, no step drops a point, and the stretch stops only
    # where its next step would drop one (the redundant-point rule, or
    # m_1 = 1).  A summed stretch equals the whole chain walked to its
    # leaf.  No projection value in a stretch is 0: that needs k_C > m_1 - 1,
    # which makes the lowered point redundant, so the stretch stops before
    # such a step.  At r + m_1 = d + 2 the stepper declines, and the first
    # projection child is not the one-point leaf it would assume.
    rng = random.Random(29)
    seen = Counter()
    while min(seen[k] for k in (
        "c1 > 1", "c1 = 1", "redundant stop", "m1 = 1 stop", "lands on T = nd+1",
        "stop before kc > m1 - 1", "r+m1 = d+2",
    )) < 50:
        key = _stretch_key(rng)
        if key is None:
            continue
        n, d, runs = key
        (m1, c1), rest = runs[0], runs[1:]
        r = m1 if c1 > 1 else rest[0][0]
        s = sum(c for _, c in runs)
        total = sum(m * c for m, c in runs)
        got = _stretch(key)
        if r + m1 == d + 2:
            assert got is None, key
            kc = kc_from_sum(n, d, s, total - 1)
            one_point = (n - 1, m1 - 1, ((kc, 1),) if kc > 0 else ())
            assert _children(key)[1] != one_point, key
            seen["r+m1 = d+2"] += 1
            continue
        if got is None:
            # T > n*d + 1, and the first step drops a point.
            assert total > n * d + 1, key
            up = _children(key)[0]
            assert sum(c for _, c in up[2]) < s, key
            seen["declined"] += 1
            continue
        landing, steps, value = got
        seen["c1 > 1" if c1 > 1 else "c1 = 1"] += 1
        if landing is None:
            leaf, proj_sum, zeros = _walk_steps(key)
            assert value == _base_value(leaf) - proj_sum, key
            seen["lands on T = nd+1"] += steps > 0
        else:
            walked, proj_sum, zeros = _walk_steps(key, steps)
            assert (landing, value) == (walked, proj_sum), key
            assert sum(c for _, c in landing[2]) == s, key
            up = _children(landing)[0]
            m_low = landing[2][0][0]
            if m_low == 1:
                seen["m1 = 1 stop"] += 1
            else:
                assert sum(c for _, c in up[2]) < s, key
                seen["redundant stop"] += 1
                total = sum(m * c for m, c in landing[2])
                seen["stop before kc > m1 - 1"] += kc_from_sum(n, d, s, total - 1) > m_low - 1
        assert zeros == 0, key


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


@pytest.mark.parametrize(
    "n, d, mults, want",
    [
        # h0, nodes, memo_hits, max_depth, memo size
        (10, 30, [20] * 20, (459077106, 227, 0, 99, 227)),
        (4, 200, [120] * 9, (2309586, 731, 0, 179, 731)),
        (6, 40, [30] * 12, (1, 1127, 93, 92, 1034)),
        (5, 8, [7, 6, 6] + [5] * 7 + [2] * 3, (6, 37, 0, 13, 37)),
        (3, 200, [96] * 11, (154175, 1, 0, 0, 1)),
    ],
)
def test_recursion_counters_pinned(n, d, mults, want):
    # The h0 values are the ones every earlier form of the recursion gave.
    # The counters pin the walk that steps each stretch of one-point
    # projection leaves as one node, and sums the rest of a chain in closed
    # form from T = n*d + 1: neither the stepped nodes nor their projection
    # leaves are visited or memoized.
    state = RecState()
    h = recursive_h0(system(n, d, mults), state=state)
    stats = state.stats
    assert (h, stats.nodes, stats.memo_hits, stats.max_depth, len(state.memo)) == want


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
    # L_4,4(4^2,2^6) walks a chain of depth 3 (L_3,6(2^10), summed at the
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
    # A projection subtree that ends in a summed chain, above the root
    # chain's own summed node.
    trace = []
    val = recursive_h0(system(4, 4, [4, 4, 2, 2, 2, 2, 2, 2]), trace=trace)
    assert val == 1
    assert trace == [
        "root L_4,4(4,4,2,2,2,2,2,2) = 1",
        "  project L_3,3(3,2,1,1,1,1,1,1) = 2",
        "    project L_2,2(1,1) = 4",
        "    +E1 L_3,3(2,2,1,1,1,1,1,1) = 6 [summed]",
        "  +E1 L_4,4(4,3,2,2,2,2,2,2) = 3",
        "    project L_3,3(2,1,1,1,1,1,1,1) = 9 [summed]",
        "    +E1 L_4,4(3,3,2,2,2,2,2,2) = 12",
        "      project L_3,2(1,1) = 8",
        "      +E1 L_4,4(3,2,2,2,2,2,2,2) = 20 [summed]",
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
    # The three pinned listings' systems, the worked example, a walk into a
    # stepped stretch, and one perturbation (d and each m_i by -1..1) of six
    # shapes of the `queries` benchmark workload's strata.
    yield system(3, 4, [2, 2, 2, 1, 1, 1])
    yield system(4, 4, [4, 4, 2, 2, 2, 2, 2, 2])
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


def test_recursion_guard_counts_one_call(monkeypatch):
    # The budget is per call; RecStats counts over every call that shares
    # the state, so a long shared run must not trip on small systems.
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 50)
    state = RecState()
    for _ in range(100):
        before = state.stats.nodes
        assert recursive_h0(system(3, 6, [2] * 10), state=state) == 45
        assert state.stats.nodes - before <= 50
    assert state.stats.nodes == 100


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
