"""Projection recursion: l_map, base cases, memoization, trace."""

import random
from collections import Counter

import pytest

from rncdim.castelnuovo import (
    RecState,
    RecursionGuardError,
    _base_value,
    _children,
    l_map,
    recursive_h0,
)
from rncdim.formula import dimension
from rncdim.oracle import h0
from rncdim.systems import kc_value, normalize, system


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


def test_children_match_normalize():
    # The key-level step against the spec-level one, along the first +E1
    # steps of random raw systems with multiplicities in -2..d+1.  Half the
    # systems draw from lo..d+1; the other half sit near n*d/(n+2), where
    # k_C is close to the multiplicities and lowering m_1 makes a point
    # redundant.
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
        key = normalize(system(n, d, [rng.randint(lo, hi) for _ in range(s)])).key()
        for _ in range(20):
            if _base_value(key) is not None:
                break
            n, d, mults = key
            up = system(n, d, (mults[0] - 1,) + mults[1:])
            up_norm, proj_norm = normalize(up), normalize(l_map(up))
            assert _children(key) == (up_norm.key(), proj_norm.key()), key
            seen["keys"] += 1
            seen["kc<0"] += kc_value(n, d, up.mults) < 0
            seen.update(step.action for step in up_norm.trace + proj_norm.trace)
            key = up_norm.key()
    assert seen["keys"] > 10_000
    assert min(seen[k] for k in ("kc<0", "clamp", "drop-zero", "drop-redundant")) > 0


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
    state = RecState()
    first = recursive_h0(system(3, 6, [2] * 10), state=state)
    assert first == 45
    nodes_after_first = state.stats.nodes
    hits_after_first = state.stats.memo_hits
    again = recursive_h0(system(3, 6, [2] * 10), state=state)
    assert again == 45
    assert state.stats.memo_hits > hits_after_first
    # The repeat is answered from the memo root.
    assert state.stats.nodes == nodes_after_first + 1
    assert state.stats.max_depth >= 1


def test_recursive_trace_render():
    trace: list[str] = []
    val = recursive_h0(system(3, 4, [2, 2, 2, 1, 1, 1]), trace=trace)
    assert val == 20
    assert trace == [
        "root L_3,4(2,2,2,1,1,1) = 20",
        "  project L_2,1(-) = 3",
        "  +E1 L_3,4(2,2,1,1,1,1) = 23",
        "    project L_2,1(-) = 3 [memo]",
        "    +E1 L_3,4(2,1,1,1,1,1) = 26",
        "      project L_2,1(-) = 3 [memo]",
        "      +E1 L_3,4(1,1,1,1,1,1) = 29",
        "        project L_2,0(-) = 1",
        "        +E1 L_3,4(1,1,1,1,1) = 30",
    ]


def test_recursion_guard():
    with pytest.raises(RecursionGuardError):
        recursive_h0(system(5, 8, [7, 6, 6] + [5] * 7), max_nodes=2)


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
