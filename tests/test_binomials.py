"""Truncated binomials, the f recursion, and the identity suite."""

import random
from dataclasses import dataclass
from typing import Callable

import pytest

from rncdim.binomials import binom, f, f_cache_size

# ---------------------------------------------------------------------------
# Identity suite: executable algebraic identities satisfied by binom and f.
# Each identity carries its own domain sampler so a seeded battery can be run
# over documented bounds (t <= 6, |a| <= 40, n <= 10, s <= n + 12, side
# conditions per identity).


@dataclass(frozen=True)
class Identity:
    name: str
    statement: str
    check: Callable[..., bool]
    sample: Callable[[random.Random], tuple]


def _sample_base(rng: random.Random, n_min: int = 1) -> tuple[int, int, int, int]:
    """Common draw: (t, a, s, n) with s >= n + 3 and room above it."""
    n = rng.randint(n_min, 10)
    t = rng.randint(0, 6)
    a = rng.randint(-40, 40)
    s = rng.randint(n + 3, n + 12)
    return t, a, s, n


def _check_shift(t: int, a: int, s: int, eps: int, n: int) -> bool:
    return f(t, a, s, eps, n) == f(t, a - 1, s, eps, n) + f(t, a - 1, s - 1, eps, n - 1)


def _sample_shift(rng: random.Random) -> tuple:
    t, _, s, n = _sample_base(rng, n_min=0)
    return t, rng.randint(1, 40), s, rng.randint(0, 12), n


def _check_point_drop(t: int, a: int, s: int, eps: int, n: int) -> bool:
    return f(t, a, s - 1, eps, n) + f(t - 1, a + 1, s, eps, n) == f(t, a, s, eps, n)


def _sample_point_drop(rng: random.Random) -> tuple:
    t, a, _, n = _sample_base(rng)
    s = rng.randint(n + 4, n + 12)
    return max(t, 1), a, s, rng.randint(0, s - n - 3), n


def _check_max_excess(t: int, a: int, s: int, n: int) -> bool:
    lhs = f(t, a, s, s - n - 3, n)
    rhs = binom(a, n) * (1 + sum(binom(s - n - 4 + i, i) for i in range(1, t + 1)))
    return lhs == rhs


def _sample_max_excess(rng: random.Random) -> tuple:
    t, _, s, n = _sample_base(rng)
    return t, rng.randint(0, 40), s, n


def _check_excess_shift_a(t: int, a: int, s: int, n: int) -> bool:
    return f(t, a, s, 0, n) + f(t - 1, a, s, 0, n - 1) == f(t, a + t, s, s - n - 3, n)


def _sample_excess_shift_a(rng: random.Random) -> tuple:
    t, _, s, n = _sample_base(rng)
    return max(t, 1), rng.randint(0, 40), s, n


def _check_excess_shift_b(t: int, a: int, s: int, n: int) -> bool:
    return f(t, a, s, 0, n) + f(t, a, s, 0, n - 1) == f(t, a + t + 1, s, s - n - 3, n)


def _sample_excess_shift_b(rng: random.Random) -> tuple:
    t, _, s, n = _sample_base(rng)
    return t, rng.randint(0, 40), s, n


def _check_excess_step(t: int, a: int, s: int, eps: int, n: int) -> bool:
    return f(t, a, s, eps, n) + f(t - 1, a, s, eps, n - 1) == f(t, a, s, eps - 1, n)


def _sample_excess_step(rng: random.Random) -> tuple:
    t, a, s, n = _sample_base(rng)
    return max(t, 1), a, s, rng.randint(1, 12), n


def _check_excess_step_shifted(t: int, a: int, s: int, eps: int, n: int) -> bool:
    return f(t, a, s, eps, n) + f(t, a, s, eps, n - 1) == f(t, a + 1, s, eps - 1, n)


def _sample_excess_step_shifted(rng: random.Random) -> tuple:
    t, _, s, n = _sample_base(rng)
    return t, rng.randint(0, 40), s, rng.randint(1, 12), n


def _check_hockey_stick(a: int, b: int) -> bool:
    return sum(binom(a + lam, a) for lam in range(b + 1)) == binom(a + b + 1, a + 1)


def _check_stocking(b: int, t: int) -> bool:
    return sum(binom(b + i, i) for i in range(t)) == binom(b + t, t - 1)


def _check_triangular(a: int, b: int) -> bool:
    return binom(a + b + 1, 2) == binom(a + 1, 2) + binom(b + 1, 2) + a * b


IDENTITIES: tuple[Identity, ...] = (
    Identity(
        "shift",
        "f(t,a,s,eps,n) = f(t,a-1,s,eps,n) + f(t,a-1,s-1,eps,n-1)  [a >= 1]",
        _check_shift,
        _sample_shift,
    ),
    Identity(
        "point_drop",
        "f(t,a,s-1,eps,n) + f(t-1,a+1,s,eps,n) = f(t,a,s,eps,n)"
        "  [t >= 1, s >= n+4, 0 <= eps <= s-n-3]",
        _check_point_drop,
        _sample_point_drop,
    ),
    Identity(
        "max_excess",
        "f(t,a,s,s-n-3,n) = binom(a,n) * (1 + sum_i binom(s-n-4+i,i))  [s >= n+3, a >= 0]",
        _check_max_excess,
        _sample_max_excess,
    ),
    Identity(
        "excess_shift_a",
        "f(t,a,s,0,n) + f(t-1,a,s,0,n-1) = f(t,a+t,s,s-n-3,n)  [t >= 1, s >= n+3, a >= 0]",
        _check_excess_shift_a,
        _sample_excess_shift_a,
    ),
    Identity(
        "excess_shift_b",
        "f(t,a,s,0,n) + f(t,a,s,0,n-1) = f(t,a+t+1,s,s-n-3,n)  [s >= n+3, a >= 0]",
        _check_excess_shift_b,
        _sample_excess_shift_b,
    ),
    Identity(
        "excess_step",
        "f(t,a,s,eps,n) + f(t-1,a,s,eps,n-1) = f(t,a,s,eps-1,n)  [t >= 1, eps >= 1]",
        _check_excess_step,
        _sample_excess_step,
    ),
    Identity(
        "excess_step_shifted",
        "f(t,a,s,eps,n) + f(t,a,s,eps,n-1) = f(t,a+1,s,eps-1,n)  [eps >= 1, a >= 0]",
        _check_excess_step_shifted,
        _sample_excess_step_shifted,
    ),
    Identity(
        "hockey_stick",
        "sum_{lam=0..b} binom(a+lam,a) = binom(a+b+1,a+1)  [a,b >= 0]",
        _check_hockey_stick,
        lambda rng: (rng.randint(0, 40), rng.randint(0, 40)),
    ),
    Identity(
        "christmas_stocking",
        "sum_{i=0..t-1} binom(b+i,i) = binom(b+t,t-1)  [b,t >= 0]",
        _check_stocking,
        lambda rng: (rng.randint(0, 40), rng.randint(0, 12)),
    ),
    Identity(
        "triangular",
        "binom(a+b+1,2) = binom(a+1,2) + binom(b+1,2) + a*b  [a,b >= 0]",
        _check_triangular,
        lambda rng: (rng.randint(0, 40), rng.randint(0, 40)),
    ),
)


def identity_suite(trials: int = 1000, seed: int = 0) -> dict[str, list[tuple]]:
    """Run every identity on `trials` sampled tuples; return failures by name.

    The result maps identity name -> list of failing argument tuples (empty
    lists everywhere means the suite passed).
    """
    failures: dict[str, list[tuple]] = {}
    for ident in IDENTITIES:
        rng = random.Random(f"{seed}:{ident.name}")
        bad = []
        for _ in range(trials):
            args = ident.sample(rng)
            if not ident.check(*args):
                bad.append(args)
        failures[ident.name] = bad
    return failures



def test_binom_edge_values():
    assert binom(5, 5) == 1
    assert binom(4, 5) == 0
    assert binom(-3, 2) == 0
    assert binom(7, 0) == 1
    assert binom(0, 0) == 1
    assert binom(-1, 0) == 0
    assert binom(10, 3) == 120
    assert binom(5, -1) == 0


def test_binom_truncation_vs_pascal():
    # Pascal's rule holds away from the truncated corner a = n = 0 ...
    for a in range(1, 12):
        for n in range(0, 12):
            assert binom(a, n) == binom(a - 1, n) + binom(a - 1, n - 1)
    # ... and fails exactly there: binom(0,0) = 1 but both summands vanish.
    assert binom(0, 0) != binom(-1, 0) + binom(-1, -1)


def test_f_base_case_is_binomial():
    for a in range(-3, 12):
        for n in range(0, 6):
            assert f(0, a, 10, 1, n) == binom(a, n)
    # t = 0 is the base; there is no f below it.
    with pytest.raises(ValueError, match="t must be nonnegative"):
        f(-1, 3, 10, 1, 2)


def test_f_frozen_values():
    # Values from the L_5,8(7,6^2,5^7) contribution table, oracle-confirmed.
    assert f(0, 13, 10, 1, 5) == 1287
    assert f(1, 8, 10, 1, 5) == 238
    assert f(1, 6, 10, 1, 5) == 33
    assert f(1, 5, 10, 1, 5) == 8
    assert f(1, 4, 10, 1, 5) == 1
    assert f(2, 3, 10, 1, 5) == 1


def test_f_negative_ambient_dimension_vanishes():
    for t in range(0, 4):
        for a in range(-2, 6):
            assert f(t, a, 9, 2, -1) == 0
            assert f(t, a, 9, 2, -3) == 0


def test_f_vanishing_band():
    # f(t, a, s, eps, n) = 0 whenever a < n - t.
    for t in range(0, 4):
        for n in range(0, 6):
            for s in range(n + 4, n + 9):
                for eps in range(0, s - n - 2):
                    for a in range(n - t - 4, n - t):
                        assert f(t, a, s, eps, n) == 0, (t, a, s, eps, n)


def test_f_memo_determinism():
    f.cache_clear()
    first = f(3, 9, 11, 2, 4)
    size_after_first = f_cache_size()
    assert size_after_first > 0
    assert f(3, 9, 11, 2, 4) == first
    assert f_cache_size() == size_after_first
    f.cache_clear()
    assert f_cache_size() == 0
    assert f(3, 9, 11, 2, 4) == first


def test_hockey_stick_instance():
    # sum_{lam=0..4} binom(3+lam, 3) = binom(8, 4)
    assert sum(binom(3 + lam, 3) for lam in range(5)) == 70 == binom(8, 4)


def test_triangular_instance():
    # binom(a+b+1, 2) = binom(a+1,2) + binom(b+1,2) + ab
    for a in range(0, 8):
        for b in range(0, 8):
            assert binom(a + b + 1, 2) == binom(a + 1, 2) + binom(b + 1, 2) + a * b


def test_identity_checks_direct():
    # Every identity's check callable accepts a sampled tuple and passes.
    rng = random.Random(7)
    for ident in IDENTITIES:
        for _ in range(25):
            args = ident.sample(rng)
            assert ident.check(*args), (ident.name, args)


def test_identity_suite_clean():
    failures = identity_suite(trials=200, seed=11)
    assert set(failures) == {ident.name for ident in IDENTITIES}
    assert all(not bad for bad in failures.values()), {
        k: v[:3] for k, v in failures.items() if v
    }
