"""Normalization, k_C, epsilon, and virtual dimension."""

import random

import pytest

from rncdim.systems import (
    LinearSystemSpec,
    NormalizedSystem,
    kc_epsilon,
    kc_value,
    kept_points,
    normalize,
    points_of,
    runs_of,
    system,
    vdim,
)


def test_normalize_drops_redundant_points():
    for mults, dropped in (
        ([7, 6, 6] + [5] * 7 + [2] * 3, (13, 12, 11)),
        # Among equal multiplicities the largest original index drops first.
        ([2, 7, 6, 2, 6] + [5] * 7 + [2], (13, 4, 1)),
    ):
        norm = normalize(system(5, 8, mults))
        assert norm.mults == (7, 6, 6, 5, 5, 5, 5, 5, 5, 5)
        assert norm.s == 10
        actions = [(t.action, t.point, t.mult, t.kc) for t in norm.trace]
        assert actions == [("drop-redundant", i, 2, 4) for i in dropped]


def test_normalize_clamp_and_drop_zero():
    spec = system(2, 4, [3, -1, 0, 2])
    norm = normalize(spec)
    assert norm.mults == (3, 2)
    actions = [(t.action, t.point, t.mult) for t in norm.trace]
    assert actions == [("clamp", 2, -1), ("drop-zero", 2, 0), ("drop-zero", 3, 0)]
    assert all(t.kc is None for t in norm.trace)


def test_normalize_sorts_descending():
    norm = normalize(system(3, 5, [1, 4, 2, 4, 3]))
    assert norm.mults == (4, 4, 3, 2, 1)


def test_normalize_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        d = rng.randint(0, 8)
        s = rng.randint(0, 10)
        mults = [rng.randint(-2, 6) for _ in range(s)]
        once = normalize(system(n, d, mults))
        twice = normalize(system(once.n, once.d, once.mults))
        assert twice.mults == once.mults
        assert twice.trace == ()


def test_normalize_preserves_small_systems():
    # With s <= n + 2 there is no k_C and nothing beyond clamping to do.
    norm = normalize(system(3, 2, [2, 2]))
    assert norm.mults == (2, 2)
    assert norm.trace == ()


def test_trace_step_as_dict():
    norm = normalize(system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3))
    step = norm.trace[0]
    assert step.as_dict() == {
        "action": "drop-redundant",
        "point": 13,
        "mult": 2,
        "kc": 4,
    }
    # kc appears only when it is set.
    clamp, zero = normalize(system(2, 3, [2, -1])).trace
    assert clamp.as_dict() == {"action": "clamp", "point": 2, "mult": -1}
    assert zero.as_dict() == {"action": "drop-zero", "point": 2, "mult": 0}
    # A record is immutable.
    for name in ("action", "point", "mult", "kc"):
        with pytest.raises(AttributeError):
            setattr(step, name, None)


def test_normalized_key():
    norm = normalize(system(2, 4, [2, 2, 2, 2, 2]))
    assert isinstance(norm, NormalizedSystem)


def test_normalized_system_is_a_spec():
    for spec, mults, steps in (
        (system(2, 4, [2, 0, 2, 2, 2, 2]), (2,) * 5, 1),
        (system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3), (7, 6, 6) + (5,) * 7, 3),
    ):
        norm = normalize(spec)
        assert isinstance(norm, LinearSystemSpec)
        assert (norm.mults, norm.s, len(norm.trace)) == (mults, len(mults), steps)
        # Never equal to the raw spec with the same fields; equality and
        # hash ignore the trace; normalizing a normalized system changes
        # nothing.
        assert norm != LinearSystemSpec(norm.n, norm.d, norm.mults)
        bare = NormalizedSystem(norm.n, norm.d, norm.mults)
        assert norm == bare and hash(norm) == hash(bare)
        assert normalize(norm) == norm and normalize(norm).trace == ()


def test_kc_and_epsilon_worked_values():
    raw = [7, 6, 6] + [5] * 7 + [2] * 3
    assert kc_value(5, 8, raw) == 4
    norm_mults = [7, 6, 6] + [5] * 7
    assert kc_value(5, 8, norm_mults) == 5
    assert kc_epsilon(5, 8, norm_mults) == (5, 1)

    assert kc_value(2, 4, [2] * 5) == 2
    assert kc_epsilon(2, 4, [2] * 5) == (2, 0)

    assert kc_value(2, 6, [1] * 5) == -7
    assert kc_epsilon(2, 6, [1] * 5) == (-7, 0)


def test_kc_requires_enough_points():
    with pytest.raises(ValueError):
        kc_value(3, 4, [2, 2, 2, 2, 2])  # s = n + 2
    with pytest.raises(ValueError):
        kc_value(2, 3, [1, 1, 1, 1])
    # kc_epsilon reports the missing pair as records and dim print it.
    assert kc_epsilon(3, 4, [2] * 5) == (None, None)
    assert kc_epsilon(2, 3, []) == (None, None)


def test_epsilon_range_property():
    # epsilon is the remainder of kc_epsilon's one division; this is the
    # property that defines it, negative degrees and multiplicities included.
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(1, 12)
        s = rng.randint(n + 3, n + 9)
        d = rng.randint(-5, 60)
        mults = [rng.randint(-3, 70) for _ in range(s)]
        kc, eps = kc_epsilon(n, d, mults)
        assert kc == kc_value(n, d, mults)
        assert 0 <= eps <= s - n - 3
        assert kc * (s - n - 2) == sum(mults) - n * d + eps


def test_vdim_values():
    assert vdim(system(5, 8, [7, 6, 6] + [5] * 7)) == -561
    assert vdim(system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3)) == -579
    assert vdim(system(3, 6, [2] * 10)) == 44
    assert vdim(system(2, 1, [1, 1])) == 1
    assert vdim(system(3, 4, [])) == 35


def test_vdim_ignores_nonpositive_mults():
    assert vdim(system(2, 3, [2, -5, 0])) == vdim(system(2, 3, [2]))


def test_spec_validation():
    with pytest.raises(ValueError):
        system(0, 3, [1])
    spec = system(2, 3, [1.0, 2])
    assert spec.mults == (1, 2)
    assert spec.s == 2


def test_runs_round_trip():
    assert runs_of((5, 5, 3, 2, 2, 2)) == ((5, 2), (3, 1), (2, 3))
    assert runs_of(()) == ()
    assert points_of(((5, 2), (3, 1), (2, 3))) == (5, 5, 3, 2, 2, 2)


def test_kept_points_on_runs():
    # L_5,8(7,6^2,5^7,2^3): the three 2's go one by one, each drop's k_C
    # recorded; the runs before the last are untouched.
    runs = ((7, 1), (6, 2), (5, 7), (2, 3))
    kcs: list[int] = []
    assert kept_points(5, 8, runs, 13, 60, kcs) == ((7, 1), (6, 2), (5, 7))
    assert kcs == [4, 4, 4]
    kept = ((7, 1), (6, 2), (5, 7))
    assert kept_points(5, 8, kept, 10, 54) == kept
