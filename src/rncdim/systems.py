"""Linear-system data model: specs, normalization, virtual dimension.

A system L(n, d; m_1, ..., m_s) is the space of degree-d hypersurfaces of
projective n-space with multiplicity at least m_i at the i-th of s general
points lying on a rational normal curve of degree n.  Dimensions are affine
counts (vector-space dimension of the space of defining forms).

Normalization turns an arbitrary integer input into the canonical form every
evaluator expects: multiplicities clamped at 0, zero multiplicities dropped,
the multiset sorted non-increasingly, and redundant points removed.  A point
is redundant when 0 < m_i < k_C, where k_C is the forced multiplicity of the
curve in the base locus; removing it does not change the dimension.  k_C is
recomputed after every single removal because removals can raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .binomials import binom


@dataclass(frozen=True)
class LinearSystemSpec:
    """Raw user input: ambient dimension, degree, multiplicities as given."""

    n: int
    d: int
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")

    @property
    def s(self) -> int:
        return len(self.mults)


def system(n: int, d: int, mults: Iterable[int] = ()) -> LinearSystemSpec:
    """A spec from outside input, every field converted to int."""
    return LinearSystemSpec(int(n), int(d), tuple(map(int, mults)))


class TraceStep(NamedTuple):
    """One normalization event, with the 1-based index into the original
    input.  An immutable named tuple (assigning a field raises
    AttributeError), built once per clamp or drop; as_dict() is its record
    form, with kc only when it is set."""

    action: str  # "clamp" | "drop-zero" | "drop-redundant"
    point: int
    mult: int
    kc: int | None = None

    def as_dict(self) -> dict:
        out: dict = {"action": self.action, "point": self.point, "mult": self.mult}
        if self.kc is not None:
            out["kc"] = self.kc
        return out


@dataclass(frozen=True)
class NormalizedSystem(LinearSystemSpec):
    """Canonical form: mults sorted non-increasingly, all >= 1, non-redundant.
    Never equal to a raw spec, whatever its fields."""

    trace: tuple[TraceStep, ...] = field(default=(), compare=False)


def kc_value(n: int, d: int, mults: Sequence[int]) -> int:
    """Forced multiplicity of the degree-n curve in the base locus.

    Exact ceiling of (sum(m) - n*d) / (s - n - 2); requires s >= n + 3.
    Negative values are meaningful (the curve is not forced at all).
    """
    s = len(mults)
    if s < n + 3:
        raise ValueError(f"k_C needs s >= n + 3 points (s={s}, n={n})")
    return kc_from_sum(n, d, s, sum(mults))


def kc_from_sum(n: int, d: int, s: int, total: int) -> int:
    """kc_value from the point count and multiplicity sum; s >= n + 3."""
    return -((n * d - total) // (s - n - 2))


Runs = tuple[tuple[int, int], ...]


def runs_of(mults: Iterable[int]) -> Runs:
    """Run-length form ((m, count), ...) of non-increasing multiplicities."""
    return tuple((m, len(list(g))) for m, g in groupby(mults))


def points_of(runs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The multiplicities of run-length form, one per point."""
    return tuple(m for m, c in runs for _ in range(c))


def kept_points(
    n: int,
    d: int,
    runs: Sequence[tuple[int, int]],
    s: int,
    total: int,
    kcs: list[int] | None = None,
) -> Runs:
    """The redundant-point rule on run-length multiplicities: the runs
    that stay.

    runs is ((m, count), ...) with m strictly decreasing and >= 1, s points
    in all with multiplicity sum total.  While s >= n + 3 and the last
    point has 0 < m_s < k_C, that point is dropped from the last run and
    k_C is recomputed from the running sum, since a removal can raise it.
    The k_C of each drop is appended to kcs when it is given.
    """
    out = None  # a copy of runs once a point is dropped
    while s >= n + 3:
        m, c = runs[-1] if out is None else out[-1]
        kc = kc_from_sum(n, d, s, total)
        if kc < 1 or m >= kc:
            break
        if out is None:
            out = list(runs)
        if c > 1:
            out[-1] = (m, c - 1)
        else:
            out.pop()  # s >= n + 2 points are left, so an earlier run is too
        s -= 1
        total -= m
        if kcs is not None:
            kcs.append(kc)
    return tuple(runs if out is None else out)


def kc_epsilon(n: int, d: int, mults: Sequence[int]) -> tuple[int | None, int | None]:
    """(k_C, epsilon) from one division, or (None, None) below n + 3 points.

    divmod(n*d - sum(m), s - n - 2) gives (-k_C, epsilon): k_C is the exact
    ceiling kc_value computes and epsilon, in 0..s-n-3, its excess, so
    k_C * (s - n - 2) = sum(m) - n*d + epsilon.  Records report them for
    the normalized system, the one the formula uses."""
    s = len(mults)
    if s < n + 3:
        return None, None
    q, eps = divmod(n * d - sum(mults), s - n - 2)
    return -q, eps


def system_label(n: int, d: int, mults: Sequence[int]) -> str:
    """The system's name L_n,d(m_1,...,m_s); L_n,d(-) with no points."""
    body = ",".join(map(str, mults)) if mults else "-"
    return f"L_{n},{d}({body})"


def normalize(spec: LinearSystemSpec) -> NormalizedSystem:
    """Canonicalize a raw system; dimension is preserved at every step.

    Steps, applied in order and recorded in the trace:
      1. clamp negative multiplicities to 0 (they impose no conditions);
      2. drop zero multiplicities;
      3. while s >= n + 3 and some 0 < m_i < k_C: drop one point of minimal
         multiplicity and recompute k_C.
    Idempotent: normalizing the result is the identity.
    """
    n, d = spec.n, spec.d
    trace: list[TraceStep] = []
    pts: list[tuple[int, int]] = []  # (mult, original 1-based index)
    for idx, m in enumerate(spec.mults, start=1):
        if m < 0:
            trace.append(TraceStep("clamp", idx, m))
            m = 0
        if m == 0:
            trace.append(TraceStep("drop-zero", idx, 0))
        else:
            pts.append((m, idx))
    # Multiplicity descending; the sort is stable, so ties keep input order.
    pts.sort(key=itemgetter(0), reverse=True)
    ms = [m for m, _ in pts]
    kcs: list[int] = []
    kept_points(n, d, runs_of(ms), len(ms), sum(ms), kcs)
    keep = len(ms) - len(kcs)
    # Drops go from the end: minimal multiplicity, largest original index.
    for kc, (m, idx) in zip(kcs, reversed(pts[keep:])):
        trace.append(TraceStep("drop-redundant", idx, m, kc))
    del pts[keep:]
    return NormalizedSystem(n, d, tuple(m for m, _ in pts), tuple(trace))


def vdim(sys: LinearSystemSpec) -> int:
    """Virtual dimension: monomial count minus the conditions all points impose.

    binom(n+d, n) - sum_i binom(n + m_i - 1, n); an affine count, may be
    negative.  Negative multiplicities count as 0 conditions.
    """
    n = sys.n
    total = binom(n + sys.d, n)
    for m in sys.mults:
        if m > 0:
            total -= binom(n + m - 1, n)
    return total


def speciality(dim: int, vd: int) -> int:
    """Excess of a dimension over the expected dimension max(vd, 0); the
    system is special when it is positive.  An empty system (dim 0) is
    never special."""
    return dim - max(vd, 0)
