"""Recursive h0 evaluator via projection from the largest-multiplicity point.

Second independent evaluator (after the interpolation oracle): computes the
dimension by the ascending one-point recursion

    h0(D) = h0(D + E_1) - h0(l(D + E_1) - kc+(D + E_1) E_q)

where D + E_1 lowers the largest multiplicity by one, l(.) projects the
system from that point into dimension n - 1 (degree becomes m_1, the other
multiplicities become m_1 + m_i - d), and the image point q of the curve's
projection picks up multiplicity kc+ of the system being projected.  The
descent lowers m_1 until normalization drops the point or a base case is
reached: d < 0 or m_1 > d (empty), no points (full space), s <= n+2
(subset formula), n = 2 (planar closed form), n = 1 (points on a line
impose independent conditions).

The recursion steps on canonical keys (n, d, runs): the multiplicities of
the normalized system in run-length form ((m, count), ...), m strictly
decreasing and >= 1, so a step costs O(number of distinct
multiplicities), not O(s), and never builds a system object.  A
projection shifts every multiplicity by the same m_1 - 1 - d and adds one
point, so runs of equal multiplicities last all the way down.  A key's two
children come out canonical without a sort: the +E_1 child moves one
point of the leading run down to m_1 - 1 (dropping it at 0); the
projection child shifts each run, stops at the first non-positive image,
and merges kc+ into its run or inserts it.  Both then go through
`systems.kept_points`, the one redundant-point rule.  Point lists are
expanded from the runs only at the leaves that need one (ldim_sum,
planar_h0) and in trace listings.

The m_1-descent is a linear chain, so it is evaluated iteratively and only
projections recurse; recursion depth is bounded by n.  Every chain node is
memoized on its key during unwind.  A memoized projection child is visited
like any node; each visit counts against a budget of MAX_NODES per call.
A traced walk records each visited node without its value; the listing is
rendered after the walk and reads every value from the memo, which by then
holds each visited key (leaves and summed chains from their visit, chain
nodes from the unwind).

Where no base-locus subvariety can occur, the rest of a chain is summed in
closed form instead of walked.  Take a chain node (n, d, runs) that is not
a leaf (so n >= 3, s >= n + 3), with multiplicity sum T, and let r be the
largest multiplicity the step leaves alone: m_1 if two or more points have
it, m_2 otherwise.  If r + m_1 <= d + 1 and T <= n*d + 1, every image
m_i + m_1 - 1 - d is at most r + m_1 - 1 - d <= 0 and kc(D + E_1) <= 0,
so the projection child is (n-1, m_1-1, ()) with h0 = binom(n+m_1-2, n-1),
and the redundant-point rule drops no point of the +E_1 child.  Both bounds only fall down the chain (T loses one per
step, and lowering a point cannot raise the sum of the two largest), so
the same holds at every later node, and the chain ends at
((1, n+2),), whose value is binom(n+d, n) - (n+2) (here d >= 2, since
n*d + 1 >= T >= s >= n + 3).  Lowering a point from m to 0 subtracts
sum_{k=1..m} binom(n+k-2, n-1) = binom(n+m-1, n) (hockey stick), and the
n + 2 points that stop at 1 each subtract one less; so the node's value is
binom(n+d, n) - sum_i binom(n+m_i-1, n), its virtual dimension.  Such a
node is memoized like a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binomials import binom
from .formula import ldim_sum, planar_h0
from .systems import (
    LinearSystemSpec,
    NormalizedSystem,
    Runs,
    kc_from_sum,
    kc_value,
    kept_points,
    normalize,
    points_of,
    runs_of,
    system_label,
)

Key = tuple[int, int, Runs]

MAX_NODES = 1_000_000  # node budget of one recursive_h0 call


def l_map(sys: LinearSystemSpec) -> LinearSystemSpec:
    """Project the system from its first point (multiplicity m_1).

    Returns the raw (n-1)-dimensional system: degree m_1, multiplicities
    m_1 + m_i - d for the remaining points (negatives allowed; normalize
    clamps downstream), plus one new point of multiplicity kc+ of the input
    system, appended last.  Requires n >= 3 and s >= n+3 so that kc is
    defined and the target still carries a rational normal curve.
    """
    n, d, mults = sys.n, sys.d, sys.mults
    if n < 3:
        raise ValueError("projection drops below the planar base case")
    if len(mults) < n + 3:
        raise ValueError("projection needs s >= n+3 (kc undefined otherwise)")
    m1 = mults[0]
    kcp = max(kc_value(n, d, mults), 0)
    return LinearSystemSpec(n - 1, m1, (*(m + m1 - d for m in mults[1:]), kcp))


def _children(key: Key) -> tuple[Key, Key]:
    """Canonical keys of the +E_1 child normalize(up) and the projection
    child normalize(l_map(up)), where up lowers m_1 of the canonical key by
    one.  The key has n >= 3 and s >= n + 3."""
    n, d, runs = key
    m1, c1 = runs[0]
    tail = runs[1:]
    s = total = 0  # points and multiplicity sum of up, a zero point included
    for m, c in runs:
        s += c
        total += m * c
    total -= 1
    head = ((m1, c1 - 1),) if c1 > 1 else ()
    rest = head + tail  # the points of up other than the lowered one
    if m1 == 1:
        up = kept_points(n, d, rest, s - 1, total)
    elif tail and tail[0][0] == m1 - 1:
        up = kept_points(n, d, head + ((m1 - 1, tail[0][1] + 1),) + tail[1:], s, total)
    else:
        up = kept_points(n, d, head + ((m1 - 1, 1),) + tail, s, total)

    # l_map(up): every other point shifts by m1 - 1 - d, the positive
    # images are a prefix of the runs, and kc+ of up joins them (kc <= 0
    # adds no point).
    kc = kc_from_sum(n, d, s, total)
    shift = m1 - 1 - d
    images = []
    s = total = 0
    for m, c in rest:
        m += shift
        if m <= 0:
            break
        if kc >= m:
            if kc == m:
                c += 1
            else:
                images.append((kc, 1))
                s += 1
                total += kc
            kc = 0
        images.append((m, c))
        s += c
        total += m * c
    if kc > 0:
        images.append((kc, 1))
        s += 1
        total += kc
    return (n, d, up), (n - 1, m1 - 1, kept_points(n - 1, m1 - 1, images, s, total))


@dataclass
class RecStats:
    """Counters of one RecState, cumulative over every call that shares it;
    the node budget MAX_NODES counts one call.  max_depth is the deepest
    chain depth reached, counting +E1 and project edges from the root; it
    is not the Python recursion depth, which only project edges add to."""

    nodes: int = 0
    max_depth: int = 0
    memo_hits: int = 0


@dataclass
class RecState:
    """Shared evaluation state.  memo maps a canonical key (n, d, runs) to
    its h0, runs being the normalized multiplicities in run-length form
    ((m, count), ...), m strictly decreasing and >= 1: L_3,6(2^10) is
    (3, 6, ((2, 10),))."""

    memo: dict[Key, int] = field(default_factory=dict)
    stats: RecStats = field(default_factory=RecStats)


class RecursionGuardError(RuntimeError):
    """Node budget exceeded; input far outside the intended desk scale."""


def _base_value(key: Key) -> int | None:
    """Value at a leaf of the recursion, or None if another step is needed."""
    n, d, runs = key
    if d < 0 or (runs and runs[0][0] > d):
        return 0  # negative degree, or a point of multiplicity above d: empty
    if not runs:
        return binom(n + d, n)
    if n == 1:
        return max(d + 1 - sum(m * c for m, c in runs), 0)
    s = 0
    for _, c in runs:
        s += c
    if s <= n + 2:
        return max(ldim_sum(n, d, points_of(runs)), 0)
    if n == 2:
        return planar_h0(LinearSystemSpec(n, d, points_of(runs)))
    return None


def _summed_chain(key: Key) -> int | None:
    """Value of a chain node whose projection children are all empty, as
    the closed-form sum of its chain (see the module docstring), or None
    if the node is outside that region.  The key is not a leaf."""
    n, d, runs = key
    m1, c1 = runs[0]
    r = m1 if c1 > 1 else runs[1][0]
    if r + m1 > d + 1:
        return None
    total = 0
    for m, c in runs:
        total += m * c
    if total > n * d + 1:
        return None
    h = binom(n + d, n)
    for m, c in runs:
        h -= c * binom(n + m - 1, n)
    return h


def _eval(
    key: Key,
    state: RecState,
    nodes: list[tuple[int, str, Key, str]] | None,
    depth: int,
    label: str,
    stop: int,
) -> int:
    # m_1-descent: walk the +E_1 chain iteratively, recursing only into the
    # projected (n-1)-dimensional systems, until a node is a memo hit or a
    # base case; then unwind the chain, memoizing each node.  Every visit
    # is counted here; the call fails once stats.nodes passes stop.  Traced,
    # each visit appends (depth, label, key, mark) to nodes, mark "memo",
    # "summed" or ""; recursive_h0 reads the values from the memo after the
    # walk.  chain[i] = (key, projected value at that step).
    stats, memo = state.stats, state.memo
    chain: list[tuple[Key, int]] = []
    while True:
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if stats.nodes > stop:
            raise RecursionGuardError(f"recursion exceeded {MAX_NODES} nodes")
        mark = ""
        h = memo.get(key)
        if h is not None:
            stats.memo_hits += 1
            mark = "memo"
        else:
            h = _base_value(key)
            if h is None:
                h = _summed_chain(key)
                if h is not None:
                    mark = "summed"
            if h is not None:
                memo[key] = h
        if nodes is not None:
            nodes.append((depth, label, key, mark))
        if h is not None:
            break
        up_key, proj_key = _children(key)
        # The projection child comes before the +E_1 child, so the indented
        # listing nests as a tree (the chain continuation is the +E_1
        # child's subtree and follows it).
        proj_val = _eval(proj_key, state, nodes, depth + 1, "project", stop)
        chain.append((key, proj_val))
        key, depth, label = up_key, depth + 1, "+E1"

    for node_key, proj_val in reversed(chain):
        h -= proj_val
        memo[node_key] = h
    return h


def recursive_h0(
    sys: LinearSystemSpec,
    state: RecState | None = None,
    trace: list[str] | None = None,
) -> int:
    """Dimension by the ascending projection recursion; exact.

    state carries the memo across calls (pass one RecState to share work in
    a sweep).  If trace is a list, one line per visited node is appended,
    depth-indented, with edge labels +E1 / project, memo hits marked
    [memo] and closed-form chain sums marked [summed].
    """
    norm = sys if isinstance(sys, NormalizedSystem) else normalize(sys)
    if state is None:
        state = RecState()
    key = (norm.n, norm.d, runs_of(norm.mults))
    nodes: list[tuple[int, str, Key, str]] | None = None if trace is None else []
    val = _eval(key, state, nodes, 0, "root", state.stats.nodes + MAX_NODES)
    for depth, label, (n, d, runs), mark in nodes or ():
        tail = f" [{mark}]" if mark else ""
        name = system_label(n, d, points_of(runs))
        value = state.memo[n, d, runs]
        trace.append(f"{'  ' * depth}{label} {name} = {value}{tail}")
    return val
