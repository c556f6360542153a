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

Where every projection child is a one-point leaf, a stretch of the chain
is stepped in integer arithmetic instead of walked.  Take a chain node
(n, d, runs) that is not a leaf (so n >= 3, s >= n + 3), with multiplicity
sum T, and let r be the largest multiplicity the step leaves alone: m_1 if
two or more points have it, m_2 otherwise.  The region is r + m_1 <= d + 1.
There every image m_i + m_1 - 1 - d of the projection is at most
r + m_1 - 1 - d <= 0, so only the image point q of the curve is left: the
projection child is (n-1, m_1-1, ((kc+, 1),)), or (n-1, m_1-1, ()) when
kc+ <= 0, kc being that of D + E_1, with value
max(binom(n+m_1-2, n-1) - binom(n+kc+-2, n-1), 0) (a single point imposes
independent conditions).  Both r + m_1 and T only fall down the chain (T
loses one per step, and lowering a point cannot raise the sum of the two
largest), and so does kc while s is fixed, so the region, once entered,
holds at every later node.  `_stretch` steps the top run one level of
c_1 points at a time, and within a level one run of constant kc at a
time, adding up the projection values, with no key, memo entry or visit
per step.  A stretch stops
  - before a step at which the redundant-point rule would drop the +E_1
    child's lowest point (0 < m_s < kc), since s and so kc change there;
    so within a stretch kc <= m_1 - 1 and no projection value is 0;
  - before a step at m_1 = 1, where the lowered point is dropped;
  - when T reaches n*d + 1, where the rest of the chain sums in closed
    form (below), and the whole stretch is one leaf.
At the first two it lands on that node, which the walk visits as usual;
the stretch is one node, memoized on its start key as h(landing) minus
the sum.  A stretch that cannot take one step declines, and the node is
walked.  So the cost of a chain grows with T - n*d only outside the
region.

From T <= n*d + 1 on in the region, kc(D + E_1) <= 0, so each projection
child is (n-1, m_1-1, ()) with h0 = binom(n+m_1-2, n-1), no point is
redundant, and the chain ends at ((1, n+2),), whose value is
binom(n+d, n) - (n+2) (here d >= 2, since n*d + 1 >= T >= s >= n + 3).
Lowering a point from m to 0 subtracts sum_{k=1..m} binom(n+k-2, n-1) =
binom(n+m-1, n) (hockey stick), and the n + 2 points that stop at 1 each
subtract one less; so the node's value is
binom(n+d, n) - sum_i binom(n+m_i-1, n), its virtual dimension.
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
    chain depth reached, counting +E1 and project edges from the root, a
    stepped stretch of +E1 steps being one edge; it is not the Python
    recursion depth, which only project edges add to."""

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


def _stretch(key: Key) -> tuple[Key | None, int, int] | None:
    """The key's stretch of +E_1 steps whose projection children are all
    one-point leaves (see the module docstring), stepped in integer
    arithmetic; None outside the region or when no step can be taken.

    Returns (landing, steps, proj): the key `steps` +E_1 steps down the
    chain and the sum of the projection values of those steps; or
    (None, steps, h) when the stretch reaches T <= n*d + 1, where the rest
    of the chain sums in closed form and h is the key's own value.  The
    key is not a leaf."""
    n, d, runs = key
    m, c = runs[0]
    if (m if c > 1 else runs[1][0]) + m > d + 1:
        return None
    s = total = 0
    for mi, ci in runs:
        s += ci
        total += mi * ci
    q = s - n - 2
    x = total - n * d  # T - n*d of the current key; kc of its step is ceil((x-1)/q)
    # The current key is (m, c), (m-1, below) and the runs of rest, which
    # is reversed so that rest[-1] is the next run below m - 1.
    rest = list(runs[:0:-1])
    below = rest.pop()[1] if rest and rest[-1][0] == m - 1 else 0
    steps = proj = 0
    while x > 1 and m > 1:
        kc = -((1 - x) // q)
        if (rest[0][0] if rest else m - 1) < kc:
            break  # kept_points would drop the lowest point of the +E_1 child
        # The steps of this level with the same kc, each projection child
        # being (n-1, m-1, ((kc, 1),)); kc <= m - 1, the lowered point's
        # multiplicity, or kept_points would drop that point.
        k = min(c, x - 1 - (kc - 1) * q)
        proj += k * (binom(n + m - 2, n - 1) - binom(n + kc - 2, n - 1))
        steps += k
        x -= k
        c -= k
        below += k
        if not c:
            m, c, below = m - 1, below, 0
            if rest and rest[-1][0] == m - 1:
                below = rest.pop()[1]
    landing = ((m, c),) + (((m - 1, below),) if below else ()) + tuple(rest[::-1])
    if x <= 1:
        h = binom(n + d, n)
        for mi, ci in landing:
            h -= ci * binom(n + mi - 1, n)
        return None, steps, h - proj
    if not steps:
        return None
    return (n, d, landing), steps, proj


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
    # base case; then unwind the chain, memoizing each node.  A stretch of
    # steps with one-point projection leaves is one node whose +E_1 edge
    # stands for all its steps.  Every visit is counted here; the call
    # fails once stats.nodes passes stop.  Traced, each visit appends
    # (depth, label, key, mark) to nodes, mark "memo", "summed", "stepped
    # N" or ""; recursive_h0 reads the values from the memo after the
    # walk.  chain[i] = (key, projected value down to the next node).
    stats, memo = state.stats, state.memo
    chain: list[tuple[Key, int]] = []
    while True:
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if stats.nodes > stop:
            raise RecursionGuardError(f"recursion exceeded {MAX_NODES} nodes")
        mark = ""
        stretch = None
        h = memo.get(key)
        if h is not None:
            stats.memo_hits += 1
            mark = "memo"
        else:
            h = _base_value(key)
            if h is None and (stretch := _stretch(key)) is not None:
                if stretch[0] is None:
                    h, mark = stretch[2], "summed"
                else:
                    mark = f"stepped {stretch[1]}"
            if h is not None:
                memo[key] = h
        if nodes is not None:
            nodes.append((depth, label, key, mark))
        if h is not None:
            break
        if stretch is not None:
            up_key, proj_val = stretch[0], stretch[2]
        else:
            up_key, proj_key = _children(key)
            # The projection child comes before the +E_1 child, so the
            # indented listing nests as a tree (the chain continuation is
            # the +E_1 child's subtree and follows it).
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
    [memo], closed-form chain sums marked [summed], and a node whose +E1
    edge stands for a stretch of N steps taken in integer arithmetic
    marked [stepped N].
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
