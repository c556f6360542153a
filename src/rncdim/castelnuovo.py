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
(subset formula), n = 1 (points on a line impose independent
conditions).  A plane system with s >= 5 points is a chain node like any
other, so the recursion never uses the planar closed form
`formula.planar_h0`, and the two are independent checks of each other.

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
expanded from the runs only at the few-point leaves (ldim_sum) and in
trace listings.

The m_1-descent is a linear chain, so it is evaluated iteratively and only
projections recurse; recursion depth is bounded by n.  Every chain node is
memoized on its key during unwind.  A memoized projection child is visited
like any node; each visit, and each run a stretch steps (below), counts
against a budget of MAX_NODES per call.  `_eval` sums each visited key
once; the leaf test, the stretch and the children take its point count s
and multiplicity sum T from it, as `kept_points` takes them from its caller.
A traced walk records each visited node without its value; the listing is
rendered after the walk and reads every value from the memo, which by then
holds each visited key (leaves and summed chains from their visit, chain
nodes from the unwind).

Where each projection child is worth its virtual dimension (vdim), a
stretch of the chain is stepped in integer arithmetic instead of walked.
Take a chain node (n, d, runs) that is not a leaf (so n >= 2, s >= n + 3),
with multiplicity sum T.  A step lowers one of the c points at m = m_1; its
projection child is (n-1, m-1, images + kc+), kc being that of D + E_1,
with images a1 = 2m-1-d for the c-1 points still at m, a1 - 1 for the
points at m-1, and m_i + m-1-d for the rest (the positive ones count).  The
child is worth its vdim when its two largest multiplicities sum to at most
its d' + 1 = m (the pair bound) and either it has s' <= n + 1 points, a
few-point leaf, or T' <= (n-1)(m-1) + 1, the summed closed form below; the
one rule holds at every n.  At a few-point leaf every correction
binom(n' + k_I - |I|, n') of `ldim_sum` over a set I of two or more points
has k_I <= 1 < |I| under the pair bound, so is 0, and the leaf is
max(vdim, 0), which is its vdim, never negative here.  With s' <= n
points, coordinate points of P^(n-1), the pair bound makes the monomials
each deletes (gamma_j > d' - a_j) disjoint, so vdim counts those left.
With s' = n + 1, T' <= (n-1)(m-1).  D + E_1 has the lowered point at
m - 1, the p sources of the images a_i at a_i + d+1-m, and s - 1 - p more
points, each of multiplicity >= max(kc, 1) (a stretch stops before kc
exceeds the lowest point), and T - 1 - n*d <= max(kc, 0)(s-n-2).  So if
kc > 0 (p = n), T' = sum a_i + kc <= (n-1)(m-1), and if kc <= 0
(p = n + 1), T' <= n(m-1) - d - (s-n-2) < (n-1)(m-1), as d >= m.  With
one more point of multiplicity 1 the pair bound still holds (each
a_i <= m - 1) and T' <= (n-1)(m-1) + 1, so by the closed form below the
h0 >= 0 of that system is its vdim, the child's less 1.
Within a level (the c points of the top run lowered one by one) and a run
of constant kc, each step moves one image from a1 to a1 - 1, so the
child's vdim rises by binom(n+a1-3, n-2) per step, and a run of k steps
adds k*v0 + binom(n+a1-3, n-2)*k(k-1)/2, v0 the first child's vdim.  Down
a run T', s' and the child's two largest multiplicities only fall and its
vdim only rises, so the test is made once per run, at its start.
`_stretch` steps the top run one level at a time, and within a level one
run of constant kc at a time, adding up the projection values, with no
key, memo entry or visit per step.
The one-point region is the special case r + m_1 <= d + 1, r the largest
multiplicity the step leaves alone (m_1 if c_1 > 1, else m_2): there every
image is at most r + m_1 - 1 - d <= 0, so the child is (n-1, m_1-1,
((kc+, 1),)), or (n-1, m_1-1, ()) when kc+ <= 0, worth
binom(n+m_1-2, n-1) - binom(n+kc+-2, n-1) (one point, kc <= m_1 - 1,
imposes independent conditions).  Both r + m_1 and T only fall down the
chain, so the one-point region, once entered, holds at every later node.
A stretch stops
  - before a step at which the redundant-point rule would drop the +E_1
    child's lowest point (0 < m_s < kc), since s and so kc change there;
  - before a step at m_1 = 1, where the lowered point is dropped;
  - before a run whose first projection child is not worth its vdim;
  - when it has stepped as many runs as the call's node budget has left;
  - when T reaches n*d + 1 in the one-point region, where the rest of the
    chain sums in closed form (below), and the whole stretch is one leaf.
Outside the one-point region it keeps stepping past T = n*d + 1.  Except
at the last stop it lands on a node, which the walk visits as usual; the
stretch is one node, memoized on its start key as h(landing) minus the
sum.  A stretch that cannot take one step declines, and the node is
walked.  Each stepped run counts against the call's budget of MAX_NODES,
beside the visits, so a stretch of any length stays bounded.

From T <= n*d + 1 on in the one-point region, kc(D + E_1) <= 0, so each
projection child is (n-1, m_1-1, ()) with h0 = binom(n+m_1-2, n-1), no
point is redundant, and the chain ends at ((1, n+2),), whose value is
binom(n+d, n) - (n+2) (here d >= 2, since n*d + 1 >= T >= s >= n + 3).
Lowering a point from m to 0 subtracts sum_{k=1..m} binom(n+k-2, n-1) =
binom(n+m-1, n) (hockey stick), and the n + 2 points that stop at 1 each
subtract one less; so the node's value is
binom(n+d, n) - sum_i binom(n+m_i-1, n), its virtual dimension.  This
holds at n = 2 as well, where the projection children lie on P^1; and on
P^1 itself, where points impose independent conditions, T' <= d' + 1
makes the value d' + 1 - T', the vdim.  So a projection child
(n-1, m-1, ...) with s' >= n + 2 is worth its vdim when it meets the pair
bound and T' <= (n-1)(m-1) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .binomials import binom
# planar_h0 is not called here; perfbench/tracing.py wraps this binding
# as the castelnuovo.base layer, beside ldim_sum.
from .formula import ldim_sum, planar_h0  # noqa: F401
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
    system, appended last.  Requires n >= 2 and s >= n+3 so that kc is
    defined and the target still carries a rational normal curve (at n = 2
    the target is P^1, the curve the line itself).
    """
    n, d, mults = sys.n, sys.d, sys.mults
    if n < 2:
        raise ValueError("projection needs n >= 2 (P^1 has no projection)")
    if len(mults) < n + 3:
        raise ValueError("projection needs s >= n+3 (kc undefined otherwise)")
    m1 = mults[0]
    kcp = max(kc_value(n, d, mults), 0)
    return LinearSystemSpec(n - 1, m1, (*(m + m1 - d for m in mults[1:]), kcp))


def _children(key: Key, s: int, total: int) -> tuple[Key, Key]:
    """Canonical keys of the +E_1 child normalize(up) and the projection
    child normalize(l_map(up)), where up lowers m_1 of the canonical key by
    one.  The key has n >= 2 and s >= n + 3 points summing to total."""
    n, d, runs = key
    m1, c1 = runs[0]
    tail = runs[1:]
    total -= 1  # up's points (a zero point included) sum to one less
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
    the budget MAX_NODES counts the nodes and steps of one call.  nodes
    counts visits; steps counts the runs of constant kc that stretches
    stepped.  max_depth is the deepest chain depth reached, counting +E1
    and project edges from the root, a stepped stretch of +E1 steps being
    one edge; it is not the Python recursion depth, which only project
    edges add to."""

    nodes: int = 0
    steps: int = 0
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


def _base_value(key: Key, s: int, total: int) -> int | None:
    """The key's value if it is a leaf (s points summing to total), else None."""
    n, d, runs = key
    if d < 0 or (runs and runs[0][0] > d):
        return 0  # negative degree, or a point of multiplicity above d: empty
    if not runs:
        return binom(n + d, n)
    if n == 1:
        return max(d + 1 - total, 0)
    if s <= n + 2:
        return max(ldim_sum(n, d, points_of(runs)), 0)
    return None


def _stretch(
    key: Key, s: int, total: int, budget: int
) -> tuple[Key | None, int, int, int] | None:
    """The key's stretch of +E_1 steps whose projection children are each
    worth their virtual dimension (see the module docstring), stepped in
    integer arithmetic, at most `budget` runs of constant kc; None when no
    step can be taken.  The key has s points summing to total.

    Returns (landing, steps, proj, runs): the key `steps` +E_1 steps down
    the chain, the sum of the projection values of those steps, and how
    many runs were stepped; or (None, steps, h, runs) when the stretch
    reaches T <= n*d + 1 in the one-point region, where the rest of the
    chain sums in closed form and h is the key's own value.  The key is
    not a leaf."""
    n, d, runs = key
    m, c = runs[0]
    q = s - n - 2
    x = total - n * d  # T - n*d of the current key; kc of its step is ceil((x-1)/q)
    low = runs[-1][0]  # the lowest multiplicity below the top run, if any
    j, below = 1, 0  # the current key is (m, c), (m-1, below) and runs[j:]
    if len(runs) > 1 and runs[1][0] == m - 1:
        j, below = 2, runs[1][1]
    steps = proj = done = 0
    full = comb(n + m - 2, n - 1)  # the children's forms of degree m - 1 on P^(n-1)
    while True:
        # The projection maps a point of multiplicity m_i to m_i + shift;
        # r is the largest multiplicity the step leaves alone.
        shift = m - 1 - d
        r = m if c > 1 else m - 1 if below else runs[j][0]
        summed = x <= 1 and r + shift <= 0  # the rest sums in closed form
        if summed or m == 1 or done == budget:
            break
        kc = -((1 - x) // q)
        if (low if j < len(runs) else m - 1) < kc:
            break  # kept_points would drop the lowest point of the +E_1 child
        # The steps of this level with the same kc.  The first one's
        # projection child (n-1, m-1, images + kc+) has vdim v0.
        k = min(c, x - 1 - (kc - 1) * q) if kc > 0 else c
        v0 = full - comb(n + kc - 2, n - 1) if kc > 0 else full
        if r + shift > 0:
            # r2 <= r, the next largest multiplicity the step leaves alone.
            if c > 2:
                r2 = m
            elif c == 2:
                r2 = m - 1 if below else runs[j][0]
            elif below:
                r2 = m - 1 if below > 1 else runs[j][0]
            else:
                r2 = r if runs[j][1] > 1 else runs[j + 1][0]
            # The child's two largest multiplicities are r + shift and
            # max(r2 + shift, kc); the pair bound is their sum <= d' + 1 = m.
            if r + shift + max(r2 + shift, kc) > m:
                break
            # Its images: c - 1 at a1, below at a1 - 1 and runs[j:] shifted,
            # the positive ones; with kc+, s1 points summing to t1.
            a1 = m + shift
            images = [(a1, c - 1)]
            if a1 > 1:
                images.append((a1 - 1, below))
                for mi, ci in runs[j:]:
                    if mi + shift <= 0:
                        break
                    images.append((mi + shift, ci))
            s1, t1 = kc > 0, max(kc, 0)
            for a, ci in images:
                s1 += ci
                t1 += a * ci
            if s1 > n + 1 and t1 > (n - 1) * (m - 1) + 1:
                break  # neither a few-point leaf nor a summed chain
            for a, ci in images:
                v0 -= ci * binom(n + a - 2, n - 1)
            # Each later step moves one image from a1 to a1 - 1, which
            # raises the child's vdim by B(a1) - B(a1 - 1) = binom(n+a1-3, n-2).
            proj += binom(n + a1 - 3, n - 2) * (k * (k - 1) // 2)
        proj += k * v0
        steps += k
        done += 1
        x -= k
        c -= k
        below += k
        if not c:
            m, c, below = m - 1, below, 0
            full = comb(n + m - 2, n - 1)
            if j < len(runs) and runs[j][0] == m - 1:
                below = runs[j][1]
                j += 1
    landing = ((m, c),) + (((m - 1, below),) if below else ()) + runs[j:]
    if summed:
        h = binom(n + d, n)
        for mi, ci in landing:
            h -= ci * binom(n + mi - 1, n)
        return None, steps, h - proj, done
    if not steps:
        return None
    return (n, d, landing), steps, proj, done


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
    # steps whose projection children are worth their vdim is one node
    # whose +E_1 edge stands for all its steps.  Every visit and every run
    # a stretch steps is counted here; the call fails once stats.nodes +
    # stats.steps passes stop.  Traced, each visit appends
    # (depth, label, key, mark) to nodes, mark "memo", "summed", "stepped
    # N" or ""; recursive_h0 reads the values from the memo after the
    # walk.  chain[i] = (key, projected value down to the next node).
    stats, memo = state.stats, state.memo
    chain: list[tuple[Key, int]] = []
    while True:
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if stats.nodes + stats.steps > stop:
            raise RecursionGuardError(f"recursion exceeded {MAX_NODES} nodes")
        mark = ""
        stretch = None
        h = memo.get(key)
        if h is not None:
            stats.memo_hits += 1
            mark = "memo"
        else:
            s = total = 0
            for m, c in key[2]:
                s += c
                total += m * c
            h = _base_value(key, s, total)
            if h is None and (
                stretch := _stretch(key, s, total, stop - stats.nodes - stats.steps)
            ) is not None:
                stats.steps += stretch[3]
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
            up_key, proj_key = _children(key, s, total)
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
    stop = state.stats.nodes + state.stats.steps + MAX_NODES
    val = _eval(key, state, nodes, 0, "root", stop)
    for depth, label, (n, d, runs), mark in nodes or ():
        tail = f" [{mark}]" if mark else ""
        name = system_label(n, d, points_of(runs))
        value = state.memo[n, d, runs]
        trace.append(f"{'  ' * depth}{label} {name} = {value}{tail}")
    return val
