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

The recursion steps on canonical (n, d, mults) keys, the form `normalize`
returns, and never builds a system object.  A key's two children come out
canonical without a sort: the +E_1 child lowers the last of the leading
run of m_1's (dropping it at 0); the projection child's images
m_1 - 1 + m_i - d are already non-increasing, so kc+ is inserted by
bisection and the non-positive tail cut off.  Both then go through
`systems.kept_points`, the one redundant-point rule, with a running sum.

The m_1-descent is a linear chain, so it is evaluated iteratively and only
projections recurse; recursion depth is bounded by n.  Every chain node is
memoized on its key during unwind.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import neg

from .binomials import binom
from .formula import ldim_sum, planar_h0
from .systems import (
    LinearSystemSpec,
    NormalizedSystem,
    kc_from_sum,
    kept_points,
    normalize,
)

Key = tuple[int, int, tuple[int, ...]]


def _project(
    n: int, d: int, m1: int, rest: tuple[int, ...], total: int
) -> tuple[int, int, list[int], int]:
    """Projection of L_{n,d}(m1, *rest) from the point of multiplicity m1,
    where total is the multiplicity sum: (n - 1, m1, images m1 + m_i - d of
    rest in its order, kc+ of the system)."""
    shift = m1 - d
    kcp = max(kc_from_sum(n, d, len(rest) + 1, total), 0)
    return n - 1, m1, [m + shift for m in rest], kcp


def l_map(sys: LinearSystemSpec | NormalizedSystem) -> LinearSystemSpec:
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
    pn, pd, images, kcp = _project(n, d, mults[0], mults[1:], sum(mults))
    return LinearSystemSpec(pn, pd, (*images, kcp))


def _children(key: Key) -> tuple[Key, Key]:
    """Canonical keys of the +E_1 child normalize(up) and the projection
    child normalize(l_map(up)), where up lowers m_1 of the canonical key by
    one.  The key has n >= 3 and s >= n + 3."""
    n, d, mults = key
    m1 = mults[0]
    rest = mults[1:]
    total = sum(mults) - 1  # multiplicity sum of up
    if m1 > 1:
        run = mults.count(m1)  # the leading points of multiplicity m_1
        ups = mults[: run - 1] + (m1 - 1,) + mults[run:]
    else:
        ups = rest
    up_key = (n, d, ups[: kept_points(n, d, ups, total)])

    pn, pd, ms, kcp = _project(n, d, m1 - 1, rest, total)
    del ms[bisect_left(ms, 0, key=neg) :]  # the non-positive images are a tail
    if kcp:
        insort(ms, kcp, key=neg)
    del ms[kept_points(pn, pd, ms, sum(ms)) :]
    return up_key, (pn, pd, tuple(ms))


@dataclass
class RecStats:
    """Counters of one RecState.  max_depth is the deepest chain depth
    reached, counting +E1 and project edges from the root; it is not the
    Python recursion depth, which only project edges add to."""

    nodes: int = 0
    max_depth: int = 0
    memo_hits: int = 0


@dataclass
class RecState:
    """Shared evaluation state: memo keyed by canonical (n, d, mults)."""

    memo: dict[Key, int] = field(default_factory=dict)
    stats: RecStats = field(default_factory=RecStats)


class RecursionGuardError(RuntimeError):
    """Node budget exceeded; input far outside the intended desk scale."""


@dataclass
class _TraceNode:
    depth: int
    label: str
    key: Key
    value: int | None = None
    memo: bool = False

    def render(self) -> str:
        n, d, mults = self.key
        body = ",".join(map(str, mults)) if mults else "-"
        tail = " [memo]" if self.memo else ""
        return f"{'  ' * self.depth}{self.label} L_{n},{d}({body}) = {self.value}{tail}"


def _base_value(key: Key) -> int | None:
    """Value at a leaf of the recursion, or None if another step is needed."""
    n, d, mults = key
    if d < 0 or (mults and mults[0] > d):
        return 0  # negative degree, or a point of multiplicity above d: empty
    if not mults:
        return binom(n + d, n)
    if n == 1:
        return max(d + 1 - sum(mults), 0)
    if len(mults) <= n + 2:
        return max(ldim_sum(n, d, mults), 0)
    if n == 2:
        return planar_h0(LinearSystemSpec(n, d, mults))
    return None


def _eval(
    key: Key,
    state: RecState,
    nodes: list[_TraceNode] | None,
    depth: int,
    label: str,
    max_nodes: int,
) -> int:
    # m_1-descent: walk the +E_1 chain iteratively, recursing only into the
    # projected (n-1)-dimensional systems, until a node is a memo hit or a
    # base case; then unwind the chain, memoizing each node.
    # chain[i] = (key, trace node, projected value at that step).
    stats, memo = state.stats, state.memo
    chain: list[tuple[Key, _TraceNode | None, int]] = []
    while True:
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if stats.nodes > max_nodes:
            raise RecursionGuardError(f"recursion exceeded {max_nodes} nodes")
        me = None
        if nodes is not None:
            me = _TraceNode(depth, label, key)
            nodes.append(me)
        h = memo.get(key)
        if h is not None:
            stats.memo_hits += 1
            if me is not None:
                me.memo = True
            break
        h = _base_value(key)
        if h is not None:
            memo[key] = h
            break
        up_key, proj_key = _children(key)
        # Trace the projection child before the +E_1 child so the indented
        # listing nests as a tree (the chain continuation is the +E_1
        # child's subtree and follows it).
        proj_val = _eval(proj_key, state, nodes, depth + 1, "project", max_nodes)
        chain.append((key, me, proj_val))
        key, depth, label = up_key, depth + 1, "+E1"

    if me is not None:
        me.value = h
    for node_key, node, proj_val in reversed(chain):
        h -= proj_val
        if node is not None:
            node.value = h
        memo[node_key] = h
    return h


def recursive_h0(
    sys: LinearSystemSpec | NormalizedSystem,
    state: RecState | None = None,
    trace: list[str] | None = None,
    max_nodes: int = 1_000_000,
) -> int:
    """Dimension by the ascending projection recursion; exact.

    state carries the memo across calls (pass one RecState to share work in
    a sweep).  If trace is a list, one line per visited node is appended,
    depth-indented, with edge labels +E1 / project and memo hits marked.
    """
    norm = sys if isinstance(sys, NormalizedSystem) else normalize(sys)
    if state is None:
        state = RecState()
    nodes: list[_TraceNode] | None = [] if trace is not None else None
    val = _eval(norm.key(), state, nodes, 0, "root", max_nodes)
    if trace is not None and nodes is not None:
        trace.extend(node.render() for node in nodes)
    return val
