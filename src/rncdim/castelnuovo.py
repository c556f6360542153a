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

The m_1-descent is a linear chain, so it is evaluated iteratively and only
projections recurse; recursion depth is bounded by n.  Every chain node is
memoized on its canonical (n, d, mults) key during unwind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binomials import binom
from .formula import ldim_sum, planar_h0
from .systems import LinearSystemSpec, NormalizedSystem, kc_value, normalize


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
    m1 = mults[0]
    kcp = max(kc_value(n, d, mults), 0)
    return LinearSystemSpec(
        n - 1, m1, tuple(m1 + mi - d for mi in mults[1:]) + (kcp,)
    )


@dataclass
class RecStats:
    nodes: int = 0
    max_depth: int = 0
    memo_hits: int = 0


@dataclass
class RecState:
    """Shared evaluation state: memo keyed by canonical (n, d, mults)."""

    memo: dict[tuple[int, int, tuple[int, ...]], int] = field(default_factory=dict)
    stats: RecStats = field(default_factory=RecStats)


class RecursionGuardError(RuntimeError):
    """Node budget exceeded; input far outside the intended desk scale."""


@dataclass
class _TraceNode:
    depth: int
    label: str
    key: tuple[int, int, tuple[int, ...]]
    value: int | None = None
    memo: bool = False

    def render(self) -> str:
        n, d, mults = self.key
        body = ",".join(map(str, mults)) if mults else "-"
        tail = " [memo]" if self.memo else ""
        return f"{'  ' * self.depth}{self.label} L_{n},{d}({body}) = {self.value}{tail}"


def _base_value(key: tuple[int, int, tuple[int, ...]]) -> int | None:
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
    key: tuple[int, int, tuple[int, ...]],
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
    stats = state.stats
    chain: list[tuple[tuple[int, int, tuple[int, ...]], _TraceNode | None, int]] = []
    while True:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if stats.nodes > max_nodes:
            raise RecursionGuardError(f"recursion exceeded {max_nodes} nodes")
        me = None
        if nodes is not None:
            me = _TraceNode(depth, label, key)
            nodes.append(me)
        if key in state.memo:
            stats.memo_hits += 1
            h = state.memo[key]
            if me is not None:
                me.memo = True
            break
        h = _base_value(key)
        if h is not None:
            state.memo[key] = h
            break
        n, d, mults = key
        up = LinearSystemSpec(n, d, (mults[0] - 1,) + mults[1:])
        # Trace the projection child before the +E_1 child so the indented
        # listing nests as a tree (the chain continuation is the +E_1
        # child's subtree and follows it).
        proj_key = normalize(l_map(up)).key()
        proj_val = _eval(proj_key, state, nodes, depth + 1, "project", max_nodes)
        chain.append((key, me, proj_val))
        key, depth, label = normalize(up).key(), depth + 1, "+E1"

    if me is not None:
        me.value = h
    for node_key, node, proj_val in reversed(chain):
        h -= proj_val
        if node is not None:
            node.value = h
        state.memo[node_key] = h
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
