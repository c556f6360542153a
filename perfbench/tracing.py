"""Spans around the package's layer boundaries, for the traced run only.

`Tracer.install` rebinds public module-level names of the package to timing
wrappers and `Tracer.restore` puts the originals back; the untraced run
never calls either.  A name a later version no longer has is reported as
an absent layer instead of failing the run.

Spans are recorded only inside a request span, which the workload opens
around each call into the package, so the harness's own answer checks add
nothing.  Each span has an id, its parent's id, a name, a start and an
end.  Self time is a span's duration minus the time its child spans cover.
Totals are kept for every span; the spans themselves are kept in memory up
to `SPANS_KEPT` of them and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The same function is often bound under
# several modules (cli imports its evaluators by name; the sweep re-imports
# them from their home modules on every instance), so each binding a
# workload reaches is wrapped, under the layer's one span name.
BINDINGS = (
    ("rncdim.cli", "main", "cli.main"),
    ("rncdim.cli", "dimension", "formula.dimension"),
    ("rncdim.cli", "recursive_h0", "castelnuovo.recursive_h0"),
    ("rncdim.cli", "h0", "oracle.h0"),
    ("rncdim.cli", "normalize", "systems.normalize"),
    ("rncdim.oracle", "h0", "oracle.h0"),
    ("rncdim.oracle", "rank_exact", "oracle.rank"),
    ("rncdim.oracle", "rank_modular", "oracle.rank"),
    ("rncdim.formula", "dimension", "formula.dimension"),
    ("rncdim.formula", "subset_counts", "formula.subset_counts"),
    ("rncdim.formula", "f", "binomials.f"),
    ("rncdim.formula", "normalize", "systems.normalize"),
    ("rncdim.castelnuovo", "recursive_h0", "castelnuovo.recursive_h0"),
    ("rncdim.castelnuovo", "normalize", "castelnuovo.normalize"),
    ("rncdim.castelnuovo", "l_map", "castelnuovo.l_map"),
    ("rncdim.castelnuovo", "ldim_sum", "castelnuovo.base"),
    ("rncdim.castelnuovo", "planar_h0", "castelnuovo.base"),
    ("rncdim.systems", "normalize", "systems.normalize"),
)
EVALUATOR_SPANS = ("formula.dimension", "castelnuovo.recursive_h0", "oracle.h0")
SPANS_KEPT = 50_000  # spans held for the record; later ones count as dropped


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.child_total: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            up = self._stack[-1]
            up[3] += dur
            parent = up[0]
            self.child_total[(up[1], name)] += dur
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:  # outside a request: the harness's own checks
                return fn(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    # -- counters read at the boundaries -----------------------------------

    def _wrap_rank(self, fn):
        traced = self.wrap("oracle.rank", fn)

        def counted(matrix, *args, **kwargs):
            shape = getattr(matrix, "shape", None)
            rows, cols = shape if shape is not None else (len(matrix), len(matrix[0]) if matrix else 0)
            if self._stack:
                self.counts["oracle.cells"] += rows * cols
                self.counts["oracle.trials"] += 1
            return traced(matrix, *args, **kwargs)

        return counted

    def _wrap_recursive(self, fn, state_cls):
        """Passes a RecState through the public `state=` argument when the
        caller gave none, and adds its stats to the counters."""
        traced = self.wrap("castelnuovo.recursive_h0", fn)

        def counted(sys, *args, **kwargs):
            if not self._stack:
                return fn(sys, *args, **kwargs)
            if not args and kwargs.get("state") is None:
                kwargs["state"] = state_cls()
            state = args[0] if args else kwargs["state"]
            stats = getattr(state, "stats", None)
            before = {k: getattr(stats, k, 0) for k in ("nodes", "memo_hits")}
            try:
                return traced(sys, *args, **kwargs)
            finally:
                for key, metric in (("nodes", "castelnuovo.nodes"), ("memo_hits", "castelnuovo.memo_hits")):
                    if hasattr(stats, key):
                        self.counts[metric] += getattr(stats, key) - before[key]
                if hasattr(stats, "max_depth"):
                    self.maxima["castelnuovo.chain_depth_max"] = max(
                        self.maxima.get("castelnuovo.chain_depth_max", 0), stats.max_depth
                    )

        return counted

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        castelnuovo = importlib.import_module("rncdim.castelnuovo")
        state_cls = getattr(castelnuovo, "RecState", None)
        for modname, attr, name in BINDINGS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            if name == "oracle.rank":
                wrapped = self._wrap_rank(fn)
            elif name == "castelnuovo.recursive_h0" and state_cls is not None:
                wrapped = self._wrap_recursive(fn, state_cls)
            else:
                wrapped = self.wrap(name, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
        stats = getattr(state_cls(), "stats", None) if state_cls else None
        if not hasattr(stats, "max_depth"):
            self.absent.append("rncdim.castelnuovo.RecState.stats")

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, items: int, busy_s: float):
        """Per-layer metrics: times and counts per item, ratios as shares."""
        size = getattr(importlib.import_module("rncdim.binomials"), "f_cache_size", None)
        t, st, c = self.total, self.self_time, self.counts
        per = 1e3 / max(items, 1)  # seconds in total -> ms per item
        rank = t["oracle.rank"]
        nodes = c["castelnuovo.nodes"]
        cli_calls = self.calls["cli.main"]
        cli_eval = sum(self.child_total[("cli.main", ev)] for ev in EVALUATOR_SPANS)
        m = {
            "oracle.build_ms": ((t["oracle.h0"] - rank) * per, "ms"),
            "oracle.rank_ms": (rank * per, "ms"),
            "oracle.rank_share": (rank / busy_s if busy_s else 0.0, "ratio"),
            "oracle.cells": (c["oracle.cells"] / max(items, 1), "count"),
            "oracle.trials": (c["oracle.trials"] / max(items, 1), "count"),
            "castelnuovo.recursive_ms": (t["castelnuovo.recursive_h0"] * per, "ms"),
            "castelnuovo.chain_self_ms": (st["castelnuovo.recursive_h0"] * per, "ms"),
            "castelnuovo.normalize_ms": (t["castelnuovo.normalize"] * per, "ms"),
            "castelnuovo.l_map_ms": (t["castelnuovo.l_map"] * per, "ms"),
            "castelnuovo.base_ms": (t["castelnuovo.base"] * per, "ms"),
            "castelnuovo.nodes": (nodes / max(items, 1), "count"),
            "castelnuovo.memo_hit_ratio": (
                c["castelnuovo.memo_hits"] / nodes if nodes else 0.0, "ratio"
            ),
            "castelnuovo.chain_depth_max": (
                self.maxima.get("castelnuovo.chain_depth_max", 0), "count"
            ),
            "formula.subset_counts_ms": (t["formula.subset_counts"] * per, "ms"),
            "formula.dimension_self_ms": (st["formula.dimension"] * per, "ms"),
            "binomials.f_ms": (t["binomials.f"] * per, "ms"),
            "binomials.f_cache_entries": (size() if size else 0, "count"),
            "cli.overhead_ms": (
                (t["cli.main"] - cli_eval) * 1e3 / cli_calls if cli_calls else 0.0, "ms"
            ),
            "systems.normalize_ms": (
                (t["systems.normalize"] + t["castelnuovo.normalize"]) * per, "ms"
            ),
        }
        if size is None:
            self.absent.append("rncdim.binomials.f_cache_size")
        return m

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
            "span_totals_s": dict(self.total),
            "span_self_s": dict(self.self_time),
            "span_calls": dict(self.calls),
            "counts": dict(self.counts),
            "absent": self.absent,
        }
