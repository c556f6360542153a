"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is produced with its unit on
every workload, traced and untraced; that the untraced run leaves the
package's functions untouched and the traced run restores them; that
inputs follow the seed; that the known empty-system mismatches land in
`failed` without flipping `correct`; that an evaluator made to return a
wrong value makes failed_frac positive on every workload, and a wrong
formula on a system with some m_i > d flips `correct`; and that a name
the package no longer has is reported as an absent layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep": {"cells": ((2, 2, 5), (3, 1, 6))},
    "queries": {"strata": ((3, 12, 5, 8), (4, 12, 6, 9)), "min_items": 6},
    "certificate": {"strata": ((3, 6, 2, 9),), "worked_example": False},
}

BYPASSED = {
    "sweep": ("cli",),
    "queries": ("oracle",),
    "certificate": ("castelnuovo", "formula"),
}


def tiny(workload: str, tracer=None, seed: int = 0):
    return run.execute(workload, seed, 0.0, tracer, **TINY[workload])


def bindings() -> dict:
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracing.BINDINGS
    }


def check_metrics() -> None:
    bench = run.load_benchmark()
    for workload in workloads.WORKLOADS:
        before = bindings()
        out = tiny(workload)
        assert bindings() == before, "untraced run changed a binding"
        assert out.attempted > 0 and out.item_ms, workload
        line = run.result(out, run.end_to_end(out, 0.1, 1.0), bench["end_to_end"])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [m["name"] for m in bench["end_to_end"]] == list(line["metrics"])
        for m in bench["end_to_end"]:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0, (workload, m, got)

        tracer = tracing.Tracer()
        traced = tiny(workload, tracer)
        assert bindings() == before, "traced run left a wrapper installed"
        assert not tracer.absent, tracer.absent
        assert tracer.spans, workload
        line = run.result(traced, run.per_layer(tracer, traced, out.log), bench["per_layer"])
        assert [m["name"] for m in bench["per_layer"]] == list(line["metrics"])
        # Layers a workload bypasses read zero; the answer checks add nothing.
        for name, got in line["metrics"].items():
            if name.split(".")[0] in BYPASSED[workload]:
                assert got["value"] == 0, (workload, name, got)
        print(f"ok  metrics and units: {workload}")


def check_absent_layer() -> None:
    saved = tracing.BINDINGS
    tracing.BINDINGS = saved + (("rncdim.formula", "removed_name", "formula.removed"),)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.restore()
    finally:
        tracing.BINDINGS = saved
    assert tracer.absent == ["rncdim.formula.removed_name"], tracer.absent
    print("ok  a missing name is reported as an absent layer")


def check_seeded_inputs() -> None:
    def first(gen, k=12):
        return [next(gen) for _ in range(k)]

    assert first(workloads.query_systems(1)) == first(workloads.query_systems(1))
    assert first(workloads.query_systems(1)) != first(workloads.query_systems(2))
    keys = [key for key, _ in first(workloads.query_systems(3), 200)]
    assert len(set(keys)) == len(keys), "query inputs repeat"
    assert first(workloads.cert_systems(1)) == first(workloads.cert_systems(1))
    print("ok  inputs follow the seed and do not repeat")


def check_known_defect() -> None:
    out = tiny("sweep")
    # L_2,2(4,1^4) and L_2,2(4,2,1^3) style systems: recursion 2 or more, oracle 0.
    assert out.known_defect > 0 and out.failed == out.known_defect, out
    assert not out.wrong, out.wrong
    print(f"ok  sweep counts {out.known_defect} known empty-system mismatches as failed")


@dataclasses.dataclass
class _Patch:
    module: str
    attr: str
    field: str
    only: object = None  # predicate on the system argument; None: every call

    def __enter__(self):
        mod = importlib.import_module(self.module)
        self.original = fn = getattr(mod, self.attr)

        def wrong(*args, **kwargs):
            res = fn(*args, **kwargs)
            if self.only is not None and not self.only(args[0]):
                return res
            if isinstance(res, int):
                return res + 1
            return dataclasses.replace(res, **{self.field: getattr(res, self.field) + 1})

        setattr(mod, self.attr, wrong)

    def __exit__(self, *exc):
        setattr(importlib.import_module(self.module), self.attr, self.original)


def check_wrong_evaluator_fails() -> None:
    cases = {
        "sweep": _Patch("rncdim.formula", "dimension", "dimension"),
        "queries": _Patch("rncdim.cli", "recursive_h0", ""),
        "certificate": _Patch("rncdim.cli", "h0", "h0"),
    }
    for workload, patch in cases.items():
        clean = tiny(workload)
        with patch:
            out = tiny(workload)
        assert out.failed > clean.failed and out.wrong, (workload, out)
        print(f"ok  wrong {patch.module}.{patch.attr}: failed_frac"
              f" {out.failed / out.attempted:.3f} on {workload}")

    # Only the formula is off, only where some m_i > d: not the known defect.
    # Cell (3,3,6) has formula values on two such systems.
    bench = run.load_benchmark()
    cells = {"cells": ((3, 3, 6),)}
    clean = run.execute("sweep", 0, 0.0, None, **cells)
    assert not clean.wrong, clean.wrong
    with _Patch("rncdim.formula", "dimension", "dimension",
                only=lambda sys: max(sys.mults) > sys.d):
        out = run.execute("sweep", 0, 0.0, None, **cells)
    line = run.result(out, run.end_to_end(out, 0.1, 1.0), bench["end_to_end"])
    assert line["correct"] is False and out.known_defect == 0, out
    print(f"ok  wrong formula on {len(out.wrong)} systems with m_i > d: correct false")


if __name__ == "__main__":
    check_seeded_inputs()
    check_known_defect()
    check_metrics()
    check_wrong_evaluator_fails()
    check_absent_layer()
    print("selftest passed")
