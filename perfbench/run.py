"""rncdim benchmark: one workload per run, last stdout line a JSON result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics and installs no wrappers.  --trace 1
first runs the same workload and seed untraced in a child process, then
runs it again with spans around the package's layers, and prints the
per-layer metrics plus the tracing overhead (traced over untraced time on
the calls both runs made).  --workload all runs every workload in turn,
each in its own process.  Every run writes its record, environment
included, to perfbench/out/.

The package is imported from src/ of the checkout this file sits in; the
run exits with status 2 if that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import rncdim from the checkout's src/, never from anywhere else."""
    if not (SRC / "rncdim" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'rncdim'}")
    sys.path.insert(0, str(SRC))
    import rncdim

    if Path(rncdim.__file__).resolve().parent != SRC / "rncdim":
        die(f"rncdim imported from {rncdim.__file__}, not from {SRC}")


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"missing {path}")
    return json.loads(path.read_text())


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )


def setup_probe(workload: str) -> None:
    """Child process: time the package import plus the workload's warm-up."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.warm_up(workload)
    print(time.perf_counter() - t0)


def measure_setup(workload: str) -> float:
    """Median import-plus-warm-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = _child(["--setup-probe", workload])
        if proc.returncode != 0:
            die(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(seed: int) -> dict:
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def execute(workload: str, seed: int, seconds: float, tracer=None, **kwargs):
    """Warm up, then run the workload; wrappers exist only while a tracer
    is given, and are removed before this returns."""
    import workloads

    workloads.warm_up(workload)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracer.install()
    try:
        return workloads.RUNNERS[workload](seed, seconds, span, **kwargs)
    finally:
        if tracer:
            tracer.restore()


def end_to_end(out, setup_s: float, peak_rss_mb: float) -> dict:
    from workloads import percentile

    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (len(out.item_ms) / out.busy_s if out.busy_s else 0.0, "1/s"),
        "item_ms_p50": (percentile(out.item_ms, 50), "ms"),
        "item_ms_p90": (percentile(out.item_ms, 90), "ms"),
    }


def per_layer(tracer, out, untraced_log: list[float]) -> dict:
    metrics = tracer.layer_metrics(out.attempted, out.busy_s)
    # Traced over untraced time on the calls both runs completed.
    k = min(len(out.log), len(untraced_log))
    base = sum(untraced_log[:k])
    metrics["trace.overhead_frac"] = (sum(out.log[:k]) / base - 1.0 if base else 0.0, "ratio")
    return metrics


def result(out, metrics: dict, wanted: list[dict]) -> dict:
    """The final JSON line: exactly the metrics BENCHMARK.json lists."""
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {metrics[m['name']][1]}")
    return {
        "correct": not out.wrong,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }


def run_one(ns: argparse.Namespace) -> int:
    bench = load_benchmark()
    untraced_log = None
    if ns.trace:
        OUT.mkdir(exist_ok=True)
        log_path = OUT / f"log_{ns.workload}_s{ns.seed}.json"
        proc = _child([
            "--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
            "--trace", "0", "--request-log", str(log_path),
        ])
        if proc.returncode != 0:
            die(f"untraced reference run failed:\n{proc.stderr}")
        untraced_log = json.loads(log_path.read_text())
    else:
        setup_s = measure_setup(ns.workload)

    import tracing

    tracer = tracing.Tracer() if ns.trace else None
    out = execute(ns.workload, ns.seed, ns.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if ns.request_log:
        Path(ns.request_log).write_text(json.dumps(out.log))
    if tracer:
        metrics, wanted = per_layer(tracer, out, untraced_log), bench["per_layer"]
    else:
        metrics, wanted = end_to_end(out, setup_s, peak_rss_mb), bench["end_to_end"]
    line = result(out, metrics, wanted)

    env = environment(ns.seed)
    failed_frac = out.failed / out.attempted
    record = {
        "workload": ns.workload, "seconds": ns.seconds, "trace": ns.trace, "env": env,
        **line, "failed_frac": failed_frac, "known_defect_failures": out.known_defect,
        "wrong": out.wrong[:100],
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.extra.items()},
    }
    if tracer:
        record["spans"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{ns.workload}_s{ns.seed}_trace{ns.trace}.json").write_text(json.dumps(record))

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **out.extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} ratio ({out.failed}/{out.attempted};"
          f" {out.known_defect} of them the known empty-system defect)")
    for what in out.wrong[:10]:
        print(f"wrong: {what}")
    if tracer and tracer.absent:
        print("absent layers: " + ", ".join(tracer.absent))
    print(json.dumps(line))
    return 0


def run_all(ns: argparse.Namespace) -> int:
    results = {}
    status = 0
    for workload in ("sweep", "queries", "certificate"):
        proc = _child([
            "--workload", workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
            "--trace", str(ns.trace),
        ])
        print(f"== {workload}")
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main() -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "queries", "certificate", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--request-log", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    ns = parser.parse_args()
    if ns.setup_probe:
        setup_probe(ns.setup_probe)
        return 0
    if ns.workload is None:
        parser.error("--workload is required")
    import_package()
    return run_all(ns) if ns.workload == "all" else run_one(ns)


if __name__ == "__main__":
    sys.exit(main())
