"""Command-line interface: dimension queries, special-effect reports,
cross-evaluator verification, and the regularity index.

Subcommands:
  dim       dimension of one system by one evaluator (auto / formula /
            recursive / oracle); with --evaluators recursive, --trace
            also prints the recursion's node listing
  report    kc, epsilon and the special-effect classes grouped by dimension
  verify    side-by-side evaluator comparison for one instance or a grid
  regindex  regularity index, optionally checked over a degree window

dim and report build one answer object and print it as JSON
(--format structured) or render their human listing from it.
Multiplicities accept exponent shorthand: -m 7,6^2,5^7, and may start with
a negative entry: -m -1,5,3.  Only dim and verify run the oracle, so only
they take --seed, --cap-cells and --oracle.  verify prints each instance's
oracle.verify_one record as one JSON line, the same for -n -d -m --format
structured as in --grid, which prints NDJSON and rejects --format human.
Each call is parsed once, by its command's own parser; so an unrecognized
argument is reported under the command's name (`rncdim dim: error:
unrecognized arguments: --bogus`).  Only an empty call, -h/--help and an
unknown command go to the top-level parser.
Exit codes: 0 ok, 1 a verify disagreement or a regindex mismatch, 2 bad
input, 3 domain violation or a size guard (oracle cell cap, recursion node
budget), 141 (128 + SIGPIPE) the reader closed the output pipe early, as
in `rncdim verify --grid ... | head -1`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Sequence

from .castelnuovo import RecState, RecursionGuardError, recursive_h0
from .formula import (
    DomainViolation,
    dimension,
    in_domain,
    regularity_index,
)
from .oracle import (
    CAP_CELLS,
    EVALUATORS,
    OracleSizeError,
    SweepGrid,
    consistency_sweep,
    h0,
    verify_one,
)
from .systems import (
    kc_epsilon,
    normalize,
    speciality,
    system,
    system_label,
    vdim,
)


def parse_mults(text: str) -> tuple[int, ...]:
    """Parse a multiplicity list with exponent shorthand: "7,6^2,5^7"."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise argparse.ArgumentTypeError(f"empty multiplicity in {text!r}")
        base, _, exp = token.partition("^")
        try:
            m = int(base)
            e = int(exp) if exp else 1
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad multiplicity token {token!r}")
        if e < 1:
            raise argparse.ArgumentTypeError(f"exponent must be >= 1 in {token!r}")
        out.extend([m] * e)
    return tuple(out)


def parse_oracle_mode(text: str) -> tuple[str, int]:
    """Parse --oracle: "exact", "modular", or "modular:N"."""
    mode, _, count = text.partition(":")
    if mode == "exact":
        if count:
            raise argparse.ArgumentTypeError("exact mode takes no trial count")
        return "exact", 1
    if mode == "modular":
        try:
            trials = int(count) if count else 3
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad trial count {count!r}")
        if trials < 1:
            raise argparse.ArgumentTypeError("trial count must be >= 1")
        return "modular", trials
    raise argparse.ArgumentTypeError(f"unknown oracle mode {text!r}")


def parse_cap(text: str) -> int:
    """Parse --cap-cells: a cell count >= 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cell cap {text!r}")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"cell cap must be >= 0, got {cap}")
    return cap


def parse_grid(text: str) -> dict[str, tuple[int, int]]:
    """Parse --grid "n=2..3,d=0..6,s=5..9,m=1..4" into inclusive ranges.
    Each key is set once; n starts at 1 or more and s at 0 or more."""
    ranges: dict[str, tuple[int, int]] = {}
    for part in text.split(","):
        key, _, span = part.partition("=")
        key = key.strip()
        if key not in ("n", "d", "s", "m") or not span:
            raise argparse.ArgumentTypeError(f"bad grid component {part!r}")
        if key in ranges:
            raise argparse.ArgumentTypeError(f"grid sets {key} twice")
        lo, sep, hi = span.partition("..")
        try:
            lo_i = int(lo)
            hi_i = int(hi) if sep else lo_i
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid range {span!r}")
        if hi_i < lo_i:
            raise argparse.ArgumentTypeError(f"empty grid range {span!r}")
        least = {"n": 1, "s": 0}.get(key)
        if least is not None and lo_i < least:
            raise argparse.ArgumentTypeError(
                f"grid {key} must be >= {least}, got {span!r}"
            )
        ranges[key] = (lo_i, hi_i)
    missing = {"n", "d", "s", "m"} - set(ranges)
    if missing:
        raise argparse.ArgumentTypeError(
            f"grid must set n, d, s and m (missing {', '.join(sorted(missing))})"
        )
    return ranges


def _answer(args: argparse.Namespace) -> dict:
    """The structured object of one dim or report answer: the input, its
    normalized form with kc, epsilon and vdim, the value and label of
    args.evaluators (report's is formula; auto is the formula in its
    domain and the recursion outside it; what is not auto, formula or
    recursive is the oracle), the formula's special-effect classes, the
    normalization steps, the recursion's counters when it ran, the
    oracle's block shape and primes when it ran, and with --trace its node
    listing."""
    rec_trace: list[str] | None = None
    if getattr(args, "trace", False):  # the option is absent unless given
        if args.evaluators != "recursive":
            raise ValueError("--trace needs --evaluators recursive")
        rec_trace = []
    sys_ = system(args.n, args.d, args.mults)
    norm = normalize(sys_)
    evaluator = args.evaluators
    if evaluator == "auto":
        evaluator = "formula" if in_domain(norm) else "recursive"
    effects = ()
    rec_state = None
    oracle_res = None
    if evaluator == "formula":
        rep = dimension(norm)
        value, effects = rep.dimension, rep.special_effects
    elif evaluator == "recursive":
        rec_state = RecState()
        value = recursive_h0(norm, state=rec_state, trace=rec_trace)
    else:
        mode, trials = args.oracle
        oracle_res = h0(sys_, mode=mode, seed=args.seed, trials=trials,
                        cap_cells=args.cap_cells)
        value = oracle_res.h0
        evaluator = f"oracle:{mode}"
    kc, eps = kc_epsilon(norm.n, norm.d, norm.mults)
    obj = {
        "n": sys_.n,
        "d": sys_.d,
        "mults": list(sys_.mults),
        "s": sys_.s,
        "normalized_mults": list(norm.mults),
        "kc": kc,
        "epsilon": eps,
        "vdim": vdim(norm),
        "dimension": value,
        "evaluator": evaluator,
        # A JoinClass's __dict__ is its fields in order; dataclasses.asdict
        # would deep-copy each value, about 11 us a class.
        "special_effects": [vars(jc) for jc in effects],
        "trace": [step.as_dict() for step in norm.trace],
    }
    if rec_state is not None:
        st = rec_state.stats
        obj["recursion_stats"] = {"nodes": st.nodes, "steps": st.steps,
                                  "memo_hits": st.memo_hits, "max_depth": st.max_depth,
                                  "memo_size": len(rec_state.memo)}
    if oracle_res is not None:
        obj["oracle_stats"] = {"rows": oracle_res.rows, "cols": oracle_res.cols,
                               "primes": list(oracle_res.primes)}
    if rec_trace is not None:
        obj["recursion_trace"] = rec_trace
    return obj


def _print_dim(obj: dict) -> None:
    n, d, value, vd = obj["n"], obj["d"], obj["dimension"], obj["vdim"]
    print(system_label(n, d, obj["mults"]))
    print(f"dimension {value}  [{obj['evaluator']}]")
    print(f"vdim {vd}  expected {max(vd, 0)}  speciality {speciality(value, vd)}")
    normalized = f"normalized {system_label(n, d, obj['normalized_mults'])}"
    if obj["kc"] is not None:
        normalized += f"  kc {obj['kc']}  epsilon {obj['epsilon']}"
    print(normalized)
    print("trace:" if obj["trace"] else "trace: input already normalized")
    for step in obj["trace"]:
        kc_note = f" (kc {step['kc']})" if "kc" in step else ""
        print("  {action} point {point} mult {mult}".format(**step) + kc_note)
    if "recursion_trace" in obj:
        print("recursion trace:")
        for line in obj["recursion_trace"]:
            print(f"  {line}")


_R_LABEL = {0: "points", 1: "curves", 2: "surfaces"}


def _print_report(obj: dict) -> None:
    n, d, value, vd = obj["n"], obj["d"], obj["dimension"], obj["vdim"]
    print(system_label(n, d, obj["mults"]))
    print(f"normalized {system_label(n, d, obj['normalized_mults'])}")
    print(f"kc {obj['kc']}  epsilon {obj['epsilon']}")
    effects = obj["special_effects"]
    if not effects:
        print("no special-effect varieties")
    for r in sorted({jc["r"] for jc in effects}):
        print(f"{_R_LABEL.get(r, f'{r}-folds')} (r={r}):")
        for jc in (e for e in effects if e["r"] == r):
            print("  c={c} sigma={sigma} t={t} k={k} count={count} f={f}"
                  " signed={signed}".format(**jc))
    print(f"dimension {value}  vdim {vd}  speciality {speciality(value, vd)}")


def cmd_answer(args: argparse.Namespace) -> int:
    """dim and report: print the answer's object as JSON or as the
    command's human listing."""
    obj = _answer(args)
    if args.format == "structured":
        print(json.dumps(obj))
    elif args.command == "report":
        _print_report(obj)
    else:
        _print_dim(obj)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    given = [v is not None for v in (args.n, args.d, args.mults)]
    if any(given) if args.grid is not None else not all(given):
        raise ValueError("verify needs either --grid or -n, -d and -m, not both")
    mode, trials = args.oracle
    if args.grid is None:
        sys_ = system(args.n, args.d, args.mults)
        records = [verify_one(sys_, mode=mode, seed=args.seed, trials=trials,
                              cap_cells=args.cap_cells)]
    elif args.format == "human":
        raise ValueError("verify --grid prints NDJSON records; --format human"
                         " is for -n, -d and -m")
    else:
        records = consistency_sweep(SweepGrid(**args.grid), mode=mode, seed=args.seed,
                                    trials=trials, cap_cells=args.cap_cells)
    failures = sum(rec["verdict"] not in ("agree", "skip-size") for rec in records)
    if args.grid is None and args.format != "structured":
        rec = records[0]
        values = {(f"oracle:{mode}" if key == "oracle" else key): rec[key]
                  for key in EVALUATORS if rec[key] is not None}
        print(system_label(sys_.n, sys_.d, sys_.mults))
        width = max(len(k) for k in values)
        for key, value in values.items():
            print(f"  {key:<{width}}  {value}")
        for note in rec["notes"]:
            print(f"  note: {note}")
        print(f"verdict: {rec['verdict']}")
    else:
        for rec in records:
            print(json.dumps(rec))
    if args.grid is not None:
        print(f"sweep: {len(records)} instances, {failures} failures",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_regindex(args: argparse.Namespace) -> int:
    if args.window is not None and args.window < 0:
        raise ValueError(f"--window must be >= 0, got {args.window}")
    mults = tuple(m for m in args.mults if m > 0)
    if len(mults) < args.n + 3:
        raise DomainViolation(
            f"regindex needs s >= n+3 positive multiplicities, got {len(mults)}"
        )
    delta = regularity_index(args.n, mults)
    rows = []
    failures = 0
    if args.window is not None:
        for d in range(max(delta - 1, 0), delta + args.window + 1):
            sys_d = system(args.n, d, mults)
            norm = normalize(sys_d)
            value = recursive_h0(norm)
            vd = vdim(norm)
            special = speciality(value, vd) > 0
            asserted = norm.mults == mults and value > 0
            ok = None
            if asserted:
                ok = special == (d < delta)
                if not ok:
                    failures += 1
            rows.append(
                {
                    "d": d,
                    "dimension": value,
                    "vdim": vd,
                    "special": special,
                    "asserted": asserted,
                    "ok": ok,
                }
            )

    if args.format == "structured":
        print(json.dumps({"n": args.n, "mults": list(mults), "delta": delta,
                          "window": rows}))
    else:
        print(f"regularity index {delta}")
        for row in rows:
            status = "special" if row["special"] else "non-special"
            suffix = ""
            if row["asserted"]:
                suffix = "  ok" if row["ok"] else "  MISMATCH"
            elif args.window is not None:
                suffix = "  (not asserted)"
            print(
                f"  d={row['d']}: dimension {row['dimension']} vdim {row['vdim']}"
                f" {status}{suffix}"
            )
    return 1 if failures else 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name, built on the
    first call and shared after it.  parse_args leaves a parser unchanged
    and gives every call a new namespace filled from the defaults, so
    main reuses them; callers must not modify them."""
    parser = argparse.ArgumentParser(
        prog="rncdim",
        description="Dimensions of linear systems through points on a"
        " rational normal curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, need_d: bool = True, required: bool = True
    ) -> None:
        p.add_argument("-n", type=int, required=required, help="ambient dimension")
        if need_d:
            p.add_argument("-d", type=int, required=required, help="degree")
        p.add_argument(
            "-m",
            dest="mults",
            type=parse_mults,
            required=required,
            help="multiplicities, comma list with ^ shorthand: 7,6^2,5^7",
        )
        p.add_argument(
            "--format", choices=("human", "structured"), default="human"
        )

    def add_oracle_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cap-cells",
            type=parse_cap,
            default=CAP_CELLS,
            help="largest rows*cols of a matrix the oracle builds, "
            "in both modes; >= 0",
        )
        p.add_argument(
            "--oracle",
            type=parse_oracle_mode,
            default=("exact", 1),
            help="oracle mode: exact, modular, or modular:N",
        )

    p_dim = sub.add_parser("dim", help="dimension of one system")
    add_common(p_dim)
    add_oracle_options(p_dim)
    p_dim.add_argument(
        "--evaluators",
        choices=("auto", "formula", "recursive", "oracle"),
        default="auto",
    )
    p_dim.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS,
        help="with --evaluators recursive: also print the recursion's node"
        " listing (+E1 / project edges, [memo] hits, [summed] chains,"
        " [stepped N] for a +E1 edge that stands for N steps)",
    )
    p_dim.set_defaults(func=cmd_answer)

    p_report = sub.add_parser(
        "report", help="special-effect classes and contributions"
    )
    add_common(p_report)
    p_report.set_defaults(func=cmd_answer, evaluators="formula")

    p_verify = sub.add_parser(
        "verify", help="compare evaluators on one instance or a grid"
    )
    add_common(p_verify, required=False)
    p_verify.set_defaults(format=None)  # human for -n/-d/-m; --grid rejects it if given
    add_oracle_options(p_verify)
    p_verify.add_argument(
        "--grid",
        type=parse_grid,
        default=None,
        help='sweep grid, e.g. "n=2..3,d=0..6,s=5..9,m=1..4"',
    )
    p_verify.set_defaults(func=cmd_verify)

    p_reg = sub.add_parser("regindex", help="regularity index of a point set")
    add_common(p_reg, need_d=False)
    p_reg.add_argument(
        "--window",
        type=int,
        default=None,
        help="also check speciality for d in [delta-1, delta+window];"
        " window >= 0",
    )
    p_reg.set_defaults(func=cmd_regindex)

    return parser, sub.choices


def _join_negative_mults(argv: Sequence[str]) -> list[str]:
    """Rewrite `-m -1,5,3` as `-m=-1,5,3`.  argparse takes a value that
    starts with "-" and is not a plain number for an option, though a
    multiplicity list may start with a negative entry."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "-m" and re.match(r"-\d", token):
            out[-1] = f"-m={token}"
        else:
            out.append(token)
    return out


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace that the top-level parser of `_parsers` gives for argv,
    after `_join_negative_mults`, parsed once: a call that names a command is
    parsed by that command's parser alone, so an unrecognized argument is
    reported as `rncdim dim: error: ...`.  The top-level parser runs only
    for usage, help and unknown commands."""
    argv = _join_negative_mults(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the exit-time flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as for a process that SIGPIPE ended
    except (DomainViolation, OracleSizeError, RecursionGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
