"""Command-line interface: parsing, outputs, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rncdim
from rncdim import castelnuovo, cli
from rncdim.castelnuovo import recursive_h0
from rncdim.cli import main, parse_cap, parse_grid, parse_mults, parse_oracle_mode

WORKED_ARGS = ["-n", "5", "-d", "8", "-m", "7,6^2,5^7,2^3"]


def _fresh_python(args, **kwargs):
    """Run sys.executable with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(rncdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], text=True, env=env, timeout=120, **kwargs
    )


def test_parse_mults_shorthand():
    assert parse_mults("7,6^2,5^7") == (7, 6, 6, 5, 5, 5, 5, 5, 5, 5)
    assert parse_mults("2") == (2,)
    assert parse_mults(" 3 , 1^2 ") == (3, 1, 1)
    for bad in ("", "2,,1", "x", "2^0", "2^-1", "3^^2", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_mults(bad)


def test_parse_oracle_mode():
    assert parse_oracle_mode("exact") == ("exact", 1)
    assert parse_oracle_mode("modular") == ("modular", 3)
    assert parse_oracle_mode("modular:5") == ("modular", 5)
    for bad in ("exact:2", "modular:0", "modular:x", "fast"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_oracle_mode(bad)


def test_parse_cap():
    assert parse_cap("0") == 0 and parse_cap("2000000") == 2_000_000
    for bad in ("-1", "-5", "x", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_cap(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "-n", "2", "-d", "4", "-m", "2^5", "--evaluators", "oracle"],
        ["verify", "-n", "2", "-d", "4", "-m", "2^5"],
        ["verify", "--grid", "n=2,d=0..2,s=5,m=1..2"],
    ],
    ids=lambda argv: argv[1],
)
def test_negative_cap_is_usage_error(capsys, argv):
    # A negative cap is bad input (exit 2), not a cap that every block
    # exceeds: a grid would skip every oracle.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap-cells", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cell cap must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # Fails inside the record loop, once the output buffer fills.
        ["verify", "--grid", "n=4,d=0..4,s=7..8,m=1..3"],
        # Fails at the final flush: the output fits the buffer.
        ["dim", "-n", "2", "-d", "4", "-m", "2^5"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_pipe_exits_quietly(argv):
    # As in `rncdim verify --grid ... | head -1`, with the reader gone
    # before the first write: no traceback, exit 128 + SIGPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_python(
            ["-m", "rncdim.cli", *argv], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# Run in a fresh interpreter: the test process has numpy loaded already.
NUMPY_GUARD = """
import contextlib, io, json, sys
import rncdim, rncdim.cli
from rncdim.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()

worked = ["-n", "5", "-d", "8", "-m", "7,6^2,5^7,2^3"]
assert "numpy" not in sys.modules, "import"
for argv in (
    ["dim", *worked],
    ["dim", *worked, "--evaluators", "recursive"],
    ["report", *worked],
    ["regindex", "-n", "2", "-m", "2^5", "--window", "2"],
):
    run(argv)
    assert "numpy" not in sys.modules, argv
out = run(["dim", "-n", "3", "-d", "6", "-m", "2^10", "--evaluators", "oracle",
           "--oracle", "modular:1", "--format", "structured"])
assert json.loads(out)["dimension"] == 45
assert "numpy" in sys.modules, "oracle"
"""


def test_only_the_oracle_loads_numpy():
    proc = _fresh_python(["-c", NUMPY_GUARD], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_parse_grid():
    assert parse_grid("n=2..3,d=0..6,s=5..9,m=1..4") == {
        "n": (2, 3),
        "d": (0, 6),
        "s": (5, 9),
        "m": (1, 4),
    }
    assert parse_grid("n=2,d=1,s=5,m=1..2")["n"] == (2, 2)
    for bad in (
        "n=2,d=1,s=5", "n=2..1,d=1,s=5,m=1", "q=1,n=2,d=1,s=5,m=1",
        # n < 1, s < 0, a key set twice.
        "n=0..2,d=1,s=5,m=1", "n=2,d=1,s=-1,m=1", "n=2,n=3,d=1,s=5,m=1",
        "n=2,d=1,s=5,m=1,d=2",
        # A bound that is not an integer.
        "n=a..2,d=1,s=5,m=1",
    ):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid(bad)


def test_verify_grid_rejects_bad_ranges(capsys):
    # n < 1 is bad input, caught while parsing, not an evaluator failure.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--grid", "n=0,d=0,s=1,m=1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "grid n must be >= 1" in captured.err


def test_dim_simple(capsys):
    assert main(["dim", "-n", "3", "-d", "1", "-m", "1,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "L_3,1(1,1)"
    assert out[1] == "dimension 2  [recursive]"
    assert out[2] == "vdim 2  expected 2  speciality 0"
    assert out[3] == "normalized L_3,1(1,1)"
    assert out[4] == "trace: input already normalized"


def test_dim_worked_example(capsys):
    assert main(["dim", *WORKED_ARGS]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "L_5,8(7,6,6,5,5,5,5,5,5,5,2,2,2)"
    assert out[1] == "dimension 6  [formula]"
    assert out[2] == "vdim -561  expected 0  speciality 6"
    assert out[3] == "normalized L_5,8(7,6,6,5,5,5,5,5,5,5)  kc 5  epsilon 1"
    assert out[4] == "trace:"
    assert out[5:] == [
        "  drop-redundant point 13 mult 2 (kc 4)",
        "  drop-redundant point 12 mult 2 (kc 4)",
        "  drop-redundant point 11 mult 2 (kc 4)",
    ]


def test_dim_structured(capsys):
    assert main(["dim", *WORKED_ARGS, "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {
        "n", "d", "mults", "s", "normalized_mults", "kc", "epsilon", "vdim",
        "dimension", "evaluator", "special_effects", "trace",
    }
    assert obj["dimension"] == 6
    assert obj["kc"] == 5
    assert obj["epsilon"] == 1
    assert obj["vdim"] == -561
    assert obj["evaluator"] == "formula"
    assert obj["normalized_mults"] == [7, 6, 6, 5, 5, 5, 5, 5, 5, 5]
    assert len(obj["special_effects"]) == 15
    assert obj["trace"][0] == {
        "action": "drop-redundant",
        "point": 13,
        "mult": 2,
        "kc": 4,
    }


def test_dim_oracle_modular(capsys):
    code = main(
        ["dim", "-n", "2", "-d", "4", "-m", "2^5",
         "--evaluators", "oracle", "--oracle", "modular:2"]
    )
    assert code == 0
    assert "dimension 1  [oracle:modular]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["dim", "-n", "2", "-d", "4", "-m", "2^5", "--evaluators", "all"]]
    + [
        [command, *args, option, value]
        for command, args in (
            ("report", WORKED_ARGS),
            ("regindex", ["-n", "2", "-m", "2^5"]),
        )
        for option, value in (
            ("--seed", "1"), ("--cap-cells", "10"), ("--oracle", "modular"),
        )
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_rejected_options(capsys, argv):
    # verify is the one side-by-side check, and only dim and verify run the
    # oracle, so only they take its options.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_dim_exit_codes(capsys):
    # argparse rejects malformed multiplicities before cmd_dim runs.
    with pytest.raises(SystemExit) as exc:
        main(["dim", "-n", "2", "-d", "3", "-m", "2^x"])
    assert exc.value.code == 2
    capsys.readouterr()
    # Well-formed but outside the requested evaluator's domain.
    assert main(["dim", "-n", "2", "-d", "4", "-m", "1,1",
                 "--evaluators", "formula"]) == 3
    assert "formula needs s >= n+3" in capsys.readouterr().err
    # Invalid system parameters.
    assert main(["dim", "-n", "0", "-d", "1", "-m", "1"]) == 2


def test_recursion_guard_exit_code(capsys, monkeypatch):
    # The node budget ends in exit 3 and one error line, not a traceback.
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 10)
    assert main(["dim", "-n", "6", "-d", "40", "-m", "30^12",
                 "--evaluators", "recursive"]) == 3
    assert capsys.readouterr().err == "error: recursion exceeded 10 nodes\n"
    # L_4,4(4^2,2^6) visits 3 nodes and steps 3 runs.
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 2)
    assert main(["verify", "-n", "4", "-d", "4", "-m", "4^2,2^6"]) == 3
    assert capsys.readouterr().err == "error: recursion exceeded 2 nodes\n"
    # One node whose stretch steps 165,817 runs, each charged.
    monkeypatch.setattr(castelnuovo, "MAX_NODES", 1000)
    assert main(["dim", "-n", "3", "-d", "300000", "-m", "144000^11",
                 "--evaluators", "recursive"]) == 3
    assert capsys.readouterr().err == "error: recursion exceeded 1000 nodes\n"


def test_dim_recursion_trace(capsys):
    # The human listing follows the answer; structured output carries the
    # same lines, beside the normalization steps under "trace".
    args = ["dim", "-n", "4", "-d", "4", "-m", "4^2,2^6", "--evaluators", "recursive"]
    listing = []
    recursive_h0(rncdim.system(4, 4, [4, 4] + [2] * 6), trace=listing)
    assert len(listing) == 3 and "[summed]" in listing[-1]
    assert main([*args, "--trace"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "dimension 1  [recursive]"
    assert out[4:] == [
        "trace: input already normalized",
        "recursion trace:",
        *(f"  {line}" for line in listing),
    ]
    assert main([*args, "--trace", "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["dimension"], obj["trace"]) == (1, [])
    assert obj["recursion_trace"] == listing
    # Without --trace the output is unchanged.
    assert main([*args, "--format", "structured"]) == 0
    assert "recursion_trace" not in json.loads(capsys.readouterr().out)


def test_dim_recursion_stats(capsys):
    # Structured output carries the recursion's counters whenever it ran,
    # auto's route outside the formula's domain included: L_3,6(2^10) is
    # one summed node after one stepped run, L_4,4(4^2,2^6) visits three
    # nodes.  The formula's answer and the human listing carry none.
    args = ["dim", "-n", "3", "-d", "6", "-m", "2^10", "--format", "structured"]
    assert main([*args, "--evaluators", "recursive"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dimension"] == 45
    assert obj["recursion_stats"] == {"nodes": 1, "steps": 1, "memo_hits": 0, "max_depth": 0,
                                      "memo_size": 1}
    assert main(["dim", "-n", "4", "-d", "4", "-m", "4^2,2^6", "--format", "structured",
                 "--evaluators", "recursive"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["recursion_stats"] == {"nodes": 3, "steps": 3, "memo_hits": 0, "max_depth": 1,
                                      "memo_size": 3}
    assert main(["dim", "-n", "2", "-d", "4", "-m", "1,1", "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["evaluator"], obj["recursion_stats"]["nodes"]) == ("recursive", 1)
    assert main(args) == 0
    assert "recursion_stats" not in json.loads(capsys.readouterr().out)
    assert main(args[:-2] + ["--evaluators", "recursive"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "L_3,6(2,2,2,2,2,2,2,2,2,2)",
        "dimension 45  [recursive]",
        "vdim 44  expected 44  speciality 1",
        "normalized L_3,6(2,2,2,2,2,2,2,2,2,2)  kc 1  epsilon 3",
        "trace: input already normalized",
    ]


@pytest.mark.parametrize("evaluator", ["auto", "formula", "oracle"])
def test_trace_needs_recursive(capsys, evaluator):
    assert main(["dim", "-n", "3", "-d", "4", "-m", "2^3,1^3",
                 "--evaluators", evaluator, "--trace"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace needs --evaluators recursive\n"


def test_report_worked_example(capsys):
    assert main(["report", *WORKED_ARGS]) == 0
    out = capsys.readouterr().out
    assert "kc 5  epsilon 1" in out
    assert "curves (r=1):" in out
    assert "surfaces (r=2):" in out
    assert "3-folds (r=3):" in out
    assert "4-folds (r=4):" in out
    assert "  c=1 sigma=6 t=1 k=3 count=2 f=8 signed=-16" in out
    assert "dimension 6  vdim -561  speciality 6" in out


def test_empty_system_speciality(capsys):
    # dim, report and regindex share systems.speciality: dimension 0 is not
    # special, however negative vdim is.
    for d, vd in (("3", -41), ("4", -6)):
        args = ["-n", "4", "-d", d, "-m", "5,1^6"]
        assert main(["dim", *args]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "dimension 0  [formula]"
        assert out[2] == f"vdim {vd}  expected 0  speciality 0"
        assert main(["report", *args]) == 0
        assert f"dimension 0  vdim {vd}  speciality 0" in capsys.readouterr().out
    assert main(["regindex", "-n", "4", "-m", "5,1^6", "--window", "0"]) == 0
    assert "d=4: dimension 0 vdim -6 non-special" in capsys.readouterr().out


def test_report_no_effects(capsys):
    assert main(["report", "-n", "3", "-d", "7", "-m", "2^10"]) == 0
    out = capsys.readouterr().out
    assert "no special-effect varieties" in out
    assert "dimension 80" in out


def test_report_names_the_filling_join(capsys):
    # The join of C with the line through the two 9-fold points is P^3, and
    # every form of degree 9 vanishes on it to order 18 + 3 - 2*9 = 3.
    args = ["-n", "3", "-d", "9", "-m", "9,9,3^5"]
    assert main(["report", *args]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:] == ["3-folds (r=3):",
                       "  c=2 sigma=18 t=1 k=3 count=1 f=0 signed=0",
                       "dimension 0  vdim -160  speciality 0"]
    assert main(["report", *args, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["special_effects"] == [
        {"c": 2, "sigma": 18, "t": 1, "k": 3, "r": 3, "count": 1, "f": 0,
         "signed": 0}]


def test_report_names_the_point_above_d(capsys):
    # A point of multiplicity 6 > d = 5 empties the system; report names it.
    args = ["-n", "3", "-d", "5", "-m", "6,2^6"]
    assert main(["report", *args]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["kc 2  epsilon 1",
                       "points (r=0):",
                       "  c=1 sigma=6 t=0 k=6 count=1 f=0 signed=0",
                       "dimension 0  vdim -24  speciality 0"]
    point = {"c": 1, "sigma": 6, "t": 0, "k": 6, "r": 0, "count": 1, "f": 0,
             "signed": 0}
    for cmd in ("report", "dim"):
        assert main([cmd, *args, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["special_effects"] == [point]
    assert main(["report", "-n", "3", "-d", "5", "-m", "6,6,1^4"]) == 0
    assert "  c=1 sigma=6 t=0 k=6 count=2 f=0 signed=0" in capsys.readouterr().out


def test_report_domain_violation(capsys):
    assert main(["report", "-n", "3", "-d", "4", "-m", "2,2"]) == 3
    assert "needs s >= n+3" in capsys.readouterr().err


def test_formula_domain_excludes_lines(capsys):
    # On a line the closed sum answers -1 for L_1,3(1^5); the formula's
    # domain is n >= 2, so dim and report refuse it and auto recurses.
    args = ["-n", "1", "-d", "3", "-m", "1^5"]
    assert main(["dim", *args, "--evaluators", "formula"]) == 3
    assert "formula needs s >= n+3 after normalization and n >= 2" in (
        capsys.readouterr().err
    )
    assert main(["report", *args]) == 3
    assert "n >= 2" in capsys.readouterr().err
    assert main(["dim", *args]) == 0
    assert "dimension 0  [recursive]" in capsys.readouterr().out
    for cell in ("n=1,d=0..4,s=4..6,m=1..3", "n=1,d=0..6,s=1..7,m=0..4"):
        assert main(["verify", "--grid", cell]) == 0
        assert capsys.readouterr().err.endswith(" 0 failures\n")


def test_parser_reused_without_leaks(capsys, monkeypatch):
    # One build of the parsers serves every call in the process; each call
    # is parsed once, by its command's parser, and its options and defaults
    # are its own, verify's format=None included.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    top, commands = cli._parsers()
    assert top is parser
    seen = []

    def spy(command):
        real_parse = command.parse_args

        def parse(argv):
            ns = real_parse(argv)
            seen.append((command.prog, {k: v for k, v in vars(ns).items() if k != "func"}))
            return ns
        return parse

    def top_parse(argv):
        raise AssertionError(f"top-level parser ran on {argv}")

    monkeypatch.setattr(parser, "parse_args", top_parse)
    for command in commands.values():
        monkeypatch.setattr(command, "parse_args", spy(command))
    system_args = ["-n", "2", "-d", "4", "-m", "2^5"]
    oracle_defaults = {"seed": 0, "cap_cells": cli.CAP_CELLS, "oracle": ("exact", 1)}
    calls = [
        (["dim", *system_args, "--format", "structured", "--evaluators", "oracle",
          "--oracle", "modular:2", "--seed", "7", "--cap-cells", "500"],
         {"format": "structured", "evaluators": "oracle", "oracle": ("modular", 2),
          "seed": 7, "cap_cells": 500}),
        (["verify", *system_args, "--format", "structured", "--oracle", "modular:2"],
         {"format": "structured", "grid": None, **oracle_defaults,
          "oracle": ("modular", 2)}),
        (["verify", *system_args], {"format": None, "grid": None, **oracle_defaults}),
        (["dim", *system_args], {"format": "human", "evaluators": "auto",
                                 **oracle_defaults}),
    ]
    outputs = []
    for argv, options in calls:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        want = {"n": 2, "d": 4, "mults": (2,) * 5, **options}
        assert len(seen) == len(outputs), argv
        assert seen[-1] == (f"rncdim {argv[0]}", want), argv
    assert json.loads(outputs[0])["evaluator"] == "oracle:modular"
    assert json.loads(outputs[1])["oracle"] == 1
    assert outputs[2].splitlines()[-1] == "verdict: agree"
    assert "oracle:exact" in outputs[2]
    assert outputs[3].splitlines()[1] == "dimension 1  [formula]"


DISPATCH_ARGV = [
    ["dim", "-n", "2", "-d", "4", "-m", "2^5"],
    ["dim", "-n", "4", "-d", "4", "-m", "4^2,2^6", "--evaluators", "recursive",
     "--trace", "--format", "structured"],
    ["dim", "-n", "2", "-d", "4", "-m", "2^5", "--evaluators", "oracle",
     "--oracle", "modular:2", "--seed", "7", "--cap-cells", "500"],
    ["dim", "-n", "2", "-d", "6", "-m", "-1,5,3"],
    ["dim", "-n", "2", "-d", "6", "-m=-1,5,3", "--ev", "formula"],
    ["report", "-n", "5", "-d", "8", "-m", "7,6^2,5^7,2^3"],
    ["report", "-n", "2", "-d", "6", "-m", "-1,5,3", "--format", "structured"],
    ["verify", "-n", "2", "-d", "4", "-m", "2^5"],
    ["verify", "-n", "3", "-d", "6", "-m", "2^10", "--oracle", "modular:2",
     "--format", "structured"],
    ["verify", "--grid", "n=2..3,d=0..4,s=5..6,m=1..3", "--cap-cells", "100"],
    ["regindex", "-n", "2", "-m", "2^5"],
    ["regindex", "-n", "2", "-m", "-1,2^5", "--window", "2", "--format", "structured"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_matches_top_level_parser(argv):
    # A call that names a command is parsed by that command's parser alone;
    # its namespace is field for field the one the top-level parser gives,
    # command, func and every default included.
    ns = cli.parse_args(argv)
    assert ns == cli.build_parser().parse_args(cli._join_negative_mults(argv))
    assert ns.command == argv[0]


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"]])
def test_top_level_parser_paths(capsys, argv):
    # An empty call, help and an unknown command go to the top-level parser,
    # with its usage line, messages and exit codes.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    if argv and argv[0].startswith("-"):
        assert exc.value.code == 0
        assert captured.out.startswith("usage: rncdim [-h] {dim,report,verify,regindex}")
    else:
        assert exc.value.code == 2
        assert captured.err.startswith("usage: rncdim [-h] {dim,report,verify,regindex}")
        if argv:
            assert "rncdim: error: argument command: invalid choice: 'bogus'" in captured.err
        else:
            assert "rncdim: error: the following arguments are required: command" in captured.err


@pytest.mark.parametrize("command", ["dim", "report", "verify", "regindex"])
def test_command_parser_errors(capsys, command):
    # The command's parser reports an unrecognized argument under its name,
    # and its help, as before.
    system_args = ["-n", "2", "-m", "2^5"]
    if command != "regindex":
        system_args += ["-d", "4"]
    with pytest.raises(SystemExit) as exc:
        main([command, *system_args, "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"\nrncdim {command}: error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rncdim {command} [-h]")


def test_verify_single_instance(capsys):
    assert main(["verify", "-n", "2", "-d", "4", "-m", "2^5"]) == 0
    out = capsys.readouterr().out
    assert "verdict: agree" in out
    for evaluator in ("oracle:exact", "formula", "recursive", "planar"):
        assert evaluator in out


def test_verify_structured(capsys):
    assert main(["verify", "-n", "2", "-d", "4", "-m", "2^5",
                 "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "agree"
    assert obj["oracle"] == 1
    assert obj["formula"] == 1


def test_verify_kc_of_positive_multiplicities(capsys):
    # The -3 imposes nothing: kc and epsilon are those of 2^5, as dim prints.
    assert main(["verify", "-n", "2", "-d", "4", "-m", "2^5,-3",
                 "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["s"], obj["kc"], obj["epsilon"]) == (6, 2, 0)
    assert main(["verify", "-n", "2", "-d", "4", "-m", "2^4,0",
                 "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["kc"] is None


def test_verify_size_skip_note(capsys):
    # With the oracle over the cap, the human listing says so and the
    # closed values, which agree, give the verdict.
    assert main(["verify", "-n", "2", "-d", "4", "-m", "2^5", "--cap-cells", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "L_2,4(2,2,2,2,2)",
        "  formula    1",
        "  recursive  1",
        "  planar     1",
        "  note: oracle skipped: matrix exceeds --cap-cells 1",
        "verdict: skip-size",
    ]


def test_verify_empty_system_note(capsys):
    # Empty systems are compared like any other: every evaluator prints 0.
    for d, mults in (("1", "1^5"), ("2", "4,1,1,1")):
        assert main(["verify", "-n", "2", "-d", d, "-m", mults]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "verdict: agree"
        values = [line.split() for line in out[1:-1]]
        assert [name for name, _ in values][0] == "oracle:exact"
        assert "recursive" in dict(values)
        assert all(value == "0" for _, value in values), out


@pytest.mark.parametrize(
    "cell, cap",
    [("n=2,d=2,s=4,m=1..4", 2_000_000), ("n=2,d=3,s=5,m=1..3", 12)],
)
def test_verify_instance_matches_grid(capsys, cell, cap):
    code = main(["verify", "--grid", cell, "--cap-cells", str(cap)])
    verdicts = set()
    for line in capsys.readouterr().out.splitlines():
        rec = json.loads(line)
        argv = ["verify", "-n", str(rec["n"]), "-d", str(rec["d"]),
                "-m", ",".join(map(str, rec["mults"])),
                "--cap-cells", str(cap), "--format", "structured"]
        assert main(argv) == (0 if rec["verdict"] in ("agree", "skip-size") else 1)
        assert capsys.readouterr().out == line + "\n"
        verdicts.add(rec["verdict"])
    assert code == 0 and verdicts <= {"agree", "skip-size"}
    if cap < 2_000_000:
        assert verdicts == {"agree", "skip-size"}


def test_verify_requires_instance_or_grid(capsys):
    grid_and_instance = ["--grid", "n=2,d=1,s=5,m=1", "-n", "3", "-d", "4", "-m", "2^5"]
    for argv in (["-n", "2"], grid_and_instance):
        assert main(["verify", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "verify needs either --grid" in captured.err


def test_verify_grid_rejects_human_format(capsys):
    # The grid prints NDJSON records; an explicit --format human is an error.
    assert main(["verify", "--grid", "n=2,d=1,s=5,m=1", "--format", "human"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert main(["verify", "--grid", "n=2,d=1,s=5,m=1", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "agree"


def test_leading_negative_multiplicity(capsys):
    outs = []
    for mults in (["-m", "-1,5,3"], ["-m=-1,5,3"]):
        assert main(["dim", "-n", "2", "-d", "6", *mults]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "dimension 8" in outs[0]


def test_verify_grid(capsys):
    assert main(["verify", "--grid", "n=2..2,d=1..2,s=5..5,m=1..2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 12
    for line in lines:
        rec = json.loads(line)
        assert rec["verdict"] == "agree"
    assert "sweep: 12 instances, 0 failures" in captured.err


def test_regindex_window(capsys):
    assert main(["regindex", "-n", "2", "-m", "2^5", "--window", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "regularity index 5"
    assert out[1] == "  d=4: dimension 1 vdim 0 special  ok"
    assert out[2] == "  d=5: dimension 6 vdim 6 non-special  ok"
    assert out[3] == "  d=6: dimension 13 vdim 13 non-special  ok"
    assert out[4] == "  d=7: dimension 21 vdim 21 non-special  ok"


def test_regindex_window_mismatch(capsys, monkeypatch):
    # An index one too high claims d = 5 special; the window check finds
    # it non-special, prints MISMATCH and exits 1.
    real = cli.regularity_index
    monkeypatch.setattr(cli, "regularity_index", lambda n, mults: real(n, mults) + 1)
    assert main(["regindex", "-n", "2", "-m", "2^5", "--window", "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "regularity index 6",
        "  d=5: dimension 6 vdim 6 non-special  MISMATCH",
        "  d=6: dimension 13 vdim 13 non-special  ok",
    ]


def test_regindex_structured(capsys):
    assert main(["regindex", "-n", "3", "-m", "2^10",
                 "--window", "1", "--format", "structured"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["delta"] == 7
    assert [row["d"] for row in obj["window"]] == [6, 7, 8]
    assert obj["window"][0]["special"] is True
    assert obj["window"][1]["special"] is False


def test_regindex_negative_window(capsys):
    assert main(["regindex", "-n", "2", "-m", "2^5", "--window", "-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --window must be >= 0, got -4\n"
    # So is an ambient dimension below 1, with or without a window.
    for n in ("0", "-3"):
        assert main(["regindex", "-n", n, "-m", "2^5"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: ambient dimension must be >= 1, got {n}\n"


def test_regindex_domain_violation(capsys):
    assert main(["regindex", "-n", "3", "-m", "2,2"]) == 3
    assert "regindex needs s >= n+3" in capsys.readouterr().err
