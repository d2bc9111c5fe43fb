"""Golden CLI bytes: the exit code, stdout and stderr of fixed invocations.

`tests/golden/cli.json` holds the expected bytes of every case below, so any
change to the CLI's output, however small, fails here.  After a deliberate
output change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and explain in CHANGES.md which bytes changed and why.
"""

import pytest

from helpers import case_id, cli_record, golden, write_golden

COMMANDS = ("rho", "hardy", "nosignal", "chsh", "lhv", "sample")
FORMATS = ("table", "json", "csv")
MODES = ("coherent", "coin")
CHOICE_PROBS = ("0.5", "0.3", "1")  # 1 leaves (q1, q2) pairs unsupported: exit 3


def cases() -> list[list[str]]:
    argvs = []
    for command in COMMANDS:
        for fmt in FORMATS:
            for mode in MODES:
                for p in CHOICE_PROBS:
                    argv = [command, "--format", fmt, "--mode", mode, "--choice-prob", p]
                    if command == "sample":
                        argv += ["--samples", "1000", "--seed", "7"]
                    argvs.append(argv)
                    if command == "rho":
                        argvs.append(argv + ["--diagonal"])
    for fmt in FORMATS:
        argvs.append(["chsh", "--format", fmt, "--angles=0,1.5707963,-0.7853981,0.7853981"])
        argvs.append(["chsh", "--format", fmt, "--angles=0.1,-2.5,3.25,1e-3"])
        for command in ("hardy", "nosignal", "lhv", "sample"):
            argvs.append([command, "--format", fmt, "--samples", "5000", "--seed", "3"])
            argvs.append([command, "--format", fmt, "--mode", "coin", "--choice-prob", "0.3",
                          "--samples", "777", "--seed", "18446744073709551615"])
        # 100003 draws span two 65536-draw sampling blocks.
        argvs.append(["sample", "--format", fmt, "--samples", "100003", "--seed", "11"])
        argvs.append(["hardy", "--format", fmt, "--samples", "100003", "--seed", "11", "--epsilon", "0.01"])
        argvs.append(["sample", "--format", fmt, "--samples", "5", "--seed", "-1"])
    argvs += [
        ["sample"],
        ["sample", "--samples", "0"],
        ["hardy", "--epsilon", "0.7"],
        ["hardy", "--tol", "-1"],
        ["rho", "--mode", "bogus"],
        ["lhv", "--format", "xml"],
        ["chsh", "--angles", "1,2"],
        ["chsh", "--angles", "0,nan,0,0"],
    ]
    return argvs


def test_golden_file_covers_every_case():
    assert sorted(golden("cli.json")) == sorted(case_id(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=case_id)
def test_cli_bytes_match_golden(argv):
    assert cli_record(argv) == golden("cli.json")[case_id(argv)]


if __name__ == "__main__":
    write_golden("cli.json", cases(), cli_record)
