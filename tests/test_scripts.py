"""Golden stdout of the example scripts under `scripts/`.

`tests/golden/scripts.json` holds the exit code and stdout of each case
below.  Each script runs in its own interpreter with `src` first on the
import path, as a user runs it from a checkout.  `run_analysis.py` is the
only place that prints the response-model survivors, so its bytes pin them.
After a deliberate output change, regenerate the file with

    PYTHONPATH=src python tests/test_scripts.py

and explain in CHANGES.md which bytes changed and why.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from helpers import case_id, golden, write_golden

ROOT = pathlib.Path(__file__).resolve().parent.parent

CASES = [
    ["run_analysis.py"],
    # coin mode away from 1/2 leaves roundoff mass on cells the closed form zeroes: 9 survivors
    ["run_analysis.py", "--mode", "coin", "--choice-prob", "0.3"],
    ["run_analysis.py", "--samples", "100000", "--choice-prob", "0.3"],
    # 1 leaves (q1, q2) pairs unsupported, so the inverted-scenario analyses are skipped
    ["run_analysis.py", "--choice-prob", "1"],
    ["chsh_sweep.py", "--draws", "2000"],
]


def run_script(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def invoke(argv: list[str]) -> dict:
    done = run_script(argv)
    return {
        "argv": list(argv),
        "exit_code": done.returncode,
        "stdout": done.stdout.splitlines(keepends=True),
    }


def test_golden_file_covers_every_case():
    assert sorted(golden("scripts.json")) == sorted(case_id(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_script_stdout_matches_golden(argv):
    assert invoke(argv) == golden("scripts.json")[case_id(argv)]


# Bad arguments end in argparse's usage error: exit 2, nothing on stdout, one error line last.
BAD_ARGUMENTS = [
    (["chsh_sweep.py", "--draws", "0"], "--draws must be >= 1, got 0"),
    (["chsh_sweep.py", "--draws", "-2"], "--draws must be >= 1, got -2"),
    (["run_analysis.py", "--choice-prob", "2"], "--choice-prob must lie in [0, 1], got 2.0"),
    (["run_analysis.py", "--choice-prob", "nan"], "--choice-prob must lie in [0, 1], got nan"),
    (["run_analysis.py", "--samples", "-5"], "--samples must be 0 or in 1..1000000000, got -5"),
    (["run_analysis.py", "--samples", "1000000001"], "--samples must be 0 or in 1..1000000000, got 1000000001"),
]


@pytest.mark.parametrize("argv, message", BAD_ARGUMENTS, ids=[case_id(argv) for argv, _ in BAD_ARGUMENTS])
def test_script_rejects_bad_argument_with_usage_error(argv, message):
    done = run_script(argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert done.stderr.splitlines()[-1] == f"{argv[0]}: error: {message}"


if __name__ == "__main__":
    write_golden("scripts.json", CASES, invoke)
