"""Golden stdout of the example scripts under `scripts/`.

`tests/golden/scripts.json` holds the exit code and stdout of each case
below.  Each script runs in its own interpreter with `src` first on the
import path, as a user runs it from a checkout.  `run_analysis.py` is the
only place that prints the response-model survivors, so its bytes pin them.
After a deliberate output change, regenerate the file with

    PYTHONPATH=src python tests/test_scripts.py

and explain in CHANGES.md which bytes changed and why.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "scripts.json"

CASES = [
    ["run_analysis.py"],
    # coin mode away from 1/2 leaves roundoff mass on cells the closed form zeroes: 9 survivors
    ["run_analysis.py", "--mode", "coin", "--choice-prob", "0.3"],
    ["run_analysis.py", "--samples", "100000", "--choice-prob", "0.3"],
    # 1 leaves (q1, q2) pairs unsupported, so the inverted-scenario analyses are skipped
    ["run_analysis.py", "--choice-prob", "1"],
    ["chsh_sweep.py", "--draws", "2000"],
]


def invoke(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    return {
        "argv": list(argv),
        "exit_code": done.returncode,
        "stdout": done.stdout.splitlines(keepends=True),
    }


def _case_id(argv: list[str]) -> str:
    return " ".join(argv)


@functools.cache
def _load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(_case_id(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_script_stdout_matches_golden(argv):
    assert invoke(argv) == _load()[_case_id(argv)]


if __name__ == "__main__":
    golden = {_case_id(argv): invoke(argv) for argv in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
