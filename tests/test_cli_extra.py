"""Golden CLI bytes that `tests/golden/cli.json` does not cover.

`tests/golden/cli_extra.json` holds the exit code, stdout and stderr of the
`--help` texts, of argparse-level errors, of `--config` runs and of every
config-file error.  Each case runs in a fresh working directory that holds
the files of CONFIG_FILES, a directory and a FIFO under fixed relative
names, so the path in a message is the same bytes from run to run.  After a
deliberate output change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_extra.py

and explain in CHANGES.md which bytes changed and why.

The help texts and argparse's own error messages are argparse's wording,
which CPython changed after 3.11; those cases are pinned for the 3.10 and
3.11 interpreters that CI runs.
"""

import contextlib
import os
import pathlib
import sys
import tempfile

import pytest

from helpers import case_id, cli_record, golden, write_golden
from invbell import cli

CONFIG_FILES = {
    "values.cfg": "mode=coin\nchoice-prob=0.25\nseed=5\nformat=json\n# comment line\n\nepsilon=0.01\ntol=1e-6\n",
    "rho.cfg": "diagonal=yes\nformat=csv\n",
    "chsh.cfg": "angles=0.1, 0.2,0.3 ,0.4\nformat=json\n",
    "sample.cfg": "samples=100\nseed=9\n",
    "no_equals.cfg": "mode coin\n",
    "unknown_key.cfg": "flux_capacitance=1.21\n",
    "underscore_key.cfg": "choice_prob=0.3\n",
    "bad_float.cfg": "choice-prob=abc\n",
    "bad_int.cfg": "seed=1.5\n",
    "bad_samples.cfg": "samples=many\n",
    "bad_bool.cfg": "diagonal=maybe\n",
    "bad_angle.cfg": "angles=0,x,0,0\n",
    "bad_mode.cfg": "mode=bogus\n",
    "bad_utf8.cfg": b"seed=\xff\n",
    "too_large.cfg": "#" * (64 * 1024) + "\n",
}

ARGPARSE_CASES = [
    [],
    ["--help"],
    *([command, "--help"] for command in cli.COMMANDS),
    ["hardy", "--seed", "abc"],
    ["hardy", "--choice-prob", "x"],
    ["sample", "--samples", "2.5"],
    ["rho", "--angles", "0,0,0,0"],
    ["entangle"],
]

CASES = [
    *ARGPARSE_CASES,
    # config files: values used, flags overriding them, keys other commands ignore
    ["hardy", "--config", "values.cfg"],
    ["hardy", "--config", "values.cfg", "--format", "table", "--epsilon", "0.001"],
    ["nosignal", "--config", "values.cfg", "--format", "csv"],
    ["lhv", "--config", "values.cfg", "--tol", "0.5"],
    ["rho", "--config", "rho.cfg"],
    ["rho", "--config", "rho.cfg", "--format", "json", "--mode", "coin"],
    ["hardy", "--config", "rho.cfg"],
    ["chsh", "--config", "chsh.cfg"],
    ["sample", "--config", "sample.cfg", "--format", "json"],
    ["sample", "--config", "sample.cfg", "--samples", "20", "--seed", "1"],
    # config-file errors
    ["hardy", "--config", "missing.cfg"],
    ["hardy", "--config", "no_equals.cfg"],
    ["hardy", "--config", "unknown_key.cfg"],
    ["hardy", "--config", "underscore_key.cfg"],
    ["hardy", "--config", "bad_float.cfg"],
    ["hardy", "--config", "bad_int.cfg"],
    ["sample", "--config", "bad_samples.cfg"],
    ["rho", "--config", "bad_bool.cfg"],
    ["chsh", "--config", "bad_angle.cfg"],
    ["rho", "--config", "bad_mode.cfg"],
    ["hardy", "--config", "bad_utf8.cfg"],
    # config paths that are not small regular files
    ["hardy", "--config", "too_large.cfg"],
    ["hardy", "--config", "directory.cfg"],
    ["hardy", "--config", "/dev/zero"],
    ["hardy", "--config", "fifo.cfg"],
    # range checks on values that parse
    ["nosignal", "--tol", "nan"],
    ["lhv", "--tol", "inf"],
    ["lhv", "--tol=-inf"],
    ["hardy", "--epsilon", "nan"],
    ["hardy", "--epsilon=-inf"],
    ["rho", "--choice-prob", "1.5"],
    ["rho", "--choice-prob", "nan"],
    ["sample", "--samples", "1000000001"],
    ["chsh", "--angles", "0,inf,0,0"],
]


@contextlib.contextmanager
def case_directory():
    """A fresh working directory holding CONFIG_FILES, with the terminal width fixed for help texts."""
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in CONFIG_FILES.items():
            data = content if isinstance(content, bytes) else content.encode("utf-8")
            pathlib.Path(tmp, name).write_bytes(data)
        os.mkdir(os.path.join(tmp, "directory.cfg"))
        os.mkfifo(os.path.join(tmp, "fifo.cfg"))
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(old_cwd)
            if old_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old_columns


def test_golden_file_covers_every_case():
    assert sorted(golden("cli_extra.json")) == sorted(case_id(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_bytes_match_golden(argv):
    if argv in ARGPARSE_CASES and sys.version_info[:2] not in ((3, 10), (3, 11)):
        pytest.skip("argparse wording is pinned for CPython 3.10 and 3.11")
    with case_directory():
        assert cli_record(argv) == golden("cli_extra.json")[case_id(argv)]


if __name__ == "__main__":
    with case_directory():
        write_golden("cli_extra.json", CASES, cli_record)
