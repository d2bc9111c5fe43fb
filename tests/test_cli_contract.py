"""The exit-code contract of `cli.main` under hostile flags and config files.

Exit 0 prints the result on stdout and nothing on stderr.  Exit 2 (a config
error, or argparse's own SystemExit(2)) and exit 3 (degenerate support) print
nothing on stdout and a short diagnostic on stderr: one `config error:` or
`degenerate support:` line, or argparse's usage and error lines.  Sample
counts stay at most 2,000 or beyond the cap, so each example runs in
milliseconds.
"""

import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import run_cli
from invbell import cli

HOSTILE_VALUES = [
    "nan", "-nan", "inf", "-inf", "1e3", "", " ", "-1", "9" * 30, "-" + "9" * 30, "9" * 5000, "１.５", "0,,0,0",
]

# Values each flag accepts, some of them odd: subnormals, Unicode digits, a seed beyond 64 bits.
VALID_VALUES = {
    "mode": ["coin", "coherent"],
    "choice-prob": ["0", "1", "0.3", "1e-320", "٠.٥"],
    "seed": ["0", "-1", "9" * 30, "١٢"],
    "samples": ["1", "12", "2000", "５０"],
    "epsilon": ["0", "0.01", "1e-320"],
    "tol": ["0", "0.5", "1e300"],
    "format": ["table", "json", "csv"],
    "angles": ["0,1,2,3", "1e300,0,0,-1e300"],
}

CONFIG_LINES = [
    b"seed=\xff", b"\xef\xbb\xbfseed=1", b"mode=co\x00in", b"\x00", b"mode=coin", b"mode=coherent",
    b"samples=100", b"samples=99999999999999", b"samples=1e3", b"angles=nan,0,0,0", b"angles=0,1,2,3",
    b"choice-prob=0.3", b"choice-prob=1", b"format=csv", b"format=json", b"diagonal=yes", b"diagonal=2",
    b"epsilon=1e3", b"tol=-0.0", b"", b"# comment", b"key", b"=", b"seed=\xd9\xa1\xd9\xa2",
]

config_bytes = st.lists(
    st.one_of(st.sampled_from(CONFIG_LINES), st.binary(max_size=12)), max_size=6
).flatmap(lambda lines: st.sampled_from([b"\n", b"\r\n", b"\r"]).map(lambda end: end.join(lines)))


@st.composite
def argvs(draw, config_path):
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(VALID_VALUES)), max_size=4)):
        value = draw(st.one_of(st.sampled_from(VALID_VALUES[flag]), st.sampled_from(HOSTILE_VALUES)))
        argv.append(f"--{flag}={value}")
    if command == "rho" and draw(st.booleans()):
        argv.append("--diagonal")
    if draw(st.booleans()):
        argv += ["--config", config_path]
    return argv


def test_exit_code_contract(tmp_path_factory):
    config_path = str(tmp_path_factory.mktemp("contract") / "run.cfg")

    @given(argvs(config_path), config_bytes)
    @example(["lhv", "--samples=12"], b"")
    @example(["nosignal", "--choice-prob=1"], b"")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(argv, content):
        with open(config_path, "wb") as fh:
            fh.write(content)
        code, out, err = run_cli(argv)
        assert code in (0, 2, 3), (argv, content, code, err)
        if code == 0:
            assert out and not err
            return
        assert not out
        lines = err.splitlines()
        assert err.endswith("\n") and lines
        if code == 3:
            assert len(lines) == 1 and lines[0].startswith("degenerate support: ")
        elif lines[0].startswith("usage: invbell"):
            assert re.match(rf"invbell( {argv[0]})?: error: ", lines[-1]), (argv, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("config error: "), (argv, content, err)

    check()
