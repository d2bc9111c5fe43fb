"""Shared test fixtures: expected tables, random instances, reference RNG, golden files."""

import contextlib
import functools
import io
import json
import pathlib

import numpy as np

from invbell import cli
from invbell.protocol import Distribution, OutcomeQuadruple
from invbell.qcore import DensityMatrix, StateVector, UnitaryMatrix

SIGNS = (1, -1)

# Diagonal of the default scenario in basis-index order: within each (q1,q2)
# block the (q3,q4) weights are (1/2, 1/4, 1/4, 0) times the 1/4 block
# prefactor, with the zero at (-1,-1) for the (+,+) and (-,-) blocks and at
# (+1,+1) for the mixed blocks.
EXPECTED_DEFAULT_DIAGONAL = np.array(
    [2, 1, 1, 0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 1, 1, 0], dtype=np.float64
) / 16.0

EXPECTED_CONDITIONAL_ROWS = np.array(
    [
        [0.5, 0.25, 0.25, 0.0],
        [0.0, 0.25, 0.25, 0.5],
        [0.0, 0.25, 0.25, 0.5],
        [0.5, 0.25, 0.25, 0.0],
    ]
)


def strategy_distribution(f_plus, f_minus, g_plus, g_minus):
    """Uniform (q1, q2) with deterministic registers q3 = f(q1), q4 = g(q2)."""
    probs = {}
    for q1 in SIGNS:
        for q2 in SIGNS:
            q3 = f_plus if q1 == 1 else f_minus
            q4 = g_plus if q2 == 1 else g_minus
            probs[OutcomeQuadruple(q1, q2, q3, q4)] = 0.25
    return Distribution(probs)


def all_strategy_distributions():
    return [
        strategy_distribution(fp, fm, gp, gm)
        for fp in SIGNS
        for fm in SIGNS
        for gp in SIGNS
        for gm in SIGNS
    ]


def random_distribution(rng):
    weights = rng.random(16) + 1e-6
    return Distribution.from_array(weights / weights.sum())


def random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def random_unitary(rng, n_qubits):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryMatrix(q)


def random_density(rng, n_qubits):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


_U64 = (1 << 64) - 1


def reference_uniform(seed, index):
    """Pure-integer splitmix64 draw `index` under `seed`; oracle for stats.sample."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    z = (z ^ (z >> 31)) & _U64
    return (z >> 11) * 2.0 ** -53


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`invbell argv` in process: (exit code, stdout, stderr); argparse's SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_record(argv: list[str]) -> dict:
    """A run as the golden files store it."""
    code, out, err = run_cli(argv)
    # Lines, ends kept, so that a changed byte shows as one changed line of the golden file.
    return {
        "argv": list(argv),
        "exit_code": code,
        "stdout": out.splitlines(keepends=True),
        "stderr": err.splitlines(keepends=True),
    }


def case_id(argv: list[str]) -> str:
    return " ".join(argv) or "(no arguments)"


@functools.cache
def golden(name: str) -> dict:
    """The cases of `tests/golden/<name>`, keyed by case_id."""
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(name: str, cases: list[list[str]], record) -> None:
    """Regenerate `tests/golden/<name>` from record(argv) for every case."""
    records = {case_id(argv): record(argv) for argv in cases}
    with open(GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN_DIR / name}")
