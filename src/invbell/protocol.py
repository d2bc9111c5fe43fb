"""Construction of the four-qubit basis-choice experiment.

Two parties share a maximally entangled pair (Q1, Q2) and each holds an
ancilla register (Q3 for Alice, Q4 for Bob) that records which of the two
bases, Z or X, the party measures in.  Measuring in X means applying a
Hadamard to the system qubit before the fixed sigma_z measurement, so the
register value determines the applied rotation.  A register can be driven
two ways:

* ``coherent`` - the ancilla starts in sqrt(p)|0> + sqrt(1-p)|1> and the
  Hadamard is attached as a controlled gate, with every projection deferred
  to the final measurement;
* ``coin`` - a classical coin picks the branch, giving an explicit mixture
  of prepared ancilla values with the rotation applied per branch.

Both mechanisms yield identical computational-basis diagonals; they differ
only in the coherences between ancilla sectors.

Sign convention: outcome +1 corresponds to |0>, -1 to |1>.  For the
registers Q3/Q4, +1 therefore means "Z was chosen" and -1 "X was chosen".
Basis-state indices order the registers as Q1 Q2 Q3 Q4, most significant
bit first.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .qcore import (
    ATOL,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    _apply_kernel,
    _check_norm,
    _check_weights,
    controlled_unitary,
    hadamard,
    measurement_probs,
)

CHOICE_MODES = ("coherent", "coin")


def check_mode(mode: str, name: str) -> str:
    """`mode` if it is one of CHOICE_MODES; `name` is what the error message calls it."""
    if mode not in CHOICE_MODES:
        raise ValueError(f"{name} must be one of {CHOICE_MODES}, got {mode!r}")
    return mode


def as_real(value, name: str) -> float:
    """`value` as a float; text and other non-numbers raise TypeError, so nothing is parsed."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def check_choice_prob(choice_prob: float, name: str) -> float:
    """`choice_prob` as a float in [0, 1]; `name` is what the error message calls it."""
    p = as_real(choice_prob, name)
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {choice_prob!r}")
    return p


class OutcomeQuadruple(NamedTuple):
    """One joint outcome; each field is +1 or -1."""

    q1: int
    q2: int
    q3: int
    q4: int


# The one statement of the sign order: +1 is bit 0 (|0>) and comes first.  OUTCOMES
# is then in basis-index order, Q1 most significant.
SIGNS = (1, -1)
OUTCOMES: tuple[OutcomeQuadruple, ...] = tuple(map(OutcomeQuadruple._make, itertools.product(SIGNS, repeat=4)))


def supported(p: float) -> bool:
    """The support rule of every analysis: an event of probability `p` can happen iff p > 0.0 exactly."""
    return p > 0.0


@dataclass(frozen=True)
class Distribution:
    """Probability table over the 16 outcome quadruples.

    Missing quadruples default to probability zero.  Values must be
    nonnegative and sum to one within 1e-12.
    """

    probs: Mapping[OutcomeQuadruple, float]

    def __post_init__(self):
        table: dict[OutcomeQuadruple, float] = {o: 0.0 for o in OUTCOMES}
        for key, value in self.probs.items():
            # The table holds exactly the 16 outcomes, so a key it lacks is no outcome.
            if key not in table:
                raise ValueError(f"outcome {OutcomeQuadruple(*key)} has values outside {{+1, -1}}")
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"probability of {OutcomeQuadruple(*key)} is {value!r}")
            table[key] = value
        total = math.fsum(table.values())
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", table)

    def as_array(self) -> np.ndarray:
        """Probabilities in basis-index order."""
        return np.array([self.probs[o] for o in OUTCOMES], dtype=np.float64)

    @classmethod
    def from_array(cls, values) -> "Distribution":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (16,):
            raise ValueError(f"expected 16 probabilities, got shape {values.shape}")
        return cls({OUTCOMES[i]: float(values[i]) for i in range(16)})

    @classmethod
    def uniform(cls) -> "Distribution":
        return cls.from_array(np.full(16, 1.0 / 16.0))

    @classmethod
    def point_mass(cls, outcome: OutcomeQuadruple) -> "Distribution":
        return cls({OutcomeQuadruple(*outcome): 1.0})


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one experiment run.

    choice_prob is the probability that a party picks the Z basis; both
    parties use the same value and the fixed basis pair (Z, X), and the
    entangled pair starts in bell_state().
    """

    alice_mode: str = "coherent"
    bob_mode: str = "coherent"
    choice_prob: float = 0.5

    def __post_init__(self):
        check_mode(self.alice_mode, "alice_mode")
        check_mode(self.bob_mode, "bob_mode")
        object.__setattr__(self, "choice_prob", check_choice_prob(self.choice_prob, "choice_prob"))


@functools.cache
def bell_state() -> StateVector:
    """Maximally entangled pair (|00> - |11>)/sqrt(2) on Q1 Q2; built and validated once."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[3] = -1.0 / np.sqrt(2.0)
    return StateVector(amps)


_KET0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET1 = np.array([0.0, 1.0], dtype=np.complex128)


def _register_branches(mode: str, z_prob: float) -> list[tuple[float, np.ndarray]]:
    """Weighted ancilla preparations for one party's choice register."""
    if mode == "coherent":
        amp = np.array([math.sqrt(z_prob), math.sqrt(1.0 - z_prob)], dtype=np.complex128)
        return [(1.0, amp)]
    branches = []
    if z_prob > 0.0:
        branches.append((z_prob, _KET0))
    if z_prob < 1.0:
        branches.append((1.0 - z_prob, _KET1))
    return branches


@functools.cache
def _controlled_hadamard() -> UnitaryMatrix:
    """Hadamard on the second of two qubits when the first is |1>; built and validated once."""
    return controlled_unitary(hadamard(), control=0, target=1, n=2)


def build_final_density(s: Scenario) -> DensityMatrix:
    """Final four-qubit state of the experiment described by `s`.

    Each branch tensors the entangled pair with the two register
    preparations, then applies a controlled Hadamard from Q3 onto Q1 and
    from Q4 onto Q2.  Coin-mode registers contribute one branch per coin
    face; coherent registers contribute a single superposed branch.

    The branches are built on raw arrays with the arithmetic of the public
    `qcore` wrappers (`kron`, `apply_unitary`, `density_from_state`, `mix`),
    so the result is bit-identical to that route.  Validation happens at
    the boundary: each branch's norm and the branch weights are checked as
    `StateVector` and `mix` check them, and the returned `DensityMatrix`
    runs its Hermiticity, trace and eigenvalue checks once.
    """
    pair = bell_state().amplitudes
    ch = _controlled_hadamard().matrix
    branches = [
        (w_a * w_b, reg3, reg4)
        for w_a, reg3 in _register_branches(s.alice_mode, s.choice_prob)
        for w_b, reg4 in _register_branches(s.bob_mode, s.choice_prob)
    ]
    _check_weights([w for w, _, _ in branches])
    total = np.zeros((16, 16), dtype=np.complex128)
    for w, reg3, reg4 in branches:
        amps = np.multiply.outer(np.multiply.outer(pair, reg3).ravel(), reg4).ravel()
        amps = _apply_kernel(amps, ch, [2, 0])
        amps = _apply_kernel(amps, ch, [3, 1])
        _check_norm(amps)
        total += w * np.outer(amps, amps.conj())
    return DensityMatrix(total)


def outcome_distribution(rho: DensityMatrix) -> Distribution:
    """Distribution of (q1, q2, q3, q4) under sigma_z measurement of all four qubits."""
    if rho.n_qubits != 4:
        raise DimensionMismatch(f"need a 4-qubit state, got {rho.n_qubits} qubits")
    return Distribution.from_array(measurement_probs(rho))
