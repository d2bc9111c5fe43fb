"""Classical-model analysis of the inverted scenario.

Here the entangled-pair outcomes (q1, q2) play the role of inputs and the
basis-choice registers (q3, q4) the role of outputs.  The module builds the
conditional table P(q3, q4 | q1, q2), measures signaling (dependence of one
register's marginal on the remote outcome), and decides local-polytope
membership.  For two binary inputs and two binary outputs, membership is
exactly no-signaling plus the eight CHSH inequalities, so no linear program
is needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingSupport
from .protocol import SIGNS, Distribution, as_real, supported
from .qcore import ATOL
from .stats import CLASSICAL_BOUND, chsh_combination

DEFAULT_TOL = 1e-9

# Fixed ordering of (+-1, +-1) pairs for table rows (inputs) and columns (outputs).
PAIR_ORDER: tuple[tuple[int, int], ...] = tuple(itertools.product(SIGNS, repeat=2))

# Output-pair products q3*q4 in PAIR_ORDER, used for correlators.
_PAIR_PRODUCT = np.array([a * b for a, b in PAIR_ORDER], dtype=np.float64)


def pair_index(a: int, b: int) -> int:
    return PAIR_ORDER.index((a, b))


# The eight CHSH combinations: one minus sign at position k, then the negation.
CHSH_SIGN_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    tuple(sign * (-1 if i == k else 1) for i in range(4)) for k in range(4) for sign in SIGNS
)


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """P(q3, q4 | q1, q2); rows are input pairs, columns output pairs, both in PAIR_ORDER."""

    entries: np.ndarray

    def __post_init__(self):
        table = np.array(self.entries, dtype=np.float64)
        if table.shape != (4, 4):
            raise ValueError(f"conditional table must be 4x4, got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("conditional table contains non-finite entries")
        if table.min() < 0.0:
            raise ValueError(f"conditional table entry {table.min()!r} is negative")
        row_sums = table.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ATOL:
            raise ValueError(f"conditional rows must sum to 1, got {row_sums.tolist()}")
        table.setflags(write=False)
        object.__setattr__(self, "entries", table)

    def entry(self, q1: int, q2: int, q3: int, q4: int) -> float:
        return float(self.entries[pair_index(q1, q2), pair_index(q3, q4)])

    def correlators(self) -> np.ndarray:
        """E(q1, q2) = sum over outputs of q3*q4*P, one per input pair in PAIR_ORDER."""
        return self.entries @ _PAIR_PRODUCT


@dataclass(frozen=True)
class SignalingReport:
    """Marginal-discrepancy deltas; signaling when either exceeds the tolerance."""

    delta_q3: float
    delta_q4: float
    signaling: bool
    tol: float

    @property
    def verdict(self) -> str:
        return "SIGNALING" if self.signaling else "NO-SIGNALING"


@dataclass(frozen=True)
class ResponseFunction:
    """A choice register as a two-point function of one outcome: its values at +1 and at -1."""

    at_plus: int
    at_minus: int

    def __post_init__(self):
        if self.at_plus not in SIGNS or self.at_minus not in SIGNS:
            raise ValueError("response values must be +1 or -1")
        object.__setattr__(self, "at_plus", int(self.at_plus))
        object.__setattr__(self, "at_minus", int(self.at_minus))

    def __call__(self, value: int) -> int:
        if value not in SIGNS:
            raise ValueError(f"outcome must be +1 or -1, got {value!r}")
        return self.at_plus if value == 1 else self.at_minus


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic responses q3 = f(q1), q4 = g(q2), given as (value at +1, value at -1) pairs."""

    f: ResponseFunction
    g: ResponseFunction

    def __post_init__(self):
        object.__setattr__(self, "f", ResponseFunction(*self.f))
        object.__setattr__(self, "g", ResponseFunction(*self.g))


@dataclass(frozen=True)
class PolytopeReport:
    """Membership verdict with its witness.

    verdict is "local", "signaling", or "nonlocal-nosignaling".  For a
    signaling table the witness is the largest marginal delta; for a
    nonlocal one it is the violated sign combination and its value.
    """

    verdict: str
    signaling: SignalingReport
    combination_values: tuple[float, ...]
    witness_signs: tuple[int, int, int, int] | None
    witness_value: float | None
    witness: str


def conditional_table(d: Distribution) -> ConditionalTable:
    """Table of P(q3, q4 | q1, q2); requires support on all four input pairs.

    Basis-index order puts (q1, q2) in the high bits and (q3, q4) in the low
    bits, both in PAIR_ORDER, so the (4, 4) reshape has the table's layout.
    Each entry is one cell over its row's exact sum, as stats.conditional
    computes it.
    """
    joint = d.as_array().reshape(4, 4)
    pair_probs = [math.fsum(row) for row in joint.tolist()]
    for (q1, q2), pair_prob in zip(PAIR_ORDER, pair_probs):
        if not supported(pair_prob):
            raise MissingSupport(f"(q1, q2)=({q1:+d}, {q2:+d}) has probability zero")
    return ConditionalTable(joint / np.array(pair_probs)[:, None])


def check_tol(tol: float) -> float:
    """`tol` as a float; a tolerance must be finite and nonnegative."""
    value = as_real(tol, "tol")
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    return value


def no_signaling_check(t: ConditionalTable, tol: float = DEFAULT_TOL) -> SignalingReport:
    """Largest dependence of each register's marginal on the remote outcome."""
    tol = check_tol(tol)
    cells = t.entries.reshape(2, 2, 2, 2)  # axes q1, q2, q3, q4; index 0 means +1
    q3_plus = cells[:, :, 0, :].sum(axis=2)  # P(q3=+1 | q1, q2), indexed [q1, q2]
    q4_plus = cells[:, :, :, 0].sum(axis=2)  # P(q4=+1 | q1, q2), indexed [q1, q2]
    # Each delta is the largest absolute difference along the remote party's input axis.
    delta_q3 = float(np.abs(q3_plus[:, 0] - q3_plus[:, 1]).max())
    delta_q4 = float(np.abs(q4_plus[0] - q4_plus[1]).max())
    return SignalingReport(delta_q3, delta_q4, signaling=max(delta_q3, delta_q4) > tol, tol=tol)


def strategy_chsh(s: DeterministicStrategy) -> float:
    """The CHSH combination of E(q1, q2) = f(q1) g(q2), input pairs in PAIR_ORDER."""
    return float(chsh_combination(*(s.f(q1) * s.g(q2) for q1, q2 in PAIR_ORDER)))


# The 16 deterministic strategies, f major, with their CHSH values; built and validated once.
_STRATEGIES = tuple((s, strategy_chsh(s)) for s in (DeterministicStrategy(f, g) for f in PAIR_ORDER for g in PAIR_ORDER))


def enumerate_strategies() -> list[tuple[DeterministicStrategy, float]]:
    """All 16 deterministic strategies with their CHSH values; a new list on each call."""
    return list(_STRATEGIES)


def strategy_table(s: DeterministicStrategy) -> ConditionalTable:
    """Point-mass conditional table induced by one deterministic strategy."""
    return ConditionalTable(np.eye(4)[[pair_index(s.f(q1), s.g(q2)) for q1, q2 in PAIR_ORDER]])


def pr_box_table() -> ConditionalTable:
    """No-signaling table with anticorrelated outputs on input (-1, -1) only.

    Reaches CHSH combination value 4, the no-signaling maximum; standard
    nonlocal, non-signaling fixture.
    """
    want = np.array([-1.0 if pair == (-1, -1) else 1.0 for pair in PAIR_ORDER])
    return ConditionalTable(0.5 * (want[:, None] == _PAIR_PRODUCT))


def local_polytope_check(t: ConditionalTable, tol: float = DEFAULT_TOL) -> PolytopeReport:
    """Decide membership: signaling check first, then the eight CHSH combinations."""
    sig = no_signaling_check(t, tol)
    correlators = t.correlators()
    values = tuple(
        float(sum(sign * e for sign, e in zip(pattern, correlators)))
        for pattern in CHSH_SIGN_PATTERNS
    )
    signs = value = None
    worst = int(np.argmax(values))
    if sig.signaling:
        verdict, value = "signaling", max(sig.delta_q3, sig.delta_q4)
        witness = f"marginal delta {value!r} exceeds tol {sig.tol!r}"
    elif values[worst] <= CLASSICAL_BOUND + sig.tol:
        verdict, witness = "local", "all eight CHSH combinations within the classical bound"
    else:
        verdict, signs, value = "nonlocal-nosignaling", CHSH_SIGN_PATTERNS[worst], values[worst]
        witness = f"combination {signs} reaches {value!r}"
    return PolytopeReport(verdict, sig, values, signs, value, witness)
