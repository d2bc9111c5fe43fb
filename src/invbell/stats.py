"""Probability queries, CHSH correlators, and reproducible sampling.

Event queries operate on the 16-outcome tables from :mod:`invbell.protocol`.
Sampling uses splitmix64 in counter mode: draw ``i`` under master seed ``s``
consumes the ``i``-th output of the splitmix64 stream seeded with ``s``, so
any chunking of the draw range reproduces the same outcomes bit for bit on
every platform.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import DimensionMismatch, ZeroConditioning
from .protocol import OUTCOMES, SIGNS, Distribution, OutcomeQuadruple, as_real, supported

VARIABLES = OutcomeQuadruple._fields

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class EventPredicate:
    """Partial assignment of outcome variables; unconstrained fields are omitted."""

    constraints: Mapping[str, int]

    def __post_init__(self):
        clean: dict[str, int] = {}
        for var in VARIABLES:
            if var in self.constraints:
                value = self.constraints[var]
                if value not in SIGNS:
                    raise ValueError(f"constraint {var}={value!r} is not +1 or -1")
                clean[var] = int(value)
        unknown = set(self.constraints) - set(VARIABLES)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        object.__setattr__(self, "constraints", clean)

    @property
    def label(self) -> str:
        """The constraints as text such as "q1=+1,q2=-1", in q1..q4 order."""
        return ",".join(f"{k}={v:+d}" for k, v in self.constraints.items())

    def matches(self, outcome: OutcomeQuadruple) -> bool:
        return all(getattr(outcome, var) == value for var, value in self.constraints.items())

    def conjunction(self, other: "EventPredicate") -> Union["EventPredicate", None]:
        """Merged predicate, or None when the two conflict (empty event)."""
        merged = dict(self.constraints)
        for var, value in other.constraints.items():
            if merged.get(var, value) != value:
                return None
            merged[var] = value
        return EventPredicate(merged)


Eventish = Union[EventPredicate, Mapping[str, int]]


def as_predicate(e: Eventish) -> EventPredicate:
    return e if isinstance(e, EventPredicate) else EventPredicate(e)


def prob(d: Distribution, e: Eventish) -> float:
    """Probability of the event described by `e`."""
    pred = as_predicate(e)
    return math.fsum(p for outcome, p in d.probs.items() if pred.matches(outcome))


def conditional(d: Distribution, target: Eventish, given: Eventish) -> float:
    """P(target | given); raises ZeroConditioning when P(given) = 0."""
    given = as_predicate(given)
    denominator = prob(d, given)
    if not supported(denominator):
        raise ZeroConditioning(f"conditioning event {given.constraints} has probability zero")
    joint = as_predicate(target).conjunction(given)
    numerator = prob(d, joint) if joint is not None else 0.0
    return numerator / denominator


def marginal(d: Distribution, variables: Iterable[str]) -> dict[tuple[int, ...], float]:
    """Distribution of the named variables, keyed by value tuples in q1..q4 order."""
    requested = set(variables)
    unknown = requested - set(VARIABLES)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    names = [v for v in VARIABLES if v in requested]
    if not names:
        raise ValueError("marginal needs at least one variable")
    events = itertools.product(SIGNS, repeat=len(names))
    return {values: prob(d, dict(zip(names, values))) for values in events}


@dataclass(frozen=True)
class ChshSettings:
    """Four measurement angles; the observable at angle t is cos(t) Z + sin(t) X."""

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            value = as_real(getattr(self, name), f"angle {name}")
            if not math.isfinite(value):
                raise ValueError(f"angle {name}={getattr(self, name)!r} is not finite")
            object.__setattr__(self, name, value)


_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def observable(theta: float) -> np.ndarray:
    """cos(theta) Z + sin(theta) X, the +-1-valued observable in the Z-X plane."""
    return math.cos(theta) * _Z + math.sin(theta) * _X


def correlator(state, angle_a: float, angle_b: float) -> float:
    """<M(angle_a) x M(angle_b)> on a two-qubit pure state."""
    if state.n_qubits != 2:
        raise DimensionMismatch(f"need a 2-qubit state, got {state.n_qubits} qubits")
    op = np.kron(observable(angle_a), observable(angle_b))
    amps = state.amplitudes
    return float(np.real(amps.conj() @ op @ amps))


def chsh_combination(e00, e01, e10, e11):
    """The CHSH combination of four correlators, the last one subtracted."""
    return e00 + e01 + e10 - e11


def chsh_value(state, s: ChshSettings) -> float:
    """E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1) from exact expectations."""
    return chsh_combination(*(correlator(state, a, b) for a in (s.a0, s.a1) for b in (s.b0, s.b1)))


# splitmix64 constants (Steele, Lea, and Flood's mixer)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles for draw indices start..start+count-1."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def _bucket_counts(u: np.ndarray, cdf: np.ndarray) -> list[int]:
    """Per-outcome counts of the draws `u` under the 16-entry nondecreasing `cdf`.

    Draw u lands in bucket k when cdf[k-1] <= u < cdf[k], so the draws in
    buckets 0..k are exactly those with u < cdf[k]; bucket 15 also takes every
    u >= cdf[15].  This is searchsorted(cdf, u, side="right") clipped to 15,
    counted by 15 comparisons per draw instead of a binary search.
    """
    below = [0, *(np.count_nonzero(u < c) for c in cdf[:15].tolist()), u.size]
    return [hi - lo for lo, hi in zip(below, below[1:])]


@dataclass(frozen=True)
class SampleReport:
    """Outcome counts from `n` seeded draws plus their total-variation distance."""

    n: int
    seed: int
    counts: Mapping[OutcomeQuadruple, int]
    tv_distance: float

    def empirical(self) -> Distribution:
        return Distribution({o: c / self.n for o, c in self.counts.items()})


def sample(d: Distribution, n: int, seed: int, chunk_size: int = 1 << 16) -> SampleReport:
    """Draw `n` outcomes by inverse CDF over the fixed outcome ordering.

    Identical (d, n, seed) give identical counts on every platform, for any
    chunk_size; chunking only bounds peak memory.  A non-integer `n`, `seed` or
    `chunk_size` raises TypeError, as `range()` does.
    """
    n, seed, chunk_size = operator.index(n), operator.index(seed), operator.index(chunk_size)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    seed &= _U64_MASK
    probs = d.as_array()
    cdf = np.cumsum(probs)
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, n, chunk_size):
        counts += _bucket_counts(_uniform_block(seed, start, min(chunk_size, n - start)), cdf)
    tv = 0.5 * float(np.abs(counts / n - probs).sum())
    return SampleReport(
        n=n,
        seed=seed,
        counts=dict(zip(OUTCOMES, counts.tolist())),
        tv_distance=tv,
    )
