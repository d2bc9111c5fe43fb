"""Certainty predictions and the four-fact contradiction chain.

A variable admits an "element of reality" when some realizable conditioning
event pins its value down with probability one.  This module enumerates
such certainty predictions, runs the four-fact chain that tests whether
each choice register can be a function of its local outcome alone, and
offers a support-based diagnostic over deterministic response models.

The chain's four conditionals, in fixed order:

* F0 = P(q3=+1, q4=+1 | q1=+1, q2=+1), the anchor subensemble weight;
* F1 = P(q4=-1 | q1=+1, q3=+1, q2=-1);
* F2 = P(q3=-1 | q2=+1, q4=+1, q1=-1);
* F3 = P(q3=-1, q4=-1 | q1=-1, q2=-1).

A contradiction verdict needs F0 > eps (the anchor event is realizable),
F1 and F2 at least 1-eps (two certainty predictions), F3 at most eps (the
jointly implied event never happens), and all four conditioning events to
have positive probability.  A fact whose conditioning event has probability
zero is reported as not established and blocks the verdict; certainty
requires a realizable prediction, not a vacuous one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lhv import PAIR_ORDER, ResponseFunction, conditional_table, enumerate_strategies
from .protocol import SIGNS, Distribution, as_real, supported
from .stats import VARIABLES, EventPredicate, conditional, prob

DEFAULT_EPSILON = 1e-9

# (target, given) pairs of the chain, in F0..F3 order.
HARDY_FACTS: tuple[tuple[dict[str, int], dict[str, int]], ...] = (
    ({"q3": 1, "q4": 1}, {"q1": 1, "q2": 1}),
    ({"q4": -1}, {"q1": 1, "q2": -1, "q3": 1}),
    ({"q3": -1}, {"q1": -1, "q2": 1, "q4": 1}),
    ({"q3": -1, "q4": -1}, {"q1": -1, "q2": -1}),
)


def check_epsilon(epsilon: float) -> float:
    """`epsilon` as a float; the certainty tolerance must lie in [0, 0.5)."""
    epsilon = as_real(epsilon, "epsilon")
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5), got {epsilon!r}")
    return epsilon


@dataclass(frozen=True)
class CertaintyPrediction:
    """One near-certain conditional: given the event, the variable takes the value."""

    given: EventPredicate
    predicted_variable: str
    predicted_value: int
    confidence: float


@dataclass(frozen=True)
class HardyReport:
    """The four chain facts, their establishment flags, and the verdict."""

    f0: float
    f1: float
    f2: float
    f3: float
    established: tuple[bool, bool, bool, bool]
    contradiction: bool
    epsilon: float

    @property
    def values(self) -> tuple[float, float, float, float]:
        return (self.f0, self.f1, self.f2, self.f3)

    @property
    def verdict(self) -> str:
        return "CONTRADICTION" if self.contradiction else "CONSISTENT"


def certainty_predictions(d: Distribution, epsilon: float = DEFAULT_EPSILON) -> list[CertaintyPrediction]:
    """Every (given, variable, value) with P(given) > 0 and P(value | given) >= 1-eps.

    The conditioning events range over all partial assignments of the other
    three variables, the empty assignment included.
    """
    epsilon = check_epsilon(epsilon)
    predictions = []
    for variable in VARIABLES:
        others = [v for v in VARIABLES if v != variable]
        for assignment in itertools.product((None, *SIGNS), repeat=3):
            given = EventPredicate({v: a for v, a in zip(others, assignment) if a is not None})
            if not supported(prob(d, given)):
                continue
            for value in SIGNS:
                confidence = conditional(d, {variable: value}, given)
                if confidence >= 1.0 - epsilon:
                    predictions.append(
                        CertaintyPrediction(given, variable, value, confidence)
                    )
    return predictions


def hardy_chain_check(d: Distribution, epsilon: float = DEFAULT_EPSILON) -> HardyReport:
    """Evaluate the four chain facts on `d` and render the verdict.

    Never raises on degenerate support: a fact whose conditioning event has
    probability zero is reported with value 0.0 and established=False.
    """
    epsilon = check_epsilon(epsilon)
    values: list[float] = []
    established: list[bool] = []
    for target, given in HARDY_FACTS:
        if supported(prob(d, given)):
            values.append(conditional(d, target, given))
            established.append(True)
        else:
            values.append(0.0)
            established.append(False)
    contradiction = (
        all(established)
        and values[0] > epsilon
        and values[1] >= 1.0 - epsilon
        and values[2] >= 1.0 - epsilon
        and values[3] <= epsilon
    )
    return HardyReport(
        f0=values[0],
        f1=values[1],
        f2=values[2],
        f3=values[3],
        established=tuple(established),
        contradiction=contradiction,
        epsilon=epsilon,
    )


def response_model_refutation(d: Distribution) -> list[tuple[ResponseFunction, ResponseFunction]]:
    """Deterministic response pairs (q3 = f(q1), q4 = g(q2)) not refuted by support.

    A pair is refuted when some (q1, q2) combination with positive
    probability never produces the pair's predicted register values.  This
    is weaker than the certainty chain: surviving pairs only show that
    support alone cannot rule the model out.  The pairs are the (f, g)
    halves of lhv.enumerate_strategies, in its order; lhv.conditional_table
    raises MissingSupport when a (q1, q2) pair has probability zero.
    """
    table = conditional_table(d)
    return [
        (s.f, s.g) for s, _ in enumerate_strategies()
        if all(supported(table.entry(q1, q2, s.f(q1), s.g(q2))) for q1, q2 in PAIR_ORDER)
    ]
