"""Exact-rational oracles for the diagonal, the chain and the conditional table.

Every probability of the experiment is rational in p.  With register bits
a (Q3) and b (Q4), 0 for Z and 1 for X, the amplitude of outcome bits
(b1, b2) is sqrt(w_a w_b) [(H^a (x) H^b) |Phi->]_{b1 b2} with w_0 = p and
w_1 = 1 - p.  Every entry of H and of |Phi-> is +-1/sqrt(2) or 0, so that
amplitude is an integer c over sqrt(2)^(1 + a + b), and the outcome has
probability w_a w_b c^2 / 2^(1 + a + b) exactly.  The oracle computes it with
`fractions.Fraction` and integers only; nothing here calls invbell's
arithmetic.  Outcome +1 is bit 0 and -1 is bit 1, and the basis index reads
Q1 Q2 Q3 Q4 from the most significant bit.

The program works in float64.  Its diagonal is exact: each entry is the
rational above for the float weights (p, 1.0 - p), correctly rounded, so an
outcome the gates cannot produce has probability 0.0.  Sums and conditionals
of it are off by a few units in the last place of 1 (2.2e-16 each); a
conditional divides by a row probability of at least 3/20 here.  TOL = 1e-14
leaves room for about 45 such units after that division.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from invbell.lhv import conditional_table
from invbell.protocol import OUTCOMES, Scenario, build_final_density, outcome_distribution
from invbell.reality import hardy_chain_check, response_model_refutation

TOL = 1e-14

_H = ((1, 1), (1, -1))  # sqrt(2) H
_PHI_MINUS = ((1, 0), (0, -1))  # sqrt(2) |Phi->, indexed [b1][b2]


def _sign(bit: int) -> int:
    return 1 - 2 * bit


def _pair_amplitudes(a: int, b: int) -> list[list[int]]:
    """Integer amplitudes sqrt(2)^(1 + a + b) [(H^a (x) H^b)|Phi->], indexed [b1][b2]."""
    amps = [list(row) for row in _PHI_MINUS]
    if a:
        amps = [[sum(_H[i][k] * amps[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    if b:
        amps = [[sum(amps[i][k] * _H[j][k] for k in range(2)) for j in range(2)] for i in range(2)]
    return amps


def exact_distribution(p: Fraction) -> dict[tuple[int, int, int, int], Fraction]:
    """P(q1, q2, q3, q4) as exact fractions, keyed by +-1 values."""
    return weighted_distribution((p, 1 - p))


def weighted_distribution(weight: tuple[Fraction, Fraction]) -> dict[tuple[int, int, int, int], Fraction]:
    """P(q1, q2, q3, q4) for register weights w_0 (Z) and w_1 (X), which need not sum to one."""
    dist = {}
    for a, b in product((0, 1), repeat=2):
        amps = _pair_amplitudes(a, b)
        for b1, b2 in product((0, 1), repeat=2):
            key = (_sign(b1), _sign(b2), _sign(a), _sign(b))
            dist[key] = weight[a] * weight[b] * Fraction(amps[b1][b2] ** 2, 2 ** (1 + a + b))
    return dist


def exact_prob(dist, **fixed: int) -> Fraction:
    names = ("q1", "q2", "q3", "q4")
    return sum(
        (w for key, w in dist.items() if all(key[names.index(v)] == s for v, s in fixed.items())),
        Fraction(0),
    )


def exact_chain(dist) -> tuple[Fraction, ...]:
    """F0..F3 in the order of reality.HARDY_FACTS, written out here."""
    return (
        exact_prob(dist, q1=1, q2=1, q3=1, q4=1) / exact_prob(dist, q1=1, q2=1),
        exact_prob(dist, q1=1, q2=-1, q3=1, q4=-1) / exact_prob(dist, q1=1, q2=-1, q3=1),
        exact_prob(dist, q1=-1, q2=1, q3=-1, q4=1) / exact_prob(dist, q1=-1, q2=1, q4=1),
        exact_prob(dist, q1=-1, q2=-1, q3=-1, q4=-1) / exact_prob(dist, q1=-1, q2=-1),
    )


def _program_distribution(p: Fraction, mode: str = "coherent"):
    return outcome_distribution(build_final_density(Scenario(mode, mode, float(p))))


@pytest.mark.parametrize("mode", ["coherent", "coin"])
def test_default_diagonal_matches_exact_rationals(mode):
    dist = exact_distribution(Fraction(1, 2))
    expected = [Fraction(0)] * 16
    for (q1, q2, q3, q4), w in dist.items():
        bits = [(1 - s) // 2 for s in (q1, q2, q3, q4)]
        expected[8 * bits[0] + 4 * bits[1] + 2 * bits[2] + bits[3]] = w
    # The default diagonal holds only the values 1/8, 1/16 and 0.
    assert sorted(set(expected)) == [0, Fraction(1, 16), Fraction(1, 8)]
    scenario = Scenario() if mode == "coherent" else Scenario(mode, mode)
    diagonal = build_final_density(scenario).matrix.diagonal()
    assert max(abs(complex(x) - float(w)) for x, w in zip(diagonal, expected)) < TOL


def test_chain_values_are_half_one_one_zero():
    chain = exact_chain(exact_distribution(Fraction(1, 2)))
    assert chain == (Fraction(1, 2), 1, 1, 0)
    report = hardy_chain_check(_program_distribution(Fraction(1, 2)))
    assert report.contradiction and all(report.established)
    assert max(abs(got - float(want)) for got, want in zip(report.values, chain)) < TOL


@pytest.mark.parametrize("p", [Fraction(3, 10), Fraction(1, 7), Fraction(9, 10)])
def test_chain_values_at_rational_p(p):
    chain = exact_chain(exact_distribution(p))
    assert chain == (p, 1, 1, 0)
    report = hardy_chain_check(_program_distribution(p))
    assert max(abs(got - float(want)) for got, want in zip(report.values, chain)) < TOL


def test_conditional_table_at_three_tenths():
    p = Fraction(3, 10)
    dist = exact_distribution(p)
    # Closed form: equal-outcome rows (p, (1-p)/2, (1-p)/2, 0) and unequal rows
    # (0, p/2, p/2, 1-p) over (q3, q4) = (+,+), (+,-), (-,+), (-,-).
    equal_row = (Fraction(3, 10), Fraction(7, 20), Fraction(7, 20), Fraction(0))
    unequal_row = (Fraction(0), Fraction(3, 20), Fraction(3, 20), Fraction(7, 10))
    outputs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    table = conditional_table(_program_distribution(p))
    for q1, q2 in product((1, -1), repeat=2):
        row_prob = exact_prob(dist, q1=q1, q2=q2)
        exact_row = tuple(dist[(q1, q2, q3, q4)] / row_prob for q3, q4 in outputs)
        assert exact_row == (equal_row if q1 == q2 else unequal_row)
        for (q3, q4), want in zip(outputs, exact_row):
            assert abs(table.entry(q1, q2, q3, q4) - float(want)) < TOL


# ------------------------------------------------------------ exact diagonal

MODE_PAIRS = [(a, b) for a in ("coherent", "coin") for b in ("coherent", "coin")]
# The endpoints, the paper's 1/2, choice probabilities the golden files use, the
# smallest subnormal and the largest double below 1, then seeded draws.
EXACT_CORPUS = [0.0, 1.0, 0.5, 0.3, 0.242, 0.094, 5e-324, 1 - 2**-53, *np.random.default_rng(19).uniform(size=12)]
# Interior choice probabilities whose every nonzero rational is above the subnormal range.
INTERIOR = [p for p in EXACT_CORPUS if 1e-300 < p < 1.0]


def rounded_diagonal(p: float) -> list[float]:
    """float(Fraction(w_a) * Fraction(w_b) * n^2 / 2^k) for the float weights (p, 1.0 - p), in basis order."""
    dist = weighted_distribution((Fraction(p), Fraction(1.0 - p)))
    return [float(dist[outcome]) for outcome in OUTCOMES]


@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", EXACT_CORPUS)
def test_diagonal_is_the_correctly_rounded_rational(modes, p):
    diagonal = build_final_density(Scenario(*modes, p)).matrix.diagonal()
    assert diagonal.real.tolist() == rounded_diagonal(p)
    assert not diagonal.imag.any()


@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", EXACT_CORPUS)
def test_impossible_outcomes_have_exactly_zero_rows_and_columns(modes, p):
    rho = build_final_density(Scenario(*modes, p)).matrix
    dist = exact_distribution(Fraction(p))
    zeros = [i for i, outcome in enumerate(OUTCOMES) if dist[outcome] == 0]
    assert len(zeros) >= 4  # the gates alone forbid four outcomes at every p
    for i in zeros:
        assert not rho[i].any() and not rho[:, i].any()


@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", EXACT_CORPUS)
def test_f3_is_exactly_zero(modes, p):
    assert hardy_chain_check(outcome_distribution(build_final_density(Scenario(*modes, p)))).f3 == 0.0


@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", INTERIOR)
def test_refutation_keeps_exactly_the_closed_form_survivors(modes, p):
    # A pair q3 = f(q1), q4 = g(q2) survives when every (q1, q2) can produce its prediction.
    dist = exact_distribution(Fraction(p))
    signs = (1, -1)
    expected = [
        ((f_plus, f_minus), (g_plus, g_minus))
        for f_plus, f_minus, g_plus, g_minus in product(signs, repeat=4)
        if all(
            dist[(q1, q2, f_plus if q1 == 1 else f_minus, g_plus if q2 == 1 else g_minus)] > 0
            for q1 in signs
            for q2 in signs
        )
    ]
    assert expected == [((1, 1), (-1, -1)), ((-1, -1), (1, 1))]
    survivors = response_model_refutation(outcome_distribution(build_final_density(Scenario(*modes, p))))
    assert [(tuple(f), tuple(g)) for f, g in survivors] == expected
