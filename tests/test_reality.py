import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGNS, all_strategy_distributions, random_distribution, strategy_distribution
from invbell.errors import MissingSupport
from invbell.lhv import conditional_table, enumerate_strategies
from invbell.protocol import Distribution, OutcomeQuadruple
from invbell.reality import (
    CertaintyPrediction,
    ResponseFunction,
    certainty_predictions,
    hardy_chain_check,
    response_model_refutation,
)
from invbell.stats import conditional, prob

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def constant_register_distribution():
    """Uniform (q1, q2) with q3 and q4 pinned to +1."""
    return Distribution({OutcomeQuadruple(q1, q2, 1, 1): 0.25 for q1 in SIGNS for q2 in SIGNS})


def identity_register_distribution():
    """q3 tracks q1 and q4 tracks q2 exactly, uniform over (q1, q2)."""
    return Distribution({OutcomeQuadruple(q1, q2, q1, q2): 0.25 for q1 in SIGNS for q2 in SIGNS})


# -------------------------------------------------------- certainty_predictions


def test_predictions_include_the_two_register_certainties(default_distribution):
    found = {
        (tuple(sorted(p.given.constraints.items())), p.predicted_variable, p.predicted_value)
        for p in certainty_predictions(default_distribution, 1e-9)
    }
    assert ((("q1", 1), ("q2", -1), ("q3", 1)), "q4", -1) in found
    assert ((("q1", -1), ("q2", 1), ("q4", 1)), "q3", -1) in found


def test_predictions_empty_on_uniform():
    assert certainty_predictions(Distribution.uniform(), 1e-9) == []


def test_predictions_recheckable(default_distribution):
    for p in certainty_predictions(default_distribution, 1e-9):
        value = conditional(default_distribution, {p.predicted_variable: p.predicted_value}, p.given)
        assert value >= 1.0 - 1e-9
        assert value == pytest.approx(p.confidence, abs=1e-15)
        assert prob(default_distribution, p.given) > 0.0


def test_predictions_epsilon_validation(default_distribution):
    with pytest.raises(ValueError):
        certainty_predictions(default_distribution, 0.5)
    with pytest.raises(ValueError):
        certainty_predictions(default_distribution, -0.1)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_predictions_on_random_distributions_are_consistent(seed):
    rng = np.random.default_rng(seed)
    d = random_distribution(rng)
    epsilon = 0.05
    for p in certainty_predictions(d, epsilon):
        assert conditional(d, {p.predicted_variable: p.predicted_value}, p.given) >= 1.0 - epsilon


def test_certainty_at_epsilon_zero_keeps_the_exact_certainties():
    # Under a point mass every variable is certain given each of the 8 supported events of the other three.
    predictions = certainty_predictions(Distribution.point_mass((1, -1, 1, -1)), 0.0)
    assert len(predictions) == 32
    assert all(p.confidence == 1.0 for p in predictions)


# ------------------------------------------------------------ hardy_chain_check


def test_chain_on_default_distribution(default_distribution):
    report = hardy_chain_check(default_distribution, 1e-9)
    assert report.f0 == pytest.approx(0.5, abs=1e-12)
    assert report.f1 == pytest.approx(1.0, abs=1e-12)
    assert report.f2 == pytest.approx(1.0, abs=1e-12)
    assert report.f3 == pytest.approx(0.0, abs=1e-12)
    assert report.established == (True, True, True, True)
    assert report.contradiction
    # The label is a property, so vars(report), which the CLI's JSON spreads, keeps only measured fields.
    assert report.verdict == "CONTRADICTION" and "verdict" not in vars(report)


def test_chain_on_uniform_distribution():
    report = hardy_chain_check(Distribution.uniform(), 1e-9)
    assert report.f1 == pytest.approx(0.5, abs=1e-12)
    assert report.f2 == pytest.approx(0.5, abs=1e-12)
    assert not report.contradiction
    assert report.verdict == "CONSISTENT"


def test_chain_on_all_sixteen_strategies():
    for d in all_strategy_distributions():
        report = hardy_chain_check(d, 1e-9)
        assert not report.contradiction


def test_chain_on_constant_registers():
    report = hardy_chain_check(constant_register_distribution(), 1e-9)
    # F2's conditioning event is realizable, but q3=-1 never happens there
    assert report.established[2]
    assert report.f2 == 0.0
    assert not report.contradiction


def test_chain_unestablished_when_conditioning_vanishes():
    d = Distribution(
        {OutcomeQuadruple(q1, q2, 1, 1): 0.5 for q1, q2 in ((1, 1), (-1, -1))}
    )
    report = hardy_chain_check(d, 1e-9)
    assert not report.established[1]
    assert not report.established[2]
    assert not report.contradiction


def test_chain_epsilon_zero_agrees_with_tiny_epsilon(default_distribution):
    corpus = [default_distribution, Distribution.uniform(), constant_register_distribution()]
    corpus.extend(all_strategy_distributions())
    for d in corpus:
        strict = hardy_chain_check(d, 0.0)
        loose = hardy_chain_check(d, 1e-9)
        assert strict.contradiction == loose.contradiction
        assert strict.established == loose.established


def test_chain_needs_f0_strictly_above_epsilon():
    # F1 = F2 = 1 and F3 = 0 hold exactly, but the anchor event has weight F0 = 0.
    d = Distribution({(1, 1, -1, -1): 0.25, (1, -1, 1, -1): 0.25, (-1, 1, -1, 1): 0.25, (-1, -1, 1, 1): 0.25})
    report = hardy_chain_check(d, epsilon=0.0)
    assert report.values == (0.0, 1.0, 1.0, 0.0)
    assert report.established == (True, True, True, True)
    assert not report.contradiction


def test_chain_epsilon_validation(default_distribution):
    with pytest.raises(ValueError):
        hardy_chain_check(default_distribution, 0.5)


# ------------------------------------------------------ response_model_refutation


def brute_force_survivors(d):
    """Re-derive the survivor set straight from the probability table."""
    survivors = set()
    for f_plus, f_minus, g_plus, g_minus in itertools.product(SIGNS, repeat=4):
        alive = True
        for q1 in SIGNS:
            for q2 in SIGNS:
                q3 = f_plus if q1 == 1 else f_minus
                q4 = g_plus if q2 == 1 else g_minus
                if d.probs[OutcomeQuadruple(q1, q2, q3, q4)] == 0.0:
                    alive = False
        if alive:
            survivors.add(((f_plus, f_minus), (g_plus, g_minus)))
    return survivors


def test_refutation_on_default_distribution(default_distribution):
    survivors = {
        ((f.at_plus, f.at_minus), (g.at_plus, g.at_minus))
        for f, g in response_model_refutation(default_distribution)
    }
    assert survivors == brute_force_survivors(default_distribution)
    assert ((1, 1), (-1, -1)) in survivors  # f constant +1, g constant -1
    assert survivors  # support alone cannot refute every response pair


def test_refutation_missing_support():
    with pytest.raises(MissingSupport):
        response_model_refutation(Distribution.point_mass(OutcomeQuadruple(1, 1, 1, 1)))


def test_refutation_identity_registers():
    survivors = response_model_refutation(identity_register_distribution())
    assert len(survivors) == 1
    f, g = survivors[0]
    assert (f.at_plus, f.at_minus) == (1, -1)
    assert (g.at_plus, g.at_minus) == (1, -1)


def test_refutation_uniform_keeps_everything():
    assert len(response_model_refutation(Distribution.uniform())) == 16


def test_refutation_returns_the_strategies_own_halves():
    survivors = response_model_refutation(Distribution.uniform())
    strategies = [s for s, _ in enumerate_strategies()]
    assert len(survivors) == len(strategies)
    for (f, g), s in zip(survivors, strategies):
        assert f is s.f and g is s.g


# Cells that are not exact zeros but sit far below any real probability: the
# smallest subnormal, a tiny normal, and the size of build_final_density's roundoff.
TINY_CELLS = (0.0, 5e-324, 1e-300, 7e-34)


@st.composite
def support_tables(draw, blank_rows=st.just(frozenset())):
    """Distributions mixing exact zeros, tiny cells and real mass; `blank_rows` (q1, q2) rows are all zero.

    Rows are the (q1, q2) pairs in basis-index order: (+,+), (+,-), (-,+), (-,-).
    """
    blank = draw(blank_rows)
    cells = draw(st.lists(st.sampled_from(TINY_CELLS + (None,)), min_size=16, max_size=16))  # None: real mass
    for row in blank:
        cells[4 * row:4 * row + 4] = [0.0] * 4
    live = [i for i, c in enumerate(cells) if c is None]
    if not live:
        live = [draw(st.sampled_from([i for i in range(16) if i // 4 not in blank]))]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(live), max_size=len(live)))
    total = sum(weights)
    for i, w in zip(live, weights):
        cells[i] = w / total
    return Distribution.from_array(cells)


def reference_survivors(d):
    """Reference survivors: two product loops over stats.conditional, (q1, q2) support checked first."""
    for q1 in SIGNS:
        for q2 in SIGNS:
            if prob(d, {"q1": q1, "q2": q2}) <= 0.0:
                raise MissingSupport(f"(q1, q2)=({q1:+d}, {q2:+d}) has probability zero")
    survivors = []
    for f_plus, f_minus in itertools.product(SIGNS, repeat=2):
        f = ResponseFunction(f_plus, f_minus)
        for g_plus, g_minus in itertools.product(SIGNS, repeat=2):
            g = ResponseFunction(g_plus, g_minus)
            if all(
                conditional(d, {"q3": f(q1), "q4": g(q2)}, {"q1": q1, "q2": q2}) > 0.0
                for q1 in SIGNS
                for q2 in SIGNS
            ):
                survivors.append((f, g))
    return survivors


@given(support_tables())
@settings(max_examples=300, deadline=None)
def test_refutation_matches_the_product_loops(d):
    try:
        expected = reference_survivors(d)
    except MissingSupport as exc:
        with pytest.raises(MissingSupport) as raised:
            response_model_refutation(d)
        assert str(raised.value) == str(exc)
    else:
        assert response_model_refutation(d) == expected


@given(support_tables(st.sets(st.integers(0, 3), min_size=1, max_size=3).map(frozenset)))
@settings(max_examples=100, deadline=None)
def test_refutation_of_an_unsupported_row_raises_the_table_message(d):
    with pytest.raises(MissingSupport) as from_table:
        conditional_table(d)
    with pytest.raises(MissingSupport) as from_refutation:
        response_model_refutation(d)
    with pytest.raises(MissingSupport) as from_loops:
        reference_survivors(d)
    assert str(from_refutation.value) == str(from_table.value) == str(from_loops.value)


# --------------------------------------------------------------- ResponseFunction


def test_response_function_call():
    f = ResponseFunction(at_plus=1, at_minus=-1)
    assert f(1) == 1 and f(-1) == -1


@pytest.mark.parametrize("value", [5, 0, -2, 1.5, None])
def test_response_function_rejects_inputs_other_than_signs(value):
    f = ResponseFunction(1, -1)
    with pytest.raises(ValueError) as exc:
        f(value)
    assert str(exc.value) == f"outcome must be +1 or -1, got {value!r}"


def test_response_function_validation():
    with pytest.raises(ValueError):
        ResponseFunction(0, 1)


def test_response_function_is_its_two_values():
    # The role (which register answers which outcome) is fixed by DeterministicStrategy.f/.g.
    assert [f.name for f in dataclasses.fields(ResponseFunction)] == ["at_plus", "at_minus"]
    assert ResponseFunction(1, -1) == ResponseFunction(at_plus=1, at_minus=-1)
