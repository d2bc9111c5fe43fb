import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXPECTED_DEFAULT_DIAGONAL
from invbell import protocol
from invbell.errors import BadWeights
from invbell.lhv import check_tol
from invbell.protocol import (
    OUTCOMES,
    Distribution,
    OutcomeQuadruple,
    Scenario,
    as_real,
    bell_state,
    build_final_density,
    outcome_distribution,
)
from invbell.qcore import (
    StateVector,
    apply_unitary,
    basis_state,
    controlled_unitary,
    density_from_state,
    hadamard,
    kron,
    mix,
)
from invbell.reality import check_epsilon
from invbell.stats import ChshSettings

probs_01 = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def cross_sector_max(matrix):
    """Largest coherence between different (q3, q4) sectors."""
    worst = 0.0
    for i in range(16):
        for j in range(16):
            if (i & 0b0011) != (j & 0b0011):
                worst = max(worst, abs(matrix[i, j]))
    return worst


# ------------------------------------------------------------------ bell_state


def test_bell_state_amplitudes():
    amps = bell_state().amplitudes
    assert np.allclose(amps, [0.7071067811865476, 0.0, 0.0, -0.7071067811865476], atol=1e-15)


def test_bell_state_norm():
    assert np.linalg.norm(bell_state().amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_bell_state_is_read_only():
    # bell_state() is built once and shared, so no caller may write to it.
    amps = bell_state().amplitudes
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 1.0


def test_bell_state_correlations():
    # direct matrix expectations: <Z x Z> = +1, <X x X> = -1
    amps = bell_state().amplitudes
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    zz = float(np.real(amps.conj() @ np.kron(z, z) @ amps))
    xx = float(np.real(amps.conj() @ np.kron(x, x) @ amps))
    assert zz == pytest.approx(1.0, abs=1e-12)
    assert xx == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------------------------- encoding


def test_supported_is_exact_positivity():
    assert protocol.supported(1.0) and protocol.supported(5e-324)
    assert not protocol.supported(0.0) and not protocol.supported(-0.0) and not protocol.supported(-1e-300)


def test_outcome_encoding_convention():
    assert OUTCOMES[0] == OutcomeQuadruple(1, 1, 1, 1)
    assert OUTCOMES[15] == OutcomeQuadruple(-1, -1, -1, -1)
    assert OUTCOMES[0b0101] == OutcomeQuadruple(1, -1, 1, -1)


# ---------------------------------------------------------------- Distribution


def test_distribution_fills_missing_outcomes():
    d = Distribution({OutcomeQuadruple(1, 1, 1, 1): 1.0})
    assert d.probs[OutcomeQuadruple(-1, -1, -1, -1)] == 0.0
    assert len(d.probs) == 16


def test_distribution_table_is_read_only():
    # A checked table cannot be changed into one that no longer sums to 1.
    d = Distribution.uniform()
    with pytest.raises(TypeError):
        d.probs[OUTCOMES[0]] = 5.0
    assert d.probs[OUTCOMES[0]] == 1.0 / 16.0


def test_distribution_rejects_negative():
    with pytest.raises(ValueError):
        Distribution({OutcomeQuadruple(1, 1, 1, 1): 1.5, OutcomeQuadruple(1, 1, 1, -1): -0.5})


def test_distribution_rejects_bad_total():
    with pytest.raises(ValueError):
        Distribution({OutcomeQuadruple(1, 1, 1, 1): 0.5})


def test_distribution_sum_tolerance_is_atol():
    # The probabilities may miss 1 by roundoff (5e-13 < ATOL = 1e-12), not by 1e-9.
    Distribution.from_array([1.0 + 5e-13] + [0.0] * 15)
    with pytest.raises(ValueError, match="probabilities sum to"):
        Distribution.from_array([1.0 + 1e-9] + [0.0] * 15)


def test_distribution_rejects_bad_values():
    with pytest.raises(ValueError):
        Distribution({(1, 1, 1, 0): 1.0})


def test_distribution_accepts_plain_tuple_keys_and_numeric_values():
    d = Distribution({(1, 1, 1, 1): True, (1, 1, 1, -1): 0})
    assert d.probs[OutcomeQuadruple(1, 1, 1, 1)] == 1.0
    assert all(type(o) is OutcomeQuadruple for o in d.probs)
    assert list(d.probs) == list(OUTCOMES)
    assert Distribution({(-1, -1, -1, -1): 1.0}).probs[OUTCOMES[15]] == 1.0


def test_distribution_rejects_wrong_length_key():
    with pytest.raises(TypeError):
        Distribution({(1, 1, 1): 1.0})


def test_distribution_bad_key_message():
    with pytest.raises(ValueError, match=r"^outcome OutcomeQuadruple\(q1=1, q2=2, q3=1, q4=1\) has values outside \{\+1, -1\}$"):
        Distribution({(1, 2, 1, 1): 1.0})


class One:
    """Equal to 1 but hashed differently, so it is not the outcome value 1 as a table key."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return 7

    def __repr__(self):
        return "One()"


def test_distribution_rejects_a_key_that_only_compares_equal_to_an_outcome():
    # Stored as a 17th cell, this key would pass the sum check while as_array() summed to 0.
    with pytest.raises(ValueError, match=r"^outcome OutcomeQuadruple\(q1=One\(\), q2=1, q3=1, q4=1\) has values outside"):
        Distribution({(One(), 1, 1, 1): 1.0})


@given(st.dictionaries(
    st.tuples(*[st.sampled_from([1, -1, 1.0, -1.0, True, np.int64(-1)])] * 4),
    st.floats(0.01, 1.0),
    min_size=1,
    max_size=16,
))
def test_every_distribution_has_exactly_the_16_outcome_keys(probs):
    total = math.fsum(probs.values())
    d = Distribution({key: value / total for key, value in probs.items()})
    assert list(d.probs) == list(OUTCOMES)
    assert all(type(o) is OutcomeQuadruple for o in d.probs)


def test_distribution_bad_value_message():
    with pytest.raises(ValueError, match=r"^probability of OutcomeQuadruple\(q1=1, q2=1, q3=1, q4=1\) is nan$"):
        Distribution({(1, 1, 1, 1): float("nan")})


def test_distribution_array_round_trip():
    d = Distribution.uniform()
    assert np.array_equal(Distribution.from_array(d.as_array()).as_array(), d.as_array())


def test_point_mass():
    d = Distribution.point_mass(OutcomeQuadruple(1, -1, 1, -1))
    assert d.probs[OutcomeQuadruple(1, -1, 1, -1)] == 1.0
    assert sum(d.probs.values()) == 1.0


# -------------------------------------------------------------------- Scenario


def test_scenario_defaults():
    s = Scenario()
    assert s.alice_mode == "coherent" and s.bob_mode == "coherent"
    assert s.choice_prob == 0.5


def test_scenario_rejects_bad_mode():
    with pytest.raises(ValueError):
        Scenario(alice_mode="quantum")


def test_scenario_rejects_bad_prob():
    with pytest.raises(ValueError):
        Scenario(choice_prob=1.5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alice_mode": "quantum"}, "alice_mode must be one of ('coherent', 'coin'), got 'quantum'"),
        ({"bob_mode": "Coin"}, "bob_mode must be one of ('coherent', 'coin'), got 'Coin'"),
        ({"choice_prob": 2}, "choice_prob must lie in [0, 1], got 2"),
        ({"choice_prob": float("nan")}, "choice_prob must lie in [0, 1], got nan"),
        ({"choice_prob": -0.25}, "choice_prob must lie in [0, 1], got -0.25"),
    ],
)
def test_scenario_error_messages(kwargs, message):
    with pytest.raises(ValueError) as exc:
        Scenario(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [0.25, 1, True, np.float32(0.25), np.float64(0.25), np.int64(1), Fraction(1, 4)])
def test_as_real_takes_every_real_number(value):
    assert type(as_real(value, "x")) is float
    assert as_real(value, "x") == float(value)


@pytest.mark.parametrize("value", ["0.3", b"0.3", None, 1j, [0.3]], ids=["str", "bytes", "None", "complex", "list"])
def test_as_real_rejects_everything_else(value):
    with pytest.raises(TypeError) as exc:
        as_real(value, "choice_prob")
    assert str(exc.value) == f"choice_prob must be a real number, got {type(value).__name__}"


@pytest.mark.parametrize(
    "check",
    [
        lambda: Scenario(choice_prob="0.3"),
        lambda: check_epsilon("0.1"),
        lambda: check_tol("1e-3"),
        lambda: ChshSettings("0", "1", "2", "3"),
    ],
    ids=["choice_prob", "epsilon", "tol", "angles"],
)
def test_scalar_checks_reject_text(check):
    with pytest.raises(TypeError):
        check()


def test_scalar_checks_take_numbers_of_any_real_type():
    assert Scenario(choice_prob=Fraction(3, 10)).choice_prob == 0.3
    assert check_epsilon(np.float32(0.25)) == 0.25
    assert check_tol(True) == 1.0
    assert vars(ChshSettings(0, np.int64(1), Fraction(1, 2), np.float64(0.25))) == {
        "a0": 0.0, "a1": 1.0, "b0": 0.5, "b1": 0.25
    }


# ----------------------------------------------------------- build_final_density


def test_default_diagonal_matches_expected_pattern(default_density):
    diag = np.diagonal(default_density.matrix).real
    assert np.abs(diag - EXPECTED_DEFAULT_DIAGONAL).max() < 1e-12


def test_named_diagonal_entries(default_density):
    diag = np.diagonal(default_density.matrix).real
    assert diag[0b0000] == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert diag[0b0011] == pytest.approx(0.0, abs=1e-12)
    assert diag[0b0101] == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_trace_is_one(default_density):
    assert np.trace(default_density.matrix).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_coin_and_coherent_diagonals_agree(p):
    coherent = build_final_density(Scenario(choice_prob=p))
    coin = build_final_density(Scenario(alice_mode="coin", bob_mode="coin", choice_prob=p))
    assert np.abs(np.diagonal(coherent.matrix) - np.diagonal(coin.matrix)).max() < 1e-12


@given(probs_01)
@settings(max_examples=40, deadline=None)
def test_mode_equivalence_for_any_choice_prob(p):
    coherent = build_final_density(Scenario(choice_prob=p))
    coin = build_final_density(Scenario(alice_mode="coin", bob_mode="coin", choice_prob=p))
    mixed = build_final_density(Scenario(alice_mode="coherent", bob_mode="coin", choice_prob=p))
    reference = np.diagonal(coherent.matrix)
    assert np.abs(reference - np.diagonal(coin.matrix)).max() < 1e-12
    assert np.abs(reference - np.diagonal(mixed.matrix)).max() < 1e-12


def test_coin_mode_has_no_cross_sector_coherence():
    rho = build_final_density(Scenario(alice_mode="coin", bob_mode="coin"))
    assert cross_sector_max(rho.matrix) == 0.0


def test_coherent_mode_has_cross_sector_coherence(default_density):
    assert cross_sector_max(default_density.matrix) > 0.0


def test_pair_marginal_is_uniform(default_distribution):
    for q1 in (1, -1):
        for q2 in (1, -1):
            block = sum(p for o, p in default_distribution.probs.items() if (o.q1, o.q2) == (q1, q2))
            assert block == pytest.approx(0.25, abs=1e-12)


def test_choice_prob_one_supports_only_z_sectors():
    d = outcome_distribution(build_final_density(Scenario(choice_prob=1.0)))
    for outcome, p in d.probs.items():
        if outcome.q3 == -1 or outcome.q4 == -1:
            assert p == 0.0


def reference_final_density(s: Scenario):
    """The final state built step by step through the public, validating wrappers."""
    p = s.choice_prob

    def branches(mode):
        if mode == "coherent":
            return [(1.0, StateVector(np.array([math.sqrt(p), math.sqrt(1.0 - p)])))]
        faces = [(p, basis_state(1, 0)), (1.0 - p, basis_state(1, 1))]
        return [(w, reg) for w, reg in faces if w > 0.0]

    ch = controlled_unitary(hadamard(), control=0, target=1, n=2)
    components = []
    for w_a, reg3 in branches(s.alice_mode):
        for w_b, reg4 in branches(s.bob_mode):
            state = kron(kron(bell_state(), reg3), reg4)
            state = apply_unitary(state, ch, [2, 0])
            state = apply_unitary(state, ch, [3, 1])
            components.append((w_a * w_b, density_from_state(state)))
    return mix(components)


MODE_PAIRS = [(a, b) for a in ("coherent", "coin") for b in ("coherent", "coin")]

# The closed form and the gate route round differently; each entry is a few products
# of rounded factors of at most 1/2, so they agree within a few units of 2^-53.
WRAPPER_TOL = 1e-15


# The name is kept for stable test ids; the closed form agrees within WRAPPER_TOL.
@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", [0.0, 1.0, 0.5])
def test_build_matches_wrapper_reference_bit_for_bit(modes, p):
    s = Scenario(*modes, choice_prob=p)
    assert np.abs(build_final_density(s).matrix - reference_final_density(s).matrix).max() <= WRAPPER_TOL


@given(st.sampled_from(MODE_PAIRS), probs_01)
@settings(max_examples=80, deadline=None)
def test_build_matches_wrapper_reference_for_any_choice_prob(modes, p):
    s = Scenario(*modes, choice_prob=p)
    assert np.abs(build_final_density(s).matrix - reference_final_density(s).matrix).max() <= WRAPPER_TOL


def test_build_rejects_unnormalized_branch(monkeypatch):
    monkeypatch.setattr(protocol, "_AMPLITUDE_SCALE", protocol._AMPLITUDE_SCALE * (1.0 + 1e-10))
    with pytest.raises(ValueError, match="state vector norm"):
        build_final_density(Scenario())


def test_build_rejects_weights_not_summing_to_one():
    # A choice probability in float32 has its complement rounded in float32 too.
    # The same error mix() raises for these weights.
    s = types.SimpleNamespace(alice_mode="coherent", bob_mode="coherent", choice_prob=np.float32(0.1))
    with pytest.raises(BadWeights, match="sum to"):
        build_final_density(s)


# --------------------------------------------------------- outcome_distribution


def test_outcome_distribution_point_mass():
    d = outcome_distribution(density_from_state(basis_state(4, 0)))
    assert d.probs[OutcomeQuadruple(1, 1, 1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_sums_to_one(default_distribution):
    assert sum(default_distribution.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_needs_four_qubits():
    from invbell.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        outcome_distribution(density_from_state(basis_state(2, 0)))
