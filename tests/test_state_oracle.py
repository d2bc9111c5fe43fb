"""The final state against a closed form, and the Alice<->Bob relabelling.

The oracle builds rho with numpy alone, not through qcore or protocol.  With
register bits a (Q3) and b (Q4), 0 for Z and 1 for X, the coherent state is

    psi(q1, q2, a, b) = sqrt(w_a) sqrt(w_b) [(H^a (x) H^b) |Phi->]_{q1 q2},

where w_0 = p and w_1 = 1 - p.  A coin-driven register is the same state with
the coherences across that register's two values removed.
"""

import numpy as np
import pytest

from helpers import random_distribution
from invbell.lhv import conditional_table, no_signaling_check
from invbell.protocol import Distribution, Scenario, bell_state, build_final_density
from invbell.reality import hardy_chain_check
from invbell.stats import ChshSettings, chsh_value

MODE_PAIRS = [(a, b) for a in ("coherent", "coin") for b in ("coherent", "coin")]

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_PHI_MINUS = np.array([[1.0, 0.0], [0.0, -1.0]]) / np.sqrt(2.0)  # amplitude [q1, q2]

# Register bits (a, b) of each basis index, Q1 Q2 Q3 Q4 most significant first.
_A_BIT = (np.arange(16) >> 1) & 1
_B_BIT = np.arange(16) & 1

# Basis index after swapping Q1<->Q2 and Q3<->Q4.
_SWAP = np.array([((i >> 1) & 0b0101) | ((i << 1) & 0b1010) for i in range(16)])


def closed_form_density(alice_mode: str, bob_mode: str, p: float) -> np.ndarray:
    weights = np.sqrt([p, 1.0 - p])
    gates = (np.eye(2), _H)
    psi = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            psi[:, :, a, b] = weights[a] * weights[b] * (gates[a] @ _PHI_MINUS @ gates[b].T)
    psi = psi.reshape(16)
    rho = np.outer(psi, psi)
    if alice_mode == "coin":
        rho = rho * (_A_BIT[:, None] == _A_BIT[None, :])
    if bob_mode == "coin":
        rho = rho * (_B_BIT[:, None] == _B_BIT[None, :])
    return rho


def swap_parties(matrix: np.ndarray) -> np.ndarray:
    return matrix[np.ix_(_SWAP, _SWAP)]


@pytest.mark.parametrize("modes", MODE_PAIRS)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_build_matches_closed_form(modes, p):
    got = build_final_density(Scenario(*modes, p)).matrix
    assert np.abs(got - closed_form_density(*modes, p)).max() < 1e-12


def test_swap_is_an_involution_exchanging_the_parties():
    assert sorted(_SWAP) == list(range(16))
    assert (_SWAP[_SWAP] == np.arange(16)).all()
    assert _SWAP[0b1000] == 0b0100 and _SWAP[0b0010] == 0b0001


@pytest.mark.parametrize("mode", ["coherent", "coin"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_same_mode_state_is_invariant_under_party_swap(mode, p):
    rho = build_final_density(Scenario(mode, mode, p)).matrix
    assert np.abs(swap_parties(rho) - rho).max() < 1e-12


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_party_swap_exchanges_the_mixed_mode_pairs(p):
    coherent_coin = build_final_density(Scenario("coherent", "coin", p)).matrix
    coin_coherent = build_final_density(Scenario("coin", "coherent", p)).matrix
    assert np.abs(swap_parties(coherent_coin) - coin_coherent).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_party_swap_keeps_f0_f3_and_exchanges_f1_f2_and_the_deltas(seed):
    d = random_distribution(np.random.default_rng(seed))
    swapped = Distribution.from_array(d.as_array()[_SWAP])
    chain, chain_swapped = hardy_chain_check(d), hardy_chain_check(swapped)
    assert chain_swapped.values == pytest.approx((chain.f0, chain.f2, chain.f1, chain.f3), abs=1e-12)
    sig, sig_swapped = (no_signaling_check(conditional_table(x)) for x in (d, swapped))
    assert (sig_swapped.delta_q3, sig_swapped.delta_q4) == pytest.approx((sig.delta_q4, sig.delta_q3), abs=1e-12)



@pytest.mark.parametrize("seed", range(10))
def test_party_swap_keeps_chsh(seed):
    a0, a1, b0, b1 = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=4)
    swapped = chsh_value(bell_state(), ChshSettings(b0, b1, a0, a1))
    assert swapped == pytest.approx(chsh_value(bell_state(), ChshSettings(a0, a1, b0, b1)), abs=1e-12)
