import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density, random_state, random_unitary
from invbell.errors import BadWeights, DimensionMismatch, EmptyKeep, IndexClash
from invbell.qcore import (
    DensityMatrix,
    _apply_kernel,
    _check_weights,
    StateVector,
    UnitaryMatrix,
    apply_unitary,
    basis_state,
    controlled_unitary,
    density_from_state,
    dephase,
    hadamard,
    identity,
    kron,
    measurement_probs,
    mix,
    partial_trace,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def pair_state():
    """(|00> - |11>)/sqrt(2), assembled by hand for oracle use."""
    return StateVector(np.array([INV_SQRT2, 0.0, 0.0, -INV_SQRT2]))


# ---------------------------------------------------------------- constructors


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0]))


def test_state_vector_rejects_bad_length():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(np.concatenate([[1.0], np.zeros(31)]))


def test_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / 2.0)


def test_density_rejects_nonhermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_negativity_slack_is_neg_tol():
    # NEG_TOL = 1e-10: an eigenvalue of -5e-11 is roundoff; -2e-10 and -1e-6 are not.
    DensityMatrix(np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]))
    for eig in (-2e-10, -1e-6):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([0.5 - eig, 0.5, eig, 0.0]))


def test_density_hermiticity_tolerance_is_atol():
    DensityMatrix(np.array([[0.5, 5e-13], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 1e-9], [0.0, 0.5]]))


def test_values_are_read_only():
    s = basis_state(1, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# ------------------------------------------------------------------------ kron


def test_kron_identity_case():
    result = kron(identity(1), identity(1))
    assert np.array_equal(result.matrix, np.eye(4))


def test_kron_basis_case():
    result = kron(basis_state(1, 0), basis_state(1, 0))
    assert np.array_equal(result.amplitudes, np.array([1, 0, 0, 0], dtype=complex))


def test_kron_hadamard_identity_on_00():
    # hand expansion of the 2x2 blocks: (|00> + |10>)/sqrt(2)
    op = kron(hadamard(), identity(1))
    out = apply_unitary(basis_state(2, 0), op, [0, 1])
    expected = np.array([INV_SQRT2, 0.0, INV_SQRT2, 0.0])
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_kron_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        kron(basis_state(1, 0), identity(1))


# -------------------------------------------------------------------- hadamard


def test_hadamard_on_zero():
    out = apply_unitary(basis_state(1, 0), hadamard(), [0])
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_hadamard_involution():
    h = hadamard().matrix
    assert np.abs(h @ h - np.eye(2)).max() < 1e-12


def test_hadamard_corner_entry():
    # unitarity forces the 1/sqrt(2) prefactor
    assert hadamard().matrix[1, 1] == pytest.approx(-0.7071067811865476, abs=1e-15)


# ---------------------------------------------------------- controlled_unitary


def test_controlled_identity_is_identity():
    cu = controlled_unitary(identity(1), control=0, target=1, n=2)
    assert np.array_equal(cu.matrix, np.eye(4))


def test_controlled_hadamard_fires_on_one():
    cu = controlled_unitary(hadamard(), control=0, target=1, n=2)
    out = apply_unitary(basis_state(2, 0b10), cu, [0, 1])
    assert np.allclose(out.amplitudes, [0.0, 0.0, INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_controlled_hadamard_idles_on_zero():
    cu = controlled_unitary(hadamard(), control=0, target=1, n=2)
    out = apply_unitary(basis_state(2, 0b00), cu, [0, 1])
    assert np.allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_controlled_unitary_index_clash():
    with pytest.raises(IndexClash):
        controlled_unitary(hadamard(), control=1, target=1, n=3)


@given(seeds)
def test_controlled_of_random_unitary_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 1)
    cu = controlled_unitary(u, control=2, target=0, n=3)
    defect = np.abs(cu.matrix @ cu.matrix.conj().T - np.eye(8)).max()
    assert defect < 1e-12


# ----------------------------------------------------------------- apply_unitary


def test_apply_identity_is_noop():
    s = pair_state()
    out = apply_unitary(s, identity(2), [0, 1])
    assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_apply_hh_to_pair_state():
    # hand expansion: (|01> + |10>)/sqrt(2)
    out = apply_unitary(pair_state(), kron(hadamard(), hadamard()), [0, 1])
    assert np.allclose(out.amplitudes, [0.0, INV_SQRT2, INV_SQRT2, 0.0], atol=1e-12)


def test_apply_respects_target_order():
    # H on qubit 1 of |00> populates index 1, not index 2
    out = apply_unitary(basis_state(2, 0), hadamard(), [1])
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2, 0.0, 0.0], atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_unitary(basis_state(2, 0), hadamard(), [0, 1])


def test_apply_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2, 0), kron(hadamard(), hadamard()), [0, 0])


@given(seeds, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=200, deadline=None)
def test_apply_kernel_matches_tensordot_bit_for_bit(seed, n, data):
    # The kernel has no checks, so any complex operator and vector will do.
    k = data.draw(st.integers(min_value=1, max_value=n))
    targets = data.draw(st.permutations(range(n)))[:k]
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    psi = np.tensordot(op.reshape((2,) * (2 * k)), amps.reshape((2,) * n), axes=(list(range(k, 2 * k)), targets))
    expected = np.moveaxis(psi, list(range(k)), targets).reshape(-1)
    assert _apply_kernel(amps, op, targets).tobytes() == expected.tobytes()


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_apply_unitary_preserves_norm(seed, n):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n)
    k = int(rng.integers(1, n + 1))
    targets = list(rng.choice(n, size=k, replace=False))
    out = apply_unitary(s, random_unitary(rng, k), [int(t) for t in targets])
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


# ------------------------------------------------------------ density_from_state


def test_density_of_basis_state():
    rho = density_from_state(basis_state(1, 0))
    assert np.array_equal(rho.matrix, [[1, 0], [0, 0]])


def test_density_of_plus_state():
    plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
    assert np.allclose(density_from_state(plus).matrix, np.full((2, 2), 0.5), atol=1e-12)


@given(seeds, st.integers(min_value=1, max_value=4))
def test_density_from_state_is_pure(seed, n):
    rng = np.random.default_rng(seed)
    rho = density_from_state(random_state(rng, n)).matrix
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------------- mix


def test_mix_single_component_is_unchanged():
    rho = density_from_state(basis_state(2, 3))
    out = mix([(1.0, rho)])
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_mix_computational_states_gives_maximally_mixed():
    out = mix([(0.5, density_from_state(basis_state(1, 0))), (0.5, density_from_state(basis_state(1, 1)))])
    assert np.array_equal(out.matrix, np.eye(2) / 2.0)


def test_mix_rejects_bad_weights():
    rho = density_from_state(basis_state(1, 0))
    with pytest.raises(BadWeights):
        mix([])
    with pytest.raises(BadWeights):
        mix([(0.7, rho), (0.7, rho)])
    with pytest.raises(BadWeights):
        mix([(-0.5, rho), (1.5, rho)])


@pytest.mark.parametrize(
    "weights", [[float("nan")], [0.5, float("nan")], [float("nan"), 1.0], [float("inf"), -float("inf")]]
)
def test_check_weights_rejects_non_finite(weights):
    with pytest.raises(BadWeights, match="non-finite"):
        _check_weights(weights)


def test_mix_rejects_nan_weight():
    rho = density_from_state(basis_state(1, 0))
    with pytest.raises(BadWeights, match="non-finite"):
        mix([(0.5, rho), (float("nan"), rho)])


def test_mix_rejects_unequal_dims():
    with pytest.raises(DimensionMismatch):
        mix([(0.5, density_from_state(basis_state(1, 0))), (0.5, density_from_state(basis_state(2, 0)))])


@given(seeds, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_mix_of_random_components_is_valid(seed, k):
    rng = np.random.default_rng(seed)
    weights = rng.random(k) + 1e-9
    weights /= weights.sum()
    out = mix([(float(w), random_density(rng, 2)) for w in weights])
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- partial_trace


def test_partial_trace_keep_everything():
    rho = density_from_state(pair_state())
    out = partial_trace(rho, [0, 1])
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_partial_trace_of_pair_state_is_maximally_mixed():
    rho = density_from_state(pair_state())
    out = partial_trace(rho, [0])
    assert np.allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_empty_keep():
    with pytest.raises(EmptyKeep):
        partial_trace(density_from_state(pair_state()), [])


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_partial_trace_recovers_product_factors(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, 1)
    b = random_density(rng, 2)
    joint = kron(a, b)
    assert np.abs(partial_trace(joint, [0]).matrix - a.matrix).max() < 1e-12
    assert np.abs(partial_trace(joint, [1, 2]).matrix - b.matrix).max() < 1e-12


@given(seeds, st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_partial_trace_preserves_trace(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    out = partial_trace(rho, [0])
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------- dephase


def test_dephase_leaves_diagonal_input_alone():
    rho = DensityMatrix(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    assert np.array_equal(dephase(rho, [0, 1]).matrix, rho.matrix)


def test_dephase_all_qubits_of_plus_state():
    plus = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
    out = dephase(density_from_state(plus), [0])
    assert np.allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dephase_preserves_diagonal_and_is_idempotent(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    qubits = [q for q in range(n) if rng.random() < 0.6]
    once = dephase(rho, qubits)
    assert np.array_equal(np.diagonal(once.matrix), np.diagonal(rho.matrix))
    twice = dephase(once, qubits)
    assert np.array_equal(once.matrix, twice.matrix)


# ----------------------------------------------------------- measurement_probs


def test_measurement_probs_basis_state():
    assert np.array_equal(measurement_probs(density_from_state(basis_state(1, 0))), [1.0, 0.0])


def test_measurement_probs_pair_state():
    probs = measurement_probs(density_from_state(pair_state()))
    assert np.allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_measurement_probs_clips_roundoff_negativity_to_zero():
    probs = measurement_probs(DensityMatrix(np.diag([0.5 + 1e-13, 0.5, -1e-13, 0.0])))
    assert probs[2] == 0.0 and probs.min() == 0.0


@given(seeds, st.integers(min_value=1, max_value=4))
def test_measurement_probs_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    probs = measurement_probs(random_density(rng, n))
    assert probs.min() >= 0.0
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)
