"""Exact dense linear algebra for up to four qubits.

State vectors, unitaries, and density matrices are dense complex128 arrays
(dimension at most 16), validated on construction and read-only afterwards.
The public wrappers check their invariants on every value that crosses this
API.  Their arithmetic and their checks are private helpers on raw arrays
(`_apply_kernel`, `_check_norm`, `_check_weights`), so a caller that builds
a value in several internal steps, such as `protocol.build_final_density`,
runs the same checks and validates only the value it returns.
Qubit 0 is the most significant bit of the basis index: the basis state
|b0 b1 ... b_{n-1}> has index sum(b_i << (n-1-i)), and tensor products read
left to right.  All operations are pure functions; nothing here mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BadWeights, DimensionMismatch, EmptyKeep, IndexClash

MAX_QUBITS = 4
# Roundoff tolerance on norms, traces, Hermiticity, unitarity and probability sums.
ATOL = 1e-12
# Negativity slack: an eigenvalue or diagonal entry below -NEG_TOL is an error;
# it absorbs roundoff in 16x16 Hermitian eigensolves.
NEG_TOL = 1e-10

_I2 = np.eye(2, dtype=np.complex128)


def _as_complex(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    # A complex entry is finite when both its parts are.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _qubit_count(dim: int, name: str) -> int:
    n = dim.bit_length() - 1
    if dim != 1 << n or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"{name} dimension must be 2, 4, 8, or 16, got {dim}")
    return n


def _check_norm(amps: np.ndarray) -> None:
    """A state vector must have unit norm within ATOL."""
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"state vector norm {norm!r} is not 1 within {ATOL}")


def _check_weights(weights: Sequence[float]) -> None:
    """Mixture weights must be present, finite, nonnegative, and sum to one."""
    if not weights:
        raise BadWeights("mixture needs at least one component")
    weights = np.array(weights, dtype=np.float64)
    if not np.all(np.isfinite(weights)):
        raise BadWeights(f"non-finite mixture weight in {weights.tolist()}")
    if np.any(weights < 0):
        raise BadWeights(f"negative mixture weight {weights.min()!r}")
    if abs(weights.sum() - 1.0) > ATOL:
        raise BadWeights(f"mixture weights sum to {weights.sum()!r}, not 1")


def _apply_kernel(amps: np.ndarray, op: np.ndarray, targets: list[int]) -> np.ndarray:
    """`op` (2^k x 2^k) applied to qubits `targets` of the flat vector `amps`.

    The steps are those of `np.tensordot(op, psi, (range(k, 2k), targets))`
    followed by `np.moveaxis(psi, range(k), targets)`, without their argument
    handling, so the result is bit-identical to that route.  Nothing is
    validated here.
    """
    n = amps.shape[0].bit_length() - 1
    k = len(targets)
    order = targets + [q for q in range(n) if q not in targets]
    psi = amps.reshape((2,) * n).transpose(order).reshape(1 << k, 1 << (n - k))
    psi = np.dot(op, psi).reshape((2,) * n)
    # moveaxis is the transpose by the inverse of `order`.
    return psi.transpose(sorted(range(n), key=order.__getitem__)).reshape(-1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over 1..4 qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes, "state vector", ndim=1)
        _qubit_count(amps.shape[0], "state vector")
        _check_norm(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Square matrix with U @ U.conj().T = I entrywise within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix, "unitary", ndim=2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        _qubit_count(mat.shape[0], "unitary")
        defect = np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max()
        if defect > ATOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix over 1..4 qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix, "density matrix", ndim=2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _qubit_count(mat.shape[0], "density matrix")
        herm_defect = np.abs(mat - mat.conj().T).max()
        if herm_defect > ATOL:
            raise ValueError(f"density matrix is not Hermitian (defect {herm_defect:.3e})")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within {ATOL}")
        min_eig = float(np.linalg.eigvalsh(mat).min())
        if min_eig < -NEG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


KronOperand = Union[StateVector, UnitaryMatrix, DensityMatrix]


def kron(a: KronOperand, b: KronOperand) -> KronOperand:
    """Tensor product of two same-kind operands; the left factor is most significant."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, UnitaryMatrix) and isinstance(b, UnitaryMatrix):
        return UnitaryMatrix(np.kron(a.matrix, b.matrix))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix))
    raise TypeError(f"kron operands must be the same wrapper kind, got {type(a).__name__} and {type(b).__name__}")


def identity(n_qubits: int = 1) -> UnitaryMatrix:
    return UnitaryMatrix(np.eye(1 << n_qubits, dtype=np.complex128))


def hadamard() -> UnitaryMatrix:
    """Single-qubit Hadamard with the 1/sqrt(2) prefactor.

    The 1/sqrt(2) normalization is forced by unitarity; a 1/2-prefactor
    variant of the same matrix is not unitary.
    """
    return UnitaryMatrix(np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0))


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on `n_qubits` qubits."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def controlled_unitary(u: UnitaryMatrix, control: int, target: int, n: int) -> UnitaryMatrix:
    """Unitary on `n` qubits applying `u` to `target` when `control` is |1>."""
    if control == target:
        raise IndexClash(f"control and target are both qubit {control}")
    if u.dim != 2:
        raise DimensionMismatch(f"controlled gate needs a 2x2 unitary, got dim {u.dim}")
    for name, q in (("control", control), ("target", target)):
        if not 0 <= q < n:
            raise ValueError(f"{name} qubit {q} out of range for {n} qubits")
    proj = (np.diag([1, 0]).astype(np.complex128), np.diag([0, 1]).astype(np.complex128))
    total = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for cval, tmat in ((0, _I2), (1, u.matrix)):
        factors = [proj[cval] if q == control else tmat if q == target else _I2 for q in range(n)]
        total += reduce(np.kron, factors)
    return UnitaryMatrix(total)


def apply_unitary(s: StateVector, u: UnitaryMatrix, targets: Sequence[int]) -> StateVector:
    """Apply `u` to the ordered qubit indices `targets` of `s`."""
    targets = list(targets)
    k = len(targets)
    if u.dim != 1 << k:
        raise DimensionMismatch(f"unitary dim {u.dim} does not match {k} target qubits")
    n = s.n_qubits
    if len(set(targets)) != k or any(not 0 <= t < n for t in targets):
        raise ValueError(f"targets {targets} must be distinct qubit indices below {n}")
    return StateVector(_apply_kernel(s.amplitudes, u.matrix, targets))


def density_from_state(s: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj()))


def mix(components: Iterable[tuple[float, DensityMatrix]]) -> DensityMatrix:
    """Convex combination of density matrices."""
    components = list(components)
    _check_weights([w for w, _ in components])
    dim = components[0][1].dim
    if any(rho.dim != dim for _, rho in components):
        raise DimensionMismatch("mixture components have unequal dimensions")
    total = np.zeros((dim, dim), dtype=np.complex128)
    for w, rho in components:
        total += w * rho.matrix
    return DensityMatrix(total)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not in `keep`; kept qubits retain their order."""
    keep = sorted(set(keep))
    if not keep:
        raise EmptyKeep("partial trace must keep at least one qubit")
    n = rho.n_qubits
    if any(not 0 <= q < n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    dropped = set(range(n)) - set(keep)
    letters = "abcdefgh"
    row = list(letters[:n])
    # dropped qubits reuse their row letter so einsum sums them out
    col = [row[q] if q in dropped else letters[4 + q] for q in range(n)]
    out = [row[q] for q in keep] + [letters[4 + q] for q in keep]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), tensor)
    d = 1 << len(keep)
    return DensityMatrix(reduced.reshape(d, d))


def dephase(rho: DensityMatrix, qubits: Iterable[int]) -> DensityMatrix:
    """Zero every coherence between differing computational values on `qubits`."""
    qubits = sorted(set(qubits))
    n = rho.n_qubits
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"dephase indices {qubits} out of range for {n} qubits")
    dim = rho.dim
    idx = np.arange(dim)
    mask = np.ones((dim, dim), dtype=bool)
    for q in qubits:
        bits = (idx >> (n - 1 - q)) & 1
        mask &= bits[:, None] == bits[None, :]
    return DensityMatrix(np.where(mask, rho.matrix, 0.0))


def measurement_probs(rho: DensityMatrix) -> np.ndarray:
    """Computational-basis outcome probabilities (the diagonal, made real)."""
    diag = np.real(np.diagonal(rho.matrix)).copy()
    if diag.min() < -NEG_TOL:
        raise ValueError(f"diagonal entry {diag.min():.3e} below tolerance")
    np.clip(diag, 0.0, None, out=diag)
    total = float(diag.sum())
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"diagonal sums to {total!r}, not 1")
    return diag
