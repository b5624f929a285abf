"""Numeric foundation: qutrit states, density matrices, unitaries, metrics.

The basis ordering is fixed everywhere in this package as
(|+1>, |0>, |-1>), i.e. energy levels (1, 2, 3). All matrices are dense
3x3 complex numpy arrays read in that ordering; Sigma_3 = diag(1, 0, -1).

Every value is immutable after construction and every operation is a
pure function, so everything here is safe to share between threads.
Because the values never change, other modules may cache values derived
from one on the object itself (the Majorana pair of a Ket3, for one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Invariant checks use ATOL; degeneracy detection (zero norms, vanishing
# polynomial coefficients) uses the stricter DEGENERACY_EPS.
ATOL = 1e-9
DEGENERACY_EPS = 1e-12

DIM = 3

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_TWO_PI = 2.0 * math.pi


class ZeroVectorError(ValueError):
    """A vector with (near-)zero norm cannot be normalized."""


class ContractViolation(RuntimeError):
    """A numerical contract failed; the CLI exits with code 2."""


def _require_finite(name: str, value: float) -> None:
    """Raise ValueError naming the value unless it is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of one real or complex vector, as a Python float.

    The same arithmetic as numpy's own fast path in np.linalg.norm (a dot
    product per real component, then sqrt), without its Python wrapper.
    """
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket3:
    """Normalized pure state of a qutrit.

    Amplitudes are ordered (c_plus1, c_zero, c_minus1).
    """

    vec: np.ndarray

    def __post_init__(self):
        vec = _frozen_array(self.vec, (DIM,))
        object.__setattr__(self, "vec", vec)
        norm = _norm(vec)
        if not abs(norm - 1.0) <= ATOL:  # also refuses NaN
            raise ValueError(f"state vector is not normalized (norm={norm:.3e})")


@dataclass(frozen=True, eq=False)
class DensityMatrix3:
    """3x3 density matrix: Hermitian, unit trace, positive semidefinite."""

    mat: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.mat, (DIM, DIM))
        object.__setattr__(self, "mat", mat)
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density matrix is not Hermitian")
        trace = mat.trace()
        if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
            raise ValueError(f"density matrix trace is {trace:.6e}, expected 1")
        # eigvalsh returns the eigenvalues in ascending order
        if np.linalg.eigvalsh(mat)[0] < -ATOL:
            raise ValueError("density matrix has negative eigenvalues")

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True, eq=False)
class Unitary3:
    """3x3 unitary matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.mat, (DIM, DIM))
        object.__setattr__(self, "mat", mat)
        if not np.max(np.abs(mat.conj().T @ mat - np.eye(DIM))) <= ATOL:
            raise ValueError("matrix is not unitary")

    def apply(self, psi: Ket3) -> Ket3:
        return Ket3(self.mat @ psi.vec)

    def conjugate(self, rho: DensityMatrix3) -> DensityMatrix3:
        return DensityMatrix3(self.mat @ rho.mat @ self.mat.conj().T)


def normalize(raw) -> Ket3:
    """Scale a raw complex 3-vector to unit norm."""
    vec = np.asarray(raw, dtype=complex).reshape(DIM)
    if not np.isfinite(vec).all():
        raise ValueError("state vector has non-finite amplitudes")
    with np.errstate(over="ignore"):
        norm = _norm(vec)
    if norm == math.inf:  # amplitudes near the float maximum: scale them down first
        vec = vec / np.max(np.abs(vec.view(float)))
        norm = _norm(vec)
    if norm < DEGENERACY_EPS:
        raise ZeroVectorError("cannot normalize a (near-)zero vector")
    return Ket3(vec / norm)


def dm_from_ket(psi: Ket3) -> DensityMatrix3:
    """Projector |psi><psi| of a pure state."""
    return DensityMatrix3(np.outer(psi.vec, psi.vec.conj()))


def fidelity(rho: DensityMatrix3, rho_e: DensityMatrix3) -> float:
    """Normalized Hilbert-Schmidt overlap of two density matrices.

    F = Tr(rho^dag rho_e) / (sqrt(Tr(rho^dag rho)) sqrt(Tr(rho_e^dag rho_e)))

    Scale-invariant in either argument; equals 1 iff the matrices are
    proportional, which for pure states means identical states.
    """
    a, b = rho.mat, rho_e.mat
    # Tr(A^dag B) is the conjugated elementwise sum np.vdot(A, B)
    overlap = np.vdot(a, b).real
    na = math.sqrt(np.vdot(a, a).real)
    nb = math.sqrt(np.vdot(b, b).real)
    return float(overlap / (na * nb))


def phase_invariant_distance(a: Ket3, b: Ket3) -> float:
    """1 - |<a|b>|; zero iff the states agree up to a global phase."""
    return float(1.0 - abs(np.vdot(a.vec, b.vec)))


def random_ket(rng: np.random.Generator) -> Ket3:
    """Haar-uniform pure state: 3 complex standard normals, normalized."""
    raw = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
    return normalize(raw)


def random_unitary(rng: np.random.Generator) -> Unitary3:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Unitary3(q)


def random_density(rng: np.random.Generator, n_pure: int = 3) -> DensityMatrix3:
    """Random mixed state: convex combination of random pure projectors."""
    weights = rng.random(n_pure)
    weights /= weights.sum()
    mat = np.zeros((DIM, DIM), dtype=complex)
    for w in weights:
        mat += w * dm_from_ket(random_ket(rng)).mat
    return DensityMatrix3(mat)
