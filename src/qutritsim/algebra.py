"""Generator families for SU(3)/SO(3) and their exponentials.

Three generator sets drive everything:

* ``GELL_MANN``: the eight traceless Hermitian generators of SU(3),
  normalized so that Tr(L_i L_j) = 2 delta_ij.
* ``SIGMA``: the spin-1 angular momentum matrices (unitary representation
  of SO(3)), with Sigma_3 = diag(1, 0, -1) and [S_1, S_2] = i S_3 cyclic.
* ``JDEF``: defining-representation rotation generators, Hermitian with
  the same cyclic commutators [J_1, J_2] = i J_3. With this choice,
  r_so3(j, xi) = exp(i xi J_j) is the clockwise rotation about axis j by
  xi, which is exactly how the point pair of a state transforms under
  u_sigma(j, xi). The sign convention is pinned by the z-rotation action
  on a general state (azimuths decrease by xi) and holds for all axes;
  see ``majorana_rotation_check``.

Transition operators I_k^{rs} are the product-operator elements of the
two-level subspaces, stored as fixed Gell-Mann combinations so the
identities relating the two families stay testable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Unitary3, Ket3

_SQRT3 = math.sqrt(3.0)


def _ro(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


_L1 = _ro([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
_L2 = _ro([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
_L3 = _ro([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
_L4 = _ro([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
_L5 = _ro([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
_L6 = _ro([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
_L7 = _ro([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
_L8 = _ro(np.diag([1, 1, -2]) / _SQRT3)

_S1 = _ro(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0))
_S2 = _ro(np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2.0))
_S3 = _ro(np.diag([1, 0, -1]))

# Hermitian i*(antisymmetric) rotation generators with [J1, J2] = i J3
# cyclic; exp(i xi J_j) rotates vectors clockwise about axis j.
_J1 = _ro(1j * np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))
_J2 = _ro(1j * np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]))
_J3 = _ro(1j * np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The three generator families, built once and read-only."""

    gell_mann: tuple
    sigma: tuple
    jdef: tuple


GENERATORS = GeneratorSet(
    gell_mann=(_L1, _L2, _L3, _L4, _L5, _L6, _L7, _L8),
    sigma=(_S1, _S2, _S3),
    jdef=(_J1, _J2, _J3),
)

GELL_MANN = GENERATORS.gell_mann
SIGMA = GENERATORS.sigma
JDEF = GENERATORS.jdef

# Convention sign pairing u_sigma(j, xi) with r_so3(j, SIGN*xi); fixed by
# the worked z-rotation example and asserted by the rigidity property.
ROTATION_SIGN = +1

_AXES = ("x", "y", "z")

# Product-operator elements per (levels, axis), as Gell-Mann combinations.
_TRANSITION_TABLE = {
    ((1, 2), "x"): 0.5 * _L1,
    ((1, 2), "y"): 0.5 * _L2,
    ((1, 2), "z"): 0.5 * _L3,
    ((2, 3), "x"): 0.5 * _L6,
    ((2, 3), "y"): 0.5 * _L7,
    ((2, 3), "z"): 0.5 * (_SQRT3 * _L8 - _L3),
    ((1, 3), "x"): 0.5 * _L4,
    ((1, 3), "y"): 0.5 * _L5,
    ((1, 3), "z"): 0.5 * (_SQRT3 * _L8 + _L3),
}


@dataclass(frozen=True, eq=False)
class TransitionOp:
    """Single-transition product operator I_k^{rs}."""

    levels: tuple
    axis: str
    matrix: np.ndarray


def transition_op(levels, axis: str) -> TransitionOp:
    """Look up I_k^{rs} for levels (r, s) in {(1,2), (2,3), (1,3)}."""
    levels = tuple(levels)
    if levels not in {(1, 2), (2, 3), (1, 3)}:
        raise ValueError(f"unknown transition levels {levels!r}")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    mat = _ro(_TRANSITION_TABLE[(levels, axis)])
    return TransitionOp(levels=levels, axis=axis, matrix=mat)


def _expm_i_eigh(theta: float, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(i*theta*H) from the eigendecomposition H = v diag(w) v^dag."""
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def _expm_i_hermitian(theta: float, herm: np.ndarray) -> np.ndarray:
    """exp(i*theta*H) for Hermitian H, via eigendecomposition."""
    return _expm_i_eigh(theta, *np.linalg.eigh(herm))


def _eigh(herm: np.ndarray) -> tuple:
    w, v = np.linalg.eigh(herm)
    w.setflags(write=False)
    return w, Unitary3(v)


# (eigenvalues, validated eigenbasis) of each Gell-Mann generator and of
# each transition operator, computed once; u_lambda, transition_unitary,
# trajectory sampling and pulse events read these instead of calling eigh.
GELL_MANN_EIGH = tuple(_eigh(h) for h in GELL_MANN)
_TRANSITION_EIGH = {key: _eigh(op) for key, op in _TRANSITION_TABLE.items()}

_SIGMA_SQUARED = tuple(_ro(s @ s) for s in SIGMA)


def u_lambda(i: int, theta: float) -> Unitary3:
    """exp(i*theta*L_i) for the i-th Gell-Mann generator, i in 1..8."""
    if not 1 <= i <= 8:
        raise ValueError(f"Gell-Mann index must be in 1..8, got {i}")
    w, basis = GELL_MANN_EIGH[i - 1]
    return Unitary3(_expm_i_eigh(theta, w, basis.mat))


def u_sigma(j: int, xi: float) -> Unitary3:
    """exp(i*xi*Sigma_j) in closed form: I + (cos xi - 1) S^2 + i sin xi S."""
    if not 1 <= j <= 3:
        raise ValueError(f"axis index must be in 1..3, got {j}")
    return Unitary3(_u_sigma_mat(j, xi))


def _u_sigma_mat(j: int, xi: float) -> np.ndarray:
    """Unchecked matrix of u_sigma(j, xi); unitary for every finite xi."""
    s = SIGMA[j - 1]
    return np.eye(3) + (math.cos(xi) - 1.0) * _SIGMA_SQUARED[j - 1] + 1j * math.sin(xi) * s


def r_so3(j: int, xi: float) -> np.ndarray:
    """exp(i*xi*J_j): real orthogonal, det +1; clockwise rotation about j."""
    if not 1 <= j <= 3:
        raise ValueError(f"axis index must be in 1..3, got {j}")
    mat = _expm_i_hermitian(xi, JDEF[j - 1])
    return np.ascontiguousarray(mat.real)


def transition_unitary(op: TransitionOp, xi: float) -> Unitary3:
    """exp(i*xi*I_k^{rs}): rotation by xi on the (r, s) transition.

    Equals I - P + cos(xi/2) P + 2i sin(xi/2) I_k^{rs} (P the projector
    onto the {r, s} subspace) whenever 2*I_k^{rs} squares to P, which
    holds for every x/y operator and for the z operator of levels (1,2).
    The z operators of (2,3) and (1,3) carry twice that normalization, so
    for them only the exponential form is unitary and it is what is
    returned. It is built from the eigenbasis cached at import.
    """
    return Unitary3(_transition_mat(op.levels, op.axis, xi))


def _transition_mat(levels: tuple, axis: str, xi: float) -> np.ndarray:
    """Unchecked exp(i*xi*I_axis^levels); unitary for every finite xi."""
    w, basis = _TRANSITION_EIGH[(levels, axis)]
    return _expm_i_eigh(xi, w, basis.mat)


def majorana_rotation_check(psi: Ket3, j: int, xi: float) -> float:
    """Pair distance between points(u_sigma(j,xi) psi) and the rigidly
    rotated points r_so3(j, ROTATION_SIGN*xi) applied to points(psi).

    Contract: <= 1e-8 for every normalized state and angle, except for
    states whose two points are about 8e-8 to 3e-7 rad apart. There the
    double-root snap of the point map may merge the pair on one side and
    not on the other, and the residual stays <= 1e-7.
    """
    from .majorana import state_to_points, rotate_pair, pair_distance

    rotated_state = u_sigma(j, xi).apply(psi)
    direct = state_to_points(rotated_state)
    rigid = rotate_pair(r_so3(j, ROTATION_SIGN * xi), state_to_points(psi))
    return pair_distance(direct, rigid)
