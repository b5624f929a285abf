"""Generator families for SU(3)/SO(3) and their exponentials.

Three generator sets drive everything:

* ``GELL_MANN``: the eight traceless Hermitian generators of SU(3),
  normalized so that Tr(L_i L_j) = 2 delta_ij.
* ``SIGMA``: the spin-1 angular momentum matrices (unitary representation
  of SO(3)), with Sigma_3 = diag(1, 0, -1) and [S_1, S_2] = i S_3 cyclic.
* ``JDEF``: defining-representation rotation generators, Hermitian with
  the same cyclic commutators [J_1, J_2] = i J_3. With this choice,
  exp(i xi J_j) is the clockwise rotation about axis j by xi, which is
  exactly how the point pair of a state transforms under u_sigma(j, xi).
  ``r_so3(j, xi)`` builds that matrix in closed form, as the Rodrigues
  rotation about e_j by -xi. The sign convention is pinned by the
  z-rotation action on a general state (azimuths decrease by xi) and
  holds for all axes; see ``majorana_rotation_check``.

``_rodrigues`` is the one real rotation formula of the package. It
computes the three rows of the rotation on Python floats;
``rotation_about_axis`` and ``r_so3`` return them as an ndarray, while
the decomposition geometry and the rigidity check apply the float rows
directly. The rows match the numpy matrix products used before to a few
ulps (numpy's 3x3 products may fuse multiply-adds, Python floats do not).

Transition operators I_k^{rs} are the product-operator elements of the
two-level subspaces, stored as fixed Gell-Mann combinations so the
identities relating the two families stay testable by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _SQRT2, _SQRT3, ATOL, Ket3, Unitary3, _require_finite
from .majorana import _pair_arc, state_to_points


def _ro(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


_I3 = np.eye(3)
_I3.setflags(write=False)

_L1 = _ro([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
_L2 = _ro([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
_L3 = _ro([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
_L4 = _ro([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
_L5 = _ro([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
_L6 = _ro([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
_L7 = _ro([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
_L8 = _ro(np.diag([1, 1, -2]) / _SQRT3)

_S1 = _ro(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / _SQRT2)
_S2 = _ro(np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / _SQRT2)
_S3 = _ro(np.diag([1, 0, -1]))

# Hermitian i*(antisymmetric) rotation generators with [J1, J2] = i J3
# cyclic; exp(i xi J_j) rotates vectors clockwise about axis j.
_J1 = _ro(1j * np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))
_J2 = _ro(1j * np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]))
_J3 = _ro(1j * np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))


GELL_MANN = (_L1, _L2, _L3, _L4, _L5, _L6, _L7, _L8)
SIGMA = (_S1, _S2, _S3)
JDEF = (_J1, _J2, _J3)

# Convention sign pairing u_sigma(j, xi) with r_so3(j, SIGN*xi); fixed by
# the worked z-rotation example and asserted by the rigidity property.
ROTATION_SIGN = +1

_AXES = ("x", "y", "z")

# Product-operator elements per (levels, axis), as Gell-Mann combinations.
_TRANSITION_TABLE = {
    ((1, 2), "x"): _ro(0.5 * _L1),
    ((1, 2), "y"): _ro(0.5 * _L2),
    ((1, 2), "z"): _ro(0.5 * _L3),
    ((2, 3), "x"): _ro(0.5 * _L6),
    ((2, 3), "y"): _ro(0.5 * _L7),
    ((2, 3), "z"): _ro(0.5 * (_SQRT3 * _L8 - _L3)),
    ((1, 3), "x"): _ro(0.5 * _L4),
    ((1, 3), "y"): _ro(0.5 * _L5),
    ((1, 3), "z"): _ro(0.5 * (_SQRT3 * _L8 + _L3)),
}


def _transition_key(levels, axis: str) -> tuple:
    levels = tuple(levels)
    if levels not in {(1, 2), (2, 3), (1, 3)}:
        raise ValueError(f"unknown transition levels {levels!r}")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    return levels, axis


def transition_op(levels, axis: str) -> np.ndarray:
    """Read-only matrix of I_k^{rs}, levels (r, s) in {(1,2), (2,3), (1,3)}."""
    return _TRANSITION_TABLE[_transition_key(levels, axis)]


def _expm_i_eigh(theta: float, w: np.ndarray, v: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """exp(i*theta*H) from the eigendecomposition H = v diag(w) vh, vh = v^dag."""
    return (v * np.exp(1j * theta * w)) @ vh


def _eigh(herm: np.ndarray) -> tuple:
    w, v = np.linalg.eigh(herm)
    w.setflags(write=False)
    basis = Unitary3(v)
    vh = basis.mat.conj().T
    vh.setflags(write=False)
    return w, basis, vh


# (eigenvalues, validated eigenbasis, its conjugate transpose) of each
# Gell-Mann generator and of each transition operator, computed once;
# u_lambda, transition_unitary, trajectory sampling and pulse events read
# these instead of calling eigh.
GELL_MANN_EIGH = tuple(_eigh(h) for h in GELL_MANN)
_TRANSITION_EIGH = {key: _eigh(op) for key, op in _TRANSITION_TABLE.items()}

_SIGMA_SQUARED = tuple(_ro(s @ s) for s in SIGMA)


def u_lambda(i: int, theta: float) -> Unitary3:
    """exp(i*theta*L_i) for the i-th Gell-Mann generator, i in 1..8."""
    if not 1 <= i <= 8:
        raise ValueError(f"Gell-Mann index must be in 1..8, got {i}")
    _require_finite("theta", theta)
    w, basis, vh = GELL_MANN_EIGH[i - 1]
    return Unitary3(_expm_i_eigh(theta, w, basis.mat, vh))


def u_sigma(j: int, xi: float) -> Unitary3:
    """exp(i*xi*Sigma_j) in closed form: I + (cos xi - 1) S^2 + i sin xi S."""
    if not 1 <= j <= 3:
        raise ValueError(f"axis index must be in 1..3, got {j}")
    _require_finite("xi", xi)
    return Unitary3(_u_sigma_mat(j, xi))


def _u_sigma_mat(j: int, xi: float) -> np.ndarray:
    """Unchecked matrix of u_sigma(j, xi); unitary for every finite xi."""
    s = SIGMA[j - 1]
    return _I3 + (math.cos(xi) - 1.0) * _SIGMA_SQUARED[j - 1] + 1j * math.sin(xi) * s


_UNIT_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _rodrigues(axis, angle: float) -> tuple:
    """Rows of the counterclockwise rotation by angle about a unit axis,
    I + sin(angle) K + (1 - cos(angle)) K^2 with K the cross-product
    matrix of the axis, as three float triples. Unchecked: the axis must
    be a unit float triple and the angle finite."""
    x, y, z = axis
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    xy, xz, yz = x * y, x * z, y * z
    return (
        (1.0 + c * (-z * z - y * y), -s * z + c * xy, s * y + c * xz),
        (s * z + c * xy, 1.0 + c * (-z * z - x * x), -s * x + c * yz),
        (-s * y + c * xz, s * x + c * yz, 1.0 + c * (-y * y - x * x)),
    )


def _rotate(rows, v) -> tuple:
    """The rotation given by its rows applied to a float triple."""
    v0, v1, v2 = v
    return tuple(r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in rows)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Counterclockwise rotation by angle about a unit axis (Rodrigues).

    Raises ValueError for a non-finite angle, or an axis that is not
    finite or whose norm differs from 1 by more than ATOL.
    """
    _require_finite("angle", angle)
    x, y, z = np.asarray(axis, dtype=float).tolist()
    if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= ATOL:  # also refuses NaN and inf
        raise ValueError(f"rotation axis must be a finite unit vector, got {(x, y, z)}")
    return np.array(_rodrigues((x, y, z), angle))


def r_so3(j: int, xi: float) -> np.ndarray:
    """exp(i*xi*J_j) in closed form: the rotation about e_j by -xi.

    Real orthogonal with det +1; clockwise by xi about axis j.
    """
    if not 1 <= j <= 3:
        raise ValueError(f"axis index must be in 1..3, got {j}")
    _require_finite("xi", xi)
    return np.array(_rodrigues(_UNIT_AXES[j - 1], -xi))


def transition_unitary(levels, axis: str, xi: float) -> Unitary3:
    """exp(i*xi*I_axis^levels): rotation by xi on the (r, s) transition.

    Equals I - P + cos(xi/2) P + 2i sin(xi/2) I_k^{rs} (P the projector
    onto the {r, s} subspace) whenever 2*I_k^{rs} squares to P, which
    holds for every x/y operator and for the z operator of levels (1,2).
    The z operators of (2,3) and (1,3) carry twice that normalization, so
    for them only the exponential form is unitary and it is what is
    returned. It is built from the eigenbasis cached at import.
    """
    key = _transition_key(levels, axis)
    _require_finite("xi", xi)
    return Unitary3(_transition_mat(*key, xi))


def _transition_mat(levels: tuple, axis: str, xi: float) -> np.ndarray:
    """Unchecked exp(i*xi*I_axis^levels); unitary for every finite xi."""
    w, basis, vh = _TRANSITION_EIGH[(levels, axis)]
    return _expm_i_eigh(xi, w, basis.mat, vh)


def majorana_rotation_check(psi: Ket3, j: int, xi: float) -> float:
    """Pair distance between points(u_sigma(j,xi) psi) and the rigidly
    rotated points r_so3(j, ROTATION_SIGN*xi) applied to points(psi).

    Raises ValueError for an axis index outside 1..3 or a non-finite
    angle xi. Past that check the rotated ket is the one value validated
    (as a Ket3). The rigid side rotates the two float triples of the
    stored pair of psi by the float rows of ``_rodrigues``; both point
    pairs are compared as Cartesian float triples by the scalar pair
    kernel ``_pair_arc``.

    Contract: <= 1e-8 for every normalized state and angle, except for
    states whose two points are about 8e-8 to 3e-7 rad apart. There the
    double-root snap of the point map may merge the pair on one side and
    not on the other, and the residual stays <= 1e-7.
    """
    if not 1 <= j <= 3:
        raise ValueError(f"axis index must be in 1..3, got {j}")
    _require_finite("rotation angle", xi)
    direct = state_to_points(Ket3(_u_sigma_mat(j, xi) @ psi.vec))._xyz()
    rows = _rodrigues(_UNIT_AXES[j - 1], -ROTATION_SIGN * xi)
    rigid = [_rotate(rows, p) for p in state_to_points(psi)._xyz()]
    return _pair_arc(direct, rigid)
