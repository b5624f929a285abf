"""Canonical one-parameter family, magnetization, and state decomposition.

The canonical family is the real column (sin a, 0, cos a) for a in
[0, pi/2]. Its point pair sits on the great circle in the plane x = 0 at
(0, +-y_c, z_c) with

    y_c = sqrt(2 sin 2a) / (sin a + cos a)
    z_c = (sin a - cos a) / (sin a + cos a)

Every qutrit state reaches this family under the spin-1 rotation
subgroup. ``canonical_decompose`` returns angles (beta, gamma, delta)
such that u_sigma(1, delta) u_sigma(3, gamma) u_sigma(2, beta) carries
the input onto canonical_state(alpha) up to a global phase. The angles
are obtained by constructing the point-space rotation directly (chord
midpoint to the z axis, chord to the y axis) and factoring it in the
x-z-y order; this avoids the division-by-zero cases that closed-form
angle expressions suffer at degenerate geometries.

The magnetization vector is (<S_1>, <S_2>, <S_3>). For the pair of
points P1, P2 it equals (P1 + P2)/(l_b^2 + 1) exactly, where l_b =
|P1 + P2|/2 is the length of the perpendicular bisector from the origin
to the chord. (Expanding the expectation values of a general
two-point-parameterized state reproduces this with an overall factor
Gamma^2, the squared normalization constant; quoting a single power of
Gamma there does not normalize correctly.) l_b is reported nonnegative;
for canonical states the signed quantity z_c in [-1, 1] carries the
hemisphere information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _UNIT_AXES, SIGMA, _rodrigues, _rotate, _u_sigma_mat
from .core import _SQRT2, ATOL, DEGENERACY_EPS, Ket3, _norm, _require_finite
from .majorana import SpherePointPair, state_to_points


@dataclass(frozen=True)
class CanonicalForm:
    """Parameter of the canonical family, with its point-pair geometry."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi / 2:
            raise ValueError(f"alpha must be in [0, pi/2], got {self.alpha}")

    @property
    def y_c(self) -> float:
        a = self.alpha
        return math.sqrt(2.0 * math.sin(2.0 * a)) / (math.sin(a) + math.cos(a))

    @property
    def z_c(self) -> float:
        a = self.alpha
        return (math.sin(a) - math.cos(a)) / (math.sin(a) + math.cos(a))

    @property
    def eta(self) -> float:
        """Chord angle subtended by the point pair at the origin."""
        return 2.0 * math.asin(min(1.0, self.y_c))


@dataclass(frozen=True)
class DecompositionAngles:
    """Rotation angles (beta about y, gamma about z, delta about x).

    Raises ValueError at construction if an angle is not finite, so
    ``unitary()`` is a product of closed-form rotations that is unitary
    by construction and is returned unchecked. The product is computed on
    the first call and stored on the (frozen) instance as a read-only
    array; later calls return the same array.
    """

    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("beta", "gamma", "delta"):
            _require_finite(name, getattr(self, name))

    def unitary(self) -> np.ndarray:
        try:
            return self._unitary
        except AttributeError:
            pass
        mat = _u_sigma_mat(1, self.delta) @ _u_sigma_mat(3, self.gamma) @ _u_sigma_mat(2, self.beta)
        mat.setflags(write=False)
        object.__setattr__(self, "_unitary", mat)
        return mat


@dataclass(frozen=True, eq=False)
class MagnetizationReport:
    """Spin-1 magnetization vector and its bisector geometry."""

    m_vector: np.ndarray
    magnitude: float
    bisector_length: float
    pointing: bool


def canonical_state(alpha: float) -> Ket3:
    """The canonical column (sin alpha, 0, cos alpha), alpha in [0, pi/2]."""
    form = CanonicalForm(alpha)
    return Ket3([math.sin(form.alpha), 0.0, math.cos(form.alpha)])


def magnetization(psi: Ket3) -> MagnetizationReport:
    """Expectation values of the three spin operators, plus geometry."""
    c_plus, c_zero, c_minus = psi.vec.tolist()
    # <S1> + i<S2> = <S1 + i S2>, and S1 + i S2 = sqrt(2) (|+1><0| + |0><-1|)
    s_plus = _SQRT2 * (c_plus.conjugate() * c_zero + c_zero.conjugate() * c_minus)
    m = np.array([s_plus.real, s_plus.imag, abs(c_plus) ** 2 - abs(c_minus) ** 2])
    m.setflags(write=False)
    magnitude = _norm(m)
    (x1, y1, z1), (x2, y2, z2) = state_to_points(psi)._xyz()
    sx, sy, sz = x1 + x2, y1 + y2, z1 + z2
    bisector = math.sqrt(sx * sx + sy * sy + sz * sz) / 2.0
    return MagnetizationReport(
        m_vector=m,
        magnitude=magnitude,
        bisector_length=bisector,
        pointing=magnitude > ATOL,
    )


def _minimal_rotation(u, v) -> tuple:
    """Rows of the shortest rotation carrying unit triple u onto unit triple v.

    Requires u.v >= 0 (both callers pick the target on u's side), so
    parallel vectors are equal and need no turn.
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    c0, c1, c2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    s = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    if s < DEGENERACY_EPS:
        return _UNIT_AXES  # the rows of the identity
    return _rodrigues((c0 / s, c1 / s, c2 / s), math.atan2(s, u0 * v0 + u1 * v1 + u2 * v2))


def _pair_to_canonical_rotation(pair: SpherePointPair) -> tuple:
    """Rows of the rotation sending the pair onto the x = 0 plane,
    symmetric about z."""
    p1, p2 = pair._xyz()
    m0, m1, m2 = (0.5 * (a + b) for a, b in zip(p1, p2))
    radius = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
    if radius <= 1e-8:
        # antipodal pair: carry its axis onto the y axis
        target = (0.0, 1.0, 0.0) if p1[1] >= 0.0 else (-0.0, -1.0, -0.0)
        return _minimal_rotation(p1, target)
    pole = (0.0, 0.0, 1.0 if m2 >= 0.0 else -1.0)
    r1 = _minimal_rotation((m0 / radius, m1 / radius, m2 / radius), pole)
    q0, q1, _ = _rotate(r1, p1)
    if math.sqrt(q0 * q0 + q1 * q1) <= 1e-8:
        return r1  # coincident points already on the axis
    # The pair is unordered, so the chord may reach the y axis through
    # either point; take the smaller turn.
    spin = math.remainder(math.pi / 2 - math.atan2(q1, q0), math.pi)
    r2 = _rodrigues(_UNIT_AXES[2], spin)
    r1_columns = tuple(zip(*r1))
    return tuple(_rotate(r1_columns, row) for row in r2)  # r2 @ r1


def _factor_xzy(rot) -> list:
    """Both factorizations rot = R_x(a) R_z(b) R_y(c) (counterclockwise),
    for a rotation given by its rows.

    The middle angle satisfies sin(b) = -rot[0][1]; the two asin branches
    give two exact solutions. Near the gimbal lock |cos b| ~ 0 the outer
    angles are degenerate and c is pinned to 0.
    """
    (r00, r01, r02), (r10, r11, _), (r20, r21, _) = rot
    sb = max(-1.0, min(1.0, -r01))
    solutions = []
    if abs(abs(sb) - 1.0) < 1e-12:
        b = math.copysign(math.pi / 2, sb)
        if sb > 0:
            a = math.atan2(r20, r10)
        else:
            a = math.atan2(-r20, -r10)
        solutions.append((a, b, 0.0))
    else:
        for b in (math.asin(sb), math.pi - math.asin(sb)):
            cb = math.cos(b)
            a = math.atan2(r21 / cb, r11 / cb)
            c = math.atan2(r02 / cb, r00 / cb)
            solutions.append((a, b, c))
    return solutions


def canonical_decompose(psi: Ket3):
    """Angles carrying a state onto the canonical family.

    Returns (alpha, DecompositionAngles). The reconstruction
    u_sigma(1, delta) u_sigma(3, gamma) u_sigma(2, beta) |psi> matches
    canonical_state(alpha) up to a global phase (distance <= 1e-8).
    Among the exact factorizations of the point rotation the one with
    lexicographically smallest (|beta|, |gamma|, |delta|) wins.
    """
    rot = _pair_to_canonical_rotation(state_to_points(psi))
    # rot = R_x(a) R_z(b) R_y(c) ccw corresponds to angles (-c, -b, -a)
    # for the unitary composition, since u_sigma(j, xi) acts on points as
    # the clockwise rotation r_so3(j, xi).
    candidates = []
    for a, b, c in _factor_xzy(rot):
        angles = DecompositionAngles(beta=-c, gamma=-b, delta=-a)
        out = angles.unitary() @ psi.vec
        s3 = float(np.vdot(out, SIGMA[2] @ out).real)
        alpha = 0.5 * math.acos(max(-1.0, min(1.0, -s3)))
        # phase_invariant_distance(out, canonical_state(alpha)) on raw arrays
        canonical = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
        residual = float(1.0 - abs(np.vdot(out, canonical)))
        key = (abs(angles.beta), abs(angles.gamma), abs(angles.delta))
        candidates.append((residual, key, alpha, angles))
    candidates.sort(key=lambda item: (round(item[0], 10), item[1]))
    _, _, alpha, angles = candidates[0]
    return alpha, angles
