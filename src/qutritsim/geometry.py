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

from .algebra import SIGMA, _u_sigma_mat, rotation_about_axis
from .core import ATOL, DEGENERACY_EPS, Ket3, _norm
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
    by construction and is returned unchecked.
    """

    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("beta", "gamma", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def unitary(self) -> np.ndarray:
        return (
            _u_sigma_mat(1, self.delta)
            @ _u_sigma_mat(3, self.gamma)
            @ _u_sigma_mat(2, self.beta)
        )


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
    s_plus = math.sqrt(2.0) * (c_plus.conjugate() * c_zero + c_zero.conjugate() * c_minus)
    m = np.array([s_plus.real, s_plus.imag, abs(c_plus) ** 2 - abs(c_minus) ** 2])
    m.setflags(write=False)
    magnitude = _norm(m)
    pts = state_to_points(psi).cartesian()
    bisector = _norm(pts[0] + pts[1]) / 2.0
    return MagnetizationReport(
        m_vector=m,
        magnitude=magnitude,
        bisector_length=bisector,
        pointing=magnitude > ATOL,
    )


def _minimal_rotation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shortest rotation carrying unit vector u onto unit vector v.

    Requires u.v >= 0 (both callers pick the target on u's side), so
    parallel vectors are equal and need no turn.
    """
    u0, u1, u2 = u.tolist()
    v0, v1, v2 = v.tolist()
    cross = np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
    s = _norm(cross)
    if s < DEGENERACY_EPS:
        return np.eye(3)
    return rotation_about_axis(cross / s, math.atan2(s, float(np.dot(u, v))))


def _pair_to_canonical_rotation(pair: SpherePointPair) -> np.ndarray:
    """Rotation sending the pair onto the x = 0 plane, symmetric about z."""
    p1, p2 = pair.cartesian()
    midpoint = 0.5 * (p1 + p2)
    radius = _norm(midpoint)
    if radius <= 1e-8:
        # antipodal pair: carry its axis onto the y axis
        axis = p1
        target = np.array([0.0, 1.0, 0.0])
        if np.dot(axis, target) < 0.0:
            target = -target
        return _minimal_rotation(axis, target)
    pole = np.array([0.0, 0.0, 1.0 if midpoint[2] >= 0.0 else -1.0])
    r1 = _minimal_rotation(midpoint / radius, pole)
    q1 = r1 @ p1
    horiz = np.array([q1[0], q1[1], 0.0])
    h = _norm(horiz)
    if h <= 1e-8:
        return r1  # coincident points already on the axis
    # The pair is unordered, so the chord may reach the y axis through
    # either point; take the smaller turn.
    spin = math.remainder(math.pi / 2 - math.atan2(q1[1], q1[0]), math.pi)
    r2 = rotation_about_axis(np.array([0.0, 0.0, 1.0]), spin)
    return r2 @ r1


def _factor_xzy(rot: np.ndarray):
    """Both factorizations rot = R_x(a) R_z(b) R_y(c) (counterclockwise).

    The middle angle satisfies sin(b) = -rot[0,1]; the two asin branches
    give two exact solutions. Near the gimbal lock |cos b| ~ 0 the outer
    angles are degenerate and c is pinned to 0.
    """
    sb = max(-1.0, min(1.0, -float(rot[0, 1])))
    solutions = []
    if abs(abs(sb) - 1.0) < 1e-12:
        b = math.copysign(math.pi / 2, sb)
        if sb > 0:
            a = math.atan2(rot[2, 0], rot[1, 0])
        else:
            a = math.atan2(-rot[2, 0], -rot[1, 0])
        solutions.append((a, b, 0.0))
    else:
        for b in (math.asin(sb), math.pi - math.asin(sb)):
            cb = math.cos(b)
            a = math.atan2(rot[2, 1] / cb, rot[1, 1] / cb)
            c = math.atan2(rot[0, 2] / cb, rot[0, 0] / cb)
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
