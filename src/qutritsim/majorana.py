"""Bidirectional map between qutrit states and point pairs on a sphere.

A normalized state (c_plus1, c_zero, c_minus1) defines the quadratic

    (c_plus1/sqrt(2)) z^2 - c_zero z + (c_minus1/sqrt(2)) = 0

whose roots z = e^{i phi} tan(theta/2), carried through inverse
stereographic projection, give an unordered pair of points (theta, phi)
on the unit sphere. The projection convention is from the south pole
onto the equatorial plane, i.e. x' + i y' = sin(theta) e^{i phi} /
(1 + cos(theta)); the north pole maps to the origin and the south pole
to the point at infinity. Degree deficiencies (vanishing leading
coefficients) place the missing roots at infinity, i.e. on the south
pole, which is how |0> gets one pole each and |-1> both points south.

The inverse direction rebuilds the state from the elementary symmetric
functions of the roots; its normalization constant is available in
closed form and the result is symmetric under swapping the two points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DEGENERACY_EPS, Ket3

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
# A discriminant within _DOUBLE_ROOT_TOL * |psi|^2 of zero is taken as a
# double root. |a1^2 - 4 a0 a2| / |psi|^2 is invariant under rotations,
# so a state and its rotated copy snap alike up to roundoff. Roundoff
# leaves up to about 5 eps * |psi|^2 in the discriminant of a rotated
# spin-coherent state; 8 eps snaps those and no pair farther apart than
# about 1.2e-7 rad.
_DOUBLE_ROOT_TOL = 8.0 * np.finfo(float).eps


class SouthPoleError(ValueError):
    """Stereographic image of the south pole is the point at infinity."""


class DegeneratePairError(ValueError):
    """Normalization constant underflow; unreachable for valid points."""


def _wrap_phi(phi: float) -> float:
    phi = math.fmod(phi, _TWO_PI)
    return phi + _TWO_PI if phi < 0.0 else phi


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit sphere, polar theta in [0, pi], azimuth phi in [0, 2pi).

    At the poles phi carries no information and is canonicalized to 0.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"polar angle must be in [0, pi], got {theta}")
        phi = 0.0 if theta in (0.0, math.pi) else _wrap_phi(float(self.phi))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @staticmethod
    def from_cartesian(v) -> "SpherePoint":
        x, y, z = (float(c) for c in v)
        r = math.sqrt(x * x + y * y + z * z)
        if r < DEGENERACY_EPS:
            raise ValueError("zero vector has no direction")
        theta = math.atan2(math.hypot(x, y), z)
        phi = math.atan2(y, x)
        return SpherePoint(theta, _wrap_phi(phi))


@dataclass(frozen=True)
class SpherePointPair:
    """Unordered pair of sphere points; the state fixes the pair, not the order."""

    p1: SpherePoint
    p2: SpherePoint

    def cartesian(self) -> np.ndarray:
        return np.stack([self.p1.cartesian(), self.p2.cartesian()])


def great_circle_distance(a: SpherePoint, b: SpherePoint) -> float:
    u, v = a.cartesian(), b.cartesian()
    return math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))


def pair_distance(a: SpherePointPair, b: SpherePointPair) -> float:
    """Distance between unordered pairs: best matching, worst point."""
    direct = max(
        great_circle_distance(a.p1, b.p1), great_circle_distance(a.p2, b.p2)
    )
    swapped = max(
        great_circle_distance(a.p1, b.p2), great_circle_distance(a.p2, b.p1)
    )
    return min(direct, swapped)


def rotate_pair(rot: np.ndarray, pair: SpherePointPair) -> SpherePointPair:
    """Apply a real rotation matrix to both points."""
    return SpherePointPair(
        SpherePoint.from_cartesian(rot @ pair.p1.cartesian()),
        SpherePoint.from_cartesian(rot @ pair.p2.cartesian()),
    )


@dataclass(frozen=True)
class MajoranaPoly:
    """Quadratic a0 z^2 + a1 z + a2 associated with a qutrit state."""

    a0: complex
    a1: complex
    a2: complex

    @staticmethod
    def from_ket(psi: Ket3) -> "MajoranaPoly":
        return MajoranaPoly(
            a0=psi.c_plus1 / _SQRT2, a1=-psi.c_zero, a2=psi.c_minus1 / _SQRT2
        )

    def evaluate(self, z: complex) -> complex:
        return (self.a0 * z + self.a1) * z + self.a2

    def roots(self) -> tuple:
        """(finite roots, number of roots at infinity).

        An exactly vanishing leading coefficient drops the degree and
        sends one root to infinity (two if a1 vanishes too). A
        discriminant within _DOUBLE_ROOT_TOL * |psi|^2 of zero gives a
        double root (spin-coherent states): -a1/(2 a0) when it lies in
        the closed unit disc, else -2 a2/a1, the same mean taken in the
        chart around the south pole. Other quadratics are solved in the
        cancellation-stable form: q = -(a1 + s*sqrt(a1^2 - 4 a0 a2))/2
        with s chosen to avoid subtracting near-equal magnitudes; the
        roots are q/a0 and a2/q.

        A double root moves by the square root of the roundoff in the
        state, so the snap trades two errors of order sqrt(eps): pairs
        closer than about 1.2e-7 rad are merged at their midpoint (each
        point moves by up to 6e-8 rad), and pairs just farther apart are
        split by a discriminant that carries roundoff.
        """
        a0, a1, a2 = self.a0, self.a1, self.a2
        norm = 2.0 * abs(a0) ** 2 + abs(a1) ** 2 + 2.0 * abs(a2) ** 2
        if norm == 0.0:
            raise ValueError("all polynomial coefficients vanish")
        if a0 == 0.0 and a1 == 0.0:
            return [], 2
        disc = a1 * a1 - 4.0 * a0 * a2
        if abs(disc) <= _DOUBLE_ROOT_TOL * norm:
            if abs(a0) >= abs(a2):
                z = -a1 / (2.0 * a0)
            elif a1 == 0.0:
                return [], 2
            else:
                z = -2.0 * a2 / a1
            return [z, z], 0
        if a0 == 0.0:
            return [-a2 / a1], 1
        sq = cmath.sqrt(disc)
        if (a1.real * sq.real + a1.imag * sq.imag) >= 0.0:
            q = -0.5 * (a1 + sq)
        else:
            q = -0.5 * (a1 - sq)
        return [q / a0, a2 / q], 0


def stereographic(p: SpherePoint) -> complex:
    """Projection from the south pole onto the equatorial plane.

    Returns x' + i y' = e^{i phi} tan(theta/2); the south pole itself has
    no finite image.
    """
    if math.pi - p.theta <= DEGENERACY_EPS:
        raise SouthPoleError("south pole projects to the point at infinity")
    return cmath.exp(1j * p.phi) * math.tan(0.5 * p.theta)


def inverse_stereographic(z: complex) -> SpherePoint:
    """Sphere point whose projection is the complex number z."""
    r = abs(z)
    if r == 0.0:
        return SpherePoint(0.0, 0.0)
    return SpherePoint(2.0 * math.atan(r), _wrap_phi(cmath.phase(z)))


_SOUTH = SpherePoint(math.pi, 0.0)


def state_to_points(psi: Ket3) -> SpherePointPair:
    """Majorana pair of a normalized state."""
    finite, at_infinity = MajoranaPoly.from_ket(psi).roots()
    points = [inverse_stereographic(z) for z in finite] + [_SOUTH] * at_infinity
    return SpherePointPair(points[0], points[1])


def kets_to_points(kets) -> np.ndarray:
    """Cartesian Majorana pairs of an (N, 3) array of normalized kets.

    Returns an (N, 2, 3) array. Row n is state_to_points(kets[n])
    .cartesian(), point order included: the same branches as
    MajoranaPoly.roots (roots at infinity, double root in either chart),
    the same stable quadratic formula and the same angle conventions,
    evaluated for all rows at once.
    """
    kets = np.asarray(kets, dtype=complex)
    a0, a1, a2 = kets[:, 0] / _SQRT2, -kets[:, 1], kets[:, 2] / _SQRT2
    m0, m1, m2 = np.abs(a0), np.abs(a1), np.abs(a2)
    norm = 2.0 * m0 * m0 + m1 * m1 + 2.0 * m2 * m2
    if not np.all(norm > 0.0):
        raise ValueError("all polynomial coefficients vanish")
    disc = a1 * a1 - 4.0 * a0 * a2
    double = np.abs(disc) <= _DOUBLE_ROOT_TOL * norm
    north = m0 >= m2
    both_south = (m0 == 0.0) & (m1 == 0.0) | double & ~north & (m1 == 0.0)
    lead = (m0 == 0.0) & ~double & ~both_south
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        q = -0.5 * (a1 + np.where(a1.real * sq.real + a1.imag * sq.imag >= 0.0, sq, -sq))
        snap = np.where(north, -a1 / (2.0 * a0), -2.0 * a2 / a1)
        z1 = np.where(double, snap, np.where(lead, -a2 / a1, q / a0))
        z2 = np.where(double, z1, a2 / q)
    roots = np.stack([z1, z2], axis=1)
    south = np.stack([both_south, both_south | lead], axis=1)
    # inverse_stereographic, then SpherePoint's canonical angles
    theta = np.where(south, math.pi, 2.0 * np.arctan(np.abs(roots)))
    phi = np.arctan2(roots.imag, roots.real)
    phi = np.where(phi < 0.0, phi + _TWO_PI, phi)
    phi[south | (theta == 0.0) | (theta == math.pi) | (phi == _TWO_PI)] = 0.0
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def points_to_state(pair: SpherePointPair) -> Ket3:
    """State whose Majorana pair is the given one.

    Built from the root pair z_i = e^{i phi_i} tan(theta_i/2) as the
    column (sqrt(2) c1 c2, e^{i phi1} s1 c2 + e^{i phi2} c1 s2,
    sqrt(2) e^{i(phi1+phi2)} s1 s2) with c_i = cos(theta_i/2),
    s_i = sin(theta_i/2), scaled by the closed-form normalization
    Gamma = sqrt(2) [3 + cos t1 cos t2 + sin t1 sin t2 cos(p1-p2)]^{-1/2}.
    Symmetric under swapping the two points.
    """
    t1, p1 = pair.p1.theta, pair.p1.phi
    t2, p2 = pair.p2.theta, pair.p2.phi
    c1, s1 = math.cos(0.5 * t1), math.sin(0.5 * t1)
    c2, s2 = math.cos(0.5 * t2), math.sin(0.5 * t2)
    e1, e2 = cmath.exp(1j * p1), cmath.exp(1j * p2)
    bracket = 3.0 + math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
    # bracket >= 2 for any pair of angles; underflow would be a bug signal.
    if bracket < DEGENERACY_EPS:
        raise DegeneratePairError(f"normalization bracket underflow: {bracket}")
    gamma = _SQRT2 / math.sqrt(bracket)
    column = np.array(
        [
            _SQRT2 * c1 * c2,
            e1 * s1 * c2 + e2 * c1 * s2,
            _SQRT2 * e1 * e2 * s1 * s2,
        ],
        dtype=complex,
    )
    return Ket3(gamma * column)
