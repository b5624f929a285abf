import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim.core import Ket3, normalize, phase_invariant_distance, random_ket
from qutritsim.geometry import magnetization
from qutritsim.majorana import (
    MajoranaPoly,
    SouthPoleError,
    SpherePoint,
    SpherePointPair,
    great_circle_distance,
    inverse_stereographic,
    pair_distance,
    points_to_state,
    state_to_points,
    stereographic,
)

NORTH = SpherePoint(0.0, 0.0)
SOUTH = SpherePoint(math.pi, 0.0)


def test_basis_state_poles():
    both_north = state_to_points(Ket3([1, 0, 0]))
    assert both_north.p1.theta == 0.0 and both_north.p2.theta == 0.0

    split = state_to_points(Ket3([0, 1, 0]))
    thetas = sorted([split.p1.theta, split.p2.theta])
    assert thetas[0] == 0.0 and thetas[1] == math.pi

    both_south = state_to_points(Ket3([0, 0, 1]))
    assert both_south.p1.theta == math.pi and both_south.p2.theta == math.pi


def test_single_moved_point_example():
    # cos(pi/8)|+1> - sin(pi/8)|0>: the quadratic z(a0 z + a1) = 0 has
    # roots 0 and -a1/a0 = -sqrt(2) tan(pi/8), solved here by hand
    psi = Ket3([math.cos(math.pi / 8), -math.sin(math.pi / 8), 0.0])
    pair = state_to_points(psi)
    expected = SpherePointPair(
        NORTH, SpherePoint(2 * math.atan(math.sqrt(2) * math.tan(math.pi / 8)), math.pi)
    )
    assert pair_distance(pair, expected) < 1e-12


def test_stereographic_values():
    assert stereographic(NORTH) == 0
    assert stereographic(SpherePoint(math.pi / 2, 0.0)) == pytest.approx(1.0)
    assert stereographic(SpherePoint(math.pi / 2, math.pi / 2)) == pytest.approx(1j)
    with pytest.raises(SouthPoleError):
        stereographic(SOUTH)


def test_inverse_stereographic_round_trip():
    for z in (0.3 + 0.4j, -2.0 + 0.0j, 0.0 + 5.0j, 1e-3 - 1e-3j):
        p = inverse_stereographic(z)
        assert abs(stereographic(p) - z) < 1e-12 * max(1.0, abs(z))


def test_points_to_state_north_pair():
    psi = points_to_state(SpherePointPair(NORTH, NORTH))
    assert np.allclose(psi.vec, [1, 0, 0], atol=1e-12)


def test_points_to_state_north_south():
    psi = points_to_state(SpherePointPair(NORTH, SOUTH))
    assert phase_invariant_distance(psi, Ket3([0, 1, 0])) < 1e-12


def test_points_to_state_swap_symmetry(rng):
    for _ in range(100):
        t1, t2 = rng.uniform(0, math.pi, 2)
        f1, f2 = rng.uniform(0, 2 * math.pi, 2)
        a = points_to_state(SpherePointPair(SpherePoint(t1, f1), SpherePoint(t2, f2)))
        b = points_to_state(SpherePointPair(SpherePoint(t2, f2), SpherePoint(t1, f1)))
        assert phase_invariant_distance(a, b) <= 1e-12


def test_round_trip_random(rng, degenerate_pairs, near_coincident_pairs):
    kets = [random_ket(rng) for _ in range(2000)]
    kets += [Ket3([1, 0, 0]), Ket3([0, 0, 1])] + [points_to_state(p) for p in degenerate_pairs]
    kets += [points_to_state(p) for _, p in near_coincident_pairs]
    for psi in kets:
        back = points_to_state(state_to_points(psi))
        assert phase_invariant_distance(back, psi) <= 1e-9


def test_round_trip_through_pair(rng, degenerate_pairs):
    pairs = []
    for _ in range(300):
        t1, t2 = rng.uniform(0, math.pi, 2)
        f1, f2 = rng.uniform(0, 2 * math.pi, 2)
        pairs.append(SpherePointPair(SpherePoint(t1, f1), SpherePoint(t2, f2)))
    for pair in pairs + degenerate_pairs:
        back = state_to_points(points_to_state(pair))
        assert pair_distance(back, pair) <= 1e-8


def test_round_trip_near_coincident(near_coincident_pairs):
    # Pairs closer than the double-root tolerance (about 1.2e-7 rad) come
    # back merged at their midpoint; every other pair comes back within 1e-8.
    for sep, pair in near_coincident_pairs:
        back = state_to_points(points_to_state(pair))
        if back.p1 == back.p2:
            assert sep <= 1.5e-7
            mid = SpherePoint.from_cartesian(pair.p1.cartesian() + pair.p2.cartesian())
            assert great_circle_distance(back.p1, mid) <= 1e-8
        else:
            assert pair_distance(back, pair) <= 1e-8


def test_root_multiset_matches_projections(rng):
    for _ in range(300):
        psi = random_ket(rng)
        poly = MajoranaPoly.from_ket(psi)
        amax = max(abs(poly.a0), abs(poly.a1), abs(poly.a2))
        pair = state_to_points(psi)
        for p in (pair.p1, pair.p2):
            if math.pi - p.theta <= 1e-12:
                continue  # root at infinity
            assert abs(poly.evaluate(stereographic(p))) <= 1e-9 * amax


def test_antipodal_pair_is_nonpointing(rng):
    for _ in range(100):
        t, f = rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi)
        pair = SpherePointPair(
            SpherePoint(t, f), SpherePoint(math.pi - t, (f + math.pi) % (2 * math.pi))
        )
        m = magnetization(points_to_state(pair))
        assert m.magnitude <= 1e-9
        assert not m.pointing


def test_sphere_point_canonicalization():
    assert SpherePoint(0.0, 1.234).phi == 0.0
    assert SpherePoint(math.pi, -2.0).phi == 0.0
    assert SpherePoint(1.0, 2 * math.pi + 0.5).phi == pytest.approx(0.5, abs=1e-12)
    assert SpherePoint(1.0, -0.5).phi == pytest.approx(2 * math.pi - 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        SpherePoint(-0.1, 0.0)


def test_pair_distance_is_order_free():
    a = SpherePointPair(SpherePoint(0.3, 1.0), SpherePoint(2.0, 4.0))
    b = SpherePointPair(SpherePoint(2.0, 4.0), SpherePoint(0.3, 1.0))
    assert pair_distance(a, b) < 1e-15
    assert great_circle_distance(a.p1, b.p1) > 1.0


@settings(max_examples=100, deadline=None)
@given(amps=st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_round_trip_property(amps):
    raw = np.array(amps[:3]) + 1j * np.array(amps[3:])
    if np.linalg.norm(raw) < 1e-3:
        return
    psi = normalize(raw)
    back = points_to_state(state_to_points(psi))
    assert phase_invariant_distance(back, psi) <= 1e-9
