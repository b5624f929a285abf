import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import algebra, geometry
from qutritsim.algebra import majorana_rotation_check
from qutritsim.core import Ket3, normalize, phase_invariant_distance, random_ket
from qutritsim.geometry import canonical_decompose, canonical_state, magnetization
from qutritsim.majorana import (
    MajoranaPoly,
    _arc,
    _pair_arc,
    SouthPoleError,
    SpherePoint,
    SpherePointPair,
    arc_angle,
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
    # |z| overflows: the point at infinity is the south pole
    assert inverse_stereographic(complex(1.3e308, 1.3e308)) == SOUTH


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


@pytest.mark.parametrize(
    "theta, phi", [(1.0, math.nan), (1.0, math.inf), (0.0, math.nan), (math.pi, -math.inf)]
)
def test_sphere_point_rejects_non_finite_azimuth(theta, phi):
    with pytest.raises(ValueError, match="azimuth"):
        SpherePoint(theta, phi)


def test_pair_distance_is_order_free(degenerate_pairs):
    a = SpherePointPair(SpherePoint(0.3, 1.0), SpherePoint(2.0, 4.0))
    b = SpherePointPair(SpherePoint(2.0, 4.0), SpherePoint(0.3, 1.0))
    assert pair_distance(a, b) < 1e-15
    assert great_circle_distance(a.p1, b.p1) > 1.0
    for pair in degenerate_pairs:
        assert pair_distance(pair, pair) == 0.0
        assert pair_distance(pair, SpherePointPair(pair.p2, pair.p1)) == 0.0


def test_arc_angle_matches_cross_norm_formula(rng, degenerate_pairs):
    def reference(u, v):
        return np.arctan2(
            np.linalg.norm(np.cross(u, v), axis=-1), np.einsum("...i,...i->...", u, v)
        )

    u = rng.standard_normal((500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.standard_normal((500, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    pairs = np.array([pair.cartesian() for pair in degenerate_pairs])
    cases = [
        (u, v),  # random
        (u, u),  # coincident
        (u, -u),  # antipodal
        (pairs[:, 0], pairs[:, 1]),  # poles, coincident and antipodal pairs
        (poles[:, None], np.concatenate([poles, u[:50]])[None]),  # poles, broadcast
    ]
    for a, b in cases:
        got, want = arc_angle(a, b), reference(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
    assert arc_angle(u[0], u[0]) == 0.0
    assert arc_angle(poles[0], poles[1]) == math.pi


@settings(max_examples=100, deadline=None)
@given(amps=st.lists(st.floats(-1, 1), min_size=6, max_size=6))
def test_round_trip_property(amps):
    raw = np.array(amps[:3]) + 1j * np.array(amps[3:])
    if np.linalg.norm(raw) < 1e-3:
        return
    psi = normalize(raw)
    back = points_to_state(state_to_points(psi))
    assert phase_invariant_distance(back, psi) <= 1e-9


# --------------------------------------------------------------------------
# scalar kernels: one pair of vectors on Python floats


def _unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _scalar_arc_cases(rng):
    """(u, v) unit-vector pairs: random; 1e-9 to 1e-7 rad apart and the
    same pairs made near-antipodal; and pole pairs."""
    u = _unit_rows(rng.standard_normal((300, 3)))
    cases = list(zip(u, _unit_rows(rng.standard_normal((300, 3)))))
    for sep in (1e-9, 1e-8, 1e-7):
        d = rng.standard_normal((300, 3))
        d = _unit_rows(d - np.sum(d * u, axis=1, keepdims=True) * u)
        v = math.cos(sep) * u + math.sin(sep) * d
        cases += list(zip(u, v)) + list(zip(u, -v))
    north, south = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    cases += [(north, south), (south, north), (north, north), (south, south)]
    cases += [(pole, w) for pole in (north, south) for w in u[:50]]
    return cases


def test_scalar_arc_agrees_with_arc_angle(rng):
    for u, v in _scalar_arc_cases(rng):
        assert abs(_arc(u.tolist(), v.tolist()) - float(arc_angle(u, v))) <= 1e-15


def test_scalar_arc_exact_at_zero_and_pi(rng):
    for u in _unit_rows(rng.standard_normal((200, 3))).tolist():
        assert _arc(u, u) == 0.0
    assert _arc((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)) == math.pi
    assert great_circle_distance(NORTH, SOUTH) == math.pi
    assert great_circle_distance(SOUTH, SOUTH) == 0.0


def test_scalar_pair_arc_agrees_with_arc_angle(rng, degenerate_pairs):
    def broadcast(a, b):
        arc = arc_angle(a[:, None], b[None])
        return min(max(arc[0, 0], arc[1, 1]), max(arc[0, 1], arc[1, 0]))

    pairs = [pair.cartesian() for pair in degenerate_pairs]
    pairs += list(_unit_rows(rng.standard_normal((400, 3))).reshape(200, 2, 3))
    for a, b in zip(pairs, pairs[1:] + pairs[:1]):
        assert abs(_pair_arc(a.tolist(), b.tolist()) - broadcast(a, b)) <= 1e-15
        assert _pair_arc(a.tolist(), a.tolist()) == 0.0


# --------------------------------------------------------------------------
# the point map is computed once per Ket3


MEMO_KINDS = ("haar", "coherent", "antipodal", "plus1", "gimbal")
MEMO_XI = (0.3, -1.2, 2.5)


def _memo_vec(kind):
    """Amplitudes of one ket per kind: Haar, spin-coherent, antipodal,
    |+1> and a gimbal-lock ket of the decomposition golden."""
    if kind == "haar":
        return random_ket(np.random.default_rng(99)).vec
    if kind == "coherent":
        p = SpherePoint(1.1, 2.3)
        return points_to_state(SpherePointPair(p, p)).vec
    if kind == "antipodal":
        pair = SpherePointPair(SpherePoint(0.7, 0.4), SpherePoint(math.pi - 0.7, 0.4 + math.pi))
        return points_to_state(pair).vec
    if kind == "plus1":
        return np.array([1, 0, 0], dtype=complex)
    golden = Path(__file__).parent / "golden" / "decompose_angles.json"
    case = next(c for c in json.loads(golden.read_text()) if c["kind"] == "gimbal")
    return np.array([complex(re, im) for re, im in case["amps"]])


@pytest.fixture
def count_roots(monkeypatch):
    """List that gets one entry per MajoranaPoly.roots call."""
    calls = []
    roots = MajoranaPoly.roots

    def counted(self):
        calls.append(self)
        return roots(self)

    monkeypatch.setattr(MajoranaPoly, "roots", counted)
    return calls


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_states_op_maps_each_ket_once(kind, count_roots):
    # the calls of one benchmark `states` op: psi is mapped once, and each
    # of the 3 rigidity checks maps its own rotated ket
    psi = Ket3(_memo_vec(kind))
    back = points_to_state(state_to_points(psi))
    assert phase_invariant_distance(psi, back) <= 1e-9
    magnetization(psi)
    alpha, angles = canonical_decompose(psi)
    assert phase_invariant_distance(Ket3(angles.unitary() @ psi.vec), canonical_state(alpha)) <= 1e-9
    for j, xi in zip((1, 2, 3), MEMO_XI):
        assert majorana_rotation_check(psi, j, xi) <= 1e-8
    assert len(count_roots) == 4


@pytest.mark.parametrize("kind, expected", [("haar", 9), ("coherent", 9), ("antipodal", 9),
                                            ("plus1", 9), ("gimbal", 6)])
def test_states_op_builds_each_decomposition_unitary_once(kind, expected, monkeypatch):
    # 3 factors per decomposition candidate (one candidate at the gimbal
    # lock, else two), none for the caller's residual, which reuses the
    # winner's product, and one per rigidity check
    calls = []
    u_sigma_mat = algebra._u_sigma_mat

    def counted(j, xi):
        calls.append((j, xi))
        return u_sigma_mat(j, xi)

    monkeypatch.setattr(algebra, "_u_sigma_mat", counted)
    monkeypatch.setattr(geometry, "_u_sigma_mat", counted)
    psi = Ket3(_memo_vec(kind))
    points_to_state(state_to_points(psi))
    magnetization(psi)
    alpha, angles = canonical_decompose(psi)
    assert phase_invariant_distance(Ket3(angles.unitary() @ psi.vec), canonical_state(alpha)) <= 1e-9
    for j, xi in zip((1, 2, 3), MEMO_XI):
        majorana_rotation_check(psi, j, xi)
    assert len(calls) == expected


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memoized_ket_gives_fresh_ket_bits(kind):
    vec = _memo_vec(kind)
    psi = Ket3(vec)
    state_to_points(psi)

    def results(ket):
        """Everything derived from the pair, with ket() supplying each call's ket."""
        mag = magnetization(ket())
        alpha, angles = canonical_decompose(ket())
        checks = [majorana_rotation_check(ket(), j, xi) for j, xi in zip((1, 2, 3), MEMO_XI)]
        return (mag.m_vector.tolist(), mag.magnitude, mag.bisector_length, mag.pointing,
                alpha, angles.beta, angles.gamma, angles.delta, checks)

    # repr tells every float apart by its bits, signed zeros included
    assert repr(results(lambda: psi)) == repr(results(lambda: Ket3(vec)))


def test_round_trip_recomputes_the_pair():
    # points_to_state must not hand its input pair to the ket it builds:
    # a pair 5e-8 rad apart comes back from the point map merged
    for theta in (0.4, math.pi / 2, 2.0):
        pair = SpherePointPair(SpherePoint(theta - 2.5e-8, 1.0), SpherePoint(theta + 2.5e-8, 1.0))
        back = state_to_points(points_to_state(pair))
        assert back.p1 == back.p2


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_global_phase_kets_map_alike(kind, count_roots):
    vec = _memo_vec(kind)
    a, b = Ket3(vec), Ket3(-vec)
    assert state_to_points(a) == state_to_points(b)
    assert len(count_roots) == 2


def test_ket_amplitudes_cannot_change():
    # the stored pair relies on this
    raw = np.array([1, 0, 0], dtype=complex)
    psi = Ket3(raw)
    with pytest.raises(ValueError):
        psi.vec[0] = 0.0
    raw[0] = 0.0
    assert psi.vec.tolist() == [1, 0, 0]
