import json
import math
from pathlib import Path

import numpy as np
import pytest

from qutritsim.algebra import SIGMA, _u_sigma_mat, majorana_rotation_check, u_lambda, u_sigma
from qutritsim.core import Ket3, Unitary3, phase_invariant_distance, random_ket
from qutritsim.gates import chrestenson
from qutritsim.geometry import (
    CanonicalForm,
    DecompositionAngles,
    _pair_to_canonical_rotation,
    canonical_decompose,
    canonical_state,
    magnetization,
)
from qutritsim.majorana import points_to_state, state_to_points


def random_rigid_rotation(rng):
    """Euler product of the three spin-1 rotations."""
    a, b, c = rng.uniform(-math.pi, math.pi, 3)
    return Ket3, u_sigma(3, a).mat @ u_sigma(2, b).mat @ u_sigma(3, c).mat


def test_canonical_state_endpoints():
    assert np.allclose(canonical_state(0.0).vec, [0, 0, 1], atol=1e-15)
    assert np.allclose(canonical_state(math.pi / 2).vec, [1, 0, 0], atol=1e-15)
    mid = canonical_state(math.pi / 4)
    assert np.allclose(mid.vec, np.array([1, 0, 1]) / math.sqrt(2), atol=1e-15)
    assert magnetization(mid).magnitude < 1e-12


def test_canonical_state_range_error():
    with pytest.raises(ValueError):
        canonical_state(-0.1)
    with pytest.raises(ValueError):
        canonical_state(math.pi / 2 + 0.1)


def test_canonical_points_match_closed_form():
    for alpha in np.linspace(0.01, math.pi / 2 - 0.01, 23):
        form = CanonicalForm(alpha)
        pts = state_to_points(canonical_state(alpha)).cartesian()
        assert abs(pts[0][0]) < 1e-9 and abs(pts[1][0]) < 1e-9
        ys = sorted(p[1] for p in pts)
        assert ys[1] == pytest.approx(form.y_c, abs=1e-9)
        assert ys[0] == pytest.approx(-form.y_c, abs=1e-9)
        assert pts[0][2] == pytest.approx(form.z_c, abs=1e-9)
        assert pts[1][2] == pytest.approx(form.z_c, abs=1e-9)
        # chord angle between the two unit vectors
        enclosed = math.acos(max(-1.0, min(1.0, float(pts[0] @ pts[1]))))
        assert enclosed == pytest.approx(form.eta, abs=1e-9)


def test_magnetization_basis_states():
    up = magnetization(Ket3([1, 0, 0]))
    assert np.allclose(up.m_vector, [0, 0, 1], atol=1e-12)
    assert up.magnitude == pytest.approx(1.0, abs=1e-12)
    assert up.pointing

    zero = magnetization(Ket3([0, 1, 0]))
    assert zero.magnitude < 1e-12
    assert not zero.pointing

    down = magnetization(Ket3([0, 0, 1]))
    assert np.allclose(down.m_vector, [0, 0, -1], atol=1e-12)


def test_magnetization_canonical_family():
    for alpha in np.linspace(0.0, math.pi / 2, 50):
        m = magnetization(canonical_state(alpha))
        assert np.allclose(m.m_vector[:2], 0.0, atol=1e-12)
        assert m.m_vector[2] == pytest.approx(-math.cos(2 * alpha), abs=1e-12)
        assert m.magnitude == pytest.approx(abs(math.cos(2 * alpha)), abs=1e-9)


def test_magnetization_chrestenson_outputs():
    ch = chrestenson()
    vectors = []
    for basis in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        m = magnetization(ch.apply(Ket3(basis)))
        assert m.magnitude == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)
        assert abs(m.m_vector[2]) < 1e-9
        vectors.append(m.m_vector / m.magnitude)
    for i in range(3):
        j = (i + 1) % 3
        angle = math.acos(max(-1.0, min(1.0, float(vectors[i] @ vectors[j]))))
        assert angle == pytest.approx(2 * math.pi / 3, abs=1e-9)


def test_bisector_relation_random(rng):
    for _ in range(500):
        m = magnetization(random_ket(rng))
        lb = m.bisector_length
        assert abs(lb) <= 1.0 + 1e-12
        assert m.magnitude == pytest.approx(2 * abs(lb) / (lb * lb + 1), abs=1e-9)


def test_magnitude_invariant_under_rotations(rng):
    for _ in range(300):
        psi = random_ket(rng)
        mag = magnetization(psi).magnitude
        _, u = random_rigid_rotation(rng)
        rotated = Ket3(u @ psi.vec)
        assert magnetization(rotated).magnitude == pytest.approx(mag, abs=1e-9)
        assert magnetization(rotated).pointing == magnetization(psi).pointing


def test_direction_formula_random(rng):
    for _ in range(300):
        psi = random_ket(rng)
        m = magnetization(psi)
        pts = state_to_points(psi).cartesian()
        midpoint = 0.5 * (pts[0] + pts[1])
        predicted = 2.0 / (m.bisector_length ** 2 + 1.0) * midpoint
        assert np.max(np.abs(predicted - m.m_vector)) < 1e-8


def test_sigma_eigenstate_points_along_axis():
    for j in range(3):
        w, v = np.linalg.eigh(SIGMA[j])
        plus_one = Ket3(v[:, np.argmax(w)])
        m = magnetization(plus_one)
        expected = np.zeros(3)
        expected[j] = 1.0
        assert np.allclose(m.m_vector, expected, atol=1e-9)


def test_lambda5_changes_magnitude():
    psi = canonical_state(0.55)
    mags = [
        magnetization(u_lambda(5, theta).apply(psi)).magnitude
        for theta in np.linspace(0.0, math.pi, 20)
    ]
    assert max(mags) - min(mags) > 0.1


def test_decompose_canonical_is_fixed_point():
    for alpha in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
        got_alpha, angles = canonical_decompose(canonical_state(alpha))
        assert got_alpha == pytest.approx(alpha, abs=1e-9)
        assert abs(angles.beta) < 1e-9
        assert abs(angles.gamma) < 1e-9
        assert abs(angles.delta) < 1e-9


def test_decompose_zero_state():
    alpha, _ = canonical_decompose(Ket3([0, 1, 0]))
    assert alpha == pytest.approx(math.pi / 4, abs=1e-9)


def test_decompose_reconstruction_random(rng):
    for _ in range(300):
        psi = random_ket(rng)
        alpha, angles = canonical_decompose(psi)
        assert 0.0 <= alpha <= math.pi / 2
        rebuilt = Ket3(angles.unitary() @ psi.vec)
        assert phase_invariant_distance(rebuilt, canonical_state(alpha)) <= 1e-8
        # alpha is recoverable from the magnetization magnitude
        assert abs(math.cos(2 * alpha)) == pytest.approx(
            magnetization(psi).magnitude, abs=1e-8
        )


def test_decompose_coincident_and_antipodal_edges(degenerate_pairs, near_coincident_pairs):
    # coincident points (basis kets, spin-coherent and near-coincident
    # pairs) and exactly antipodal pairs hit the constructive-geometry
    # special cases
    pairs = degenerate_pairs + [pair for _, pair in near_coincident_pairs]
    kets = [Ket3(vec) for vec in ([1, 0, 0], [0, 0, 1], [0, 1, 0])]
    for psi in kets + [points_to_state(pair) for pair in pairs]:
        alpha, angles = canonical_decompose(psi)
        rebuilt = Ket3(angles.unitary() @ psi.vec)
        assert phase_invariant_distance(rebuilt, canonical_state(alpha)) <= 1e-8


# Expected angles from the implementation that checked every intermediate
# (a Unitary3 per rotation, a Ket3 per candidate); later refactors must
# reproduce them to 1e-12.
DECOMPOSE_GOLDEN = Path(__file__).parent / "golden" / "decompose_angles.json"


def test_decompose_angles_match_golden():
    # Haar, spin-coherent, antipodal, basis and canonical kets, and pairs
    # whose chord runs along x over the z axis: there the point rotation
    # is a quarter turn about z and the x-z-y factorization sits at (or,
    # with the azimuths offset, next to) its gimbal lock |sin b| = 1
    cases = json.loads(DECOMPOSE_GOLDEN.read_text())
    kinds = {case["kind"] for case in cases}
    assert kinds == {"haar", "coherent", "antipodal", "basis", "canonical", "gimbal"}
    for case in cases:
        psi = Ket3([complex(re, im) for re, im in case["amps"]])
        alpha, angles = canonical_decompose(psi)
        got = (alpha, angles.beta, angles.gamma, angles.delta)
        want = tuple(case[key] for key in ("alpha", "beta", "gamma", "delta"))
        assert got == pytest.approx(want, rel=0, abs=1e-12), case
        for j, xi in zip((1, 2, 3), case["xi"]):
            assert majorana_rotation_check(psi, j, xi) <= 1e-8, case


@pytest.mark.parametrize("field", ["beta", "gamma", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decomposition_angles_reject_non_finite(field, value):
    angles = {"beta": 0.1, "gamma": 0.2, "delta": 0.3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DecompositionAngles(**angles)


def test_rotation_path_builds_no_checked_unitary(monkeypatch, rng):
    # the matrices of the rotation and decomposition path are unitary by
    # construction; only kets are validated on it
    built = []
    check = Unitary3.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Unitary3, "__post_init__", counting_check)
    for psi in (random_ket(rng), Ket3([0, 1, 0]), canonical_state(0.4)):
        points_to_state(state_to_points(psi))
        magnetization(psi)
        alpha, angles = canonical_decompose(psi)
        rebuilt = Ket3(angles.unitary() @ psi.vec)
        assert phase_invariant_distance(rebuilt, canonical_state(alpha)) <= 1e-8
        for j in (1, 2, 3):
            assert majorana_rotation_check(psi, j, 0.7 * j) <= 1e-8
    assert built == []
    u_sigma(1, 0.3)  # the counter sees a checked construction
    assert len(built) == 1


def test_pair_to_canonical_rotation_rows(rng, degenerate_pairs, near_coincident_pairs):
    # the rows form a rotation that puts both points on the x = 0 plane,
    # mirror images of each other in the z axis: (0, y, z) and (0, -y, z)
    pairs = degenerate_pairs + [pair for _, pair in near_coincident_pairs]
    pairs += [state_to_points(random_ket(rng)) for _ in range(200)]
    branches = set()
    for pair in pairs:
        p1, p2 = (np.array(p) for p in pair._xyz())
        half_chord = np.linalg.norm(p1 - p2) / 2.0
        if np.linalg.norm(p1 + p2) / 2.0 <= 1e-8:
            branches.add("antipodal")
        elif half_chord <= 1e-8:
            branches.add("coincident")
        else:
            branches.add("generic")
        rot = np.array(_pair_to_canonical_rotation(pair))
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-12
        q1, q2 = rot @ p1, rot @ p2
        # a pair closer than the branch threshold is left as it lies
        tol = max(1e-12, half_chord) if half_chord <= 1e-8 else 1e-12
        assert max(abs(q1[0]), abs(q2[0]), abs(q1[1] + q2[1]), abs(q1[2] - q2[2])) <= tol, pair
    assert branches == {"antipodal", "coincident", "generic"}


def test_decomposition_unitary_is_computed_once(rng):
    _, angles = canonical_decompose(random_ket(rng))
    for angles in (angles, DecompositionAngles(0.3, -1.1, 2.0)):
        u = angles.unitary()
        assert angles.unitary() is u
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        fresh = _u_sigma_mat(1, angles.delta) @ _u_sigma_mat(3, angles.gamma) @ _u_sigma_mat(2, angles.beta)
        assert u.tobytes() == fresh.tobytes()
        # the stored product is not a field: equality and hashing ignore it
        same = DecompositionAngles(angles.beta, angles.gamma, angles.delta)
        assert same == angles and hash(same) == hash(angles)
