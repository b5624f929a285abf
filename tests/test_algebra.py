import math

import numpy as np
import pytest

from qutritsim.algebra import (
    GELL_MANN,
    JDEF,
    SIGMA,
    majorana_rotation_check,
    r_so3,
    transition_op,
    transition_unitary,
    u_lambda,
    u_sigma,
)
from qutritsim.core import Ket3, random_ket
from qutritsim.majorana import SpherePoint, great_circle_distance, points_to_state, state_to_points

ANGLE_GRID = (0.0, math.pi / 7, -math.pi / 7, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi)


def expm_series(mat: np.ndarray, terms: int = 60) -> np.ndarray:
    """Plain Taylor series; the independent oracle for all exponentials."""
    out = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for n in range(1, terms):
        term = term @ mat / n
        out = out + term
    return out


def test_gell_mann_orthonormality():
    for i in range(8):
        for j in range(8):
            expected = 2.0 if i == j else 0.0
            got = np.trace(GELL_MANN[i] @ GELL_MANN[j])
            assert abs(got - expected) < 1e-12


def test_gell_mann_hermitian_traceless():
    for lam in GELL_MANN:
        assert np.allclose(lam, lam.conj().T, atol=1e-15)
        assert abs(np.trace(lam)) < 1e-15


def test_sigma_commutators():
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = SIGMA[i] @ SIGMA[j] - SIGMA[j] @ SIGMA[i]
        assert np.max(np.abs(comm - 1j * SIGMA[k])) < 1e-12


def test_jdef_commutators():
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = JDEF[i] @ JDEF[j] - JDEF[j] @ JDEF[i]
        assert np.max(np.abs(comm - 1j * JDEF[k])) < 1e-12


def test_u_lambda_diagonal_phase():
    for theta in (0.3, -1.2, math.pi / 5):
        expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta), 1.0])
        assert np.max(np.abs(u_lambda(3, theta).mat - expected)) < 1e-12


def test_u_lambda_identity_and_pi():
    assert np.max(np.abs(u_lambda(1, 0.0).mat - np.eye(3))) < 1e-12
    expected = np.diag([-1.0, -1.0, 1.0])
    assert np.max(np.abs(u_lambda(1, math.pi).mat - expected)) < 1e-12


def test_u_lambda_matches_series_oracle():
    for i in range(1, 9):
        for theta in ANGLE_GRID:
            oracle = expm_series(1j * theta * GELL_MANN[i - 1])
            assert np.max(np.abs(u_lambda(i, theta).mat - oracle)) < 1e-12


def test_u_lambda_index_range():
    with pytest.raises(ValueError):
        u_lambda(0, 1.0)
    with pytest.raises(ValueError):
        u_lambda(9, 1.0)


def test_u_sigma_diagonal():
    for xi in (0.7, -0.4):
        expected = np.diag([np.exp(1j * xi), 1.0, np.exp(-1j * xi)])
        assert np.max(np.abs(u_sigma(3, xi).mat - expected)) < 1e-12


def test_u_sigma_closed_form_matches_series():
    # A 30-term series only converges to ~3e-9 at xi = 2pi, so the oracle
    # runs to 60 terms to support the 1e-12 comparison on the whole grid.
    for j in (1, 2, 3):
        for xi in ANGLE_GRID:
            oracle = expm_series(1j * xi * SIGMA[j - 1], terms=60)
            assert np.max(np.abs(u_sigma(j, xi).mat - oracle)) < 1e-12


def test_r_so3_is_special_orthogonal():
    for j in (1, 2, 3):
        assert np.max(np.abs(r_so3(j, 0.0) - np.eye(3))) < 1e-12
        for xi in (0.8, -2.1):
            r = r_so3(j, xi)
            assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            oracle = expm_series(1j * xi * JDEF[j - 1])
            assert np.max(np.abs(r - oracle)) < 1e-12


def test_r_so3_x_half_turn():
    assert np.max(np.abs(r_so3(1, math.pi) - np.diag([1.0, -1.0, -1.0]))) < 1e-12


def test_r_so3_z_decreases_azimuth():
    # the convention pin: a z rotation by xi takes azimuth phi to phi - xi
    xi = 0.9
    v = np.array([math.cos(0.4), math.sin(0.4), 0.0])
    rotated = r_so3(3, xi) @ v
    assert math.atan2(rotated[1], rotated[0]) == pytest.approx(0.4 - xi, abs=1e-12)


def _basis(r, s):
    e = np.zeros((3, 3), dtype=complex)
    e[r - 1, s - 1] = 1.0
    return e


def test_transition_ops_match_subspace_paulis():
    # x and y are half-Paulis on the subspace; z of (1,2) likewise, while
    # z of (2,3) and (1,3) are the doubled Gell-Mann combinations
    half = {
        ((1, 2), "x"): 0.5 * (_basis(1, 2) + _basis(2, 1)),
        ((1, 2), "y"): 0.5j * (_basis(2, 1) - _basis(1, 2)),
        ((1, 2), "z"): 0.5 * (_basis(1, 1) - _basis(2, 2)),
        ((2, 3), "x"): 0.5 * (_basis(2, 3) + _basis(3, 2)),
        ((2, 3), "y"): 0.5j * (_basis(3, 2) - _basis(2, 3)),
        ((1, 3), "x"): 0.5 * (_basis(1, 3) + _basis(3, 1)),
        ((1, 3), "y"): 0.5j * (_basis(3, 1) - _basis(1, 3)),
    }
    for key, expected in half.items():
        assert np.max(np.abs(transition_op(*key).matrix - expected)) < 1e-12
    z23 = transition_op((2, 3), "z").matrix
    assert np.max(np.abs(z23 - np.diag([0.0, 1.0, -1.0]))) < 1e-12
    z13 = transition_op((1, 3), "z").matrix
    assert np.max(np.abs(z13 - np.diag([1.0, 0.0, -1.0]))) < 1e-12


def test_transition_ops_gell_mann_identities():
    sqrt3 = math.sqrt(3.0)
    pairs = [
        (((1, 2), "x"), 0.5 * GELL_MANN[0]),
        (((1, 2), "y"), 0.5 * GELL_MANN[1]),
        (((1, 2), "z"), 0.5 * GELL_MANN[2]),
        (((2, 3), "x"), 0.5 * GELL_MANN[5]),
        (((2, 3), "y"), 0.5 * GELL_MANN[6]),
        (((2, 3), "z"), 0.5 * (sqrt3 * GELL_MANN[7] - GELL_MANN[2])),
        (((1, 3), "x"), 0.5 * GELL_MANN[3]),
        (((1, 3), "y"), 0.5 * GELL_MANN[4]),
        (((1, 3), "z"), 0.5 * (sqrt3 * GELL_MANN[7] + GELL_MANN[2])),
    ]
    for key, expected in pairs:
        assert np.max(np.abs(transition_op(*key).matrix - expected)) < 1e-12


def test_transition_unitary_identity_and_full_turn():
    op = transition_op((1, 2), "x")
    assert np.max(np.abs(transition_unitary(op, 0.0).mat - np.eye(3))) < 1e-12
    proj = np.diag([1.0, 1.0, 0.0])
    expected = np.eye(3) - 2 * proj
    assert np.max(np.abs(transition_unitary(op, 2 * math.pi).mat - expected)) < 1e-12


def test_transition_unitary_closed_form_where_half_pauli():
    for levels in ((1, 2), (2, 3), (1, 3)):
        proj = np.zeros((3, 3), dtype=complex)
        r, s = levels
        proj[r - 1, r - 1] = proj[s - 1, s - 1] = 1.0
        axes = ("x", "y", "z") if levels == (1, 2) else ("x", "y")
        for axis in axes:
            op = transition_op(levels, axis)
            for xi in (0.6, -1.7, math.pi):
                closed = (
                    np.eye(3)
                    - proj
                    + math.cos(xi / 2) * proj
                    + 2j * math.sin(xi / 2) * op.matrix
                )
                assert np.max(np.abs(transition_unitary(op, xi).mat - closed)) < 1e-12


def test_transition_unitary_matches_series_everywhere():
    for levels in ((1, 2), (2, 3), (1, 3)):
        for axis in ("x", "y", "z"):
            op = transition_op(levels, axis)
            for xi in (0.5, -2.2):
                oracle = expm_series(1j * xi * op.matrix)
                assert np.max(np.abs(transition_unitary(op, xi).mat - oracle)) < 1e-12


def test_transition_unitary_equals_u_lambda_on_line12():
    for xi in (0.4, 1.9, -0.8):
        a = transition_unitary(transition_op((1, 2), "x"), xi).mat
        b = u_lambda(1, xi / 2).mat
        assert np.max(np.abs(a - b)) < 1e-12


def test_transition_pi_pulse_swaps_populations():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    u = transition_unitary(transition_op((2, 3), "y", ), math.pi).mat
    swapped = u @ rho @ u.conj().T
    assert np.allclose(np.diag(swapped).real, [0.5, 0.2, 0.3], atol=1e-12)
    assert np.max(np.abs(swapped - np.diag(np.diag(swapped)))) < 1e-12


def test_transition_op_rejects_bad_input():
    with pytest.raises(ValueError):
        transition_op((1, 4), "x")
    with pytest.raises(ValueError):
        transition_op((1, 2), "q")


def test_rigidity_random_sweep(rng):
    for _ in range(200):
        psi = random_ket(rng)
        j = int(rng.integers(1, 4))
        xi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        assert majorana_rotation_check(psi, j, xi) <= 1e-8


def test_rigidity_degenerate_sweep(rng, degenerate_pairs):
    # double roots (spin-coherent states, |+1>, |-1>) and antipodal pairs
    kets = [Ket3([1, 0, 0]), Ket3([0, 0, 1])] + [points_to_state(p) for p in degenerate_pairs]
    for psi in kets:
        for j in (1, 2, 3):
            for xi in (3.0, float(rng.uniform(-2 * math.pi, 2 * math.pi))):
                assert majorana_rotation_check(psi, j, xi) <= 1e-8


def test_rigidity_near_coincident(rng, near_coincident_pairs):
    # Pairs about 8e-8 to 3e-7 rad apart sit at the double-root tolerance:
    # the snap can merge the pair on one side of the check and not on the
    # other, so the documented bound there is 1e-7, not 1e-8.
    for sep, pair in near_coincident_pairs:
        psi = points_to_state(pair)
        bound = 1e-7 if 8e-8 <= sep < 3e-7 else 1e-8
        for j in (1, 2, 3):
            assert majorana_rotation_check(psi, j, float(rng.uniform(-2 * math.pi, 2 * math.pi))) <= bound


def test_rigidity_zero_angle(rng):
    assert majorana_rotation_check(random_ket(rng), 2, 0.0) <= 1e-12


def test_lambda2_moves_one_point():
    # from |+1>, exp(i theta L2 / 2) pins one point to the north pole and
    # drags the other around the x-z great circle
    north = SpherePoint(0.0, 0.0)
    for theta in np.linspace(0.0, 2 * math.pi, 25, endpoint=False):
        psi = u_lambda(2, theta / 2).apply(Ket3([1, 0, 0]))
        pair = state_to_points(psi)
        dists = sorted(
            great_circle_distance(p, north) for p in (pair.p1, pair.p2)
        )
        assert dists[0] <= 1e-9
        for p in (pair.p1, pair.p2):
            assert abs(p.cartesian()[1]) <= 1e-9


def test_lambda5_points_meet_at_south_pole():
    psi = u_lambda(5, math.pi / 2).apply(Ket3([1, 0, 0]))
    pair = state_to_points(psi)
    assert pair.p1.theta == pytest.approx(math.pi, abs=1e-8)
    assert pair.p2.theta == pytest.approx(math.pi, abs=1e-8)
    # along the way both points stay in the x-z plane and mirror each other
    for theta in np.linspace(0.1, math.pi - 0.1, 9):
        pair = state_to_points(u_lambda(5, theta / 2).apply(Ket3([1, 0, 0])))
        z = sorted([pair.p1.cartesian()[2], pair.p2.cartesian()[2]])
        assert abs(pair.p1.cartesian()[1]) <= 1e-9
        assert abs(pair.p2.cartesian()[1]) <= 1e-9
        assert z[0] == pytest.approx(z[1], abs=1e-9)


def test_lambda3_corotates_equatorial_points():
    psi0 = Ket3(np.array([1, 0, 1]) / math.sqrt(2))
    start = state_to_points(psi0)
    assert abs(start.p1.cartesian()[2]) <= 1e-12
    for theta in np.linspace(0.0, 2 * math.pi, 17, endpoint=False):
        pair = state_to_points(u_lambda(3, theta).apply(psi0))
        for p in (pair.p1, pair.p2):
            assert abs(p.cartesian()[2]) <= 1e-9
        # the two points keep pointing in opposite directions as they move
        assert float(start.p1.cartesian() @ start.p2.cartesian()) == pytest.approx(-1.0, abs=1e-9)
