"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a PASS line with the criterion number when it survives
its assertions (run with -s to see them). Random sampling is seeded, so
the suite is deterministic.
"""

import json
import math

import numpy as np
import pytest

from qutritsim.algebra import majorana_rotation_check, u_sigma
from qutritsim.cli import main, parse_state_spec, sample_trajectory
from qutritsim.core import (
    Ket3,
    dm_from_ket,
    phase_invariant_distance,
    random_ket,
)
from qutritsim.gates import chrestenson, swap
from qutritsim.geometry import canonical_decompose, canonical_state, magnetization
from qutritsim.majorana import (
    SpherePoint,
    SpherePointPair,
    pair_distance,
    points_to_state,
    state_to_points,
)
from qutritsim.nmrsim import (
    ThermalParams,
    chrestenson_sequence,
    double_quantum_sequence,
    phase_difference_pipeline,
    prepare_pseudopure,
    swap_sequence,
    verify_sequence,
)
from qutritsim.tomography import (
    reconstruct,
    run_tomo_experiments,
    tomo_fidelity,
)

SEED = 987654321


def _rng():
    return np.random.default_rng(SEED)


def _report(criterion, text):
    print(f"[criterion {criterion:2d}] PASS  {text}")


def test_criterion_01_majorana_round_trip():
    rng = _rng()
    worst = 0.0
    for _ in range(10_000):
        psi = random_ket(rng)
        back = points_to_state(state_to_points(psi))
        worst = max(worst, phase_invariant_distance(back, psi))
    assert worst <= 1e-9
    _report(1, f"10^4 state->points->state round trips, worst distance {worst:.2e}")


def test_criterion_02_rigidity_theorem():
    rng = _rng()
    worst = 0.0
    for _ in range(1000):
        psi = random_ket(rng)
        j = int(rng.integers(1, 4))
        xi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        worst = max(worst, majorana_rotation_check(psi, j, xi))
    assert worst <= 1e-8

    # worked z-rotation example: azimuths drop by the rotation angle and
    # the final state matches the closed-form column up to a global phase
    for _ in range(100):
        t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
        f1, f2 = rng.uniform(0.0, 2 * math.pi, 2)
        pair = SpherePointPair(SpherePoint(t1, f1), SpherePoint(t2, f2))
        psi = points_to_state(pair)
        rotated = u_sigma(3, f1).apply(psi)
        expected_pair = SpherePointPair(
            SpherePoint(t1, 0.0), SpherePoint(t2, (f2 - f1) % (2 * math.pi))
        )
        assert pair_distance(state_to_points(rotated), expected_pair) <= 1e-8
        expected_state = points_to_state(expected_pair)
        assert phase_invariant_distance(rotated, expected_state) <= 1e-9
    _report(2, f"10^3 rigid-rotation checks, worst pair distance {worst:.2e}")


def test_criterion_03_basis_state_geometry():
    cases = {
        (1, 0, 0): (0.0, 0.0),
        (0, 1, 0): (0.0, math.pi),
        (0, 0, 1): (math.pi, math.pi),
    }
    for amps, want in cases.items():
        pair = state_to_points(Ket3(list(amps)))
        thetas = sorted([pair.p1.theta, pair.p2.theta])
        assert abs(thetas[0] - want[0]) <= 1e-12
        assert abs(thetas[1] - want[1]) <= 1e-12
    _report(3, "basis kets sit exactly on the poles (north/north, north/south, south/south)")


def test_criterion_04_canonical_decomposition():
    rng = _rng()
    worst = 0.0
    for _ in range(1000):
        psi = random_ket(rng)
        alpha, angles = canonical_decompose(psi)
        rebuilt = Ket3(angles.unitary() @ psi.vec)
        worst = max(worst, phase_invariant_distance(rebuilt, canonical_state(alpha)))
    assert worst <= 1e-8

    for alpha in np.linspace(0.0, math.pi / 2, 100):
        s3 = magnetization(canonical_state(alpha)).m_vector[2]
        assert abs(abs(s3) - abs(math.cos(2 * alpha))) <= 1e-9
    _report(4, f"10^3 decompositions reconstruct (worst {worst:.2e}); |<S3>| = |cos 2a| on 100-point grid")


def test_criterion_05_magnetization_geometry():
    rng = _rng()
    for _ in range(1000):
        m = magnetization(random_ket(rng))
        lb = m.bisector_length
        assert abs(m.magnitude - 2 * abs(lb) / (lb * lb + 1)) <= 1e-9
    for _ in range(1000):
        psi = random_ket(rng)
        a, b, c = rng.uniform(-math.pi, math.pi, 3)
        rotation = u_sigma(3, a).mat @ u_sigma(2, b).mat @ u_sigma(3, c).mat
        rotated = Ket3(rotation @ psi.vec)
        assert abs(magnetization(rotated).magnitude - magnetization(psi).magnitude) <= 1e-9
    _report(5, "bisector relation and rotation invariance on 10^3 random states each")


def test_criterion_06_chrestenson():
    vectors = []
    for amps in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        m = magnetization(chrestenson().apply(Ket3(amps)))
        assert abs(m.magnitude - 2 * math.sqrt(2) / 3) <= 1e-9
        assert abs(m.m_vector[2]) <= 1e-9
        vectors.append(m.m_vector / m.magnitude)
    for i in range(3):
        dot = float(vectors[i] @ vectors[(i + 1) % 3])
        assert abs(math.acos(max(-1.0, min(1.0, dot))) - 2 * math.pi / 3) <= 1e-9
    fid = verify_sequence(chrestenson_sequence(), chrestenson())
    assert fid >= 1 - 1e-8
    _report(6, f"all outputs |M| = 2 sqrt2/3 in z=0 at 120 deg; pulse sequence fidelity {fid:.12f}")


def test_criterion_07_swap_suite():
    psi = Ket3([1, 0, 0])
    configs = []
    for gate in (None, swap((1, 2)), swap((2, 3)), swap((1, 3))):
        if gate is not None:
            psi = gate.apply(psi)
        pair = state_to_points(psi)
        configs.append(tuple(sorted([pair.p1.theta, pair.p2.theta])))
    assert configs[0] == (0.0, 0.0)
    assert configs[1] == (0.0, math.pi)
    assert configs[2] == (math.pi, math.pi)
    assert configs[3] == (0.0, 0.0)

    fids = {}
    for pair_levels in ((1, 2), (2, 3), (1, 3)):
        fids[pair_levels] = verify_sequence(swap_sequence(pair_levels), swap(pair_levels))
        assert fids[pair_levels] >= 1 - 1e-8
    cascade_fid = verify_sequence(double_quantum_sequence(math.pi), swap((1, 3)))
    assert cascade_fid >= 1 - 1e-8
    _report(7, f"pole cycle exact; sequence fidelities {min(fids.values()):.12f}, cascade {cascade_fid:.12f}")


def test_criterion_08_phase_table():
    sqrt3 = math.sqrt(3.0)
    for theta_deg in (0.0, 30.0, 45.0, 60.0, 90.0, 120.0):
        theta = math.radians(theta_deg)
        for which, predicted in (("l3", 1.5 * theta), ("l8", sqrt3 * theta)):
            measured = phase_difference_pipeline(which, theta)
            delta = abs(measured - predicted % (2 * math.pi)) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) <= 1e-6
    _report(8, "pipeline reproduces 3 theta/2 and sqrt(3) theta for all six rows")


def test_criterion_09_tomography():
    rng = _rng()
    worst = 0.0
    for _ in range(1000):
        rho = dm_from_ket(random_ket(rng))
        rebuilt = reconstruct(run_tomo_experiments(rho)).matrix()
        worst = max(worst, float(np.max(np.abs(rebuilt - rho.mat))))
    assert worst <= 1e-8
    for target in (1, 2, 3):
        pseudo = prepare_pseudopure(target, ThermalParams(1e-4))
        fid = tomo_fidelity(pseudo, run_tomo_experiments(pseudo))
        assert abs(fid - 1.0) <= 1e-9
    _report(9, f"10^3 reconstruction round trips (worst {worst:.2e}); pseudopure fidelities 1")


def test_criterion_10_spectrum(capsys):
    # analytic: the diagonal energies put the two lines exactly 6 kappa apart
    for kappa in (0.5, 3.25, 156.0):
        energies = np.array([-1000.0 + kappa, -2 * kappa, 1000.0 + kappa])
        f12 = energies[1] - energies[0]
        f23 = energies[2] - energies[1]
        assert abs((f23 - f12) - 6 * kappa) < 1e-12
    code = main(["spectrum", "--omega0", "91.108e6", "--kappa", "156"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["separation_hz"] == 936.0
    _report(10, "line separation is 6 kappa; CLI reports exactly 936 Hz for kappa = 156 Hz")


def test_criterion_11_lambda_trajectories():
    steps = 100
    plus = parse_state_spec("+1")

    _, points, _ = sample_trajectory("lambda2", plus, steps, 2 * math.pi)
    north = np.array([0.0, 0.0, 1.0])
    stationary = [
        all(np.linalg.norm(p - north) <= 1e-9 for p in points[:, i])
        for i in (0, 1)
    ]
    assert any(stationary)
    moving = 0 if stationary[1] else 1
    for p in points[:, moving]:
        assert abs(p[1]) <= 1e-9  # confined to the x-z great circle

    thetas5, points5, _ = sample_trajectory("lambda5", plus, steps, 2 * math.pi)
    assert thetas5[steps // 2] == pytest.approx(math.pi, abs=1e-15)
    south = np.array([0.0, 0.0, -1.0])
    assert np.linalg.norm(points5[steps // 2, 0] - south) <= 1e-8
    assert np.linalg.norm(points5[steps // 2, 1] - south) <= 1e-8

    equatorial = parse_state_spec(f"{1 / math.sqrt(2)},0 0,0 {1 / math.sqrt(2)},0")
    _, points3, _ = sample_trajectory("lambda3", equatorial, steps, 2 * math.pi)
    for p1, p2 in points3:
        assert abs(p1[2]) <= 1e-9
        assert abs(p2[2]) <= 1e-9
    _report(11, "lambda2 pins one point; lambda5 meets the south pole at pi; lambda3 stays equatorial")
