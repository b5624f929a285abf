import math

import numpy as np
import pytest

from qutritsim.algebra import u_lambda, u_sigma
from qutritsim.core import ContractViolation, Ket3, random_ket
from qutritsim.geometry import canonical_state, magnetization
from qutritsim.majorana import (
    SpherePoint,
    SpherePointPair,
    kets_to_points,
    points_to_state,
    state_to_points,
)
from qutritsim.trajectory import jump_bound, order_continuously, sample_trajectory

TWO_PI = 2 * math.pi
GENERATORS = [f"lambda{i}" for i in range(1, 9)] + [f"sigma{j}" for j in (1, 2, 3)]
STEP_COUNTS = (2, 8, 100, 1000)
FINEST = max(STEP_COUNTS)


def start_states():
    p = SpherePoint(1.1, 2.3)
    return {
        "+1": Ket3([1, 0, 0]),
        "0": Ket3([0, 1, 0]),
        "-1": Ket3([0, 0, 1]),
        "coherent": points_to_state(SpherePointPair(p, p)),
        "antipodal": points_to_state(SpherePointPair(p, SpherePoint(math.pi - 1.1, 2.3 + math.pi))),
        "canonical": canonical_state(0.5),
        "haar": random_ket(np.random.default_rng(31)),
    }


def scalar_samples(generator, psi):
    """Step-by-step reference on the finest grid: (theta, points, m) rows."""
    index = int(generator[-1])
    rows = []
    for k in range(FINEST):
        theta = TWO_PI * (k / FINEST)
        if generator.startswith("lambda"):
            u = u_lambda(index, 0.5 * theta)
        else:
            u = u_sigma(index, theta)
        psi_t = u.apply(psi)
        rows.append((theta, state_to_points(psi_t).cartesian(), magnetization(psi_t).m_vector))
    return rows


def arcs(u, v):
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=-1), np.sum(u * v, axis=-1))


@pytest.mark.parametrize("generator", GENERATORS)
def test_batched_matches_scalar_reference(generator):
    for name, psi in start_states().items():
        reference = scalar_samples(generator, psi)
        for steps in STEP_COUNTS:
            samples = sample_trajectory(generator, psi, steps, TWO_PI)
            # k/steps and (k*FINEST/steps)/FINEST round the same rational
            ref = reference[:: FINEST // steps]
            thetas = [TWO_PI * (k / steps) for k in range(steps)]
            assert [row[0] for row in samples] == thetas == [row[0] for row in ref]
            got = np.array([[p1, p2] for _, p1, p2, _ in samples])
            want = np.array([pts for _, pts, _ in ref])
            direct = np.abs(got - want).max(axis=(1, 2))
            swapped = np.abs(got - want[:, ::-1]).max(axis=(1, 2))
            m_err = np.abs(np.array([m for *_, m in samples]) - [m for *_, m in ref]).max()
            tol = 1e-12 if steps <= 200 else 1e-11
            assert np.minimum(direct, swapped).max() <= tol, (name, steps)
            assert m_err <= tol, (name, steps)
            jumps = arcs(got[:-1], got[1:]).max(axis=1)
            assert jumps.max() <= jump_bound(TWO_PI / steps), (name, steps)


def test_kets_to_points_branches():
    # one root at infinity, both at infinity, both at zero, double root in
    # the northern and the southern chart, a double root at infinity, a pair
    # straddling the south pole
    near_south = SpherePointPair(SpherePoint(math.pi - 1e-6, 0.3), SpherePoint(math.pi - 1e-6, 0.3 + math.pi))
    kets = np.array(
        [
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            points_to_state(SpherePointPair(SpherePoint(0.4, 5.0), SpherePoint(0.4, 5.0))).vec,
            points_to_state(SpherePointPair(SpherePoint(2.7, 1.0), SpherePoint(2.7, 1.0))).vec,
            [1e-17, 0, 1],
            points_to_state(near_south).vec,
            random_ket(np.random.default_rng(3)).vec,
        ],
        dtype=complex,
    )
    got = kets_to_points(kets)
    want = np.array([state_to_points(Ket3(k)).cartesian() for k in kets])
    assert np.array_equal(got[:3], want[:3])
    assert np.array_equal(got[5], got[1])  # both points on the south pole
    assert np.abs(got - want).max() <= 1e-15
    for n in (3, 4):
        assert np.array_equal(got[n, 0], got[n, 1])
    true = near_south.cartesian()
    assert min(np.abs(got[6] - true).max(), np.abs(got[6] - true[::-1]).max()) <= 1e-12


NORTH, SOUTH = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
EAST, WEST = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])


def nudge(p, d=0.01):
    q = p + d * np.array([0.0, 1.0, 0.0])
    return q / np.linalg.norm(q)


def test_continuity_swap_and_tie_reset():
    raw = np.array(
        [
            [NORTH, SOUTH],
            [SOUTH, NORTH],  # raw order crossed: swap back
            [EAST, WEST],  # every matching moves pi/2: a tie keeps raw order
            [nudge(EAST), nudge(WEST)],  # no crossing since the tie
            [nudge(WEST, 0.02), nudge(EAST, 0.02)],  # crossed again
        ]
    )
    thetas = np.arange(len(raw)) * 0.1
    got = order_continuously(raw, thetas, 2.0)
    want = [raw[0], raw[1][::-1], raw[2], raw[3], raw[4][::-1]]
    assert np.array_equal(got, np.array(want))


def test_continuity_break_names_first_theta():
    raw = np.array(
        [
            [NORTH, SOUTH],
            [nudge(NORTH), nudge(SOUTH)],
            [EAST, WEST],  # best matching moves a point ~pi/2
            [NORTH, SOUTH],  # a later break is not the one reported
        ]
    )
    thetas = np.array([0.0, 0.25, 0.5, 0.75])
    with pytest.raises(ContractViolation, match=r"discontinuity at theta=0\.5: point jump 1\.5"):
        order_continuously(raw, thetas, 0.3)


def test_sample_trajectory_rejects_bad_input():
    psi = Ket3([1, 0, 0])
    with pytest.raises(ValueError, match="at least 2 steps"):
        sample_trajectory("lambda2", psi, 1, TWO_PI)
    with pytest.raises(ValueError, match="unknown generator"):
        sample_trajectory("sigma4", psi, 10, TWO_PI)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            sample_trajectory("lambda5", psi, 10, bad)
