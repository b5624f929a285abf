import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim.core import (
    DensityMatrix3,
    Ket3,
    Unitary3,
    ZeroVectorError,
    dm_from_ket,
    fidelity,
    normalize,
    phase_invariant_distance,
    random_ket,
    random_unitary,
)

SQRT2 = math.sqrt(2.0)


def test_normalize_scaling():
    psi = normalize([2, 0, 0])
    assert np.allclose(psi.vec, [1, 0, 0], atol=1e-12)


def test_normalize_symmetric():
    psi = normalize([1, 1, 1])
    assert np.allclose(psi.vec, np.ones(3) / math.sqrt(3), atol=1e-12)
    assert abs(np.linalg.norm(psi.vec) - 1.0) < 1e-12


def test_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize([0, 0, 0])


def test_ket_rejects_unnormalized():
    for vec in ([1, 1, 0], [math.nan, 0, 0], [1, math.inf, 0]):
        with pytest.raises(ValueError):
            Ket3(vec)


def test_dm_basis_projector():
    rho = dm_from_ket(Ket3([1, 0, 0]))
    assert np.allclose(rho.mat, np.diag([1, 0, 0]), atol=1e-12)


def test_dm_two_level_superposition():
    rho = dm_from_ket(normalize([1, 0, 1]))
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 2] = expected[0, 2] = expected[2, 0] = 0.5
    assert np.allclose(rho.mat, expected, atol=1e-12)


def test_dm_chrestenson_column():
    # outer product of (1, e^{2pi i/3}, e^{4pi i/3})/sqrt(3), built here
    # independently of the gates module
    col = np.array([1.0, cmath.exp(2j * math.pi / 3), cmath.exp(4j * math.pi / 3)])
    col /= math.sqrt(3.0)
    rho = dm_from_ket(Ket3(col))
    assert np.allclose(np.diag(rho.mat), np.full(3, 1 / 3), atol=1e-12)
    assert np.allclose(rho.mat, np.outer(col, col.conj()), atol=1e-12)


def test_dm_invariants_random_sweep(rng):
    for _ in range(10_000):
        rho = dm_from_ket(random_ket(rng))
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-9
        assert abs(rho.purity() - 1.0) < 1e-9


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix3(np.array([[1, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix3(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        DensityMatrix3(np.diag([1.5, 0.5, -1.0]).astype(complex))


@pytest.mark.parametrize(
    "mat",
    [
        np.diag([1.0, 0.0, math.nan]),
        np.full((3, 3), math.nan),
        np.diag([1.0, 0.0, 0.0]) + np.diag([0.0, math.inf], k=1),
    ],
)
def test_density_matrix_rejects_non_finite(mat):
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix3(mat.astype(complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "raw", [[math.nan, 0, 0], [1, complex(0, math.inf), 0], [-math.inf, 1, 1]]
)
def test_normalize_rejects_non_finite(raw):
    with pytest.raises(ValueError, match="non-finite"):
        normalize(raw)


@pytest.mark.filterwarnings("error")
def test_normalize_scales_amplitudes_near_float_max():
    psi = normalize([complex(1.5e308, 1.5e308), 1.5e308, 0])
    assert np.allclose(psi.vec, np.array([1 + 1j, 1, 0]) / math.sqrt(3.0), atol=1e-15)


def test_unitary_rejects_nonunitary():
    for diag in ([1.0, 1.0, 2.0], [1.0, 1.0, math.nan]):
        with pytest.raises(ValueError):
            Unitary3(np.diag(diag).astype(complex))


def test_fidelity_self_overlap(rng):
    rho = dm_from_ket(random_ket(rng))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_projectors():
    a = DensityMatrix3(np.diag([1.0, 0, 0]).astype(complex))
    b = DensityMatrix3(np.diag([0, 1.0, 0]).astype(complex))
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_mixed_example():
    a = DensityMatrix3(np.diag([1.0, 0, 0]).astype(complex))
    b = DensityMatrix3(np.diag([0.5, 0.5, 0]).astype(complex))
    assert fidelity(a, b) == pytest.approx(1 / SQRT2, abs=1e-12)


def test_fidelity_symmetric_and_unitary_invariant(rng):
    for _ in range(200):
        a = dm_from_ket(random_ket(rng))
        b = dm_from_ket(random_ket(rng))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)
        u = random_unitary(rng)
        assert fidelity(u.conjugate(a), u.conjugate(b)) == pytest.approx(
            fidelity(a, b), abs=1e-9
        )


def test_phase_distance_global_phase():
    psi = Ket3([0, 1, 0])
    rotated = Ket3(cmath.exp(1j * math.pi / 7) * psi.vec)
    assert phase_invariant_distance(psi, rotated) < 1e-12


def test_phase_distance_orthogonal():
    assert phase_invariant_distance(Ket3([1, 0, 0]), Ket3([0, 0, 1])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_phase_distance_partial_overlap():
    a = Ket3([1, 0, 0])
    b = normalize([1, 1, 0])
    assert phase_invariant_distance(a, b) == pytest.approx(1 - 1 / SQRT2, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    amps=st.lists(st.floats(-1, 1), min_size=6, max_size=6),
    phase=st.floats(0, 2 * math.pi),
)
def test_phase_distance_invariant_property(amps, phase):
    raw = np.array(amps[:3]) + 1j * np.array(amps[3:])
    if np.linalg.norm(raw) < 1e-3:
        return
    psi = normalize(raw)
    rotated = Ket3(cmath.exp(1j * phase) * psi.vec)
    assert phase_invariant_distance(psi, rotated) <= 1e-12
