import math

import numpy as np
import pytest

from qutritsim.algebra import GELL_MANN
from qutritsim.core import (
    DensityMatrix3,
    Ket3,
    dm_from_ket,
    fidelity,
    random_density,
    random_ket,
)
from qutritsim.gates import chrestenson
from qutritsim.nmrsim import ThermalParams, prepare_pseudopure
from qutritsim.tomography import (
    InconsistentReadoutsError,
    TomoCoefficients,
    TomoExperimentResult,
    reconstruct,
    run_tomo_experiments,
    tomo_fidelity,
    tomo_report,
)

MIXED_ID = DensityMatrix3(np.eye(3) / 3)


def series_expm(mat, terms=60):
    out = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for n in range(1, terms):
        term = term @ mat / n
        out = out + term
    return out


def oracle_readouts(rho: np.ndarray):
    """Channel pipeline built independently: explicit pulse matrices via a
    series exponential and crush as a literal diagonal mask."""
    def crush(m):
        return np.diag(np.diag(m))

    ix12 = 0.5 * GELL_MANN[0]
    iy12 = 0.5 * GELL_MANN[1]
    iy23 = 0.5 * GELL_MANN[6]
    u2 = series_expm(-1j * math.pi * ix12)
    u3 = series_expm(1j * (math.pi / 2) * iy12)
    u4 = series_expm(1j * (math.pi / 2) * iy23)
    states = [
        rho,
        u2 @ rho @ u2.conj().T,
        u3 @ crush(rho) @ u3.conj().T,
        u4 @ crush(rho) @ u4.conj().T,
    ]
    return [(2 * m[0, 1], 2 * m[1, 2]) for m in states]


def test_maximally_mixed_reads_zero():
    results = run_tomo_experiments(MIXED_ID)
    for res in results:
        assert abs(res.line12) < 1e-15
        assert abs(res.line23) < 1e-15
    assert np.allclose(reconstruct(results).c, 0.0, atol=1e-12)


def test_basis_projector_readout_pattern():
    results = run_tomo_experiments(dm_from_ket(Ket3([1, 0, 0])))
    by_id = {r.experiment_id: r for r in results}
    # no coherence in the state: experiments 1 and 2 read nothing
    assert abs(by_id[1].line12) < 1e-12 and abs(by_id[1].line23) < 1e-12
    assert abs(by_id[2].line12) < 1e-12 and abs(by_id[2].line23) < 1e-12
    # experiment 3 turns the population difference into a line
    assert by_id[3].line12.real == pytest.approx(-1.0, abs=1e-12)
    # experiment 4 reads p3 - p2 = 0 here; c8 still follows from c3
    assert abs(by_id[4].line23) < 1e-12


def test_reconstruct_basis_projector_coefficients():
    results = run_tomo_experiments(dm_from_ket(Ket3([1, 0, 0])))
    c = reconstruct(results).c
    # diag(1,0,0) - I/3 = (1/2)(L3 + L8/sqrt(3))
    assert c[2] == pytest.approx(1.0, abs=1e-12)
    assert c[7] == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    others = [c[i] for i in (0, 1, 3, 4, 5, 6)]
    assert np.allclose(others, 0.0, atol=1e-12)


def test_readouts_match_channel_oracle(rng):
    for _ in range(100):
        rho = random_density(rng)
        results = run_tomo_experiments(rho)
        expected = oracle_readouts(rho.mat)
        for res, (l12, l23) in zip(results, expected):
            assert res.line12 == pytest.approx(l12, abs=1e-12)
            assert res.line23 == pytest.approx(l23, abs=1e-12)


def test_round_trip_random_states(rng):
    for _ in range(300):
        rho = dm_from_ket(random_ket(rng)) if rng.random() < 0.5 else random_density(rng)
        rebuilt = reconstruct(run_tomo_experiments(rho)).matrix()
        assert np.max(np.abs(rebuilt - rho.mat)) <= 1e-8
        assert tomo_fidelity(rho, run_tomo_experiments(rho)) >= 0.999


def test_linearity_of_reconstruction(rng):
    for _ in range(50):
        rho_a, rho_b = random_density(rng), random_density(rng)
        w = float(rng.random())
        blended = DensityMatrix3(w * rho_a.mat + (1 - w) * rho_b.mat)
        direct = reconstruct(run_tomo_experiments(blended)).matrix()
        combined = w * reconstruct(run_tomo_experiments(rho_a)).matrix() + (
            1 - w
        ) * reconstruct(run_tomo_experiments(rho_b)).matrix()
        assert np.max(np.abs(direct - combined)) <= 1e-8


def test_experiment_one_sees_only_single_quantum_coherences():
    base = np.eye(3, dtype=complex) / 3
    coh = base.copy()
    coh[0, 1] = coh[1, 0] = 0.05
    coh[1, 2] = 0.03j
    coh[2, 1] = -0.03j
    # same single-quantum part, different diagonal and rho_13
    variant = coh.copy()
    variant[0, 0] += 0.08
    variant[2, 2] -= 0.08
    variant[0, 2] = variant[2, 0] = 0.06
    r_a = run_tomo_experiments(DensityMatrix3(coh))[0]
    r_b = run_tomo_experiments(DensityMatrix3(variant))[0]
    assert r_a.line12 == pytest.approx(r_b.line12, abs=1e-12)
    assert r_a.line23 == pytest.approx(r_b.line23, abs=1e-12)


def test_inconsistent_readouts_rejected(rng):
    results = list(run_tomo_experiments(random_density(rng)))
    bad = TomoExperimentResult(
        experiment_id=2,
        line12=results[1].line12 + 0.01,  # breaks the c1 cross-check
        line23=results[1].line23,
    )
    results[1] = bad
    with pytest.raises(InconsistentReadoutsError):
        reconstruct(results)


def test_nan_readouts_rejected(rng):
    results = list(run_tomo_experiments(random_density(rng)))
    r3, r4 = results[2], results[3]
    for index, bad in (
        (2, TomoExperimentResult(3, r3.line12, complex(math.nan, 0.0))),
        (3, TomoExperimentResult(4, complex(math.nan, math.nan), r4.line23)),
        (1, TomoExperimentResult(2, complex(math.nan, 0.0), results[1].line23)),
    ):
        readouts = list(results)
        readouts[index] = bad
        with pytest.raises(InconsistentReadoutsError):
            reconstruct(readouts)


def test_reconstruct_needs_four_distinct_experiments(rng):
    results = run_tomo_experiments(random_density(rng))
    for readouts in (results + results[3:], results[:3], results[:3] + results[2:3]):
        with pytest.raises(ValueError, match="exactly the four experiments"):
            reconstruct(readouts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficients_refuse_non_finite(bad):
    with pytest.raises(ValueError, match="finite") as info:
        TomoCoefficients((0.1,) * 7 + (bad,))
    assert "\n" not in str(info.value)


def test_report_builds_the_matrix_once(rng, monkeypatch):
    calls = []
    matrix = TomoCoefficients.matrix

    def counted(self):
        calls.append(self)
        return matrix(self)

    monkeypatch.setattr(TomoCoefficients, "matrix", counted)
    tomo_report(random_density(rng))
    assert len(calls) == 1


def test_pseudopure_pipeline_fidelity():
    for target in (1, 2, 3):
        rho = prepare_pseudopure(target, ThermalParams(1e-4))
        assert tomo_fidelity(rho, run_tomo_experiments(rho)) == pytest.approx(
            1.0, abs=1e-9
        )


def test_mixed_identity_self_fidelity():
    assert tomo_fidelity(MIXED_ID, run_tomo_experiments(MIXED_ID)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_chrestenson_state_through_pipeline():
    rho = dm_from_ket(chrestenson().apply(Ket3([0, 1, 0])))
    assert tomo_fidelity(rho, run_tomo_experiments(rho)) >= 0.999


def test_coefficients_materialization(rng):
    coeffs = TomoCoefficients((0.0,) * 8)
    assert np.max(np.abs(coeffs.matrix() - np.eye(3) / 3)) < 1e-15
    assert coeffs.min_eigenvalue() == pytest.approx(1 / 3, abs=1e-12)
    for _ in range(100):
        coeffs = TomoCoefficients(rng.uniform(-1.0, 1.0, 8))
        expected = np.eye(3, dtype=complex) / 3.0
        for coeff, gen in zip(coeffs.c, GELL_MANN):
            expected += 0.5 * coeff * gen
        assert np.max(np.abs(coeffs.matrix() - expected)) <= 1e-15


def test_report_shape(rng):
    report = tomo_report(dm_from_ket(random_ket(rng)))
    assert len(report["coefficients"]) == 8
    assert len(report["rho_reconstructed"]) == 9
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
    rebuilt = np.array([re + 1j * im for re, im in report["rho_reconstructed"]]).reshape(3, 3)
    assert abs(np.trace(rebuilt) - 1.0) < 1e-9
