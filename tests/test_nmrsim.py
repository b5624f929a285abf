import cmath
import math

import numpy as np
import pytest

from qutritsim.algebra import transition_op, u_lambda, u_sigma
from qutritsim.core import (
    DensityMatrix3,
    Ket3,
    Unitary3,
    dm_from_ket,
    random_density,
    random_ket,
)
from qutritsim.gates import chrestenson, phase_gate, swap
from qutritsim.nmrsim import (
    GAIN,
    Crush,
    CrushInSequenceError,
    HamiltonianParams,
    InvalidTransitionError,
    NonselectivePulse,
    PulseSequence,
    ThermalParams,
    TransitionPulse,
    ZCascade,
    apply_event,
    chrestenson_sequence,
    double_quantum_sequence,
    event_unitary,
    hamiltonian,
    lambda_z_sequence,
    phase_difference_pipeline,
    phase_shift_sequence,
    phase_table,
    prepare_pseudopure,
    pseudopure_sequence,
    run_sequence,
    sequence_from_text,
    sequence_to_text,
    sequence_unitary,
    spectrum_lines,
    swap_sequence,
    thermal_state,
    transition_frequencies,
    verify_sequence,
)

THERMAL = ThermalParams(1e-4)


def hs_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Scale-invariant overlap, the oracle for deviation-matrix checks."""
    num = np.trace(a.conj().T @ b).real
    return num / math.sqrt(
        np.trace(a.conj().T @ a).real * np.trace(b.conj().T @ b).real
    )


# --------------------------------------------------------------------------
# Hamiltonian and spectrum positions


def test_hamiltonian_zeeman_only():
    h = np.diag(hamiltonian(HamiltonianParams(omega0=1000.0, kappa=0.0)))
    assert h[1] - h[0] == pytest.approx(1000.0)
    assert h[2] - h[1] == pytest.approx(1000.0)


def test_hamiltonian_splitting_is_six_kappa():
    # a modest omega0 keeps the difference free of float cancellation
    for kappa in (1.0, 17.3, 156.0):
        params = HamiltonianParams(omega0=5000.0, kappa=kappa)
        f12, f23 = transition_frequencies(params)
        assert abs(f23 - f12) == pytest.approx(6 * kappa, abs=1e-9)


def test_kappa_156_gives_936():
    f12, f23 = transition_frequencies(HamiltonianParams(omega0=91.108e6, kappa=156.0))
    assert abs(f23 - f12) == 936.0


def test_hamiltonian_param_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(omega0=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        HamiltonianParams(omega0=1.0, kappa=-1.0)


# --------------------------------------------------------------------------
# thermal state and lines


def test_thermal_state_form():
    rho = thermal_state(THERMAL)
    eps = THERMAL.epsilon
    expected = np.eye(3) / 3 + (eps / 3) * np.diag([1.0, 0.0, -1.0])
    assert np.max(np.abs(rho.mat - expected)) < 1e-15


def test_thermal_state_has_no_lines():
    for line in spectrum_lines(thermal_state(THERMAL)):
        assert line.amplitude == 0.0


def test_nonselective_90_gives_equal_in_phase_lines():
    rho = apply_event(thermal_state(THERMAL), NonselectivePulse("y", math.pi / 2))
    line12, line23 = spectrum_lines(rho)
    assert line12.amplitude == pytest.approx(line23.amplitude, rel=1e-9)
    assert line12.amplitude > 0.0
    assert line12.phase == pytest.approx(line23.phase, abs=1e-12)


def test_spectrum_readout_is_exactly_twice_coherence(rng):
    for _ in range(1000):
        rho = random_density(rng)
        for line, (r, s) in zip(spectrum_lines(rho), ((0, 1), (1, 2))):
            c = complex(rho.mat[r, s])
            assert line.readout == 2 * rho.mat[r, s]
            # the polar form keeps the bits of amplitude 2|rho_rs| and arg(rho_rs)
            assert line.amplitude == GAIN * 2.0 * abs(c)
            assert line.phase == cmath.phase(c)


def test_spectrum_readout_keeps_signed_zeros():
    mat = np.diag([0.5, 0.25, 0.25]).astype(complex)
    mat[0, 1], mat[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    line12, _ = spectrum_lines(DensityMatrix3(mat))
    assert math.copysign(1.0, line12.readout.real) == -1.0
    assert line12.phase == cmath.phase(complex(-0.0, -0.0)) == -math.pi


def test_spectrum_readout_is_twice_coherence(rng):
    rho = dm_from_ket(random_ket(rng))
    line12, line23 = spectrum_lines(rho)
    assert line12.readout == pytest.approx(2 * complex(rho.mat[0, 1]), abs=1e-12)
    assert line23.readout == pytest.approx(2 * complex(rho.mat[1, 2]), abs=1e-12)


# --------------------------------------------------------------------------
# events


def test_crush_keeps_uniform_populations():
    rho = dm_from_ket(chrestenson().apply(Ket3([0, 1, 0])))
    crushed = apply_event(rho, Crush())
    assert np.max(np.abs(crushed.mat - np.eye(3) / 3)) < 1e-12


def test_crush_idempotent_and_trace_preserving(rng):
    rho = dm_from_ket(random_ket(rng))
    once = apply_event(rho, Crush())
    twice = apply_event(once, Crush())
    assert np.array_equal(once.mat, twice.mat)
    assert np.trace(once.mat) == pytest.approx(1.0, abs=1e-12)


def test_transition_pi_pulse_swaps_populations():
    rho = DensityMatrix3(np.diag([0.5, 0.3, 0.2]).astype(complex))
    swapped = apply_event(rho, TransitionPulse((1, 2), "y", math.pi))
    assert np.allclose(np.diag(swapped.mat).real, [0.3, 0.5, 0.2], atol=1e-12)


def test_single_event_cannot_drive_double_quantum():
    with pytest.raises(InvalidTransitionError):
        TransitionPulse((1, 3), "x", math.pi)


def test_crush_free_sequence_preserves_purity(rng):
    seq = PulseSequence(
        (
            TransitionPulse((1, 2), "x", 0.7),
            NonselectivePulse("z", 1.1),
            ZCascade((0.2, -0.4, 0.9)),
            TransitionPulse((2, 3), "y", -2.0),
        )
    )
    rho = dm_from_ket(random_ket(rng))
    out = run_sequence(seq, rho)
    assert out.purity() == pytest.approx(rho.purity(), abs=1e-12)
    # and the channel equals conjugation by the composed unitary
    u = sequence_unitary(seq).mat
    assert np.max(np.abs(out.mat - u @ rho.mat @ u.conj().T)) < 1e-12


def test_empty_sequence_is_identity(rng):
    rho = dm_from_ket(random_ket(rng))
    assert np.array_equal(run_sequence(PulseSequence(()), rho).mat, rho.mat)


# --------------------------------------------------------------------------
# validation at the boundary: events at construction, the state at the exit


def _random_event(rng):
    kind = int(rng.integers(4))
    axis = "xyz"[int(rng.integers(3))]
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    if kind == 0:
        r = int(rng.integers(1, 3))
        return TransitionPulse((r, r + 1), axis, angle)
    if kind == 1:
        return NonselectivePulse(axis, angle)
    if kind == 2:
        return ZCascade(tuple(rng.uniform(-2 * math.pi, 2 * math.pi, 3)))
    return Crush()


def _reference_step(rho: DensityMatrix3, ev) -> DensityMatrix3:
    """One event with every intermediate checked; TR from a fresh eigh."""
    if isinstance(ev, Crush):
        return DensityMatrix3(np.diag(np.diag(rho.mat)))
    if isinstance(ev, TransitionPulse):
        w, v = np.linalg.eigh(transition_op(ev.levels, ev.axis))
        u = Unitary3((v * np.exp(1j * ev.angle * w)) @ v.conj().T)
    elif isinstance(ev, NonselectivePulse):
        u = u_sigma("xyz".index(ev.axis) + 1, ev.angle)
    else:
        u = Unitary3(np.diag(np.exp(1j * np.array(ev.angles))))
    return u.conjugate(rho)


@pytest.mark.parametrize(
    "make",
    [
        lambda a: TransitionPulse((1, 2), "x", a),
        lambda a: NonselectivePulse("z", a),
        lambda a: ZCascade((0.0, a, 0.0)),
    ],
)
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_events_refuse_non_finite_angles(make, angle):
    with pytest.raises(ValueError, match="finite"):
        make(angle)


def test_event_matrices_are_unitary(rng):
    angles = [0.0, math.pi, -math.pi / 2, 2 * math.pi, 1e6, -123456.789, 1e15]
    angles += list(rng.uniform(-10.0, 10.0, 20))
    for angle in angles:
        events = [ZCascade((angle, -2.0 * angle, 0.5 * angle))]
        for axis in "xyz":
            events += [TransitionPulse((1, 2), axis, angle), TransitionPulse((2, 3), axis, angle)]
            events.append(NonselectivePulse(axis, angle))
        for ev in events:
            u = event_unitary(ev)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12, (ev, angle)


def test_run_sequence_matches_stepwise_reference(rng):
    kinds = set()
    for _ in range(200):
        seq = PulseSequence(
            tuple(_random_event(rng) for _ in range(int(rng.integers(0, 21))))
        )
        kinds |= {type(ev) for ev in seq.events}
        rho = random_density(rng)
        expected = rho
        for ev in seq.events:
            expected = _reference_step(expected, ev)
        got = run_sequence(seq, rho)
        assert isinstance(got, DensityMatrix3)
        assert np.max(np.abs(got.mat - expected.mat)) <= 1e-13
    assert kinds == {TransitionPulse, NonselectivePulse, ZCascade, Crush}


_TR = TransitionPulse((1, 2), "x", 0.83)
_TR23 = TransitionPulse((2, 3), "y", -2.1)
_NS = NonselectivePulse("y", 1.27)
_ZC = ZCascade((0.4, -1.9, 2.6))


@pytest.mark.parametrize(
    "events",
    [
        (Crush(), _TR, _NS, _ZC),
        (_TR, _NS, _ZC, Crush()),
        (_TR, Crush(), Crush(), _NS),
        (_TR, _TR23, Crush(), Crush(), Crush(), _ZC, _NS, Crush(), _TR),
        (Crush(),),
        (Crush(), Crush(), Crush()),
        (_TR,),
        (_TR23,),
        (_NS,),
        (_ZC,),
    ],
)
def test_run_sequence_crush_placements_match_stepwise_reference(rng, events):
    for _ in range(20):
        rho = random_density(rng)
        expected = rho
        for ev in events:
            expected = _reference_step(expected, ev)
        got = run_sequence(PulseSequence(events), rho)
        assert np.max(np.abs(got.mat - expected.mat)) <= 1e-13


def test_run_sequence_checks_the_state_once(rng, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(mat):
        calls.append(mat)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for n in range(21):
        seq = PulseSequence(tuple(_random_event(rng) for _ in range(n)))
        rho = random_density(rng)
        calls.clear()
        run_sequence(seq, rho)
        assert len(calls) == (1 if n else 0)


# --------------------------------------------------------------------------
# canned sequences


def test_line_pi_pulse_swaps_populations_12():
    rho = run_sequence(
        PulseSequence((TransitionPulse((1, 2), "y", math.pi),)), thermal_state(THERMAL)
    )
    eps = THERMAL.epsilon
    assert np.allclose(
        np.diag(rho.mat).real, [1 / 3, (1 + eps) / 3, (1 - eps) / 3], atol=1e-12
    )


def test_double_quantum_cascade_swaps_13():
    rho = run_sequence(double_quantum_sequence(math.pi), thermal_state(THERMAL))
    eps = THERMAL.epsilon
    assert np.allclose(
        np.diag(rho.mat).real, [(1 - eps) / 3, 1 / 3, (1 + eps) / 3], atol=1e-12
    )


def test_double_quantum_cascade_is_swap13_up_to_phase():
    assert verify_sequence(double_quantum_sequence(math.pi), swap((1, 3))) >= 1 - 1e-8


def test_swap_sequences_verify():
    for pair in ((1, 2), (2, 3), (1, 3)):
        assert verify_sequence(swap_sequence(pair), swap(pair)) >= 1 - 1e-8


def test_swap_sequences_exact_including_phase():
    for pair in ((1, 2), (2, 3), (1, 3)):
        u = sequence_unitary(swap_sequence(pair)).mat
        assert np.max(np.abs(u - swap(pair).mat)) < 1e-12


def test_chrestenson_sequence_verifies():
    assert verify_sequence(chrestenson_sequence(), chrestenson()) >= 1 - 1e-8


def test_zcascade_realizations_of_diagonal_generators():
    for theta in (0.0, 0.6, -1.3, 2.8):
        assert verify_sequence(lambda_z_sequence(3, theta), u_lambda(3, theta)) >= 1 - 1e-9
        assert verify_sequence(lambda_z_sequence(8, theta), u_lambda(8, theta)) >= 1 - 1e-9
        # and the printed diagonal phase gates, up to global phase
        assert verify_sequence(lambda_z_sequence(3, theta), phase_gate("l3", theta)) >= 1 - 1e-9
        assert (
            verify_sequence(phase_shift_sequence("l8", theta), phase_gate("l8", theta))
            >= 1 - 1e-9
        )


def test_verify_rejects_crush():
    seq = PulseSequence((Crush(),))
    with pytest.raises(CrushInSequenceError):
        verify_sequence(seq, swap((1, 2)))


def test_verify_identity():
    assert verify_sequence(PulseSequence(()), u_lambda(1, 0.0)) == pytest.approx(1.0)


# --------------------------------------------------------------------------
# pseudopure preparation


def pseudopure_weight(rho: np.ndarray, target: int) -> float:
    return (3 * rho[target - 1, target - 1].real - 1.0) / 2.0


def test_pseudopure_form_all_targets():
    for target in (1, 2, 3):
        rho = prepare_pseudopure(target, THERMAL)
        a = pseudopure_weight(rho.mat, target)
        assert a > 0.0
        projector = np.zeros((3, 3))
        projector[target - 1, target - 1] = 1.0
        ideal = (1 - a) * np.eye(3) / 3 + a * projector
        assert np.max(np.abs(rho.mat - ideal)) < 1e-9
        # deviation overlaps the target projector deviation perfectly
        deviation = rho.mat - np.eye(3) / 3
        assert hs_overlap(deviation, projector - np.eye(3) / 3) == pytest.approx(
            1.0, abs=1e-9
        )


def test_pseudopure_plus1_deviations():
    # thermal deviations (e, 0, -e) become (e, -e/2, -e/2) after the
    # equalizing pulse and crush; oracle is the population-mixing algebra
    rho = prepare_pseudopure(1, THERMAL)
    e = THERMAL.epsilon / 3
    deviation = np.diag(rho.mat).real - 1 / 3
    assert np.allclose(deviation, [e, -e / 2, -e / 2], atol=1e-12)


def test_pseudopure_zero_deviations_shape():
    rho = prepare_pseudopure(2, THERMAL)
    deviation = np.diag(rho.mat).real - 1 / 3
    assert np.allclose(deviation / deviation[1], [-0.5, 1.0, -0.5], atol=1e-9)


def test_pseudopure_weight_is_half_epsilon():
    for target in (1, 2, 3):
        rho = prepare_pseudopure(target, THERMAL)
        assert pseudopure_weight(rho.mat, target) == pytest.approx(
            THERMAL.epsilon / 2, abs=1e-12
        )


def test_pseudopure_sequence_structure():
    for target in (1, 2, 3):
        seq = pseudopure_sequence(target)
        assert seq.has_crush()
        assert all(
            isinstance(ev, (TransitionPulse, Crush)) for ev in seq.events
        )


# --------------------------------------------------------------------------
# phase pipeline


def test_phase_pipeline_reproduces_predictions():
    for theta_deg, expected_deg in ((0, 0), (30, 45), (45, 67.5), (60, 90), (90, 135), (120, 180)):
        measured = phase_difference_pipeline("l3", math.radians(theta_deg))
        assert math.degrees(measured) == pytest.approx(expected_deg, abs=1e-6)
    for theta_deg in (0, 30, 45, 60, 90, 120):
        measured = phase_difference_pipeline("l8", math.radians(theta_deg))
        assert math.degrees(measured) == pytest.approx(
            (theta_deg * math.sqrt(3)) % 360.0, abs=1e-6
        )


def test_phase_table_rows():
    rows = phase_table()
    assert [row["theta_deg"] for row in rows] == [0.0, 30.0, 45.0, 60.0, 90.0, 120.0]
    for row in rows:
        assert row["l3_measured_deg"] == pytest.approx(row["l3_predicted_deg"], abs=1e-6)
        assert row["l8_measured_deg"] == pytest.approx(row["l8_predicted_deg"], abs=1e-6)


# --------------------------------------------------------------------------
# text format


def test_sequence_text_round_trip():
    # angles are written with 12 significant digits, so the reparsed
    # composite agrees to ~1e-11
    seq = chrestenson_sequence()
    text = sequence_to_text(seq)
    parsed = sequence_from_text(text)
    assert np.max(np.abs(sequence_unitary(parsed).mat - sequence_unitary(seq).mat)) < 1e-9


def test_sequence_text_lenient_parse():
    text = """
    # prepare-style sequence
    tr 2 3 y   90
      CRUSH

    ns x 180  # trailing comment
    zc 10 -20 30.5
    """
    seq = sequence_from_text(text)
    kinds = [type(ev).__name__ for ev in seq.events]
    assert kinds == ["TransitionPulse", "Crush", "NonselectivePulse", "ZCascade"]
    assert seq.events[0].angle == pytest.approx(math.pi / 2)
    assert seq.events[3].angles[1] == pytest.approx(math.radians(-20))


def test_sequence_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        sequence_from_text("CRUSH\nTR 1 2 x\n")
    with pytest.raises(ValueError, match="line 1"):
        sequence_from_text("WAIT 10\n")
    with pytest.raises(InvalidTransitionError):
        sequence_from_text("TR 1 3 x 90\n")


def test_canonical_write_format():
    text = sequence_to_text(PulseSequence((TransitionPulse((1, 2), "y", math.pi / 2),)))
    assert text == "TR 1 2 y 90\n"
