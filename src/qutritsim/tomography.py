"""Four-experiment state reconstruction in the Gell-Mann basis.

Writing rho = I/3 + (1/2) sum_i c_i L_i (the identity term completes the
operator basis and carries the unit trace), the eight real coefficients
c_i are recovered from the two observable lines of four experiments:

1. no operation            line12 = c1 - i c2, line23 = c6 - i c7
2. x pulse of -180 on 1-2  line23 = -c5 - i c4 (single and double
   quantum interchange); its line12 = c1 + i c2 re-measures experiment 1
3. crush, y 90 on 1-2      line12 = -c3, line23 = 0
4. crush, y 90 on 2-3      line23 = c3/2 - (sqrt 3/2) c8, line12 = 0

The inversion below is this linear system solved once; the round-trip
property reconstruct(run_tomo_experiments(rho)) == rho holds to float
precision. Components measured twice (and the lines forced to vanish)
are cross-checked and a disagreement beyond 1e-6, or a NaN, raises
InconsistentReadoutsError. The pulse of experiment 2 equals the
Gell-Mann exponential u_lambda(1, 3 pi/2) exactly: the transition-pulse
angle is half the generator angle, and -pi/2 and 3 pi/2 coincide on the
two-level subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GELL_MANN
from .core import _SQRT3, DensityMatrix3, fidelity
from .nmrsim import (
    Crush,
    PulseSequence,
    TransitionPulse,
    run_sequence,
    spectrum_lines,
)

CONSISTENCY_TOL = 1e-6


class InconsistentReadoutsError(ValueError):
    """Redundant tomography readouts disagree beyond tolerance."""


# rho = I/3 + c @ _HALF_GELL_MANN, each 3x3 flattened to 9 entries.
_THIRD_I = (np.eye(3) / 3.0).reshape(9)
_THIRD_I.setflags(write=False)
_HALF_GELL_MANN = 0.5 * np.stack(GELL_MANN).reshape(8, 9)
_HALF_GELL_MANN.setflags(write=False)

_EXPERIMENT_SEQUENCES = {
    1: PulseSequence(()),
    2: PulseSequence((TransitionPulse((1, 2), "x", -math.pi),)),
    3: PulseSequence((Crush(), TransitionPulse((1, 2), "y", math.pi / 2))),
    4: PulseSequence((Crush(), TransitionPulse((2, 3), "y", math.pi / 2))),
}


@dataclass(frozen=True)
class TomoExperimentResult:
    """Complex line readouts of one tomography experiment."""

    experiment_id: int
    line12: complex
    line23: complex


@dataclass(frozen=True)
class TomoCoefficients:
    """Gell-Mann expansion coefficients c_1..c_8 of a reconstructed state."""

    c: tuple

    def __post_init__(self):
        c = tuple(map(float, self.c))
        if len(c) != 8:
            raise ValueError("expected eight coefficients")
        if not all(map(math.isfinite, c)):
            raise ValueError(f"Gell-Mann coefficients must be finite, got {c}")
        object.__setattr__(self, "c", c)

    def matrix(self) -> np.ndarray:
        """I/3 + (1/2) sum c_i L_i; Hermitian with unit trace by construction."""
        return (_THIRD_I + np.array(self.c) @ _HALF_GELL_MANN).reshape(3, 3)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; reported, not enforced."""
        return _min_eigenvalue(self.matrix())

    def to_density_matrix(self) -> DensityMatrix3:
        return DensityMatrix3(self.matrix())


def _min_eigenvalue(mat: np.ndarray) -> float:
    # eigvalsh returns the eigenvalues in ascending order
    return float(np.linalg.eigvalsh(mat)[0])


def run_tomo_experiments(rho: DensityMatrix3) -> tuple:
    """The four readout experiments, each ending in a spectrum acquisition."""
    results = []
    for exp_id in (1, 2, 3, 4):
        final = run_sequence(_EXPERIMENT_SEQUENCES[exp_id], rho)
        line12, line23 = spectrum_lines(final)
        results.append(
            TomoExperimentResult(
                experiment_id=exp_id,
                line12=line12.readout,
                line23=line23.readout,
            )
        )
    return tuple(results)


def reconstruct(results) -> TomoCoefficients:
    """Linear inversion of the four-experiment readouts."""
    results = tuple(results)
    by_id = {r.experiment_id: r for r in results}
    if len(results) != 4 or sorted(by_id) != [1, 2, 3, 4]:
        raise ValueError("need exactly the four experiments 1..4")
    r1, r2, r3, r4 = (by_id[i] for i in (1, 2, 3, 4))

    c1, c2 = r1.line12.real, -r1.line12.imag
    c6, c7 = r1.line23.real, -r1.line23.imag
    c4, c5 = -r2.line23.imag, -r2.line23.real
    c3 = -r3.line12.real
    c8 = (c3 - 2.0 * r4.line23.real) / _SQRT3

    checks = (
        ("experiment 2 line12 re-measures c1", abs(r2.line12.real - c1)),
        ("experiment 2 line12 re-measures c2", abs(r2.line12.imag - c2)),
        ("experiment 3 line23 must vanish", abs(r3.line23)),
        ("experiment 3 line12 must be real", abs(r3.line12.imag)),
        ("experiment 4 line12 must vanish", abs(r4.line12)),
        ("experiment 4 line23 must be real", abs(r4.line23.imag)),
    )
    for what, err in checks:
        if not err <= CONSISTENCY_TOL:  # also refuses NaN
            raise InconsistentReadoutsError(f"{what}: off by {err:.3e}")

    return TomoCoefficients((c1, c2, c3, c4, c5, c6, c7, c8))


def tomo_fidelity(true_rho: DensityMatrix3, results) -> float:
    """Overlap of the true state with the reconstructed one."""
    return fidelity(true_rho, reconstruct(results).to_density_matrix())


def tomo_report(rho: DensityMatrix3) -> dict:
    """Round-trip a state through the protocol; flat record for serialization."""
    results = run_tomo_experiments(rho)
    coeffs = reconstruct(results)
    mat = coeffs.matrix()
    return {
        "coefficients": list(coeffs.c),
        "rho_reconstructed": [
            [mat[r, s].real, mat[r, s].imag] for r in range(3) for s in range(3)
        ],
        "min_eigenvalue": _min_eigenvalue(mat),
        "fidelity": fidelity(rho, DensityMatrix3(mat)),
    }
