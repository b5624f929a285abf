"""Ideal spin-1 NMR physics: Hamiltonian, pulses, sequences, spectra.

The quadrupolar Hamiltonian H = -w0 Iz + kappa (3 Iz^2 - I^2) is
diagonal, diag(-w0 + k, -2k, w0 + k) in Hz, and splits the two
single-quantum lines by 6 kappa. It fixes line positions only; pulses
are ideal instantaneous rotations in the on-resonance rotating frame, so
free evolution between pulses is not simulated.

Pulse vocabulary:

* transition-selective pulse on line 1-2 or 2-3 about x, y or z, with
  the NMR angle convention exp(i xi I_k^{rs}) (a pulse of angle xi turns
  the subspace Bloch vector by xi);
* non-selective pulse exp(i xi Sigma_j), a rigid rotation of the whole
  spin;
* z-cascade, an arbitrary diagonal phase diag(e^{ia1}, e^{ia2}, e^{ia3})
  (a cascade of z rotations on the individual transitions);
* gradient crush, which zeroes every off-diagonal element and leaves
  populations untouched.

Sequences without a crush compose to a unitary; a crush turns the
sequence into a channel on density matrices. The text form is one event
per line, angles in degrees:

    TR r s axis angle
    NS axis angle
    ZC a1 a2 a3
    CRUSH

Detection is ideal with unit gain: the line readout for coherence (r, s)
is exactly 2 rho_rs.

Validation happens at the boundary, once. A pulse event checks its
levels, axis and angles (finite) when it is constructed, so every event
matrix is unitary by construction: the transition exponential comes from
an eigenbasis computed and checked once at import, the non-selective
pulse from the closed form I + (cos xi - 1) S^2 + i sin xi S, and the
z-cascade is a unit-modulus diagonal. ``run_sequence`` then works on the
raw 3x3 array: it multiplies the events of each crush-free run into one
unitary, conjugates the state once per run, and checks the density
matrix once, at the exit of the sequence. ``sequence_unitary`` forms the
same product and checks the composite unitary once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .algebra import _I3, _transition_mat, _u_sigma_mat
from .core import _SQRT3, _TWO_PI, DensityMatrix3, Unitary3

# Ideal detector gain: readout = GAIN * 2 * rho_rs.
GAIN = 1.0


class InvalidTransitionError(ValueError):
    """Single rf pulses exist only for the 1-2 and 2-3 lines."""


class CrushInSequenceError(ValueError):
    """A sequence containing a gradient crush has no composite unitary."""


@dataclass(frozen=True)
class HamiltonianParams:
    """Larmor frequency and effective quadrupolar coupling, both in Hz."""

    omega0: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.omega0 < math.inf:  # also refuses NaN
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")


@dataclass(frozen=True)
class ThermalParams:
    """Polarization epsilon of the thermal deviation, 0 < epsilon < 1."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")


def hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """Energies diag(-w0 + k, -2k, w0 + k) in Hz."""
    w0, k = params.omega0, params.kappa
    return np.diag([-w0 + k, -2.0 * k, w0 + k])


def transition_frequencies(params: HamiltonianParams) -> tuple:
    """(f12, f23) in Hz; the lines sit 6*kappa apart."""
    energies = np.diag(hamiltonian(params))
    return (
        float(abs(energies[1] - energies[0])),
        float(abs(energies[2] - energies[1])),
    )


def thermal_state(params: ThermalParams) -> DensityMatrix3:
    """I/3 plus the thermal deviation (epsilon/3) diag(1, 0, -1)."""
    eps = params.epsilon
    return DensityMatrix3(np.diag([1.0 + eps, 1.0, 1.0 - eps]) / 3.0)


# ---------------------------------------------------------------------------
# pulse events


def _finite_angle(angle) -> float:
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"pulse angle must be finite, got {angle}")
    return angle


@dataclass(frozen=True)
class TransitionPulse:
    levels: tuple
    axis: str
    angle: float

    def __post_init__(self):
        levels = tuple(int(l) for l in self.levels)
        object.__setattr__(self, "levels", levels)
        if levels not in {(1, 2), (2, 3)}:
            raise InvalidTransitionError(
                f"single pulses drive lines (1,2) or (2,3); got {levels} "
                "(the 1-3 double quantum needs a pulse cascade)"
            )
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        object.__setattr__(self, "angle", _finite_angle(self.angle))


@dataclass(frozen=True)
class NonselectivePulse:
    axis: str
    angle: float

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        object.__setattr__(self, "angle", _finite_angle(self.angle))


@dataclass(frozen=True)
class ZCascade:
    angles: tuple

    def __post_init__(self):
        angles = tuple(_finite_angle(a) for a in self.angles)
        if len(angles) != 3:
            raise ValueError("z-cascade needs one phase per level")
        object.__setattr__(self, "angles", angles)


@dataclass(frozen=True)
class Crush:
    pass


PulseEvent = TransitionPulse | NonselectivePulse | ZCascade | Crush

_AXIS_TO_J = {"x": 1, "y": 2, "z": 3}


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse events, optionally carrying the intended unitary."""

    events: tuple
    target: Unitary3 | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def has_crush(self) -> bool:
        return any(isinstance(ev, Crush) for ev in self.events)


def event_unitary(ev: PulseEvent) -> np.ndarray:
    """The 3x3 unitary of a non-crush event, unchecked: unitary by construction."""
    if isinstance(ev, TransitionPulse):
        return _transition_mat(ev.levels, ev.axis, ev.angle)
    if isinstance(ev, NonselectivePulse):
        return _u_sigma_mat(_AXIS_TO_J[ev.axis], ev.angle)
    if isinstance(ev, ZCascade):
        return np.diag([cmath.exp(1j * a) for a in ev.angles])
    raise CrushInSequenceError("a gradient crush is not a unitary event")


def apply_event(rho: DensityMatrix3, ev: PulseEvent) -> DensityMatrix3:
    """One step of the channel: unitary conjugation, or dephasing for crush."""
    return run_sequence(PulseSequence((ev,)), rho)


def _compose(events) -> np.ndarray:
    """Product of the unitaries of a non-empty run of events, first event
    rightmost; unchecked."""
    events = iter(events)
    mat = event_unitary(next(events))
    for ev in events:
        mat = event_unitary(ev) @ mat
    return mat


def _is_crush(ev: PulseEvent) -> bool:
    return isinstance(ev, Crush)


def run_sequence(seq: PulseSequence, initial: DensityMatrix3) -> DensityMatrix3:
    """Apply every event in order; the result is checked once, at the end.

    Each crush-free run of events is multiplied into one unitary and the
    state is conjugated once per run. A crush is idempotent, so a run of
    consecutive crushes dephases once.
    """
    if not seq.events:
        return initial
    mat = initial.mat
    for crush, run in groupby(seq.events, _is_crush):
        if crush:
            mat = np.diag(np.diag(mat))
        else:
            u = _compose(run)
            mat = u @ mat @ u.conj().T
    return DensityMatrix3(mat)


def sequence_unitary(seq: PulseSequence) -> Unitary3:
    """Composite unitary of a crush-free sequence (first event rightmost)."""
    return Unitary3(_compose(seq.events) if seq.events else _I3)


def verify_sequence(seq: PulseSequence, target: Unitary3) -> float:
    """Gate fidelity up to global phase, |Tr(target^dag U_seq)| / 3."""
    if seq.has_crush():
        raise CrushInSequenceError("cannot verify a sequence containing a crush")
    composed = sequence_unitary(seq).mat
    return float(abs(np.trace(target.mat.conj().T @ composed)) / 3.0)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumLine:
    """One single-quantum line: its transition and complex readout.

    Amplitude and phase are the polar form of the readout.
    """

    label: str
    readout: complex

    @property
    def amplitude(self) -> float:
        return abs(self.readout)

    @property
    def phase(self) -> float:
        return cmath.phase(self.readout)


def spectrum_lines(rho: DensityMatrix3) -> tuple:
    """The two observable lines (1-2 and 2-3).

    The readout is exactly GAIN * 2 rho_rs (so the amplitude is
    GAIN * 2|rho_rs| and the phase arg(rho_rs)); the double-quantum
    coherence rho_13 produces no line.
    """
    gain = GAIN * 2.0
    lines = []
    for label, (r, s) in (("1-2", (0, 1)), ("2-3", (1, 2))):
        c = complex(rho.mat[r, s])
        # scaled part by part: float * complex multiplies by (2 + 0j),
        # which can flip the sign of a zero real part
        lines.append(SpectrumLine(label, complex(gain * c.real, gain * c.imag)))
    return tuple(lines)


# ---------------------------------------------------------------------------
# pseudopure preparation

_EQUALIZE = 0.5  # equalize two populations: transfer half their difference


def _mixing_angle(fraction: float) -> float:
    """Pulse angle moving the given fraction of a population difference.

    After a transition pulse of angle xi the populations mix as
    p_r' = p_r cos^2(xi/2) + p_s sin^2(xi/2), so sin^2(xi/2) = fraction.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("mixing fraction must be in [0, 1]")
    return 2.0 * math.asin(math.sqrt(fraction))


def pseudopure_sequence(target: int) -> PulseSequence:
    """Transition pulses and a crush preparing the pseudopure state.

    The structure mirrors the usual preparation scheme: population swaps
    (pi pulses) move surplus population onto the target level, one
    equalizing pulse (angle solved from the population-mixing closed
    form) levels the two spectator populations, and the gradient crush
    removes the coherence the equalizing pulse created.
    """
    eq = _mixing_angle(_EQUALIZE)
    pi = math.pi
    if target == 1:
        events = (TransitionPulse((2, 3), "y", eq), Crush())
    elif target == 2:
        events = (
            TransitionPulse((2, 3), "y", eq),
            Crush(),
            TransitionPulse((1, 2), "y", pi),
        )
    elif target == 3:
        events = (
            TransitionPulse((1, 2), "y", pi),
            TransitionPulse((2, 3), "y", pi),
            TransitionPulse((1, 2), "y", eq),
            Crush(),
        )
    else:
        raise ValueError(f"pseudopure target must be 1, 2 or 3, got {target}")
    return PulseSequence(events)


def prepare_pseudopure(target: int, thermal: ThermalParams) -> DensityMatrix3:
    """(1 - a) I/3 + a |target><target| with a = epsilon/2, from thermal."""
    return run_sequence(pseudopure_sequence(target), thermal_state(thermal))


# ---------------------------------------------------------------------------
# canned gate realizations


def swap_sequence(levels) -> PulseSequence:
    """Pulse realization of the level-swap gates, exact including phase."""
    levels = tuple(levels)
    pi = math.pi
    if levels == (1, 2):
        events = (TransitionPulse((1, 2), "y", pi), ZCascade((0.0, pi, 0.0)))
    elif levels == (2, 3):
        events = (TransitionPulse((2, 3), "y", pi), ZCascade((0.0, 0.0, pi)))
    elif levels == (1, 3):
        events = double_quantum_sequence(pi).events + (ZCascade((pi, pi, pi)),)
    else:
        raise ValueError(f"swap levels must be (1,2), (2,3) or (1,3), got {levels!r}")
    return PulseSequence(events)


def double_quantum_sequence(theta: float) -> PulseSequence:
    """Three-pulse sandwich exciting the 1-3 double-quantum transition.

    A pi pulse on line 1-2, the working pulse on line 2-3, and the pi
    pulse again; theta = pi swaps the populations of levels 1 and 3 (the
    composite equals the 1-3 swap gate up to a global phase).
    """
    pi = math.pi
    return PulseSequence(
        (
            TransitionPulse((1, 2), "x", pi),
            TransitionPulse((2, 3), "x", theta),
            TransitionPulse((1, 2), "x", pi),
        )
    )


def chrestenson_sequence() -> PulseSequence:
    """Five-event realization of the Chrestenson gate, exact including phase.

    Derived by Givens reduction of the gate matrix: two line-2-3 pulses
    of 90 degrees sandwich a y pulse on line 1-2 through twice the magic
    angle acos(1/sqrt 3), with two z-cascades supplying the phases.
    """
    pi = math.pi
    return PulseSequence(
        (
            TransitionPulse((2, 3), "y", pi / 2),
            ZCascade((0.0, pi, -pi / 2)),
            TransitionPulse((1, 2), "y", -2.0 * math.acos(1.0 / _SQRT3)),
            TransitionPulse((2, 3), "y", pi / 2),
            ZCascade((0.0, 0.0, pi)),
        )
    )


def lambda_z_sequence(i: int, theta: float) -> PulseSequence:
    """Z-cascade realizing the generator exponential u_lambda(i, theta), i in {3, 8}."""
    if i == 3:
        return PulseSequence((ZCascade((theta, -theta, 0.0)),))
    if i == 8:
        a = theta / _SQRT3
        return PulseSequence((ZCascade((a, a, -2.0 * a)),))
    raise ValueError("z-cascades realize the diagonal generators 3 and 8 only")


def phase_shift_sequence(which: str, theta: float) -> PulseSequence:
    """Z-cascade the phase-gate experiment runs for parameter theta.

    The l3 gate is driven as a z rotation by theta on line 1-2, i.e.
    diag(e^{i t/2}, e^{-i t/2}, 1), which is what builds the 3 theta/2
    inter-line phase; the l8 gate is the diagonal phase on level 3.
    """
    which = which.lower()
    if which == "l3":
        return PulseSequence((ZCascade((0.5 * theta, -0.5 * theta, 0.0)),))
    if which == "l8":
        return PulseSequence((ZCascade((0.0, 0.0, _SQRT3 * theta)),))
    raise ValueError(f"phase gate must be 'l3' or 'l8', got {which!r}")


# ---------------------------------------------------------------------------
# phase-difference pipeline


def measure_phase_difference(rho: DensityMatrix3) -> float:
    """phase(line 1-2) - phase(line 2-3), wrapped into [0, 2pi)."""
    line12, line23 = spectrum_lines(rho)
    return (line12.phase - line23.phase) % _TWO_PI


def phase_difference_pipeline(
    which: str, theta: float, thermal: ThermalParams = ThermalParams(1e-4)
) -> float:
    """Full experiment: thermal, non-selective 90, phase gate, readout.

    The non-selective pulse turns the thermal populations into two
    in-phase lines of equal amplitude; the phase-gate cascade then
    builds the inter-line phase difference that is returned.
    """
    events = (NonselectivePulse("y", math.pi / 2),) + phase_shift_sequence(which, theta).events
    return measure_phase_difference(run_sequence(PulseSequence(events), thermal_state(thermal)))


def phase_table(thetas_deg=(0.0, 30.0, 45.0, 60.0, 90.0, 120.0)) -> list:
    """Measured and predicted inter-line phases for both phase gates.

    One row per input angle, all values in degrees; measured values come
    from the full pipeline, wrapped into [0, 360).
    """
    from .gates import predict_phase_difference

    rows = []
    for theta_deg in thetas_deg:
        theta = math.radians(theta_deg)
        row = {"theta_deg": float(theta_deg)}
        for which in ("l3", "l8"):
            measured = phase_difference_pipeline(which, theta)
            predicted = predict_phase_difference(which, theta) % _TWO_PI
            row[f"{which}_measured_deg"] = math.degrees(measured)
            row[f"{which}_predicted_deg"] = math.degrees(predicted)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# text serialization


def sequence_to_text(seq: PulseSequence) -> str:
    """Canonical one-event-per-line form, angles in degrees."""
    lines = []
    for ev in seq.events:
        if isinstance(ev, TransitionPulse):
            r, s = ev.levels
            lines.append(f"TR {r} {s} {ev.axis} {math.degrees(ev.angle):.12g}")
        elif isinstance(ev, NonselectivePulse):
            lines.append(f"NS {ev.axis} {math.degrees(ev.angle):.12g}")
        elif isinstance(ev, ZCascade):
            a1, a2, a3 = (math.degrees(a) for a in ev.angles)
            lines.append(f"ZC {a1:.12g} {a2:.12g} {a3:.12g}")
        elif isinstance(ev, Crush):
            lines.append("CRUSH")
        else:
            raise TypeError(f"unknown event {ev!r}")
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> PulseSequence:
    """Parse the line-oriented format; blank lines and # comments skipped."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        try:
            if kind == "TR":
                if len(fields) != 5:
                    raise ValueError("TR needs: TR r s axis angle_deg")
                events.append(
                    TransitionPulse(
                        (int(fields[1]), int(fields[2])),
                        fields[3].lower(),
                        math.radians(float(fields[4])),
                    )
                )
            elif kind == "NS":
                if len(fields) != 3:
                    raise ValueError("NS needs: NS axis angle_deg")
                events.append(
                    NonselectivePulse(fields[1].lower(), math.radians(float(fields[2])))
                )
            elif kind == "ZC":
                if len(fields) != 4:
                    raise ValueError("ZC needs: ZC a1_deg a2_deg a3_deg")
                events.append(
                    ZCascade(tuple(math.radians(float(f)) for f in fields[1:4]))
                )
            elif kind == "CRUSH":
                if len(fields) != 1:
                    raise ValueError("CRUSH takes no arguments")
                events.append(Crush())
            else:
                raise ValueError(f"unknown event kind {fields[0]!r}")
        except ValueError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return PulseSequence(tuple(events))
