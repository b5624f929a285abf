"""Named ternary gates as exact matrices, plus their phase predictions.

Gates are stored in closed form, never as numerically exponentiated
matrices; the pulse-sequence realizations live in ``nmrsim`` and are
validated against these matrices, which keeps "what the gate is"
separate from "how it is produced".

Phase-gate conventions: ``phase_gate("l3", t)`` is diag(e^{it}, e^{-it}, 1)
and coincides with u_lambda(3, t) exactly. ``phase_gate("l8", t)`` is
diag(1, 1, e^{i sqrt(3) t}); the generator exponential u_lambda(8, t)
equals e^{i t/sqrt(3)} diag(1, 1, e^{-i sqrt(3) t}), so the shipped
matrix is u_lambda(8, -t) up to a global phase (PHASE_L8_SIGN records
the -1).

``predict_phase_difference`` gives the inter-line phase built up between
the two single-quantum coherences by the z-cascade realizations of these
gates: 3t/2 for the l3 cascade (a z rotation by t on the 1-2 transition
halves the exponent relative to the printed matrix) and sqrt(3) t for
l8. The nmrsim spectrum pipeline measures exactly these values.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import _SQRT3, Unitary3

# Sign relating the shipped l8 diagonal to the generator exponential.
PHASE_L8_SIGN = -1

_SWAPS = {
    (1, 2): np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    (2, 3): np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    (1, 3): np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
}


def chrestenson() -> Unitary3:
    """Ternary Fourier gate: (1/sqrt3) [[1,1,1],[1,w,w^2],[1,w^2,w]], w = e^{2pi i/3}."""
    w = cmath.exp(2j * math.pi / 3.0)
    mat = np.array(
        [[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex
    ) / _SQRT3
    return Unitary3(mat)


def swap(levels) -> Unitary3:
    """Permutation gate exchanging two levels; its own inverse."""
    levels = tuple(levels)
    if levels not in _SWAPS:
        raise ValueError(f"swap levels must be (1,2), (2,3) or (1,3), got {levels!r}")
    return Unitary3(_SWAPS[levels])


def phase_gate(which: str, theta: float) -> Unitary3:
    """Diagonal phase gate 'l3' or 'l8' with parameter theta in radians."""
    which = which.lower()
    if not math.isfinite(theta):
        raise ValueError(f"phase gate theta must be finite, got {theta}")
    if which == "l3":
        mat = np.diag([cmath.exp(1j * theta), cmath.exp(-1j * theta), 1.0])
    elif which == "l8":
        mat = np.diag([1.0, 1.0, cmath.exp(1j * _SQRT3 * theta)])
    else:
        raise ValueError(f"phase gate must be 'l3' or 'l8', got {which!r}")
    return Unitary3(mat)


def predict_phase_difference(which: str, theta: float) -> float:
    """Inter-line phase difference produced by the phase-gate pipeline."""
    which = which.lower()
    if which == "l3":
        return 1.5 * theta
    if which == "l8":
        return _SQRT3 * theta
    raise ValueError(f"phase gate must be 'l3' or 'l8', got {which!r}")


GATE_NAMES = ("chrestenson", "swap12", "swap23", "swap13", "phase_l3", "phase_l8")


def gate_by_name(name: str, theta: float | None = None) -> Unitary3:
    """Look up a gate by CLI-style name; theta required for phase gates."""
    name = name.lower()
    if name == "chrestenson":
        return chrestenson()
    if name in ("swap12", "swap23", "swap13"):
        pair = (int(name[4]), int(name[5]))
        return swap(pair)
    if name in ("phase_l3", "phase_l8"):
        if theta is None:
            raise ValueError(f"gate {name!r} needs an angle")
        return phase_gate(name[-2:], theta)
    raise ValueError(f"unknown gate {name!r} (choose from {', '.join(GATE_NAMES)})")
