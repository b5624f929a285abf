"""Point-pair trajectories of a state under a one-parameter generator.

A trajectory samples psi(theta) = exp(i s theta G) psi on the grid
theta_k = range * (k / steps), k = 0 .. steps-1. G is a Gell-Mann
generator lambda1..lambda8 with s = 1/2 (the pulse convention: a
sequence angle theta turns the driven subspace by theta/2) or a spin-1
generator sigma1..sigma3 with s = 1.

The whole grid is computed at once, as an (N, 3) array of kets whose
normalization is checked once for all N, by the same formulas as the
scalar unitaries. A Gell-Mann generator L = v diag(w) v^dag is
diagonalized once, in ``algebra``, so every sample is the one product
(v diag(e^{i theta_k w / 2})) (v^dag psi). A spin-1 generator uses the
closed form of ``u_sigma``, psi + (cos theta_k - 1) S^2 psi +
i sin theta_k S psi, whose roundoff does not grow with theta: a
spin-coherent state then stays within the double-root tolerance of the
point map. The point map (``majorana.kets_to_points``) and the
magnetization (<S_j> by einsum) then run on that array.

The point pair of a state is unordered, so the emitted order is chosen
for continuity: each sample keeps whichever order moves its two points
least from the previous emitted sample. Emitted and raw order differ by a
swap parity. Comparing consecutive *raw* samples says whether the raw
order crossed (the swapped matching is strictly better than the direct
one), and the parity is the running XOR of those crossings. On a tie
(both matchings equally good, e.g. after a coincident pair) the raw order
is kept, so the parity restarts from 0 there.

Continuity is a contract: a sample whose best matching still moves a
point by more than ``jump_bound(step)`` raises ContractViolation. Points
move at most linearly in theta on most of the grid, but two points that
meet at a pole separate with square-root speed, so the bound carries a
sqrt(step) term that dominates on fine grids.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import GELL_MANN_EIGH, SIGMA
from .core import ATOL, ContractViolation, Ket3
from .majorana import kets_to_points

_SIGMA = np.stack(SIGMA)


def _evolve(name: str, thetas: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(N, 3) kets exp(i s theta_k G) psi of a named trajectory generator."""
    prefix = name.rstrip("0123456789")
    idx = name[len(prefix):]
    count = {"lambda": len(GELL_MANN_EIGH), "sigma": len(SIGMA)}.get(prefix, 0)
    if not idx or not 1 <= int(idx) <= count:
        raise ValueError(
            f"unknown generator {name!r}; expected lambda1..lambda8 or sigma1..sigma3"
        )
    if prefix == "lambda":
        w, basis = GELL_MANN_EIGH[int(idx) - 1]
        v = basis.mat
        return (np.exp(1j * np.multiply.outer(0.5 * thetas, w)) * (v.conj().T @ vec)) @ v.T
    s = SIGMA[int(idx) - 1]
    return (
        vec
        + np.multiply.outer(np.cos(thetas) - 1.0, (s @ s) @ vec)
        + 1j * np.multiply.outer(np.sin(thetas), s @ vec)
    )


def jump_bound(step: float) -> float:
    """Largest point move (radians) allowed between samples `step` apart."""
    return max(6.0 * abs(step), 3.0 * math.sqrt(abs(step)))


def order_continuously(points: np.ndarray, thetas: np.ndarray, bound: float) -> np.ndarray:
    """Reorder each sample's pair to continue the previous sample.

    `points` is an (N, 2, 3) array of raw point pairs sampled at `thetas`;
    the result has the same shape. Raises ContractViolation at the first
    sample whose best matching still moves a point more than `bound`.
    """
    prev, cur = points[:-1], points[1:]
    # arc[k, a, b]: angle between point a of sample k and point b of sample k+1
    arc = np.arctan2(
        np.linalg.norm(np.cross(prev[:, :, None], cur[:, None]), axis=-1),
        np.einsum("kai,kbi->kab", prev, cur),
    )
    direct = np.maximum(arc[:, 0, 0], arc[:, 1, 1])
    swapped = np.maximum(arc[:, 0, 1], arc[:, 1, 0])
    jump = np.minimum(direct, swapped)
    bad = np.flatnonzero(jump > bound)
    if bad.size:
        k = bad[0]
        raise ContractViolation(
            f"trajectory discontinuity at theta={thetas[k + 1]:.6g}: point jump "
            f"{jump[k]:.3g} rad exceeds bound {bound:.3g}; increase --steps"
        )
    crossings = np.cumsum(np.concatenate(([0], swapped < direct)))
    tie = np.concatenate(([False], swapped == direct))
    parity = (crossings - np.maximum.accumulate(np.where(tie, crossings, 0))) % 2
    return np.where(parity[:, None, None] == 1, points[:, ::-1], points)


def sample_trajectory(generator: str, psi: Ket3, steps: int, rng_range: float) -> list:
    """Point-pair and magnetization samples with continuous pair tracking.

    Returns `steps` rows (theta, p1, p2, m): the sample angle, the two
    Majorana points as Cartesian unit vectors in continuous order, and
    the magnetization vector. Raises ValueError for fewer than 2 steps,
    an unknown generator or a non-finite range, and ContractViolation on
    a continuity break.
    """
    if steps < 2:
        raise ValueError("trajectory needs at least 2 steps")
    if not math.isfinite(rng_range):
        raise ValueError(f"trajectory range must be finite, got {rng_range}")
    # k/steps keeps dyadic grid fractions exact (theta hits pi exactly
    # for even step counts over a full turn)
    thetas = rng_range * (np.arange(steps) / steps)
    kets = _evolve(generator, thetas, psi.vec)
    err = float(np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0)))
    if not err <= ATOL:
        raise ValueError(f"evolved states are not normalized (error {err:.3e})")
    points = order_continuously(kets_to_points(kets), thetas, jump_bound(rng_range / steps))
    m = np.einsum("ni,jik,nk->nj", kets.conj(), _SIGMA, kets).real
    return list(zip(thetas.tolist(), points[:, 0], points[:, 1], m))
