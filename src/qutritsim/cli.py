"""Command-line interface emitting JSON (and CSV for tabular data).

Subcommands: state, decompose, gate, trajectory, tomo, spectrum, verify,
table1. Angles are radians unless --degrees is given, which converts at
the input boundary only; internal values stay radians. Floats print with
12 significant digits by default (QUTRITSIM_PRECISION overrides).

State descriptors accepted everywhere a state is needed:

    +1 | 0 | -1                      basis kets
    re,im re,im re,im                amplitude triple, normalized on input
    canon:alpha=<angle>              canonical family member
    points:theta1,phi1,theta2,phi2   from a point pair on the sphere
    random                           seeded Haar-random state (--seed)

Exit codes: 0 success, 1 usage or parse error, 2 numerical-contract
violation (a failed --assert or a trajectory continuity break).

``main`` builds the argument parser once per process and reuses it for
every call; ``build_parser`` still returns a fresh one. ``trajectory
--csv`` and ``table1 --csv`` format the whole table in one pass, with
the same bytes as formatting each value on its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import (
    ContractViolation,
    Ket3,
    dm_from_ket,
    normalize,
    phase_invariant_distance,
    random_ket,
)
from .gates import GATE_NAMES, gate_by_name
from .geometry import canonical_decompose, canonical_state, magnetization
from .majorana import SpherePoint, SpherePointPair, points_to_state, state_to_points
from .nmrsim import (
    HamiltonianParams,
    phase_table,
    sequence_from_text,
    spectrum_lines,
    transition_frequencies,
    verify_sequence,
)
from .tomography import tomo_report
from .trajectory import sample_trajectory

VERIFY_THRESHOLD = 1.0 - 1e-8

TRAJECTORY_CSV_HEADER = "theta,p1x,p1y,p1z,p2x,p2y,p2z,mx,my,mz"


class UsageError(ValueError):
    """Bad arguments or unparseable input; exit code 1."""


def _precision() -> int:
    raw = os.environ.get("QUTRITSIM_PRECISION", "")
    try:
        prec = int(raw)
    except ValueError:
        return 12
    return max(1, min(17, prec))


def _rounded(obj, prec: int):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, complex):
        return [_rounded(obj.real, prec), _rounded(obj.imag, prec)]
    if isinstance(obj, float):
        return float(f"{obj:.{prec}g}")
    if isinstance(obj, dict):
        return {k: _rounded(v, prec) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, prec) for v in obj]
    return obj


def _emit_json(data) -> None:
    print(json.dumps(_rounded(data, _precision()), indent=2))


def _emit_csv(header: str, rows) -> None:
    """Print a header and rows of floats in one pass.

    %-formatting and format() share one float-to-string routine, so the
    row template matches a per-value f"{x:.{prec}g}" byte for byte.
    """
    row = ",".join([f"%.{_precision()}g"] * (header.count(",") + 1))
    print("\n".join([header, *(row % tuple(r) for r in rows)]))


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def parse_state_spec(spec: str, degrees: bool = False, seed: int = 0) -> Ket3:
    """Parse a textual state descriptor into a normalized state."""
    spec = spec.strip()
    if spec == "+1":
        return Ket3([1, 0, 0])
    if spec == "0":
        return Ket3([0, 1, 0])
    if spec == "-1":
        return Ket3([0, 0, 1])
    if spec == "random":
        if seed < 0:
            raise UsageError("--seed must be nonnegative")
        return random_ket(np.random.default_rng(seed))
    if spec.startswith("canon:"):
        body = spec[len("canon:"):]
        if not body.startswith("alpha="):
            raise UsageError(f"canonical spec needs 'canon:alpha=<angle>', got {spec!r}")
        try:
            alpha = _angle(float(body[len("alpha="):]), degrees)
        except ValueError:
            raise UsageError(f"bad alpha value in {spec!r}") from None
        try:
            return canonical_state(alpha)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if spec.startswith("points:"):
        body = spec[len("points:"):]
        fields = body.split(",")
        if len(fields) != 4:
            raise UsageError(
                f"points spec needs 4 comma-separated angles, got {len(fields)}"
            )
        try:
            t1, p1, t2, p2 = (_angle(float(f), degrees) for f in fields)
        except ValueError:
            raise UsageError(f"bad angle in points spec {body!r}") from None
        try:
            pair = SpherePointPair(SpherePoint(t1, p1), SpherePoint(t2, p2))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return points_to_state(pair)
    # amplitude triple: three whitespace-separated re,im pairs
    tokens = spec.split()
    if len(tokens) == 3:
        amps = []
        for pos, token in enumerate(tokens, start=1):
            parts = token.split(",")
            if len(parts) != 2:
                raise UsageError(
                    f"amplitude {pos} ({token!r}): expected 're,im'"
                )
            try:
                amps.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise UsageError(
                    f"amplitude {pos} ({token!r}): not a number pair"
                ) from None
        try:
            return normalize(amps)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(
        f"cannot parse state spec {spec!r}; expected +1 | 0 | -1 | random | "
        "'re,im re,im re,im' | canon:alpha=<angle> | points:t1,p1,t2,p2"
    )


def _amplitudes_dict(psi: Ket3) -> dict:
    return {
        "c_plus1": complex(psi.vec[0]),
        "c_zero": complex(psi.vec[1]),
        "c_minus1": complex(psi.vec[2]),
    }


def _decomposition(psi: Ket3) -> tuple:
    """The canonical decomposition of psi as the report's dict (alpha, the
    three angles and the residual), and the canonical state it reaches."""
    alpha, angles = canonical_decompose(psi)
    target = canonical_state(alpha)
    residual = phase_invariant_distance(Ket3(angles.unitary() @ psi.vec), target)
    report = {
        "alpha": alpha,
        "beta": angles.beta,
        "gamma": angles.gamma,
        "delta": angles.delta,
        "residual": residual,
    }
    return report, target


def _state_report(psi: Ket3) -> dict:
    pair = state_to_points(psi)
    mag = magnetization(psi)
    return {
        "amplitudes": _amplitudes_dict(psi),
        "majorana": {
            "points_spherical": [
                [pair.p1.theta, pair.p1.phi],
                [pair.p2.theta, pair.p2.phi],
            ],
            "points_cartesian": [
                list(pair.p1.cartesian()),
                list(pair.p2.cartesian()),
            ],
        },
        "magnetization": {
            "vector": list(mag.m_vector),
            "magnitude": mag.magnitude,
            "bisector_length": mag.bisector_length,
            "pointing": mag.pointing,
        },
        "canonical": _decomposition(psi)[0],
    }


def _join_spec(parts) -> str:
    return " ".join(parts)


def cmd_state(args) -> int:
    psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
    _emit_json(_state_report(psi))
    return 0


def cmd_decompose(args) -> int:
    psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
    report, target = _decomposition(psi)
    report["canonical_state"] = _amplitudes_dict(target)
    _emit_json(report)
    return 0


def cmd_gate(args) -> int:
    theta = _angle(args.theta, args.degrees) if args.theta is not None else None
    try:
        gate = gate_by_name(args.name, theta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
    out = gate.apply(psi)
    report = {
        "gate": args.name,
        "input": _amplitudes_dict(psi),
        "output": _state_report(out),
    }
    if theta is not None:
        report["theta"] = theta
    _emit_json(report)
    return 0


def cmd_trajectory(args) -> int:
    psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
    rng_range = _angle(args.range, args.degrees)
    try:
        thetas, points, m = sample_trajectory(args.generator, psi, args.steps, rng_range)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.csv:
        table = np.column_stack((thetas, points.reshape(-1, 6), m))
        _emit_csv(TRAJECTORY_CSV_HEADER, table.tolist())
    else:
        _emit_json(
            {
                "generator": args.generator,
                "steps": args.steps,
                "range": rng_range,
                "samples": [
                    {"theta": theta, "p1": p1, "p2": p2, "m": mv}
                    for theta, (p1, p2), mv in zip(thetas.tolist(), points.tolist(), m.tolist())
                ],
            }
        )
    return 0


def cmd_tomo(args) -> int:
    psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
    _emit_json(tomo_report(dm_from_ket(psi)))
    return 0


def cmd_spectrum(args) -> int:
    try:
        params = HamiltonianParams(omega0=args.omega0, kappa=args.kappa)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    f12, f23 = transition_frequencies(params)
    report = {
        "omega0_hz": params.omega0,
        "kappa_hz": params.kappa,
        "line12_hz": f12,
        "line23_hz": f23,
        "separation_hz": abs(f23 - f12),
    }
    if args.spec:
        psi = parse_state_spec(_join_spec(args.spec), args.degrees, args.seed)
        lines = spectrum_lines(dm_from_ket(psi))
        report["lines"] = [
            {"label": ln.label, "amplitude": ln.amplitude, "phase": ln.phase}
            for ln in lines
        ]
    _emit_json(report)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.sequence_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.sequence_file!r}: {exc}") from None
    try:
        seq = sequence_from_text(text)
    except ValueError as exc:
        raise UsageError(f"{args.sequence_file}: {exc}") from None
    theta = _angle(args.theta, args.degrees) if args.theta is not None else None
    try:
        target = gate_by_name(args.target, theta)
        fid = verify_sequence(seq, target)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    passes = fid >= args.threshold
    _emit_json(
        {
            "sequence_file": args.sequence_file,
            "events": len(seq.events),
            "target": args.target,
            "fidelity": fid,
            "threshold": args.threshold,
            "passes": passes,
        }
    )
    if args.do_assert and not passes:
        raise ContractViolation(
            f"sequence fidelity {fid:.12g} below threshold {args.threshold:.12g}"
        )
    return 0


def cmd_table1(args) -> int:
    rows = phase_table()
    if args.csv:
        keys = list(rows[0])
        _emit_csv(",".join(keys), [[row[k] for k in keys] for row in rows])
    else:
        _emit_json({"rows": rows})
    return 0


def _add_state_options(sub, nargs: str = "+"):
    sub.add_argument("spec", nargs=nargs, help="state descriptor")
    sub.add_argument("--degrees", action="store_true", help="angle inputs in degrees")
    sub.add_argument("--seed", type=int, default=0, help="seed for 'random' states")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qutritsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qutritsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("state", help="point pair, magnetization, decomposition")
    _add_state_options(p)
    p.set_defaults(func=cmd_state)

    p = subs.add_parser("decompose", help="canonical decomposition angles")
    _add_state_options(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("gate", help="apply a named gate to a state")
    p.add_argument("name", help=f"one of: {', '.join(GATE_NAMES)}")
    p.add_argument("--theta", type=float, default=None, help="phase-gate angle")
    _add_state_options(p)
    p.set_defaults(func=cmd_gate)

    p = subs.add_parser("trajectory", help="point-pair trajectory under a generator")
    p.add_argument("generator", help="lambda1..lambda8 or sigma1..sigma3")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--range", type=float, default=2.0 * math.pi, help="sweep extent")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    _add_state_options(p)
    p.set_defaults(func=cmd_trajectory)

    p = subs.add_parser("tomo", help="tomography round trip of a pure state")
    _add_state_options(p)
    p.set_defaults(func=cmd_tomo)

    p = subs.add_parser("spectrum", help="line positions for given omega0, kappa")
    p.add_argument("--omega0", type=float, required=True, help="Larmor frequency, Hz")
    p.add_argument("--kappa", type=float, required=True, help="quadrupolar coupling, Hz")
    _add_state_options(p, nargs="*")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("verify", help="check a pulse-sequence file against a gate")
    p.add_argument("sequence_file")
    p.add_argument("target", help=f"one of: {', '.join(GATE_NAMES)}")
    p.add_argument("--theta", type=float, default=None, help="phase-gate angle")
    p.add_argument("--degrees", action="store_true", help="angle inputs in degrees")
    p.add_argument("--threshold", type=float, default=VERIFY_THRESHOLD)
    p.add_argument("--assert", dest="do_assert", action="store_true",
                   help="exit 2 when fidelity is below the threshold")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("table1", help="phase-gate phase-difference table")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=cmd_table1)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qutritsim: error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"qutritsim: contract violation: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
