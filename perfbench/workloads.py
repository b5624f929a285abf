"""The four benchmark workloads: seeded inputs, one op, and its output check.

Each workload is a module-level object with

* ``make_pass(seed)``: the JSON-able op specs of one pass. Runs repeat the
  pass, so its class mix is exact and only the seeded values change.
* ``prepare(spec, ctx)``: the objects one op receives, built before timing.
* ``run(prepared)``: the op itself; the only code inside the timed span.
* ``check(prepared, output)``: ``None`` when the output meets the
  documented contract, else ``(severity, reason)``. Severity ``"miss"``
  is a documented tolerance missed by no more than ``GROSS_TOL`` (a
  contract miss); ``"wrong"`` is an error, a nonzero exit, an unparseable
  or golden-mismatched output, a failed ``verify``, or a tolerance missed
  by more than ``GROSS_TOL``. Only wrong ops count as failed.

Inputs come from numpy generators seeded by ``(workload key, seed)``; the
program only receives the generated values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qutritsim.algebra import majorana_rotation_check, u_lambda, u_sigma
from qutritsim.cli import main, parse_state_spec
from qutritsim.core import DensityMatrix3, Ket3, fidelity, phase_invariant_distance
from qutritsim.geometry import canonical_decompose, canonical_state, magnetization
from qutritsim.majorana import points_to_state, state_to_points
from qutritsim.nmrsim import (
    Crush,
    NonselectivePulse,
    PulseSequence,
    TransitionPulse,
    ZCascade,
    chrestenson_sequence,
    lambda_z_sequence,
    run_sequence,
    sequence_to_text,
    swap_sequence,
)
from qutritsim.tomography import reconstruct, run_tomo_experiments

# Documented contracts: round trip, decomposition residual and rigidity
# (majorana_rotation_check's own docstring) and trajectory point pairs.
CONTRACT_TOL = 1e-8
# Tomography fidelity must reach 1 - FIDELITY_TOL.
FIDELITY_TOL = 1e-9
# A miss beyond the package's tomography consistency tolerance is no
# longer roundoff: the output is wrong.
GROSS_TOL = 1e-6
# Golden comparison uses the same tolerances as the repository's CLI tests.
GOLDEN_ABS = GOLDEN_REL = 1e-9

TWO_PI = 2.0 * math.pi


def _rng(key: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([key, seed])


def _tolerance(value: float, tol: float, what: str):
    if not value <= tol:  # also catches NaN
        severity = "wrong" if not value <= GROSS_TOL else "miss"
        return severity, f"{what} > {tol:g}"
    return None


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# seeded sphere points and kets (numpy only, independent of the program)


def _random_point(rng) -> tuple:
    """Uniform point on the sphere as (theta, phi)."""
    return math.acos(float(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, TWO_PI))


def _ket_from_points(t1, p1, t2, p2) -> np.ndarray:
    """Normalized ket whose Majorana roots are the two points.

    Homogeneous form of the quadratic (u1 z - v1)(u2 z - v2) with
    u = cos(theta/2), v = e^{i phi} sin(theta/2), which also covers roots
    at the south pole.
    """
    u1, v1 = math.cos(t1 / 2), complex(math.cos(p1), math.sin(p1)) * math.sin(t1 / 2)
    u2, v2 = math.cos(t2 / 2), complex(math.cos(p2), math.sin(p2)) * math.sin(t2 / 2)
    vec = np.array([math.sqrt(2.0) * u1 * u2, u1 * v2 + u2 * v1, math.sqrt(2.0) * v1 * v2])
    return vec / np.linalg.norm(vec)


def _haar_ket(rng) -> np.ndarray:
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return raw / np.linalg.norm(raw)


def _flat(vec) -> list:
    return [float(x) for z in np.ravel(vec) for x in (z.real, z.imag)]


def _unflat(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return (arr[0::2] + 1j * arr[1::2]).reshape(shape)


def _points_spec(t1, p1, t2, p2) -> str:
    return "points:" + ",".join(repr(float(x)) for x in (t1, p1, t2, p2))


# ---------------------------------------------------------------------------
# states: library calls on pure kets


class States:
    """Point map, magnetization, decomposition and rigidity on pure kets.

    One pass is 200 kets: 80 Haar-random, 40 spin-coherent (coincident
    points), 40 antipodal pairs, and 40 poles/basis/canonical states (8 of
    each basis ket, 16 canonical). Each carries a random global phase and
    three rotation angles, one per axis.
    """

    name = "states"
    round_ops = 20
    key = 1
    cwd = None

    def make_pass(self, seed: int) -> list:
        rng = _rng(self.key, seed)
        specs = []
        for _ in range(80):
            specs.append(("haar", _haar_ket(rng)))
        for _ in range(40):
            t, p = _random_point(rng)
            specs.append(("coherent", _ket_from_points(t, p, t, p)))
        for _ in range(40):
            t, p = _random_point(rng)
            specs.append(("antipodal", _ket_from_points(t, p, math.pi - t, p + math.pi)))
        for k in range(24):
            specs.append(("basis", np.eye(3)[k % 3].astype(complex)))
        for _ in range(16):
            a = float(rng.uniform(0.0, math.pi / 2))
            specs.append(("canonical", np.array([math.sin(a), 0.0, math.cos(a)], dtype=complex)))
        out = []
        for kind, vec in specs:
            phase = complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))
            xi = [float(x) for x in rng.uniform(-TWO_PI, TWO_PI, 3)]
            out.append({"kind": kind, "amps": _flat(phase * vec), "xi": xi})
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def prepare(self, spec, ctx):
        return Ket3(_unflat(spec["amps"], (3,))), spec["xi"]

    def run(self, prepared):
        psi, xi = prepared
        back = points_to_state(state_to_points(psi))
        round_trip = phase_invariant_distance(psi, back)
        mag = magnetization(psi)
        alpha, angles = canonical_decompose(psi)
        residual = phase_invariant_distance(
            Ket3(angles.unitary() @ psi.vec), canonical_state(alpha)
        )
        rigidity = [majorana_rotation_check(psi, j, xi[j - 1]) for j in (1, 2, 3)]
        return round_trip, residual, rigidity, mag.magnitude

    def check(self, prepared, output):
        round_trip, residual, rigidity, _ = output
        return (
            _tolerance(round_trip, CONTRACT_TOL, "round trip")
            or _tolerance(residual, CONTRACT_TOL, "decomposition residual")
            or _tolerance(max(rigidity), CONTRACT_TOL, "rigidity")
        )


# ---------------------------------------------------------------------------
# sweep: CLI trajectories


GENERATORS = tuple(f"lambda{i}" for i in range(1, 9)) + tuple(f"sigma{j}" for j in (1, 2, 3))
SWEEP_STEPS = 100  # the CLI default
SWEEP_CHECK_ROWS = 4


class Sweep:
    """``trajectory <gen> <state> --csv`` at the default 100 steps.

    One pass is 44 trajectories: every generator from +1, from -1, from a
    random point pair, and from one of |0>, a coincident pair or a
    canonical state.
    """

    name = "sweep"
    round_ops = 2
    key = 2
    cwd = None

    def make_pass(self, seed: int) -> list:
        rng = _rng(self.key, seed)
        out = []
        for g, gen in enumerate(GENERATORS):
            t1, p1 = _random_point(rng)
            t2, p2 = _random_point(rng)
            third = (
                "0",
                _points_spec(t1, p1, t1, p1),
                f"canon:alpha={float(rng.uniform(0.0, math.pi / 2))!r}",
            )[g % 3]
            for spec in ("+1", "-1", _points_spec(t1, p1, t2, p2), third):
                rows = rng.choice(SWEEP_STEPS, SWEEP_CHECK_ROWS, replace=False)
                rows = sorted(int(r) for r in rows)
                out.append({"gen": gen, "state": spec, "rows": rows})
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def prepare(self, spec, ctx):
        return ["trajectory", spec["gen"], spec["state"], "--csv"], spec

    def run(self, prepared):
        return _capture(prepared[0])

    def check(self, prepared, output):
        _, spec = prepared
        code, text = output
        if code != 0:
            return "wrong", f"exit code {code}"
        lines = text.splitlines()
        if len(lines) != SWEEP_STEPS + 1:
            return "wrong", "row count"
        psi = parse_state_spec(spec["state"])
        gen = spec["gen"]
        index = int(gen[-1])
        worst = 0.0
        for k in spec["rows"]:
            values = [float(v) for v in lines[k + 1].split(",")]
            theta = TWO_PI * (k / SWEEP_STEPS)
            if gen.startswith("lambda"):
                u = u_lambda(index, 0.5 * theta)
            else:
                u = u_sigma(index, theta)
            want = state_to_points(u.apply(psi)).cartesian()
            got = np.array([values[1:4], values[4:7]])
            direct = max(np.linalg.norm(got[0] - want[0]), np.linalg.norm(got[1] - want[1]))
            swapped = max(np.linalg.norm(got[0] - want[1]), np.linalg.norm(got[1] - want[0]))
            worst = max(worst, float(min(direct, swapped)), abs(values[0] - theta))
        return _tolerance(worst, CONTRACT_TOL, "trajectory pair")


# ---------------------------------------------------------------------------
# nmr: pulse sequences on mixed states, then tomography


# Shot costs depend on their event kinds, so the pass is large enough that
# its slowest tenth, which sets op_tail_us, is much the same on every seed.
NMR_SHOTS = 500
NMR_EVENTS = 12
# Event kinds of one pass, in exact proportion: 60% TR, 20% NS, 10% ZC, 10% CRUSH.
NMR_MIX = {"TR": 0.6, "NS": 0.2, "ZC": 0.1, "CRUSH": 0.1}


def _random_mixed(rng) -> np.ndarray:
    """Convex mixture of three Haar kets with uniform random weights."""
    weights = rng.random(3)
    weights /= weights.sum()
    mat = np.zeros((3, 3), dtype=complex)
    for w in weights:
        ket = _haar_ket(rng)
        mat += w * np.outer(ket, ket.conj())
    return mat


def _event(item):
    kind = item[0]
    if kind == "TR":
        return TransitionPulse((item[1], item[2]), item[3], item[4])
    if kind == "NS":
        return NonselectivePulse(item[1], item[2])
    if kind == "ZC":
        return ZCascade(tuple(item[1:4]))
    return Crush()


class Nmr:
    """A 12-event random pulse sequence on a random mixed state, then tomography.

    One pass is 500 shots; its 6000 events are 60% TR, 20% NS, 10% ZC and
    10% CRUSH, shuffled across the shots.
    """

    name = "nmr"
    round_ops = 50
    key = 3
    cwd = None

    def make_pass(self, seed: int) -> list:
        rng = _rng(self.key, seed)
        total = NMR_SHOTS * NMR_EVENTS
        kinds = [k for k, share in NMR_MIX.items() for _ in range(round(share * total))]
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        events = []
        for kind in kinds:
            if kind == "TR":
                r = int(rng.integers(1, 3))
                axis = "xyz"[int(rng.integers(3))]
                events.append(["TR", r, r + 1, axis, float(rng.uniform(-TWO_PI, TWO_PI))])
            elif kind == "NS":
                axis = "xyz"[int(rng.integers(3))]
                events.append(["NS", axis, float(rng.uniform(-TWO_PI, TWO_PI))])
            elif kind == "ZC":
                events.append(["ZC"] + [float(a) for a in rng.uniform(-TWO_PI, TWO_PI, 3)])
            else:
                events.append(["CRUSH"])
        return [
            {
                "rho": _flat(_random_mixed(rng)),
                "events": events[s * NMR_EVENTS:(s + 1) * NMR_EVENTS],
            }
            for s in range(NMR_SHOTS)
        ]

    def prepare(self, spec, ctx):
        rho = DensityMatrix3(_unflat(spec["rho"], (3, 3)))
        return rho, PulseSequence(tuple(_event(e) for e in spec["events"]))

    def run(self, prepared):
        rho0, seq = prepared
        rho = run_sequence(seq, rho0)
        coeffs = reconstruct(run_tomo_experiments(rho))
        return fidelity(rho, coeffs.to_density_matrix())

    def check(self, prepared, output):
        return _tolerance(1.0 - output, FIDELITY_TOL, "tomography fidelity")


# ---------------------------------------------------------------------------
# cli: one in-process report per op


# Fixed-input commands and the golden files they must reproduce. The
# verify command names its file relative to the golden directory, which
# is the working directory of this workload.
CLI_GOLDEN = (
    (["state", "0"], "state_0.json"),
    (["decompose", "canon:alpha=0.9"], "decompose_canon.json"),
    (["gate", "chrestenson", "0"], "gate_chrestenson_0.json"),
    (["tomo", "canon:alpha=0.4"], "tomo_canon.json"),
    (["spectrum", "--omega0", "91.108e6", "--kappa", "156"], "spectrum_936.json"),
    (["verify", "chrestenson.seq", "chrestenson"], "verify_chrestenson.json"),
    (["table1"], "table1.json"),
)
# Seeded commands of one pass, by command.
CLI_SEEDED = {"state": 7, "decompose": 6, "gate": 6, "tomo": 5, "spectrum": 3, "verify": 6}
GATES = ("chrestenson", "swap12", "swap23", "swap13", "phase_l3", "phase_l8")


def golden_mismatch(got, want, path="$"):
    """First path where got differs from want, or None (the CLI tests' rule)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return path
        for key in want:
            bad = golden_mismatch(got[key], want[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return path
        for i, (g, w) in enumerate(zip(got, want)):
            bad = golden_mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, (bool, str)) or want is None:
        return None if got == want else path
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return path
    return None if abs(got - want) <= max(GOLDEN_ABS, GOLDEN_REL * abs(want)) else path


def _seeded_state_spec(rng, k: int) -> list:
    choice = k % 4
    if choice == 0:
        return [_points_spec(*_random_point(rng), *_random_point(rng))]
    if choice == 1:
        return [f"canon:alpha={float(rng.uniform(0.0, math.pi / 2))!r}"]
    if choice == 2:
        return ["random", "--seed", str(int(rng.integers(0, 2**31)))]
    return [("+1", "0", "-1")[int(rng.integers(3))]]


def _verify_case(rng, which: str):
    """(sequence text, target args) of the canned realization of a gate."""
    if which == "chrestenson":
        return sequence_to_text(chrestenson_sequence()), [which]
    if which.startswith("swap"):
        levels = (int(which[4]), int(which[5]))
        return sequence_to_text(swap_sequence(levels)), [which]
    theta = float(rng.uniform(0.0, TWO_PI))
    # phase_l3 is u_lambda(3, t); phase_l8 is u_lambda(8, -t) up to phase.
    seq = lambda_z_sequence(3, theta) if which == "phase_l3" else lambda_z_sequence(8, -theta)
    return sequence_to_text(seq), [which, "--theta", repr(theta)]


class Cli:
    """One in-process ``main([...])`` report per op from a fixed command mix.

    One pass is 40 commands: the 7 golden fixed-input commands (table1 among
    them) and 33 seeded ones: 7 state, 6 decompose, 5 tomo and 3 spectrum
    over seeded point-pair, canonical, random and basis states, plus one
    gate and one verify of its canned pulse sequence for each of the 6
    gates.
    """

    name = "cli"
    round_ops = 20
    key = 4
    cwd = Path("tests") / "golden"

    def make_pass(self, seed: int) -> list:
        rng = _rng(self.key, seed)
        out = [{"argv": argv, "golden": golden} for argv, golden in CLI_GOLDEN]
        for cmd, count in CLI_SEEDED.items():
            for k in range(count):
                spec = {"argv": [cmd], "golden": None}
                if cmd in ("state", "decompose", "tomo"):
                    spec["argv"] += _seeded_state_spec(rng, k)
                elif cmd == "gate":
                    name = GATES[k]
                    spec["argv"] += [name]
                    if name.startswith("phase"):
                        spec["argv"] += ["--theta", repr(float(rng.uniform(0.0, TWO_PI)))]
                    spec["argv"] += _seeded_state_spec(rng, k)
                elif cmd == "spectrum":
                    spec["argv"] += [
                        "--omega0", repr(float(rng.uniform(1e6, 1e9))),
                        "--kappa", repr(float(rng.uniform(0.0, 1e3))),
                    ]
                    if k % 2:
                        spec["argv"] += _seeded_state_spec(rng, k)
                else:
                    text, target = _verify_case(rng, GATES[k])
                    spec["sequence"] = {"name": f"{GATES[k]}.seq", "text": text}
                    spec["argv"] += ["{seq_dir}/" + f"{GATES[k]}.seq"] + target
                out.append(spec)
        order = rng.permutation(len(out))
        return [out[i] for i in order]

    def prepare(self, spec, ctx):
        """ctx holds ``seq_dir`` (seeded sequence files) and ``golden_dir``."""
        argv = [a.replace("{seq_dir}", str(ctx["seq_dir"])) for a in spec["argv"]]
        seq = spec.get("sequence")
        if seq:
            (Path(ctx["seq_dir"]) / seq["name"]).write_text(seq["text"], encoding="utf-8")
        golden = None
        if spec["golden"]:
            golden = json.loads((Path(ctx["golden_dir"]) / spec["golden"]).read_text())
        return argv, golden

    def run(self, prepared):
        return _capture(prepared[0])

    def check(self, prepared, output):
        argv, golden = prepared
        code, text = output
        if code != 0:
            return "wrong", f"{argv[0]}: exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "wrong", f"{argv[0]}: output is not JSON"
        if golden is not None:
            bad = golden_mismatch(report, golden)
            if bad:
                return "wrong", f"{argv[0]}: golden mismatch at {bad}"
        if argv[0] == "verify" and report.get("passes") is not True:
            return "wrong", "verify: sequence misses its gate"
        return None


WORKLOADS = {wl.name: wl for wl in (States(), Sweep(), Nmr(), Cli())}
