#!/usr/bin/env python3
"""Dump every headline result of the toolkit as machine-readable data.

Writes one JSON/CSV file per experiment into --outdir (default ./out):
basis-state point configurations, the canonical family sweep, the
magnetization geometry, Chrestenson outputs, generator point
trajectories, the swap cycle, the phase-difference table, the spectrum
splitting, and pseudopure preparation with tomography round trips.

Everything here goes through the same public API the CLI uses, so the
files double as a worked example of the library.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from qutritsim import Ket3, dm_from_ket, state_to_points
from qutritsim.cli import parse_state_spec
from qutritsim.gates import chrestenson, swap
from qutritsim.geometry import CanonicalForm, canonical_state, magnetization
from qutritsim.nmrsim import (
    HamiltonianParams,
    ThermalParams,
    chrestenson_sequence,
    phase_table,
    prepare_pseudopure,
    sequence_to_text,
    swap_sequence,
    transition_frequencies,
)
from qutritsim.tomography import tomo_report
from qutritsim.trajectory import sample_trajectory


def state_points(psi: Ket3) -> dict:
    pair = state_to_points(psi)
    m = magnetization(psi)
    return {
        "points": [list(pair.p1.cartesian()), list(pair.p2.cartesian())],
        "magnetization": list(m.m_vector),
        "magnitude": m.magnitude,
        "pointing": m.pointing,
    }


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, default=float) + "\n")
    print(f"wrote {path}")


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)

    # basis kets on the sphere
    write_json(
        out / "basis_state_points.json",
        {name: state_points(parse_state_spec(name)) for name in ("+1", "0", "-1")},
    )

    # canonical family: point geometry and magnetization versus alpha
    rows = []
    for alpha in np.linspace(0.0, math.pi / 2, 91):
        form = CanonicalForm(float(alpha))
        m = magnetization(canonical_state(float(alpha)))
        rows.append((alpha, form.y_c, form.z_c, form.eta, m.m_vector[2], m.magnitude))
    write_csv(
        out / "canonical_family.csv",
        "alpha,y_c,z_c,eta,m_z,magnitude",
        rows,
    )

    # Chrestenson gate on the three basis states
    write_json(
        out / "chrestenson_outputs.json",
        {
            name: state_points(chrestenson().apply(parse_state_spec(name)))
            for name in ("+1", "0", "-1")
        },
    )

    # point trajectories under the three illustrative generators
    trajectories = {
        "lambda2_from_plus1": ("lambda2", "+1"),
        "lambda5_from_plus1": ("lambda5", "+1"),
        "lambda3_from_equatorial": (
            "lambda3",
            f"{1 / math.sqrt(2)},0 0,0 {1 / math.sqrt(2)},0",
        ),
    }
    for name, (generator, spec) in trajectories.items():
        samples = sample_trajectory(generator, parse_state_spec(spec), 200, 2 * math.pi)
        write_csv(
            out / f"trajectory_{name}.csv",
            "theta,p1x,p1y,p1z,p2x,p2y,p2z,mx,my,mz",
            [(t, *p1, *p2, *m) for t, p1, p2, m in samples],
        )

    # sequential swaps walk the poles
    psi = parse_state_spec("+1")
    panels = [state_points(psi)]
    for pair in ((1, 2), (2, 3), (1, 3)):
        psi = swap(pair).apply(psi)
        panels.append(state_points(psi))
    write_json(out / "swap_cycle.json", panels)

    # phase-gate table and the deuterium spectrum splitting
    write_json(out / "phase_table.json", phase_table())
    params = HamiltonianParams(omega0=91.108e6, kappa=156.0)
    f12, f23 = transition_frequencies(params)
    write_json(
        out / "spectrum.json",
        {
            "omega0_hz": params.omega0,
            "kappa_hz": params.kappa,
            "line12_hz": f12,
            "line23_hz": f23,
            "separation_hz": abs(f23 - f12),
        },
    )

    # pseudopure preparation and its tomography round trip
    pseudo = {}
    for target, name in ((1, "+1"), (2, "0"), (3, "-1")):
        rho = prepare_pseudopure(target, ThermalParams(1e-4))
        pseudo[name] = {
            "populations": list(np.diag(rho.mat).real),
            "tomography": tomo_report(rho),
        }
    write_json(out / "pseudopure_tomography.json", pseudo)

    # tomography of every gate output from |0>
    write_json(
        out / "gate_tomography.json",
        {
            name: tomo_report(dm_from_ket(gate.apply(parse_state_spec("0"))))
            for name, gate in (
                ("chrestenson", chrestenson()),
                ("swap12", swap((1, 2))),
                ("swap13", swap((1, 3))),
            )
        },
    )

    # shipped pulse sequences in the text format
    seq_dir = out / "sequences"
    seq_dir.mkdir(exist_ok=True)
    for name, seq in (
        ("chrestenson", chrestenson_sequence()),
        ("swap12", swap_sequence((1, 2))),
        ("swap23", swap_sequence((2, 3))),
        ("swap13", swap_sequence((1, 3))),
    ):
        path = seq_dir / f"{name}.seq"
        path.write_text(sequence_to_text(seq))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
