import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qutritsim.cli import (
    TRAJECTORY_CSV_HEADER,
    main,
    parse_state_spec,
    sample_trajectory,
)
from qutritsim.core import phase_invariant_distance
from qutritsim.nmrsim import chrestenson_sequence, sequence_to_text

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_matches(got, want, path="$"):
    """Same tree shape and keys; numbers approximately equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_json_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or isinstance(want, str) or want is None:
        assert got == want, path
    else:
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9), path


# --------------------------------------------------------------------------
# state-spec parsing


def test_parse_named_kets():
    assert np.allclose(parse_state_spec("+1").vec, [1, 0, 0])
    assert np.allclose(parse_state_spec("0").vec, [0, 1, 0])
    assert np.allclose(parse_state_spec("-1").vec, [0, 0, 1])


def test_parse_amplitude_triple():
    psi = parse_state_spec("1,0 0,1 0,0")
    assert np.allclose(psi.vec, [1 / math.sqrt(2), 1j / math.sqrt(2), 0])


def test_parse_canonical():
    psi = parse_state_spec("canon:alpha=0.7")
    assert np.allclose(psi.vec, [math.sin(0.7), 0, math.cos(0.7)])


def test_parse_points():
    psi = parse_state_spec("points:0,0,0,0")
    assert np.allclose(psi.vec, [1, 0, 0], atol=1e-12)


def test_parse_random_is_seeded():
    a = parse_state_spec("random", seed=7)
    b = parse_state_spec("random", seed=7)
    c = parse_state_spec("random", seed=8)
    assert np.array_equal(a.vec, b.vec)
    assert phase_invariant_distance(a, c) > 1e-3


def test_parse_degrees_converts_inputs_exactly():
    deg = parse_state_spec("canon:alpha=45", degrees=True)
    rad = parse_state_spec(f"canon:alpha={math.pi / 4}")
    assert np.max(np.abs(deg.vec - rad.vec)) < 1e-12
    assert math.degrees(math.radians(45.0)) == 45.0  # boundary round trip


def test_parse_errors_are_positioned():
    from qutritsim.cli import UsageError

    with pytest.raises(UsageError, match="amplitude 2"):
        parse_state_spec("1,0 nope 0,0")
    with pytest.raises(UsageError, match="4 comma-separated"):
        parse_state_spec("points:1,2,3")
    with pytest.raises(UsageError):
        parse_state_spec("canon:beta=1")
    with pytest.raises(UsageError):
        parse_state_spec("gibberish")


# --------------------------------------------------------------------------
# commands against golden files


def golden_json(name):
    return json.loads((GOLDEN / name).read_text())


def test_state_zero_golden(capsys):
    code, out, _ = run_cli(capsys, "state", "0")
    assert code == 0
    report = json.loads(out)
    assert_json_matches(report, golden_json("state_0.json"))
    thetas = sorted(p[0] for p in report["majorana"]["points_spherical"])
    assert thetas[0] == pytest.approx(0.0, abs=1e-12)
    assert thetas[1] == pytest.approx(math.pi, abs=1e-12)
    assert report["magnetization"]["magnitude"] == pytest.approx(0.0, abs=1e-9)
    assert report["magnetization"]["pointing"] is False


def test_state_canonical_quarter_pi(capsys):
    code, out, _ = run_cli(capsys, "state", "canon:alpha=0.7854")
    assert code == 0
    report = json.loads(out)
    assert report["magnetization"]["magnitude"] < 1e-3


def test_spectrum_golden(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--omega0", "91.108e6", "--kappa", "156")
    assert code == 0
    report = json.loads(out)
    assert_json_matches(report, golden_json("spectrum_936.json"))
    assert report["separation_hz"] == 936.0


def test_table1_golden(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    report = json.loads(out)
    assert_json_matches(report, golden_json("table1.json"))
    row90 = next(r for r in report["rows"] if r["theta_deg"] == 90)
    assert row90["l3_measured_deg"] == pytest.approx(135.0, abs=1e-6)


def test_gate_chrestenson_golden(capsys):
    code, out, _ = run_cli(capsys, "gate", "chrestenson", "0")
    assert code == 0
    assert_json_matches(json.loads(out), golden_json("gate_chrestenson_0.json"))


def test_decompose_golden(capsys):
    code, out, _ = run_cli(capsys, "decompose", "canon:alpha=0.9")
    assert code == 0
    report = json.loads(out)
    assert_json_matches(report, golden_json("decompose_canon.json"))
    assert report["alpha"] == pytest.approx(0.9, abs=1e-9)


def test_tomo_golden(capsys):
    code, out, _ = run_cli(capsys, "tomo", "canon:alpha=0.4")
    assert code == 0
    assert_json_matches(json.loads(out), golden_json("tomo_canon.json"))


def test_verify_golden(tmp_path, capsys, monkeypatch):
    (tmp_path / "chrestenson.seq").write_text((GOLDEN / "chrestenson.seq").read_text())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "chrestenson.seq", "chrestenson")
    assert code == 0
    assert_json_matches(json.loads(out), golden_json("verify_chrestenson.json"))


def test_trajectory_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "trajectory", "lambda2", "+1", "--steps", "8", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    golden_lines = (GOLDEN / "trajectory_lambda2.csv").read_text().strip().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER == golden_lines[0]
    assert len(lines) == len(golden_lines) == 9
    for got_row, want_row in zip(lines[1:], golden_lines[1:]):
        got_vals = [float(v) for v in got_row.split(",")]
        want_vals = [float(v) for v in want_row.split(",")]
        assert got_vals == pytest.approx(want_vals, abs=1e-9)


# --------------------------------------------------------------------------
# behaviour of the remaining commands


def test_tomo_command(capsys):
    code, out, _ = run_cli(capsys, "tomo", "canon:alpha=0.4")
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert len(report["coefficients"]) == 8


def test_gate_output_chains_into_tomo(capsys):
    code, out, _ = run_cli(capsys, "gate", "chrestenson", "0")
    assert code == 0
    amps = json.loads(out)["output"]["amplitudes"]
    spec = " ".join(
        f"{amps[key][0]},{amps[key][1]}" for key in ("c_plus1", "c_zero", "c_minus1")
    )
    code, out, _ = run_cli(capsys, "tomo", spec)
    assert code == 0
    assert json.loads(out)["fidelity"] >= 0.999


def test_trajectory_sigma_keeps_magnitude():
    samples = sample_trajectory("sigma3", parse_state_spec("canon:alpha=0.5"), 40, 2 * math.pi)
    mags = [float(np.linalg.norm(m)) for _, _, _, m in samples]
    assert max(mags) - min(mags) < 1e-9


def test_trajectory_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "trajectory", "lambda9", "+1")
    assert code == 1
    assert "unknown generator" in err


@pytest.mark.parametrize(
    "option", [("--steps", "1"), ("--steps", "-3"), ("--range", "nan"), ("--range", "inf")]
)
def test_trajectory_bad_option_is_one_line_error(capsys, option):
    code, out, err = run_cli(capsys, "trajectory", "lambda5", "+1", *option)
    assert code == 1
    assert out == ""
    assert err.startswith("qutritsim: error: ") and err.count("\n") == 1


def test_verify_command_passes(tmp_path, capsys):
    path = tmp_path / "ch.seq"
    path.write_text(sequence_to_text(chrestenson_sequence()))
    code, out, _ = run_cli(capsys, "verify", str(path), "chrestenson", "--assert")
    assert code == 0
    report = json.loads(out)
    assert report["passes"] is True
    assert report["fidelity"] >= 1 - 1e-8


def test_verify_command_assert_failure(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_text("TR 1 2 y 90\n")
    code, out, err = run_cli(capsys, "verify", str(path), "chrestenson", "--assert")
    assert code == 2
    assert "contract violation" in err
    report = json.loads(out)
    assert report["passes"] is False


def test_verify_without_assert_reports_only(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_text("TR 1 2 y 90\n")
    code, out, _ = run_cli(capsys, "verify", str(path), "chrestenson")
    assert code == 0
    assert json.loads(out)["passes"] is False


@pytest.mark.parametrize(
    "text, lineno", [("TR 1 2 x nan\n", 1), ("CRUSH\nZC inf 0 0\n", 2)]
)
def test_verify_non_finite_angle_is_one_line_error(tmp_path, capsys, text, lineno):
    path = tmp_path / "f.seq"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path), "chrestenson")
    assert code == 1
    assert out == ""
    assert err.startswith("qutritsim: error: ") and err.count("\n") == 1
    assert f"line {lineno}: " in err


@pytest.mark.filterwarnings("error")
def test_non_finite_state_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "state", "nan,0 0,0 0,0")
    assert code == 1
    assert out == ""
    assert err.startswith("qutritsim: error: ") and err.count("\n") == 1


def test_verify_bad_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent.seq", "chrestenson")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "not-a-state")
    assert code == 1
    assert "error" in err


def test_unknown_gate_exit_code(capsys):
    code, _, err = run_cli(capsys, "gate", "hadamard", "0")
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "spectrum")  # missing required options
    assert code == 1


def test_degrees_flag_on_gate(capsys):
    code, out, _ = run_cli(
        capsys, "gate", "phase_l3", "0", "--theta", "60", "--degrees"
    )
    assert code == 0
    # output floats carry 12 significant digits
    assert json.loads(out)["theta"] == float(f"{math.radians(60.0):.12g}")


def test_precision_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QUTRITSIM_PRECISION", "3")
    code, out, _ = run_cli(capsys, "state", "canon:alpha=0.7")
    assert code == 0
    report = json.loads(out)
    amp = report["amplitudes"]["c_plus1"][0]
    assert amp == float(f"{math.sin(0.7):.3g}")
