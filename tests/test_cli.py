import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritsim import cli
from qutritsim.cli import (
    TRAJECTORY_CSV_HEADER,
    main,
    parse_state_spec,
    sample_trajectory,
)
from qutritsim.core import phase_invariant_distance
from qutritsim.nmrsim import chrestenson_sequence, phase_table, sequence_to_text

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
    _, _, m = sample_trajectory("sigma3", parse_state_spec("canon:alpha=0.5"), 40, 2 * math.pi)
    mags = [float(np.linalg.norm(row)) for row in m]
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


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("qutritsim: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["state", "decompose"])
@pytest.mark.parametrize("spec", ["inf,0 0,0 0,0", "1,0 nan,0 0,0", "canon:alpha=nan"])
def test_decomposition_non_finite_state_is_one_line_error(capsys, command, spec):
    _assert_one_line_error(*run_cli(capsys, command, spec))


@pytest.mark.parametrize("spec", ["points:1,nan,1,0", "points:1,inf,1,0", "points:0,nan,1,0"])
def test_non_finite_azimuth_is_one_line_error(capsys, spec):
    _assert_one_line_error(*run_cli(capsys, "state", spec))


@pytest.mark.parametrize(
    "omega0, kappa", [("nan", "1"), ("inf", "1"), ("91.108e6", "nan"), ("91.108e6", "inf")]
)
def test_spectrum_non_finite_parameter_is_one_line_error(capsys, omega0, kappa):
    _assert_one_line_error(*run_cli(capsys, "spectrum", "--omega0", omega0, "--kappa", kappa))


@pytest.mark.parametrize(
    "argv",
    [
        ("gate", "phase_l3", "0", "--theta", "nan"),
        ("gate", "phase_l8", "0", "--theta", "inf"),
        ("verify", "{seq}", "phase_l3", "--theta", "nan"),
    ],
)
def test_phase_gate_non_finite_theta_is_one_line_error(tmp_path, capsys, argv):
    path = tmp_path / "ch.seq"
    path.write_text(sequence_to_text(chrestenson_sequence()))
    code, out, err = run_cli(capsys, *(a.format(seq=path) for a in argv))
    _assert_one_line_error(code, out, err)
    assert "theta" in err


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


# --------------------------------------------------------------------------
# one parser per process, one-pass CSV

# Pairs that could leak state from one call into the next through a reused
# parser: an error then a valid call, optional arguments given then omitted.
PARSER_SERIES = [
    ("spectrum",),  # usage error: missing required options
    ("spectrum", "--omega0", "91.108e6", "--kappa", "156"),
    ("--version",),
    ("spectrum", "--omega0", "91.108e6", "--kappa", "156", "canon:alpha=0.3"),
    ("spectrum", "--omega0", "91.108e6", "--kappa", "156"),
    ("gate", "phase_l3", "0", "--theta", "60", "--degrees"),
    ("gate", "phase_l3", "0", "--theta", "60"),
    ("state", "random", "--seed", "5"),
    ("state", "random"),
    ("state", "not-a-state"),
    ("trajectory", "lambda2", "+1", "--steps", "8", "--csv"),
    ("trajectory", "lambda2", "+1", "--steps", "8"),
]


def test_cached_parser_keeps_calls_independent(capsys, monkeypatch):
    # reference: every call through a fresh parser
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    want = [run_cli(capsys, *argv) for argv in PARSER_SERIES]
    monkeypatch.undo()
    assert [code for code, _, _ in want] == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]

    built = []
    fresh_parser = cli.build_parser

    def counted_build_parser():
        built.append(1)
        return fresh_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    got = [run_cli(capsys, *argv) for argv in PARSER_SERIES]
    assert got == want
    assert len(built) <= 1


@pytest.mark.parametrize(
    "extra, spec, degrees, seed",
    [
        ([], [], False, 0),
        (["random"], ["random"], False, 0),
        (["1,0", "0,0", "0,1"], ["1,0", "0,0", "0,1"], False, 0),
        (["canon:alpha=30", "--degrees"], ["canon:alpha=30"], True, 0),
        (["--degrees"], [], True, 0),
        (["random", "--seed", "7"], ["random"], False, 7),
        (["--seed", "7"], [], False, 7),
    ],
)
def test_spectrum_state_options(extra, spec, degrees, seed):
    argv = ["spectrum", "--omega0", "100", "--kappa", "2.5", *extra]
    assert vars(cli.build_parser().parse_args(argv)) == {
        "command": "spectrum",
        "omega0": 100.0,
        "kappa": 2.5,
        "spec": spec,
        "degrees": degrees,
        "seed": seed,
        "func": cli.cmd_spectrum,
    }


TRAJECTORY_GENERATORS = [f"lambda{i}" for i in range(1, 9)] + [f"sigma{j}" for j in (1, 2, 3)]


def _per_value_csv(generator, spec, prec):
    """Reference: the trajectory CSV formatted one value and one line at a time."""
    lines = [TRAJECTORY_CSV_HEADER]
    thetas, points, ms = sample_trajectory(generator, parse_state_spec(spec), 100, 2 * math.pi)
    for theta, (p1, p2), m in zip(thetas, points, ms):
        lines.append(",".join(f"{x:.{prec}g}" for x in (theta, *p1, *p2, *m)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("precision", ["1", "3", None, "17"])
def test_trajectory_csv_matches_per_value_formatting(capsys, monkeypatch, precision):
    if precision is None:
        monkeypatch.delenv("QUTRITSIM_PRECISION", raising=False)
    else:
        monkeypatch.setenv("QUTRITSIM_PRECISION", precision)
    prec = int(precision or 12)
    negative_zeros = 0
    for generator in TRAJECTORY_GENERATORS:
        for spec in ("+1", "-1", "0", "points:1.1,2.3,1.1,2.3"):
            code, out, err = run_cli(capsys, "trajectory", generator, spec, "--csv")
            assert (code, err) == (0, "")
            assert out == _per_value_csv(generator, spec, prec), (generator, spec)
            negative_zeros += out.count(",-0,")
    assert negative_zeros > 0  # the signed zero is part of the contract


def _per_value_table1_csv(prec):
    """Reference: the table1 CSV formatted one value and one line at a time."""
    rows = phase_table()
    keys = list(rows[0])
    lines = [",".join(keys)] + [",".join(f"{row[k]:.{prec}g}" for k in keys) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("precision", ["1", "3", None, "17"])
def test_table1_csv_matches_per_value_formatting(capsys, monkeypatch, precision):
    if precision is None:
        monkeypatch.delenv("QUTRITSIM_PRECISION", raising=False)
    else:
        monkeypatch.setenv("QUTRITSIM_PRECISION", precision)
    code, out, err = run_cli(capsys, "table1", "--csv")
    assert (code, err) == (0, "")
    assert out == _per_value_table1_csv(int(precision or 12))


# --------------------------------------------------------------------------
# arbitrary text at the input boundary


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in JSON output")


def _assert_clean_exit(argv):
    """main returns 0, 1 or 2 and reports a failure the documented way."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        raise AssertionError(f"{type(exc).__name__} escaped main({argv!r})") from exc
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
        if not out.startswith("usage: "):  # -h prints help
            json.loads(out, parse_constant=_reject_non_finite)
    elif err.startswith("usage: "):
        # argparse: the usage text, then '<prog>: error: <message>'
        usage, sep, message = err.partition(": error: ")
        assert sep and usage.startswith("usage: qutritsim"), argv
        assert usage.rsplit("\n", 1)[-1].startswith("qutritsim"), argv
        assert message.endswith("\n"), argv
    else:
        assert err.startswith("qutritsim: ") and err.count("\n") == 1, (argv, err)
        assert out == "", argv


_FINITE = st.floats(-10.0, 10.0).map(repr)
_NUMBER = st.one_of(
    _FINITE,
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-inf", "1e309", "-0", "1_0", "0x1p3", "", " "]),
    st.text(max_size=4),
)
_STATE_SPEC = st.one_of(
    st.text(),
    st.sampled_from(["+1", "0", "-1", "random", " -1 ", "-", "--", "-h", "--seed", "--deg"]),
    st.lists(_NUMBER, min_size=3, max_size=5).map(lambda xs: "points:" + ",".join(xs)),
    st.lists(_FINITE, min_size=4, max_size=4).map(lambda xs: "points:" + ",".join(xs)),
    _NUMBER.map(lambda x: "canon:alpha=" + x),
    st.lists(st.tuples(_NUMBER, _NUMBER), min_size=2, max_size=4).map(
        lambda amps: " ".join(f"{re},{im}" for re, im in amps)
    ),
    st.lists(st.tuples(_FINITE, _FINITE), min_size=3, max_size=3).map(
        lambda amps: " ".join(f"{re},{im}" for re, im in amps)
    ),
)
_EVENT_LINE = st.one_of(
    st.tuples(st.sampled_from(["1 2", "2 3", "1 3"]), st.sampled_from("xy"), _FINITE).map(
        lambda f: "TR " + " ".join(f)
    ),
    st.tuples(st.sampled_from("xy"), _FINITE).map(lambda f: "NS " + " ".join(f)),
    st.lists(_FINITE, min_size=3, max_size=3).map(lambda f: "ZC " + " ".join(f)),
    st.just("CRUSH"),
)
_SEQUENCE_LINE = st.one_of(
    st.text(),
    _EVENT_LINE,
    st.lists(
        st.one_of(
            st.sampled_from(["TR", "NS", "ZC", "CRUSH", "tr", "1", "2", "3", "4", "x", "-y", "#"]),
            _NUMBER,
        ),
        max_size=6,
    ).map(" ".join),
)
_SEQUENCE_TEXT = st.one_of(
    st.text(),
    st.lists(_SEQUENCE_LINE, max_size=8).map("\n".join),
    st.lists(_EVENT_LINE, max_size=8).map("\n".join),
)


@settings(max_examples=200, deadline=None)
@given(spec=_STATE_SPEC)
# a subnormal c_plus1 puts a root of the quadratic past the float range
@example(spec="2.2250738585072014e-308,2.2250738585072014e-308 0.0,4.0 0.0,1.0")
def test_arbitrary_state_text_exits_cleanly(spec):
    _assert_clean_exit(["state", spec])
    _assert_clean_exit(["decompose", spec])


@settings(max_examples=200, deadline=None)
@given(text=_SEQUENCE_TEXT)
def test_arbitrary_sequence_text_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.seq"
    path.write_text(text, encoding="utf-8")
    _assert_clean_exit(["verify", str(path), "chrestenson"])
