"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Inputs are deterministic per seed, every checker flags a corrupted
output, the printed metric names are the ones BENCHMARK.json declares,
and traced per-op call counts repeat exactly for one seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, golden_mismatch  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ctx(tmp_path):
    return {"seq_dir": tmp_path, "golden_dir": ROOT / "tests" / "golden"}


def _run_bench(workload, trace, seed=3, seconds=0.3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    assert wl.make_pass(5) == wl.make_pass(5)
    assert wl.make_pass(5) != wl.make_pass(6)
    json.dumps(wl.make_pass(5))  # the cold start receives specs as JSON


def test_states_check_flags_corruption(tmp_path):
    wl = WORKLOADS["states"]
    spec = next(s for s in wl.make_pass(1) if s["kind"] == "haar")
    prepared = wl.prepare(spec, _ctx(tmp_path))
    out = wl.run(prepared)
    assert wl.check(prepared, out) is None
    round_trip, residual, rigidity, magnitude = out
    assert wl.check(prepared, (round_trip, residual, [0.0, 3e-8, 0.0], magnitude))[0] == "miss"
    assert wl.check(prepared, (1e-3, residual, rigidity, magnitude))[0] == "wrong"
    assert wl.check(prepared, (round_trip, float("nan"), rigidity, magnitude))[0] == "wrong"


def test_sweep_check_flags_corruption(tmp_path):
    wl = WORKLOADS["sweep"]
    spec = wl.make_pass(1)[0]
    prepared = wl.prepare(spec, _ctx(tmp_path))
    code, text = wl.run(prepared)
    assert code == 0 and wl.check(prepared, (code, text)) is None
    lines = text.splitlines()
    row = spec["rows"][0] + 1
    values = lines[row].split(",")
    values[1] = repr(float(values[1]) + 1e-7)  # perturb p1x of a checked row
    bad = lines[:row] + [",".join(values)] + lines[row + 1:]
    assert wl.check(prepared, (0, "\n".join(bad)))[0] == "miss"
    assert wl.check(prepared, (2, text))[0] == "wrong"
    assert wl.check(prepared, (0, "\n".join(lines[:-1])))[0] == "wrong"


def test_nmr_check_flags_corruption(tmp_path):
    wl = WORKLOADS["nmr"]
    prepared = wl.prepare(wl.make_pass(1)[0], _ctx(tmp_path))
    fid = wl.run(prepared)
    assert wl.check(prepared, fid) is None
    assert wl.check(prepared, 1.0 - 1e-8)[0] == "miss"
    assert wl.check(prepared, 0.5)[0] == "wrong"
    tally = run.Tally()
    tally.add(wl, prepared, ValueError("readouts disagree"))
    assert tally.failed == 1 and tally.misses == 0
    tally.add(wl, prepared, 1.0 - 1e-8)  # within roundoff: a contract miss
    tally.add(wl, prepared, fid)
    assert tally.attempted == 3 and tally.failed == 1 and tally.misses == 1


def test_cli_check_flags_corruption(tmp_path, monkeypatch):
    wl = WORKLOADS["cli"]
    monkeypatch.chdir(ROOT / wl.cwd)
    specs = wl.make_pass(1)
    golden = next(s for s in specs if s["golden"] == "state_0.json")
    prepared = wl.prepare(golden, _ctx(tmp_path))
    code, text = wl.run(prepared)
    assert wl.check(prepared, (code, text)) is None
    report = json.loads(text)
    report["magnetization"]["magnitude"] = 0.5  # a wrong golden field
    assert wl.check(prepared, (0, json.dumps(report)))[0] == "wrong"
    assert wl.check(prepared, (1, text))[0] == "wrong"
    assert wl.check(prepared, (0, "not json"))[0] == "wrong"
    verify = next(s for s in specs if s.get("sequence"))
    prepared = wl.prepare(verify, _ctx(tmp_path))
    code, text = wl.run(prepared)
    assert wl.check(prepared, (code, text)) is None
    report = json.loads(text)
    report["passes"] = False
    assert wl.check(prepared, (0, json.dumps(report)))[0] == "wrong"


def test_golden_mismatch_rule():
    assert golden_mismatch({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) is None
    assert golden_mismatch({"a": [1.0, "x"]}, {"a": [1.0 + 1e-6, "x"]}) == "$.a[0]"
    assert golden_mismatch({"a": 1.0}, {"a": 1.0, "b": 2.0}) == "$"
    assert golden_mismatch({"a": True}, {"a": 1.0}) == "$.a"


def test_percentile_is_nearest_rank_with_samples_beyond():
    assert run.percentile(list(range(1000)), 90) == {
        "percentile": 90, "value": 899, "samples_beyond": 100}
    assert run.percentile(list(range(1000)), 99)["samples_beyond"] == 10


def test_end_to_end_names_match_benchmark_json():
    detail, result = _run_bench("cli", trace=0, seconds=1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert detail["op_tail"]["samples_beyond"] >= 10 and detail["env"]["threads"]


def test_layer_names_match_benchmark_json():
    _, result = _run_bench("states", trace=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(layer_metric_names()) <= set(declared)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_traced_call_counts_repeat_for_a_seed():
    first = _run_bench("nmr", trace=1, seed=9)[1]["metrics"]
    second = _run_bench("nmr", trace=1, seed=9)[1]["metrics"]
    calls = [k for k in first if k.endswith(".calls")]
    assert calls and all(first[k]["value"] == second[k]["value"] for k in calls)
    # one shot sequence plus the four tomography experiments
    assert first["nmrsim.run_sequence.calls"]["value"] == 5.0


def test_tracer_sees_calls_through_every_binding(tmp_path):
    wl = WORKLOADS["states"]
    prepared = wl.prepare(wl.make_pass(2)[0], _ctx(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        wl.run(prepared)
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # geometry's own state_to_points binding is traced too: the op calls it
    # once directly, once in magnetization, once in canonical_decompose and
    # twice per rigidity check.
    assert metrics["majorana.state_to_points.calls"][0] == 9
    assert metrics["algebra.majorana_rotation_check.calls"][0] == 3
    import qutritsim.geometry

    assert not hasattr(qutritsim.geometry.state_to_points, "__wrapped__")


def test_refuses_to_run_without_a_checkout(tmp_path):
    for rel in ("perfbench/run.py", "perfbench/workloads.py", "perfbench/tracer.py",
                "perfbench/cold.py", "BENCHMARK.json"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text((ROOT / rel).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "states", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
