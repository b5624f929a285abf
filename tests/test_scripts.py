import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_results_writes_trajectories(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_results.py"), "--outdir", str(tmp_path)],
        check=True,
        capture_output=True,
        env=env,
        timeout=120,
    )
    names = sorted(p.name for p in tmp_path.glob("trajectory_*.csv"))
    assert names == [
        "trajectory_lambda2_from_plus1.csv",
        "trajectory_lambda3_from_equatorial.csv",
        "trajectory_lambda5_from_plus1.csv",
    ]
    for name in names:
        assert len((tmp_path / name).read_text().splitlines()) == 201


def test_benchmark_trace_layers_resolve():
    """Every qutritsim.<module>.<name> the benchmark tracer wraps exists."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.LAYERS.items():
        for name in names:
            obj = importlib.import_module(f"qutritsim.{module}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
