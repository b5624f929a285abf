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
