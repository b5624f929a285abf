"""Cold start of one op: a fresh interpreter imports qutritsim and runs it.

    python3 perfbench/cold.py <workload> <seq_dir> <golden_dir> < op_spec.json

run.py times this process from outside for ``setup_s``; the op spec
arrives as JSON on stdin, so the child only receives generated inputs.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    spec = json.load(sys.stdin)
    ctx = {"seq_dir": sys.argv[2], "golden_dir": sys.argv[3]}
    workload.run(workload.prepare(spec, ctx))
