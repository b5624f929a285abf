"""qutritsim benchmark: seeded closed-loop workloads through the public API and CLI.

    python3 perfbench/run.py --workload states --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs from the root of a source checkout: the program is imported from
``src/`` and the cli workload reads ``tests/golden/``. One process, one
thread, closed loop: the next op starts when the previous one returns.
BLAS threads are pinned to 1 here, before numpy loads.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it carries the
details (failure and contract-miss reasons, tail percentiles and their
sample counts, the host reference reading and the environment). See
README.md for the names.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
GOLDEN_DIR = ROOT / "tests" / "golden"

WORKLOAD_NAMES = ("states", "sweep", "nmr", "cli")
# Cold starts per run, spread over the timed passes; setup_s is their median.
SETUP_REPEATS = 7
# op_tail_us is this percentile. p99 is recorded in the detail line only:
# on a shared host it moves with every burst of stalls, and its spread
# between identical runs exceeds the bound (see README.md).
TAIL_PERCENTILE = 90
# Timings are reported at the host speed on which the reference loop
# takes this long. The shared host's speed drifts by up to 2x over
# minutes, and op times drift with it; each round of ops and each cold
# start is scaled by the reference loop timed right before and after it,
# which takes most of that out (README.md). The measured figures are in
# the detail line.
NOMINAL_REF_MS = 4.0


def percentile(sorted_values, pct) -> dict:
    """Nearest-rank percentile and the number of samples beyond its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return {"percentile": pct, "value": sorted_values[rank - 1],
            "samples_beyond": len(sorted_values) - rank}


# Bound before the tracer can wrap numpy.linalg.eigh.
_EIGH = np.linalg.eigh
_REF_MATRIX = np.array([[2.0, 1 - 1j, 0.5], [1 + 1j, 3.0, 0.25j], [0.5, -0.25j, 1.0]])


def host_ref_ms() -> float:
    """Fixed numpy-3x3 eigh plus math loop with no qutritsim code."""
    acc = 0.0
    t0 = perf_counter()
    for k in range(300):
        w, _ = _EIGH(_REF_MATRIX)
        acc += math.sin(0.01 * k) * float(w[0]) + math.sqrt(k + 1.0)
    return (perf_counter() - t0) * 1e3


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


class Tally:
    """Op outcomes: attempted, failed (wrong output) and contract misses.

    An op fails when its output is wrong (see ``workloads``). An op whose
    output misses a documented tolerance by no more than roundoff
    (``GROSS_TOL``) is a contract miss: it is counted, with its reason,
    in the detail line and as ``check.contract_miss_ratio``, and does not
    count as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()
        self.severity = Counter()

    def add(self, wl, prepared, output):
        self.attempted += 1
        if isinstance(output, Exception):
            verdict = ("wrong", f"raised {type(output).__name__}")
        else:
            verdict = wl.check(prepared, output)
        if verdict:
            self.severity[verdict[0]] += 1
            self.reasons[verdict[1]] += 1

    @property
    def failed(self) -> int:
        return self.severity["wrong"]

    @property
    def misses(self) -> int:
        return self.severity["miss"]


class Timing:
    """Op latencies and round rates of the timed passes: as measured, and
    scaled to the nominal host speed by the reference loop around each round."""

    def __init__(self):
        self.latencies_us = []
        self.round_rates = []
        self.scaled_us = []
        self.scaled_rates = []
        self.wall_ns = 0

    def add_round(self, latencies_ns, round_ns, ref_ms) -> None:
        speed = NOMINAL_REF_MS / ref_ms  # > 1 on a faster host
        us = [ns / 1e3 for ns in latencies_ns]
        self.latencies_us += us
        self.scaled_us += [u * speed for u in us]
        rate = len(latencies_ns) / (round_ns / 1e9)
        self.round_rates.append(rate)
        self.scaled_rates.append(rate / speed)
        self.wall_ns += round_ns

    def ops_per_s(self) -> float:
        return statistics.median(self.scaled_rates)


def call(wl, item):
    """The op's output, or the exception it raised (a wrong output)."""
    try:
        return wl.run(item)
    except Exception as exc:
        return exc


def run_pass(wl, prepared, timing, refs, tracer=None, first_op=0) -> list:
    """One pass in timed rounds, with the reference loop timed after each
    round and not inside it; returns the outputs, unchecked."""
    outputs = []
    for first in range(0, len(prepared), wl.round_ops):
        latencies = []
        start = perf_counter_ns()
        for i in range(first, first + wl.round_ops):
            if tracer is not None:
                tracer.begin_op(first_op + i)
            t0 = perf_counter_ns()
            outputs.append(call(wl, prepared[i]))
            latencies.append(perf_counter_ns() - t0)
            if tracer is not None:
                tracer.end_op()
        round_ns = perf_counter_ns() - start
        refs.append(host_ref_ms())
        timing.add_round(latencies, round_ns, (refs[-2] + refs[-1]) / 2)
    return outputs


def cold_start_s(workload, spec, ctx, cwd) -> float:
    """Wall time of a fresh interpreter importing qutritsim and running one op."""
    cmd = [sys.executable, str(HERE / "cold.py"), workload, str(ctx["seq_dir"]),
           str(ctx["golden_dir"])]
    t0 = perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(spec), text=True, cwd=cwd,
                          capture_output=True, timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"cold start failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def measure(args) -> tuple:
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    specs = wl.make_pass(args.seed)
    RUNS.mkdir(exist_ok=True)
    seq_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUNS))
    ctx = {"seq_dir": seq_dir, "golden_dir": GOLDEN_DIR}
    cwd = ROOT / wl.cwd if wl.cwd else ROOT
    old_cwd = os.getcwd()
    try:
        prepared = [wl.prepare(spec, ctx) for spec in specs]
        os.chdir(cwd)
        warm = Tally()
        warm.add(wl, prepared[0], call(wl, prepared[0]))  # the first, untimed op

        tally = Tally()
        budget = int(args.seconds * 1e9)
        plain, traced = Timing(), Timing()
        tracer = Tracer() if args.trace else None
        setups, setups_scaled = [], []
        refs = [host_ref_ms()]
        passes = 0
        while True:
            # Traced and untraced passes alternate in a traced run, so host
            # drift hits both sides of the overhead reading alike.
            timing = traced if args.trace and passes % 2 else plain
            if timing is traced:
                tracer.install()
                try:
                    outputs = run_pass(wl, prepared, timing, refs, tracer,
                                       first_op=passes * len(prepared))
                finally:
                    tracer.uninstall()
            else:
                outputs = run_pass(wl, prepared, timing, refs)
            for item, out in zip(prepared, outputs):
                tally.add(wl, item, out)
            passes += 1
            while not args.trace and len(setups) < SETUP_REPEATS * plain.wall_ns / budget:
                setups.append(cold_start_s(wl.name, specs[0], ctx, cwd))
                refs.append(host_ref_ms())
                setups_scaled.append(setups[-1] * NOMINAL_REF_MS * 2 / (refs[-2] + refs[-1]))
            if args.trace:
                if passes % 2 == 0 and min(plain.wall_ns, traced.wall_ns) * 2 >= budget:
                    break
            elif plain.wall_ns >= budget and len(setups) >= SETUP_REPEATS:
                break
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(seq_dir, ignore_errors=True)

    scaled_us = sorted(plain.scaled_us)
    measured_us = sorted(plain.latencies_us)
    tail_stats = percentile(scaled_us, TAIL_PERCENTILE)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(prepared),
        "fail_ratio": tally.failed / tally.attempted,
        "contract_misses": tally.misses,
        "contract_miss_ratio": tally.misses / tally.attempted,
        "reasons": dict(tally.reasons),
        "warmup_failed": warm.failed,
        "op_p50_samples": len(scaled_us),
        "rounds": len(plain.scaled_rates),
        "op_tail": tail_stats,
        "op_p99": percentile(scaled_us, 99),
        "host.ref_ms": statistics.median(refs),
        "unscaled": {
            "ops_per_s": statistics.median(plain.round_rates),
            "op_p50_us": statistics.median(measured_us),
            "op_tail_us": percentile(measured_us, TAIL_PERCENTILE)["value"],
            "setup_s": statistics.median(setups) if setups else None,
        },
        "env": environment(),
    }
    result = {
        "correct": tally.failed == 0 and warm.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    ops_per_s = plain.ops_per_s()
    if args.trace:
        traced_ops_per_s = traced.ops_per_s()
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["check.contract_miss_ratio"] = {
            "value": detail["contract_miss_ratio"], "unit": "fraction"}
        metrics["host.ref_ms"] = {"value": detail["host.ref_ms"], "unit": "ms"}
        metrics["trace.overhead_ops_per_s"] = {
            "value": ops_per_s - traced_ops_per_s, "unit": "ops/s"}
        detail["untraced_ops_per_s"] = ops_per_s
        detail["traced_ops_per_s"] = traced_ops_per_s
        detail["traced_ops"] = tracer.ops
        spans = RUNS / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.write_spans(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_us": {"value": statistics.median(scaled_us), "unit": "us"},
            "op_tail_us": {"value": tail_stats["value"], "unit": "us"},
            "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    result["metrics"] = metrics
    return detail, result


def run_all(args) -> int:
    """Every workload in its own process; prints a table and all results."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed ({proc.returncode}) {proc.stderr.strip()}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        rows[name] = {"detail": detail, "result": result}
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} contract_misses={detail['contract_misses']} "
              f"({detail['contract_miss_ratio']:.4f})")
        for metric, m in result["metrics"].items():
            note = ""
            if metric == "op_p50_us":
                note = f"  (n={detail['op_p50_samples']})"
            elif metric == "op_tail_us":
                t = detail["op_tail"]
                note = f"  (p{t['percentile']}, {t['samples_beyond']} samples beyond)"
            print(f"   {metric:42s} {m['value']:14.6g} {m['unit']}{note}")
        print(f"   {'host.ref_ms':42s} {detail['host.ref_ms']:14.6g} ms")
        for reason, count in sorted(detail["reasons"].items()):
            print(f"   {reason}: {count}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qutritsim" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        print(f"run.py: no qutritsim source checkout at {ROOT} "
              "(needs src/qutritsim and tests/golden)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    detail, result = measure(args)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
