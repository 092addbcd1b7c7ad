"""Verdict benchmark for lvfte.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: map-smooth, map-fte, ode-census,
recipes (see perfbench/README.md).  The run builds the workload's inputs
from the seed, repeats whole rounds of the same lvfte calls for about S
seconds (at least two rounds), checks every verdict against computations
made apart from lvfte, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run times one
round plainly and one round with spans around lvfte's layer boundaries,
and reports the per-layer metrics.  The line before the result carries the
run's context (host, versions, calibration, rounds, failures).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def calibrate(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python and numpy loop: a host gauge."""
    import numpy as np

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        a = np.linspace(0.0, 1.0, 4096)
        for _ in range(2000):
            a = np.sqrt(a * a + 1e-3) * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timed_rounds(work, seconds: float):
    """Whole rounds until the next one would end past ``seconds`` (at least
    ``work.min_rounds``); returns the rounds and each round's wall time."""
    rounds, walls = [], []
    while True:
        t0 = time.perf_counter()
        rounds.append(work.round())
        walls.append(time.perf_counter() - t0)
        if len(rounds) >= work.min_rounds and sum(walls) * (1 + 1 / len(rounds)) > seconds:
            return rounds, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import lvfte

    if Path(lvfte.__file__).resolve().parent != ROOT / "src" / "lvfte":
        raise ImportError(f"lvfte must come from {ROOT / 'src'}, not {lvfte.__file__}")
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out_root = OUT / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        build(args.workload, args.seed, ROOT, out_root)
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    calibration = [calibrate()]
    work = build(args.workload, args.seed, ROOT, out_root)
    work.warm()

    if args.trace:
        from tracer import LAYER_UNITS, Tracer

        t0 = time.perf_counter()
        plain = work.round()
        plain_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = work.round()
            traced_s = time.perf_counter() - t0
        finally:
            tracer.remove()
        rounds, round_walls = [plain, traced], [plain_s, traced_s]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        layers = tracer.layer_metrics()
        calibration.append(calibrate())
        layers["host.calibration_s"] = statistics.mean(calibration)
        layers["trace.overhead_ratio"] = traced_s / plain_s
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        rounds, round_walls = timed_rounds(work, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibration.append(calibrate())
        # A percentile is taken over the distinct operations, each at its mean
        # wall time over the run: the host's speed swings over seconds, and a
        # median of single invocations flips with whichever state held most
        # of the run.
        per_op = {}
        for r in rounds:
            for key, _, wall in r:
                per_op.setdefault(key, []).append(wall)
        walls = [statistics.fmean(w) for w in per_op.values()]
        verdicts = sum(len(r) for r in rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "verdicts_per_s": {"value": verdicts / sum(round_walls), "unit": "1/s"},
            "verdict_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "verdict_p90_s": {"value": percentile(walls, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    attempted, failed, messages = work.check(rounds)
    import numpy
    import scipy

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "verdicts_per_round": len(rounds[0]),
        "round_walls_s": round_walls,
        "setup_samples_s": setup,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "calibration_s": calibration,
        },
        "failures": messages[:20],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
