"""Benchmark of the ``nearfield`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload (``scan``, ``large_degree``, ``probe`` or ``checks``; see
README.md) against the checkout's ``src`` without installing it, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics.  ``--smoke`` runs every workload once at a tiny size and exits
non-zero if any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scan", "large_degree", "probe", "checks")
# Set-up is timed in the workload process and in this many more processes
# that stop at the first timed operation; setup_s is the median.
EXTRA_SETUP_SAMPLES = 2
# Every process must be done within this many seconds of the start.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    # one BLAS thread: the runs share a small machine, and one thread keeps
    # them steady (nproc is 2 where the reference figures were taken)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(args, run_dir: Path, extra: list[str], started: float) -> tuple[dict, float]:
    """Run one worker process; return its JSON report and its set-up time.

    The set-up time runs from the spawn to the worker's first timed
    operation, in reference seconds (see calibration.py).
    """
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        *extra,
    ]
    if args.smoke:
        argv.append("--smoke")
    loop_before = calibration.loop_seconds()
    spawned = time.monotonic()
    # its own process group, so that a timeout also ends the forked commands
    proc = subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (spawned - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {extra} exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    setup_s = calibration.to_reference(
        report["ready"] - spawned, 0.5 * (loop_before + report["ready_loop_s"])
    )
    return report, setup_s


def run(args) -> dict:
    started = time.monotonic()
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, setup_s = spawn_worker(args, run_dir / "main", [], started)
        if Path(report["src"]) != SRC:
            raise RuntimeError(f"imported nearfield from {report['src']}, not {SRC}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        setup = [setup_s]
        for i in range(0 if args.smoke else EXTRA_SETUP_SAMPLES):
            setup.append(spawn_worker(args, run_dir / f"setup{i}", ["--setup-only"], started)[1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rates = report.get("rates") or [0.0]
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    if args.trace:
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        metrics = {name: (value, units[name]) for name, value in report["per_layer"].items()}
        trace_doc = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced_end_to_end": {k: v for k, (v, _) in end_to_end.items()},
            "rates": rates,
            "wall_s": report.get("wall_s"),
            "per_layer": report["per_layer"],
        }
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(trace_doc, indent=1) + "\n", encoding="utf-8"
        )
    else:
        metrics = end_to_end
    if report["error"]:
        print(f"output check failed: {report['error']}", file=sys.stderr)
    if "wall_s" in report:
        print(
            f"# {args.workload}: {report.get('attempted', 0)} operations attempted in "
            f"{report['wall_s']:.3f} s of wall time; setup samples {[round(x, 4) for x in setup]}"
        )
    return {
        "correct": bool(report["correct"]),
        "attempted": max(1, int(report.get("attempted", 0))),
        "failed": int(report.get("failed", 0)),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "nearfield" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
        ok = True
        for workload in WORKLOADS:
            args.workload = workload
            result = run(args)
            ok = ok and result["correct"]
            print(workload, json.dumps(result))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
