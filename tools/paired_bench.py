"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python3 tools/paired_bench.py BASE CHANGE --workload probe,scan --pairs 10 --json BENCH.json

``BASE`` and ``CHANGE`` are roots of two checkouts of this repository (for
example the parent commit, made with ``git archive``, and the working tree).
``--workload`` takes one workload or a comma-separated list, run one after
the other.  Each pair runs ``perfbench/run.py --workload W --seed S --seconds
T`` once in each checkout, one after the other; odd pairs run ``BASE`` first
and even pairs ``CHANGE`` first, so that a drift of the host's speed does not
favour one side.  Every run prints one JSON object as its last line; this
script prints, per pair, each end-to-end metric of both sides and their ratio
(change / base), then per workload and metric the medians of both sides, the
quartiles of the base runs, the median ratio, in how many pairs the change
was better and a verdict (``verdict``).  Which direction is better, and each
metric's regression bound, come from the ``end_to_end`` list of
``BENCHMARK.json`` in ``BASE``.  ``--json PATH`` also writes that summary,
every run's values and the correctness and failed operations of each run,
with the run length, the seed and a line describing the machine
(``machine``), after each workload.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def run_once(root: Path, workload: str, args) -> dict:
    """One benchmark run of ``workload`` in ``root``: its last output line, parsed."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric of paired runs, ``base[i]`` and ``change[i]`` in pair ``i``.

    With ``m`` the base median and ``q1..q3`` the base quartiles, the first that holds:

    * ``regression``: the change median is worse than ``m`` by more than ``bound * m``;
    * ``unresolved``: ``q3 - q1 > bound * m``, unless every change run beats every base run;
    * ``gain``: the change is better in at least 9 of 10 pairs (a tie counts for neither
      side), and its median is better than ``m`` by more than ``q3 - q1``;
    * ``no regression``.

    ``better`` is ``"higher"`` or ``"lower"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    median = statistics.median(base)
    gained = sign * (statistics.median(change) - median)  # positive when the change is better
    q1, q3 = quartiles(base)
    if gained < -bound * median:
        return "regression"
    every_run_beaten = min(sign * c for c in change) > max(sign * b for b in base)
    if q3 - q1 > bound * median and not every_run_beaten:
        return "unresolved"
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if 10 * wins >= 9 * len(base) and gained > q3 - q1:
        return "gain"
    return "no regression"


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric of paired runs: both medians, the base quartiles, the median ratio
    (change / base), the pairs the change won, the verdict and every run."""
    sign = 1.0 if better == "higher" else -1.0
    q1, q3 = quartiles(base)
    return {
        "better": better,
        "bound": bound,
        "base_median": statistics.median(base),
        "base_quartiles": [q1, q3],
        "change_median": statistics.median(change),
        "median_ratio": statistics.median(c / b for b, c in zip(base, change)),
        "change_better_pairs": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        "pairs": len(base),
        "verdict": verdict(base, change, better, bound),
        "base_runs": base,
        "change_runs": change,
    }


def machine() -> str:
    """The processor, core count, operating system, Python and NumPy of this host."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy = f", NumPy {metadata.version('numpy')}"
    except metadata.PackageNotFoundError:
        numpy = ""
    return (f"{cpu}, {os.cpu_count()} cores, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}{numpy}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    parser.add_argument("--workload", required=True, help="a workload or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the summary to this file")
    args = parser.parse_args(argv)
    args.workloads = args.workload.split(",")
    if not all(args.workloads) or len(set(args.workloads)) < len(args.workloads):
        parser.error(f"--workload must list distinct workloads, got {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def paired_runs(workload: str, args, better: dict[str, str]) -> tuple[dict, dict]:
    """``args.pairs`` pairs of ``workload``, each pair printed as it ends: every metric's
    runs per side, and per side the correctness and failed operations of each run."""
    sides = {"base": args.base, "change": args.change}
    values = {name: {"base": [], "change": []} for name in better}
    outcomes = {side: {"correct": [], "attempted": [], "failed": []} for side in sides}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        results = {side: run_once(sides[side], workload, args) for side in order}
        cells = []
        for name in better:
            b, c = (results[side]["metrics"][name]["value"] for side in ("base", "change"))
            values[name]["base"].append(b)
            values[name]["change"].append(c)
            cells.append(f"{name} {b:.4g} -> {c:.4g} ({c / b:.3f})")
        for side, outcome in outcomes.items():
            for key, column in outcome.items():
                column.append(results[side][key])
        flags = " ".join(
            f"{side}: correct={results[side]['correct']} failed={results[side]['failed']}"
            f"/{results[side]['attempted']}"
            for side in ("base", "change")
        )
        print(f"{workload} pair {pair + 1} ({order[0]} first): " + "; ".join(cells)
              + f"; {flags}", flush=True)
    return values, outcomes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    known = [item["name"] for item in bench["workloads"]]
    unknown = [name for name in args.workloads if name not in known]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}: {args.base} has {known}")
    better = {item["name"]: item["better"] for item in bench["end_to_end"]}
    bounds = {item["name"]: item["bound"] for item in bench["end_to_end"]}
    report = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
              "machine": machine(), "workloads": {}}
    for workload in args.workloads:
        values, outcomes = paired_runs(workload, args, better)
        metrics = {
            name: summarize(values[name]["base"], values[name]["change"], direction, bounds[name])
            for name, direction in better.items()
        }
        report["workloads"][workload] = {"metrics": metrics, **outcomes}
        print(f"# {workload}, {args.pairs} pairs, {args.seconds:g} s per run, seed {args.seed}")
        for name, s in metrics.items():
            q1, q3 = s["base_quartiles"]
            print(
                f"{name}: base median {s['base_median']:.4g} (quartiles {q1:.4g}..{q3:.4g}), "
                f"change median {s['change_median']:.4g}, median ratio {s['median_ratio']:.4f}, "
                f"change better in {s['change_better_pairs']} of {s['pairs']} "
                f"({s['better']} is better): {s['verdict']}", flush=True
            )
        if args.json is not None:  # after each workload, so that a failed run keeps the others
            args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
