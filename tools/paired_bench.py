"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python3 tools/paired_bench.py BASE CHANGE --workload probe --pairs 6 --seconds 8

``BASE`` and ``CHANGE`` are roots of two checkouts of this repository (for
example the parent commit, made with ``git archive``, and the working tree).
Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each checkout, one after the other; odd pairs run ``BASE`` first and even
pairs ``CHANGE`` first, so that a drift of the host's speed does not favour
one side.  Every run prints one JSON object as its last line; this script
prints, per pair, each end-to-end metric of both sides and their ratio
(change / base), then per metric the medians of both sides, the quartiles of
the base runs, the median ratio, in how many pairs the change was better and
a verdict (``verdict``).  Which direction is better, and each metric's
regression bound, come from the ``end_to_end`` list of ``BENCHMARK.json`` in
``BASE``.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, args) -> dict:
    """One benchmark run in ``root``: its last output line, parsed."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]
    better = {item["name"]: item["better"] for item in metrics}
    bounds = {item["name"]: item["bound"] for item in metrics}
    sides = {"base": args.base, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {name: {"base": [], "change": []} for name in better}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        results = {side: run_once(sides[side], args) for side in order}
        cells = []
        for name in better:
            b, c = (results[side]["metrics"][name]["value"] for side in ("base", "change"))
            values[name]["base"].append(b)
            values[name]["change"].append(c)
            cells.append(f"{name} {b:.4g} -> {c:.4g} ({c / b:.3f})")
        flags = " ".join(
            f"{side}: correct={results[side]['correct']} failed={results[side]['failed']}"
            f"/{results[side]['attempted']}"
            for side in ("base", "change")
        )
        print(f"pair {pair + 1} ({order[0]} first): " + "; ".join(cells) + f"; {flags}", flush=True)
    print(f"# {args.workload}, {args.pairs} pairs, {args.seconds:g} s per run, seed {args.seed}")
    for name, direction in better.items():
        base, change = values[name]["base"], values[name]["change"]
        ratios = [c / b for b, c in zip(base, change)]
        wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        print(
            f"{name}: base median {statistics.median(base):.4g} (quartiles {q1:.4g}..{q3:.4g}), "
            f"change median {statistics.median(change):.4g}, median ratio "
            f"{statistics.median(ratios):.4f}, change better in {wins} of {len(ratios)} "
            f"({direction} is better): {verdict(base, change, direction, bounds[name])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
