"""``tools/paired_bench.py``: its verdict rule on synthetic paired runs, its arguments, and
its JSON report from fake runs (no benchmark process is started)."""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)
verdict = paired_bench.verdict

# ten base runs with median 100 and quartiles 99.25..100.75
BASE = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


def _mirror(values: list[float]) -> list[float]:
    """The same runs of a lower-is-better metric: the verdicts must not change."""
    return [200.0 - v for v in values]


@pytest.mark.parametrize(
    "change, bound, expect",
    [
        # 26% worse in the median against a bound of 25%
        ([b - 26.0 for b in BASE], 0.25, "regression"),
        ([b - 24.0 for b in BASE], 0.25, "no regression"),
        # quartiles 1.5 apart against a bound of 1%: too wide to tell ...
        ([b - 0.5 for b in BASE], 0.01, "unresolved"),
        ([b + 2.0 for b in BASE], 0.01, "unresolved"),
        # ... unless every change run beats every base run
        ([103.0] * 10, 0.01, "gain"),
        # better in every pair by more than the quartile distance
        ([b + 2.0 for b in BASE], 0.25, "gain"),
        # better in every pair, but the medians only 1 apart
        ([b + 1.0 for b in BASE], 0.25, "no regression"),
        # better by 5 in nine pairs, a tie in the tenth: still nine of ten
        ([b + 5.0 for b in BASE[:9]] + [BASE[9]], 0.25, "gain"),
        # better by 5 in eight pairs only
        ([b + 5.0 for b in BASE[:8]] + BASE[8:], 0.25, "no regression"),
    ],
)
def test_verdict_rule(change, bound, expect):
    assert verdict(BASE, change, "higher", bound) == expect
    assert verdict(_mirror(BASE), _mirror(change), "lower", bound) == expect


ROOT = Path(__file__).resolve().parents[1]


def test_workload_list_parsing():
    args = paired_bench.parse_args([".", "..", "--workload", "probe,scan", "--json", "out.json"])
    assert args.workloads == ["probe", "scan"]
    assert args.json == Path("out.json")
    assert paired_bench.parse_args([".", "..", "--workload", "checks"]).json is None
    for bad in ("probe,,scan", "probe,probe", ""):
        with pytest.raises(SystemExit):
            paired_bench.parse_args([".", "..", "--workload", bad])
    with pytest.raises(SystemExit):
        paired_bench.parse_args([".", "..", "--workload", "probe", "--pairs", "0"])


def test_unknown_workload_is_refused_before_any_run(monkeypatch):
    monkeypatch.setattr(paired_bench, "run_once", pytest.fail)
    with pytest.raises(SystemExit, match="unknown workload"):
        paired_bench.main([str(ROOT), str(ROOT), "--workload", "probe,nope"])


def test_json_report_shape(monkeypatch, tmp_path, capsys):
    """Every workload and end-to-end metric of BENCHMARK.json, from fake runs: the change
    side reads 10% higher on every metric, and every run is correct with 0 of 5 failed."""
    calls = []

    def fake_run(root, workload, args):
        calls.append((root, workload))
        scale = 1.1 if root == tmp_path / "change" else 1.0
        value = scale * (1.0 + 0.01 * len(calls))
        metrics = {name: {"value": value} for name in ("setup_s", "ops_per_s", "peak_rss_mb")}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    base = tmp_path / "base"
    base.mkdir()
    (base / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    argv = [str(base), str(tmp_path / "change"), "--workload", "probe,scan", "--pairs", "3",
            "--seconds", "2", "--seed", "7", "--json", str(out)]
    assert paired_bench.main(argv) == 0
    # base first in odd pairs, change first in even ones, workload after workload
    sides = [root.name for root, _ in calls]
    assert sides == ["base", "change", "change", "base", "base", "change"] * 2
    assert [w for _, w in calls] == ["probe"] * 6 + ["scan"] * 6
    report = json.loads(out.read_text())
    assert (report["pairs"], report["seconds"], report["seed"]) == (3, 2.0, 7)
    assert isinstance(report["machine"], str) and report["machine"]
    assert list(report["workloads"]) == ["probe", "scan"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in report["workloads"].values():
        for side in ("base", "change"):
            assert entry[side] == {"correct": [True] * 3, "attempted": [5] * 3, "failed": [0] * 3}
        assert [m["name"] for m in bench["end_to_end"]] == list(entry["metrics"])
        for item in bench["end_to_end"]:
            s = entry["metrics"][item["name"]]
            assert (s["better"], s["bound"], s["pairs"]) == (item["better"], item["bound"], 3)
            assert len(s["base_runs"]) == len(s["change_runs"]) == 3
            assert s["base_median"] == statistics.median(s["base_runs"])
            assert s["change_median"] == statistics.median(s["change_runs"])
            assert s["base_quartiles"] == list(paired_bench.quartiles(s["base_runs"]))
            assert s["change_better_pairs"] == (3 if item["better"] == "higher" else 0)
            assert s["verdict"] == verdict(s["base_runs"], s["change_runs"], s["better"], s["bound"])
            assert 1.05 < s["median_ratio"] < 1.15
    printed = capsys.readouterr().out
    assert printed.count("pair ") == 6 and "# scan, 3 pairs, 2 s per run, seed 7" in printed
