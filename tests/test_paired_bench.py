"""The verdict rule of ``tools/paired_bench.py``, on synthetic paired runs."""

from __future__ import annotations

import importlib.util
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
