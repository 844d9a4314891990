"""The benchmark tracer's targets must exist in the package.

``perfbench/tracing.py`` wraps every ``(module, name)`` of its ``TRACED``
table after ``import nearfield.cli`` and fails on the first one missing, so
a rename or deletion in the package breaks every ``--trace 1`` run.  The
table is read with ``ast``; the benchmark module itself is not imported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_resolves_after_importing_the_cli():
    import nearfield.cli  # noqa: F401

    traced = _traced()
    assert traced
    missing = [
        f"nearfield.{module}.{name}"
        for module, name in traced
        if not hasattr(sys.modules.get(f"nearfield.{module}"), name)
    ]
    assert not missing, f"perfbench/tracing.py traces missing names: {missing}"
