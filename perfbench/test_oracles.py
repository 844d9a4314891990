"""Tests of the benchmark's own oracles, tracing and smoke mode.

    python3 -m pytest -q perfbench

The oracle tests use NumPy and SciPy only.  The smoke tests run
``perfbench/run.py --smoke`` against the checkout's ``src``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def _unitary_smatrices(n: int, l_max: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(l_max + 1):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mats.append(q)
    return mats


def _integrate_over_sphere(smats, ks, R, order):
    """Solid-angle integral of the current for an incident direction along z."""
    x, w = np.polynomial.legendre.leggauss(order)
    nhat = np.stack([np.sqrt(1 - x * x), np.zeros_like(x), x], axis=-1)
    flux, _ = oracles.radial_current(smats, ks, 0, [0.0, 0.0, 1.0], R, nhat)
    return 2.0 * np.pi * float(flux @ w)


def test_cross_section_obeys_optical_theorem():
    ks = [1.3, 0.6, 2.1]
    smats = _unitary_smatrices(3, 5, seed=11)
    forward = sum((2 * l + 1) * (s[0, 0] - 1.0) for l, s in enumerate(smats)) / (2j * ks[0])
    sigma = oracles.cross_section(smats, ks, 0)
    assert sigma == pytest.approx(4.0 * np.pi / ks[0] * forward.imag, rel=1e-13)


@pytest.mark.parametrize("kR", [0.8, 3.0, 40.0])
def test_current_through_any_sphere_equals_cross_section(kR):
    ks = [1.0, 0.7]
    smats = _unitary_smatrices(2, 4, seed=5)
    total = _integrate_over_sphere(smats, ks, kR / min(ks), order=12)
    assert total == pytest.approx(oracles.cross_section(smats, ks, 0), rel=1e-10)


def test_current_tends_to_far_field_intensity():
    ks = [1.0, 1.9]
    smats = _unitary_smatrices(2, 3, seed=2)
    nhat = np.array([[0.3, -0.2, 0.9], [0.0, 1.0, 0.0], [-0.5, 0.1, -0.8]])
    cos_gamma = nhat[:, 2] / np.linalg.norm(nhat, axis=1)
    far = np.zeros(3)
    for beta, k in enumerate(ks):
        f = sum(
            (2 * l + 1) * (s[beta, 0] - (beta == 0)) * np.polynomial.legendre.Legendre.basis(l)(cos_gamma)
            for l, s in enumerate(smats)
        ) / (2j * np.sqrt(ks[0] * k))
        far += k / ks[0] * np.abs(f) ** 2
    flux, _ = oracles.radial_current(smats, ks, 0, [0.0, 0.0, 2.0], 1e7, nhat)
    np.testing.assert_allclose(flux, far, rtol=1e-6)


def test_s_wave_current_is_constant():
    s0 = np.exp(0.7j)
    for R in (0.05, 1.0, 30.0):
        flux, scale = oracles.radial_current([np.array([[s0]])], [1.4], 0, [0, 0, 1], R, [[1.0, 0, 0]])
        assert flux[0] == pytest.approx(abs(s0 - 1) ** 2 / (4 * 1.4**2), rel=1e-12)
        assert scale[0] >= abs(flux[0])


def test_hard_sphere_phases():
    ka = 2.5
    smats = oracles.hard_sphere_smatrices(ka, 12)
    np.testing.assert_allclose([abs(s[0, 0]) for s in smats], 1.0, rtol=1e-14)
    # s-wave phase shift of an impenetrable sphere is -ka
    assert smats[0][0, 0] == pytest.approx(np.exp(-2j * ka), rel=1e-14)


def test_sphere_nodes_form_product_grid():
    order = 6
    nodes = oracles.sphere_nodes(order)
    assert nodes.shape == ((order + 1) * (2 * order + 1), 3)
    np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-15)
    x, _ = np.polynomial.legendre.leggauss(order + 1)
    np.testing.assert_allclose(nodes[:: 2 * order + 1, 2], x, rtol=1e-15)


def test_tracer_self_time_excludes_children(monkeypatch):
    tracer = tracing.Tracer()
    clock = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(clock)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()  # outer: 0 -> 3, inner: 1 -> 2
    monkeypatch.undo()
    assert tracer.self_s == {"inner": 1.0, "outer": 2.0}
    assert tracer.calls == {"inner": 1, "outer": 1}


def _smoke(trace: int) -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith("#"):
            continue
        name, _, doc = line.partition(" ")
        results[name] = json.loads(doc)
    return results


def test_smoke_runs_every_workload():
    results = _smoke(trace=0)
    assert sorted(results) == ["checks", "large_degree", "probe", "scan"]
    for name, result in results.items():
        assert result["correct"], name
        assert set(result["metrics"]) == {"setup_s", "ops_per_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
    # the three kept faults: one conservation line, two greens lines, and the
    # five lines lost when the file amplitude's battery crashes
    assert (results["checks"]["attempted"], results["checks"]["failed"]) == (25, 8)


def test_traced_smoke_reports_every_layer():
    results = _smoke(trace=1)
    for result in results.values():
        assert list(result["metrics"]) == list(tracing.PER_LAYER)
    scan = {k: v["value"] for k, v in results["scan"]["metrics"].items()}
    assert scan["flux.flux_profile.self_s"] > 0
    assert scan["special.ylm_table.calls"] > scan["flux.differential_flux_exact.calls"] > 0
    assert 0 < scan["special.ylm_table.distinct_ratio"] < 1
    assert scan["cli.output_bytes"] > 0
    checks = {k: v["value"] for k, v in results["checks"]["metrics"].items()}
    # 48 kernel queries per battery, five batteries
    assert checks["greens.greens_multipole.calls"] == 5 * 48
    probe = {k: v["value"] for k, v in results["probe"]["metrics"].items()}
    assert probe["cli.main.self_s"] == 0 and probe["io.load_amplitude.self_s"] > 0
