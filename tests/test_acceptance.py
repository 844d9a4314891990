"""End-to-end acceptance battery.

Nine criteria, one per test, each printing a single pass/fail line on the
real stdout (bypassing capture) so a plain ``pytest tests/test_acceptance.py``
run shows the scoreboard.  Every numeric threshold here was computed against
an independent oracle before being frozen; the batteries are deterministic.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from nearfield import cli
from nearfield.amplitudes import h_coefficient, scattered_wave, scattered_wave_series
from nearfield.flux import (
    cross_sections,
    differential_flux_asymptotic,
    differential_flux_exact,
    far_field_flux,
    flux_correction_term,
    optical_theorem_defect,
    total_flux,
    unitarity_defect,
)
from nearfield.greens import GreensQuery, greens_asymptotic, greens_multipole, greens_point
from nearfield.special import gauss_legendre_sphere, unit_from_angles
from nearfield.wronskian import (
    half_wronskian_exact,
    integral_representation_check,
    laurent_coefficients,
    wronskian_series,
)

from conftest import fit_slope, unitary_amplitude


@pytest.fixture
def report(capfd):
    """Print one scoreboard line per criterion on the real terminal."""

    def emit(num: int, label: str, ok: bool) -> bool:
        with capfd.disabled():
            print(
                f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}",
                file=sys.stdout,
                flush=True,
            )
        return ok

    return emit


# ----------------------------------------------------------------------
# 1. finite-distance kernel converges to the point kernel
# ----------------------------------------------------------------------

def test_criterion_1_kernel_convergence_and_truncation_slopes(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240812)
    queries, fixed = [], []
    for _ in range(200):
        k = rng.uniform(0.3, 3.0)
        kR = rng.uniform(2.0, 100.0)
        big_r = kR / k
        ratio = rng.uniform(0.02, 0.5)
        r_hat = unit_from_angles(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
        x_hat = unit_from_angles(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
        sign = 1 if rng.integers(0, 2) else -1
        queries.append(
            GreensQuery(k=k, R_vec=big_r * r_hat, x_vec=ratio * big_r * x_hat, sign=sign)
        )
        # a fixed degree-60 cutoff can only resolve source radii up to the
        # classical turning point near k*small_r = 50; assert it where the
        # cutoff sits safely above the turning point
        fixed.append(k * ratio * big_r <= 35.0)
    exact = np.array([greens_point(query) for query in queries])
    fixed = np.array(fixed)
    worst_90 = np.max(np.abs(greens_multipole(queries, l_max=90) - exact) / np.abs(exact))
    got_60 = greens_multipole([q for q, f in zip(queries, fixed) if f], l_max=60)
    worst_60 = np.max(np.abs(got_60 - exact[fixed]) / np.abs(exact[fixed]))

    slopes = {}
    x_hat = unit_from_angles(1.1, 0.6)
    r_hat = unit_from_angles(2.0, 4.2)
    kr_schedule = np.geomspace(8.0, 120.0, 10)
    ladder = [GreensQuery(k=1.0, R_vec=kR * r_hat, x_vec=x_hat, sign=1) for kR in kr_schedule]
    ref = greens_multipole(ladder, l_max=20)
    for s_max in (1, 2, 3):
        approx = greens_asymptotic(ladder, s_max=s_max, l_max=20)
        slopes[s_max] = fit_slope(kr_schedule, np.abs(approx - ref) / np.abs(ref))

    elapsed = time.perf_counter() - t0
    slopes_ok = all(abs(slopes[s] + (s + 1)) <= 0.2 for s in (1, 2, 3))
    ok = worst_60 <= 1e-9 and worst_90 <= 1e-9 and slopes_ok and elapsed < 10.0
    assert report(1, "kernel convergence", ok), (
        f"worst_60={worst_60:.3e} worst_90={worst_90:.3e} "
        f"slopes={slopes} elapsed={elapsed:.2f}s"
    )


# ----------------------------------------------------------------------
# 2. exact overlap-series coefficients
# ----------------------------------------------------------------------

def test_criterion_2_coefficient_identities(report):
    t0 = time.perf_counter()
    ok = True
    for l in range(11):
        ok &= laurent_coefficients(l, l) == (Fraction(1),)
        ok &= half_wronskian_exact(l, l, 0.3 + 2.0j) == 1.0
    for l in range(9):
        for j in range(9):
            if j == l:
                ok &= wronskian_series(j, l).prefactor == 0
                continue
            series = wronskian_series(j, l)
            rows = dict(series.correction)
            delta = j * (j + 1) - l * (l + 1)
            upsilon = j * (j + 1) + l * (l + 1)
            ok &= series.prefactor == delta
            ok &= rows[0] == 1
            if l + j >= 1:
                ok &= rows[1] == delta
            if l + j >= 2:
                ok &= rows[2] == Fraction(delta * delta, 2) - upsilon
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert report(2, "coefficient identities", ok), f"elapsed={elapsed:.2f}s"


# ----------------------------------------------------------------------
# 3. integral representation agreement
# ----------------------------------------------------------------------

def test_criterion_3_integral_representation(report):
    t0 = time.perf_counter()
    pairs = [(0, 1), (1, 0), (0, 2), (2, 1), (3, 0), (2, 3), (4, 1), (3, 4), (5, 2), (1, 5)]
    worst = 0.0
    for j, l in pairs:
        for z in (0.6, 3.0):
            check = integral_representation_check(j, l, z)
            scale = max(1.0, abs(check.closed_form))
            worst = max(worst, check.difference / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(3, "integral representation", ok), (
        f"worst={worst:.3e} elapsed={elapsed:.2f}s"
    )


# ----------------------------------------------------------------------
# 4. flux conservation at any detector radius
# ----------------------------------------------------------------------

def test_criterion_4_conservation(report):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        n = 2 + seed % 3
        l_max = 2 + seed % 5
        f, cs, _ = unitary_amplitude(n, l_max, seed=seed)
        k_min = min(cs.k(label) for label in cs.labels)
        sigma = cross_sections(f, cs).total
        for kR in (0.2, 3.7, 120.0, 1e4):
            flux = total_flux(f, cs, kR / k_min, method="gram")
            worst = max(worst, abs(flux - sigma) / sigma)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert report(4, "flux conservation", ok), (
        f"worst={worst:.3e} elapsed={elapsed:.2f}s"
    )


# ----------------------------------------------------------------------
# 5. far-field restoration
# ----------------------------------------------------------------------

def test_criterion_5_far_field_restoration(report):
    grid = gauss_legendre_sphere(16)
    worst = 0.0
    for l_max, seed in ((2, 0), (3, 1), (4, 2), (4, 3)):
        f, cs, _ = unitary_amplitude(2, l_max, seed=seed)
        k_min = min(cs.k(label) for label in cs.labels)
        exact = differential_flux_exact(f, cs, 1e6 / k_min, grid.points)
        far = far_field_flux(f, cs, grid.points)
        worst = max(worst, float(np.max(np.abs(exact - far)) / np.max(np.abs(far))))
    ok = worst <= 1e-5
    assert report(5, "far-field restoration", ok), f"worst={worst:.3e}"


# ----------------------------------------------------------------------
# 6. two evaluation paths agree
# ----------------------------------------------------------------------

def test_criterion_6_two_path_agreement(tmp_path, report):
    directions = [
        unit_from_angles(0.0, 0.0),
        unit_from_angles(1.1, 0.7),
        unit_from_angles(2.0, 3.9),
        unit_from_angles(2.9, 5.2),
    ]
    # complete regime: every mode pair has l + j <= 3 or sits on the
    # diagonal, so the order-4 expansion is an identity
    worst_exact = 0.0
    for n, seed in ((2, 0), (3, 3), (2, 8)):
        f, cs, _ = unitary_amplitude(n, 2, seed=seed)
        k_min = min(cs.k(label) for label in cs.labels)
        for kR in (0.7, 2.0, 9.0, 120.0):
            for nhat in directions:
                exact = differential_flux_exact(f, cs, kR / k_min, nhat)
                series = differential_flux_asymptotic(f, cs, kR / k_min, nhat, order=4)
                worst_exact = max(worst_exact, abs(series - exact) / abs(exact))

    # truncated regime: the leading missing bracket scales as (kR)**-5
    slope_dirs = [unit_from_angles(1.05, 2.3), unit_from_angles(2.2, 0.9)]
    schedule = np.geomspace(8.0, 100.0, 10)
    slopes = []
    for l_max, seed in ((3, 2), (3, 5), (4, 7), (4, 13)):
        f, cs, _ = unitary_amplitude(2, l_max, seed=seed)
        errs = []
        for kR in schedule:
            acc = 0.0
            for nhat in slope_dirs:
                exact = differential_flux_exact(f, cs, kR, nhat)
                series = differential_flux_asymptotic(f, cs, kR, nhat, order=4)
                acc += abs(exact - series) / abs(exact)
            errs.append(acc / len(slope_dirs))
        slopes.append(fit_slope(schedule, np.array(errs)))

    # the shipped diagnostic must agree with the exact path at tolerance;
    # a wrong order-3 bracket would show up here at the 1e-3 scale
    cfg = tmp_path / "check.json"
    cfg.write_text(
        json.dumps({"amplitude": {"model": "random_unitary", "l_max": 2, "seed": 4}}),
        encoding="utf-8",
    )
    diag_ok = cli.main(["check", "two-path", "--config", str(cfg)]) == 0

    slopes_ok = all(abs(s + 5.0) <= 0.3 for s in slopes)
    ok = worst_exact <= 1e-10 and slopes_ok and diag_ok
    assert report(6, "two-path agreement", ok), (
        f"worst_exact={worst_exact:.3e} slopes={slopes} diag_ok={diag_ok}"
    )


# ----------------------------------------------------------------------
# 7. expansion termination
# ----------------------------------------------------------------------

def test_criterion_7_expansion_termination(report):
    ok = True
    worst_wave = 0.0
    for seed in range(50):
        n = 2 + seed % 3
        l_max = 1 + seed % 5
        f, cs, _ = unitary_amplitude(n, l_max, seed=seed)
        for extra in (1, 2):
            killed = h_coefficient(f, l_max + extra)
            ok &= all(value == 0.0 for value in killed.coefficients.values())
        if seed % 10 == 0:
            beta = cs.labels[seed % n]
            nhat = unit_from_angles(1.2, 0.4)
            for r in (0.6, 4.0):
                wave = scattered_wave(f, cs, beta, r, nhat)
                series = scattered_wave_series(f, cs, beta, r, nhat, s_max=l_max)
                worst_wave = max(worst_wave, abs(series - wave) / abs(wave))
    ok = ok and worst_wave <= 1e-12
    assert report(7, "expansion termination", ok), f"worst_wave={worst_wave:.3e}"


# ----------------------------------------------------------------------
# 8. unitarity and the optical theorem
# ----------------------------------------------------------------------

def test_criterion_8_unitarity_and_optical_theorem(report):
    worst_unitary = worst_optical = 0.0
    best_scaled_unitary = best_scaled_optical = np.inf
    for seed in range(10):
        n = 2 + seed % 2
        l_max = 2 + seed % 4
        f, cs, family = unitary_amplitude(n, l_max, seed=seed)
        worst_unitary = max(worst_unitary, unitarity_defect(family, cs))
        worst_optical = max(worst_optical, optical_theorem_defect(f, cs))

        def scaled(entrance, kappa_hat, _family=family):
            return _family(entrance, kappa_hat).scaled(1.1)

        best_scaled_unitary = min(best_scaled_unitary, unitarity_defect(scaled, cs))
        best_scaled_optical = min(
            best_scaled_optical, optical_theorem_defect(f.scaled(1.1), cs)
        )
    ok = (
        worst_unitary <= 1e-10
        and worst_optical <= 1e-10
        and best_scaled_unitary > 1e-2
        and best_scaled_optical > 1e-2
    )
    assert report(8, "unitarity and optical theorem", ok), (
        f"unitary={worst_unitary:.3e} optical={worst_optical:.3e} "
        f"scaled=({best_scaled_unitary:.3e}, {best_scaled_optical:.3e})"
    )


# ----------------------------------------------------------------------
# 9. correction terms carry no net flux
# ----------------------------------------------------------------------

def test_criterion_9_corrections_carry_no_net_flux(report):
    grid = gauss_legendre_sphere(16)
    worst = 0.0
    for n, l_max, seed in ((2, 6, 13), (3, 4, 0)):
        f, cs, _ = unitary_amplitude(n, l_max, seed=seed)
        k_min = min(cs.k(label) for label in cs.labels)
        for order in (1, 2, 3, 4):
            for kR in (0.8, 3.0, 25.0):
                term = flux_correction_term(f, cs, kR / k_min, grid.points, order=order)
                scale = float(grid.integrate(np.abs(term)))
                worst = max(worst, abs(grid.integrate(term)) / scale)
    ok = worst <= 1e-10
    assert report(9, "corrections carry no net flux", ok), f"worst={worst:.3e}"
