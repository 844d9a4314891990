"""Detector-sphere flux: exact route, distance expansion, conservation."""

from __future__ import annotations

import logging
import re
import warnings

import numpy as np
import pytest

from nearfield import _kernels, wronskian
from nearfield import flux as flux_module
from nearfield.amplitudes import Channel, ChannelSet, PartialWaveAmplitude, evaluate
from nearfield.flux import (
    FluxDomainError,
    FluxHermiticityError,
    _degree_sums,
    _real_with_hermitian_check,
    cross_sections,
    default_grid,
    differential_flux_asymptotic,
    differential_flux_exact,
    far_field_flux,
    flux_correction_term,
    flux_profile,
    optical_theorem_defect,
    total_flux,
    unitarity_defect,
)
from nearfield.io import DEFAULT_TOLERANCES
from nearfield.special import (
    AngularGrid,
    angles_from_unit,
    gauss_legendre_sphere,
    mode_degrees,
    sph_harm,
    unit_from_angles,
    ylm_table,
)
from nearfield.wronskian import pair_matrix

from conftest import (
    channel_set,
    flux_oracle,
    hard_sphere_sigma_oracle,
    fit_slope,
    raw_amplitude,
    unitary_amplitude,
)


# ----------------------------------------------------------------------
# exact evaluation
# ----------------------------------------------------------------------

def test_single_mode_flux_is_distance_independent():
    f = PartialWaveAmplitude({("a", 2, 1): 0.8 - 0.3j})
    cs = ChannelSet(channels=(Channel("a", 1.1),), entrance="a")
    sigma = cross_sections(f, cs).total
    totals = [
        total_flux(f, cs, R, method="pointwise") for R in (0.4, 1.0, 3.0, 20.0, 500.0)
    ]
    for value in totals:
        assert value == pytest.approx(sigma, rel=1e-13)


def test_differential_flux_input_validation(rng):
    f, cs, _ = unitary_amplitude(2, 1, seed=0)
    nhat = unit_from_angles(1.0, 1.0)
    with pytest.raises(ValueError):
        differential_flux_exact(f, cs, 0.0, nhat)
    with pytest.raises(ValueError):
        differential_flux_exact(f, cs, 1.0, np.ones(4))
    with pytest.raises(ValueError):
        differential_flux_asymptotic(f, cs, 1.0, nhat, order=-1)
    with pytest.raises(ValueError):
        flux_correction_term(f, cs, 1.0, nhat, order=0)


def test_exact_accepts_batched_directions(rng):
    f, cs, _ = unitary_amplitude(2, 2, seed=3)
    grid = gauss_legendre_sphere(8)
    batch = differential_flux_exact(f, cs, 5.0, grid.points)
    assert batch.shape == (grid.n_nodes,)
    single = differential_flux_exact(f, cs, 5.0, grid.points[7])
    assert batch[7] == pytest.approx(single, rel=1e-14)


def _mode_level_flux(f, cs, R, pts):
    """Reference at full mode size: every (l, m) pair, no degree collapse.

    Returns the flux and its absolute-value contraction (every term replaced
    by its modulus), the yardstick for rounding.
    """
    theta, phi = angles_from_unit(pts)
    table = ylm_table(f.l_max, theta, phi)
    ls = mode_degrees(f.l_max)
    value = np.zeros(pts.shape[0])
    scale = np.zeros(pts.shape[0])
    for label in cs.labels:
        g = f.dense(label)[:, None] * table
        w = pair_matrix(f.l_max, -1j * cs.k(label) * R)[np.ix_(ls, ls)]
        weight = cs.weight(label)
        value += weight * np.einsum("ap,ab,bp->p", g.conj(), w, g).real
        scale += weight * np.einsum("ap,ab,bp->p", np.abs(g), np.abs(w), np.abs(g))
    return value, scale


@pytest.mark.parametrize("l_max", range(13))
def test_degree_collapse_matches_mode_level_reference(l_max):
    f, cs, _ = unitary_amplitude(2, l_max, seed=40 + l_max)
    pts = gauss_legendre_sphere(6).points
    k_min = min(cs.k(label) for label in cs.labels)
    r_values = np.geomspace(0.5, 300.0, 6) / k_min
    collapsed = differential_flux_exact(f, cs, r_values, pts)
    for i, R in enumerate(r_values):
        ref, scale = _mode_level_flux(f, cs, R, pts)
        assert np.all(np.abs(collapsed[i] - ref) <= 1e-13 * scale)


def test_array_distances_match_stacked_scalar_calls():
    f, cs, _ = unitary_amplitude(3, 4, seed=12)
    r_values = np.array([0.3, 1.7, 25.0, 900.0])
    pts = gauss_legendre_sphere(5).points
    batch = differential_flux_exact(f, cs, r_values, pts)
    assert batch.shape == (4, pts.shape[0])
    stacked = np.stack([differential_flux_exact(f, cs, R, pts) for R in r_values])
    np.testing.assert_array_equal(batch, stacked)
    # direction shape is kept behind the distance axis
    cube = pts[:12].reshape(3, 4, 3)
    assert differential_flux_exact(f, cs, r_values, cube).shape == (4, 3, 4)
    single = differential_flux_exact(f, cs, r_values, pts[5])
    assert single.shape == (4,)
    np.testing.assert_array_equal(
        single, [differential_flux_exact(f, cs, R, pts[5]) for R in r_values]
    )
    with pytest.raises(ValueError):
        differential_flux_exact(f, cs, np.ones((2, 2)), pts)
    with pytest.raises(ValueError):
        differential_flux_exact(f, cs, np.array([1.0, 0.0]), pts)


@pytest.mark.parametrize("order", [0, 1, 3, 8])
def test_expansion_at_array_distances_matches_stacked_scalar_calls(order):
    f, cs, _ = unitary_amplitude(3, 4, seed=12)
    r_values = np.array([0.9, 1.7, 25.0, 900.0])
    pts = gauss_legendre_sphere(5).points
    routes = [differential_flux_asymptotic]
    if order:
        routes.append(flux_correction_term)
    for route in routes:
        batch = route(f, cs, r_values, pts, order)
        assert batch.shape == (4, pts.shape[0])
        stacked = np.stack([route(f, cs, R, pts, order) for R in r_values])
        np.testing.assert_array_equal(batch, stacked)
        cube = pts[:12].reshape(3, 4, 3)
        assert route(f, cs, r_values, cube, order).shape == (4, 3, 4)
        single = route(f, cs, r_values, pts[5], order)
        assert single.shape == (4,)
        np.testing.assert_array_equal(single, [route(f, cs, R, pts[5], order) for R in r_values])
        assert isinstance(route(f, cs, 2.5, pts[5], order), float)
        with pytest.raises(ValueError):
            route(f, cs, np.ones((2, 2)), pts, order)
        with pytest.raises(ValueError):
            route(f, cs, np.array([1.0, 0.0]), pts, order)


def _degree_level_reference(f, cs, theta, phi):
    """Degree sums from the full table at ``theta, phi``, with their absolute-value sums."""
    table = ylm_table(f.l_max, theta, phi)
    starts = np.arange(f.l_max + 1) ** 2
    out = {}
    for label in cs.labels:
        dense = f.dense(label)
        out[label] = (
            np.add.reduceat(dense[:, None] * table, starts, axis=0),
            np.add.reduceat(np.abs(dense)[:, None] * np.abs(table), starts, axis=0),
        )
    return out


def test_separable_degree_sums_match_full_table():
    rng = np.random.default_rng(71)
    cs = channel_set(2)
    for l_max in range(21):
        f = raw_amplitude(rng, cs, l_max)
        grid = gauss_legendre_sphere(max(l_max, 1))
        reference = _degree_level_reference(f, cs, *angles_from_unit(grid.points))
        labels, separable = _degree_sums(f, cs, grid)
        assert labels == list(cs.labels)
        # at l_max 0 the amplitude is zonal: one column per polar ring
        n_points = grid.order + 1 if l_max == 0 else grid.n_nodes
        assert separable.shape == (len(labels), l_max + 1, n_points)
        for label, sums in zip(labels, separable):
            ref, scale = reference[label]
            spread = np.repeat(sums, grid.n_nodes // n_points, axis=1)
            assert np.all(np.abs(spread - ref) <= 1e-13 * scale), (l_max, label)


def test_flux_profile_rows_match_pointwise_evaluation():
    rng = np.random.default_rng(72)
    cs = channel_set(3)
    f = raw_amplitude(rng, cs, 6)
    k_min = min(cs.k(label) for label in cs.labels)
    r_values = np.geomspace(0.3, 300.0, 8) / k_min
    profile = flux_profile(f, cs, r_values)
    pts = profile.grid.points
    direct = differential_flux_exact(f, cs, r_values, pts)
    reference = _degree_level_reference(f, cs, *angles_from_unit(pts))
    for i, R in enumerate(r_values):
        scale = np.zeros(pts.shape[0])
        for label in cs.labels:
            w = np.abs(pair_matrix(f.l_max, -1j * cs.k(label) * R))
            s_abs = np.abs(reference[label][0])
            scale += cs.weight(label) * np.einsum("ap,ab,bp->p", s_abs, w, s_abs)
        assert np.all(np.abs(profile.samples[i] - direct[i]) <= 1e-13 * scale)
    np.testing.assert_array_equal(profile.diff_min, profile.samples.min(axis=1))
    np.testing.assert_array_equal(profile.diff_max, profile.samples.max(axis=1))


def _per_distance_rows(f, cs, r_values, directions):
    """Flux rows one distance at a time: ``pair_matrix``, the contraction and
    the Hermiticity check per distance, the reference for the stacked pass.
    Ring sums on a grid give one value per polar ring, repeated over the
    ring's azimuths."""
    labels, channel_sums = _degree_sums(f, cs, directions)
    rows = np.zeros((r_values.size, channel_sums.shape[2]))
    for label, sums in zip(labels, channel_sums):
        for i, R in enumerate(r_values):
            w = pair_matrix(f.l_max, -1j * cs.k(label) * R)
            values = _kernels.quadratic_form(sums, w)
            scale = _kernels.quadratic_form(np.abs(sums), np.abs(w))
            rows[i] += cs.weight(label) * _real_with_hermitian_check(values, scale)
    if isinstance(directions, AngularGrid):
        rows = np.repeat(rows, directions.n_nodes // rows.shape[1], axis=1)
    return rows


@pytest.mark.parametrize("l_max", range(21))
def test_stacked_pair_factors_match_per_distance_loop_bitwise(l_max):
    f, cs, _ = unitary_amplitude(2, l_max, seed=90 + l_max)
    k_min = min(cs.k(label) for label in cs.labels)
    r_values = np.geomspace(0.3, 900.0, 9) / k_min
    grid = gauss_legendre_sphere(max(l_max, 2))
    profile = flux_profile(f, cs, r_values, grid=grid)
    np.testing.assert_array_equal(profile.samples, _per_distance_rows(f, cs, r_values, grid))
    pts = grid.points[:: max(1, grid.n_nodes // 40)]
    np.testing.assert_array_equal(
        differential_flux_exact(f, cs, r_values, pts), _per_distance_rows(f, cs, r_values, pts)
    )


def _is_zonal(f):
    ms = np.arange((f.l_max + 1) ** 2) - mode_degrees(f.l_max) ** 2 - mode_degrees(f.l_max)
    return not f.table[:, ms != 0].any()


def test_zonal_amplitude_contracts_once_per_polar_ring(monkeypatch):
    contracted = []
    real_rows = flux_module._flux_rows

    def spy_rows(labels, sums, channels, distances):
        contracted.append(sums.shape[2])
        return real_rows(labels, sums, channels, distances)

    monkeypatch.setattr(flux_module, "_flux_rows", spy_rows)
    f, cs, _ = unitary_amplitude(3, 6, seed=40)
    assert _is_zonal(f)
    grid = gauss_legendre_sphere(16)
    flux_profile(f, cs, np.geomspace(0.5, 50.0, 4), grid=grid)
    total_flux(f, cs, 2.0, grid=grid, method="pointwise")
    assert contracted == [grid.order + 1] * 2
    # one m != 0 coefficient in one channel keeps the full grid
    tilted = f + PartialWaveAmplitude({("c1", 4, -3): 1e-3j})
    contracted.clear()
    flux_profile(tilted, cs, np.geomspace(0.5, 50.0, 4), grid=grid)
    total_flux(tilted, cs, 2.0, grid=grid, method="pointwise")
    assert contracted == [grid.n_nodes] * 2


@pytest.mark.parametrize("l_max", range(13))
def test_ring_rows_match_pointwise_evaluation(l_max):
    f, cs, _ = unitary_amplitude(3, l_max, seed=120 + l_max)
    assert _is_zonal(f)
    k_min = min(cs.k(label) for label in cs.labels)
    r_values = np.geomspace(0.5, 400.0, 6) / k_min
    profile = flux_profile(f, cs, r_values)
    grid = profile.grid
    pts = grid.points
    direct = differential_flux_exact(f, cs, r_values, pts)
    reference = _degree_level_reference(f, cs, *angles_from_unit(pts))
    # the route the ring path replaces: the full harmonic table at the angles of every node
    at_nodes = _degree_level_reference(f, cs, grid.theta, grid.phi)
    sums = np.array([at_nodes[label][0] for label in cs.labels])
    per_node = flux_module._flux_rows(list(cs.labels), sums, cs, r_values)
    for i, R in enumerate(r_values):
        scale = np.zeros(pts.shape[0])
        for label in cs.labels:
            w = np.abs(pair_matrix(f.l_max, -1j * cs.k(label) * R))
            s_abs = np.abs(reference[label][0])
            scale += cs.weight(label) * np.einsum("ap,ab,bp->p", s_abs, w, s_abs)
        assert np.all(np.abs(profile.samples[i] - per_node[i]) <= 1e-13 * scale), (l_max, R)
        # direction vectors reach the harmonics as z / |n|, not cos(theta): at
        # l_max 12 a node at theta = 2.95, next to a root of P_12, moves by
        # 1.6e-13 of the scale at kR 0.5 (as before the ring path)
        assert np.all(np.abs(profile.samples[i] - direct[i]) <= 1e-12 * scale), (l_max, R)
    # each polar ring holds one value
    rings = profile.samples.reshape(r_values.size, grid.order + 1, -1)
    assert np.array_equal(rings, np.broadcast_to(rings[:, :, :1], rings.shape))


def test_scan_stacks_pair_factors_once_per_nonzero_channel(monkeypatch):
    stacked = []
    real_stack = flux_module._pair_stack

    def spy_stack(l_max, zs):
        stacked.append((l_max, np.size(zs)))
        return real_stack(l_max, zs)

    def no_pair_matrix(*args):
        raise AssertionError("pair_matrix on the scan path")

    monkeypatch.setattr(flux_module, "_pair_stack", spy_stack)
    monkeypatch.setattr(flux_module, "pair_matrix", no_pair_matrix)
    monkeypatch.setattr(wronskian, "pair_matrix", no_pair_matrix)
    cs = channel_set(3)
    f = PartialWaveAmplitude({("c0", 3, 1): 0.4 - 0.2j, ("c2", 5, -2): 0.3j})
    flux_profile(f, cs, np.geomspace(0.5, 300.0, 40))
    # one call for the 40 distances of each of the two nonzero channels
    assert stacked == [(5, 80)]


def test_canonical_scan_tables_only_the_polar_nodes(monkeypatch):
    seen = []

    def recording_table(l_max, theta, phi):
        seen.append(np.size(theta))
        return ylm_table(l_max, theta, phi)

    monkeypatch.setattr(flux_module, "ylm_table", recording_table)
    f, cs, _ = unitary_amplitude(3, 5, seed=14)
    grid = gauss_legendre_sphere(14)
    flux_profile(f, cs, np.geomspace(0.5, 50.0, 5), grid=grid)
    total_flux(f, cs, 2.0, grid=grid, method="pointwise")
    assert seen and max(seen) <= grid.order + 1


def test_hermiticity_guard_raises_on_complex_residue():
    clean = _real_with_hermitian_check(np.array([1.0 + 1e-14j]), np.array([1.0]))
    assert clean.dtype.kind == "f"
    with pytest.raises(FluxHermiticityError):
        _real_with_hermitian_check(np.array([1.0 + 1e-3j]), np.array([1.0]))


# ----------------------------------------------------------------------
# distance expansion
# ----------------------------------------------------------------------

def test_two_path_agreement_complete_series():
    # every off-diagonal mode pair with l+j <= 3 is fully captured at
    # order 4, so the expansion is exact for amplitudes with l_max <= 2
    f, cs, _ = unitary_amplitude(3, 2, seed=11)
    for kR in (0.7, 2.0, 9.0, 120.0):
        for ang in ((0.0, 0.0), (1.1, 0.7), (2.0, 3.9), (2.9, 5.2)):
            nhat = unit_from_angles(*ang)
            exact = differential_flux_exact(f, cs, kR, nhat)
            series = differential_flux_asymptotic(f, cs, kR, nhat, order=4)
            assert series == pytest.approx(exact, rel=1e-11, abs=1e-18)


def test_two_path_truncation_slope():
    f, cs, _ = unitary_amplitude(2, 3, seed=2)
    directions = [unit_from_angles(1.05, 2.3), unit_from_angles(2.2, 0.9)]
    kr_values = np.geomspace(8.0, 100.0, 10)
    errs = []
    for kR in kr_values:
        acc = 0.0
        for nhat in directions:
            exact = differential_flux_exact(f, cs, kR, nhat)
            series = differential_flux_asymptotic(f, cs, kR, nhat, order=4)
            acc += abs(exact - series) / abs(exact)
        errs.append(acc / len(directions))
    assert fit_slope(kr_values, np.array(errs)) == pytest.approx(-5.0, abs=0.3)


def test_far_field_flux_is_order_zero(rng):
    f, cs, _ = unitary_amplitude(2, 3, seed=5)
    nhat = unit_from_angles(0.9, 4.0)
    assert far_field_flux(f, cs, nhat) == pytest.approx(
        differential_flux_asymptotic(f, cs, 7.0, nhat, order=0), rel=1e-14
    )


def test_far_field_flux_contracts_no_pair_matrix(monkeypatch):
    # the order-0 matrix is all ones: the flux is sum_beta w_beta |f_beta|**2
    def forbidden(*args):
        raise AssertionError("a pair matrix stack for order 0")

    monkeypatch.setattr(flux_module, "_laurent_stack", forbidden)
    f, cs, _ = unitary_amplitude(3, 12, seed=2)
    grid = default_grid(f)
    far = far_field_flux(f, cs, grid.points)
    expect = sum(cs.weight(b) * np.abs(evaluate(f, b, grid.points)) ** 2 for b in cs.labels)
    assert np.max(np.abs(far - expect)) <= 1e-13 * np.max(expect)
    rows = differential_flux_asymptotic(f, cs, np.array([0.5, 40.0]), grid.points, order=0)
    assert np.array_equal(rows, np.array([far, far]))


def test_far_field_limit_at_huge_distance():
    f, cs, _ = unitary_amplitude(3, 4, seed=9)
    grid = gauss_legendre_sphere(16)
    R = 1e6 / 0.8
    exact = differential_flux_exact(f, cs, R, grid.points)
    far = far_field_flux(f, cs, grid.points)
    assert np.max(np.abs(exact - far)) / np.max(np.abs(far)) < 1e-5


def test_correction_terms_integrate_to_zero():
    # each correction must cancel on the sphere; judge the cancellation
    # against the integrand's own magnitude, which grows like R**-order
    f, cs, _ = unitary_amplitude(2, 6, seed=13)
    grid = gauss_legendre_sphere(16)
    for order in (1, 2, 3, 4):
        for R in (0.8, 3.0, 25.0):
            term = flux_correction_term(f, cs, R, grid.points, order=order)
            scale = float(grid.integrate(np.abs(term)))
            assert abs(grid.integrate(term)) < 1e-10 * scale


def test_correction_terms_sum_to_asymptotic(rng):
    f, cs, _ = unitary_amplitude(2, 3, seed=4)
    nhat = unit_from_angles(1.3, 0.2)
    R = 2.7
    total = far_field_flux(f, cs, nhat)
    for order in (1, 2, 3, 4):
        total = total + flux_correction_term(f, cs, R, nhat, order=order)
        assert total == pytest.approx(
            differential_flux_asymptotic(f, cs, R, nhat, order=order), rel=1e-12
        )


def _printed_bracket(F: list[np.ndarray], kR: float, order: int) -> np.ndarray:
    """Order 0-4 expansion terms as printed, from the images ``F[p]`` of the
    ``p``-th power of the squared orbital momentum; the reference for the
    generic quadratic form."""
    if order == 0:
        return np.abs(F[0]) ** 2
    if order == 1:
        return -np.imag(np.conj(F[0]) * F[1]) / kR
    if order == 2:
        return (np.abs(F[1]) ** 2 - np.real(np.conj(F[0]) * F[2])) / (2.0 * kR) ** 2
    if order == 3:
        bracket = (
            np.imag(np.conj(F[0]) * F[3])
            - 3.0 * np.imag(np.conj(F[1]) * F[2])
            - 2.0 * np.imag(np.conj(F[0]) * F[2])
        )
        return bracket / (3.0 * (2.0 * kR) ** 3)
    bracket = (
        np.real(np.conj(F[0]) * F[4])
        - 4.0 * np.real(np.conj(F[1]) * F[3])
        + 3.0 * np.abs(F[2]) ** 2
        - 8.0 * np.real(np.conj(F[0]) * F[3])
        + 8.0 * np.real(np.conj(F[1]) * F[2])
        + 12.0 * np.real(np.conj(F[0]) * F[2])
        - 12.0 * np.abs(F[1]) ** 2
    )
    return bracket / (12.0 * (2.0 * kR) ** 4)


@pytest.mark.parametrize("l_max", [2, 3, 6, 12, 20])
def test_expansion_matches_printed_brackets(l_max):
    f, cs, _ = unitary_amplitude(2, l_max, seed=l_max)
    nhat = np.random.default_rng(l_max).normal(size=(5, 3))
    theta, phi = angles_from_unit(nhat)
    table = ylm_table(l_max, theta, phi)
    eigen = (mode_degrees(l_max) * (mode_degrees(l_max) + 1)).astype(float)
    images = {
        label: [(f.dense(label) * eigen**p) @ table for p in range(5)]
        for label in cs.labels
    }
    for kR in (0.7, 3.0, 30.0, 1000.0):
        terms = [
            sum(
                cs.weight(label) * _printed_bracket(F, cs.k(label) * kR, order)
                for label, F in images.items()
            )
            for order in range(5)
        ]
        for order in range(5):
            want = sum(terms[: order + 1])
            scale = np.max(np.abs(want))
            got = differential_flux_asymptotic(f, cs, kR, nhat, order=order)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            if order:
                term = flux_correction_term(f, cs, kR, nhat, order=order)
                assert np.max(np.abs(term - terms[order])) <= 1e-12 * scale


@pytest.mark.parametrize("l_max", range(3, 13))
def test_complete_order_matches_exact(l_max):
    # order 2 l_max holds every term of the terminating series
    f, cs, _ = unitary_amplitude(3, l_max, seed=l_max)
    nhat = np.random.default_rng(l_max).normal(size=(6, 3))
    r_values = np.array([0.7, 2.0, 9.0, 120.0]) / 0.8
    exact = differential_flux_exact(f, cs, r_values, nhat)
    for r, row in zip(r_values, exact):
        series = differential_flux_asymptotic(f, cs, r, nhat, order=2 * l_max)
        assert np.max(np.abs(series - row) / np.abs(row)) <= DEFAULT_TOLERANCES["two_path"]


def test_expansion_truncation_slopes():
    # the error is integrated over the sphere, so that no direction whose
    # leading error coefficient happens to be small bends the fit
    f, cs, _ = unitary_amplitude(2, 6, seed=2)
    grid = default_grid(f)
    kr_values = np.geomspace(8.0, 100.0, 10)
    exact = differential_flux_exact(f, cs, kr_values, grid.points)
    for n in (2, 4, 6):
        errs = [
            grid.integrate(
                np.abs(row - differential_flux_asymptotic(f, cs, kR, grid.points, order=n))
            )
            for kR, row in zip(kr_values, exact)
        ]
        assert fit_slope(kr_values, np.array(errs)) == pytest.approx(-(n + 1), abs=0.3)


@pytest.mark.parametrize("l_max", [1, 3, 6])
def test_every_correction_term_integrates_to_zero(l_max):
    f, cs, _ = unitary_amplitude(2, l_max, seed=13)
    grid = default_grid(f)
    # order 2 l_max + 1 is the real part of a purely imaginary product,
    # zero up to rounding with no cancellation to judge, and later orders
    # have no terms at all
    for order in range(1, 2 * l_max + 1):
        for R in (0.8, 3.0, 25.0):
            term = flux_correction_term(f, cs, R, grid.points, order=order)
            assert abs(grid.integrate(term)) <= 1e-10 * grid.integrate(np.abs(term))
    assert not np.any(flux_correction_term(f, cs, 3.0, grid.points, order=2 * l_max + 2))


def test_expansion_raises_typed_error_outside_float_range():
    cs = ChannelSet(channels=(Channel("a", 1.0),), entrance="a")
    f = PartialWaveAmplitude({("a", l, 0): 0.1 for l in range(81)})
    nhat = unit_from_angles(0.4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError, match="l_max=80, kR=0.05, order=160"):
            differential_flux_asymptotic(f, cs, 0.05, nhat, order=160)
        with pytest.raises(FluxDomainError, match="order=100"):
            flux_correction_term(f, cs, 0.05, nhat, order=100)
        assert np.isfinite(differential_flux_asymptotic(f, cs, 0.05, nhat, order=4))


def test_complete_expansion_matches_exact_over_degrees_and_seeds():
    # the distances of check two-path in the slowest channel: the expansion
    # summed from its degree images was off by up to 1.7e-10 (l_max 18)
    r_values = np.array([0.7, 2.0, 9.0, 120.0]) / 0.8
    for l_max in range(3, 21):
        for seed in range(5):
            f, cs, _ = unitary_amplitude(3, l_max, seed=seed)
            nhat = np.random.default_rng(seed).normal(size=(6, 3))
            exact = differential_flux_exact(f, cs, r_values, nhat)
            series = differential_flux_asymptotic(f, cs, r_values, nhat, order=2 * l_max)
            assert np.max(np.abs(series - exact) / np.abs(exact)) <= 1e-12, (l_max, seed)


@pytest.mark.parametrize(("l_max", "gate"), [(80, 1e-12), (100, 1e-11)])
def test_complete_expansion_past_float64_coefficients(l_max, gate):
    # past l_max 75 the Laurent coefficients leave float64 and the table
    # holds them scaled by powers of two
    f, cs, _ = unitary_amplitude(1, l_max, seed=l_max)
    nhat = np.random.default_rng(l_max).normal(size=(6, 3))
    r_values = np.array([5.0, 400.0])
    exact = differential_flux_exact(f, cs, r_values, nhat)
    series = differential_flux_asymptotic(f, cs, r_values, nhat, order=2 * l_max)
    assert np.all(np.isfinite(series))
    assert np.max(np.abs(series - exact) / np.abs(exact)) <= gate


@pytest.mark.parametrize("l_max", [0, 1, 4, 9])
def test_correction_terms_past_the_complete_order_are_exact_zeros(l_max):
    f, cs, _ = unitary_amplitude(2, l_max, seed=3)
    nhat = np.random.default_rng(3).normal(size=(5, 3))
    r_values = np.array([0.4, 3.0, 80.0])
    for order in (2 * l_max + 1, 2 * l_max + 2, 2 * l_max + 7, 10 * l_max + 30):
        term = flux_correction_term(f, cs, r_values, nhat, order=order)
        assert term.shape == (3, 5) and not np.any(term), order


def test_both_flux_paths_match_sixty_digit_oracle():
    # l_max 12 at kR 0.7 and 9 in the slowest channel: the expansion summed
    # from its degree images was off by up to 1.3e-11 here
    f, cs, _ = unitary_amplitude(3, 12, seed=8)
    nhat = np.random.default_rng(8).normal(size=(6, 3))
    for kr in (0.7, 9.0):
        R = kr / 0.8
        want = flux_oracle(f, cs, R, nhat)
        for got in (
            differential_flux_exact(f, cs, R, nhat),
            differential_flux_asymptotic(f, cs, R, nhat, order=24),
        ):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, kr


def test_expansion_order_must_be_an_integer():
    f, cs, _ = unitary_amplitude(2, 3, seed=5)
    nhat = unit_from_angles(0.4, 1.0)
    for route in (differential_flux_asymptotic, flux_correction_term):
        for order in (2.5, 2.0, True, "2", None, np.float64(3.0)):
            with pytest.raises(ValueError, match="integer"):
                route(f, cs, 2.0, nhat, order=order)
        assert route(f, cs, 2.0, nhat, order=np.int64(3)) == route(f, cs, 2.0, nhat, order=3)
    with pytest.raises(ValueError, match="non-negative"):
        differential_flux_asymptotic(f, cs, 2.0, nhat, order=-1)
    with pytest.raises(ValueError, match="at least 1"):
        flux_correction_term(f, cs, 2.0, nhat, order=0)


# ----------------------------------------------------------------------
# positivity
# ----------------------------------------------------------------------

def test_positivity_of_physical_amplitudes_at_large_kr():
    grid = gauss_legendre_sphere(20)
    floor = 0.0
    for l_max in (2, 4, 6):
        for seed in range(10):
            f, cs, _ = unitary_amplitude(2, l_max, seed=seed)
            k_min = min(cs.k(label) for label in cs.labels)
            for kR in (10.0, 30.0, 100.0):
                values = differential_flux_exact(f, cs, kR / k_min, grid.points)
                peak = float(np.max(np.abs(values)))
                if peak == 0.0:
                    continue
                floor = min(floor, float(np.min(values)) / peak)
    assert floor >= -1e-10


def test_near_field_dips_are_finite_not_asserted():
    # below kR = 1 the flux may legitimately go negative; just record that
    # the evaluation stays finite there
    f, cs, _ = unitary_amplitude(2, 4, seed=1)
    grid = gauss_legendre_sphere(20)
    values = differential_flux_exact(f, cs, 0.5, grid.points)
    assert np.all(np.isfinite(values))


# ----------------------------------------------------------------------
# cross sections and conservation
# ----------------------------------------------------------------------

def test_hard_sphere_cross_section_oracle():
    from nearfield.amplitudes import amplitudes_from_smatrix, hard_sphere_model

    k, a, l_max = 1.0, 0.5, 10
    model = hard_sphere_model(k, a, l_max)
    cs = ChannelSet(channels=(Channel("el", k),), entrance="el")
    f = amplitudes_from_smatrix(model, cs)
    sections = cross_sections(f, cs)
    oracle = hard_sphere_sigma_oracle(k, a, l_max)
    assert sections.total == pytest.approx(oracle, rel=1e-13)
    assert sections.quadrature_total == pytest.approx(sections.total, rel=1e-12)


def test_cross_sections_parseval_matches_quadrature(rng):
    f, cs, _ = unitary_amplitude(3, 5, seed=21)
    sections = cross_sections(f, cs)
    assert sections.labels == cs.labels
    for label in cs.labels:
        direct = cs.weight(label) * float(
            np.sum(np.abs(f.dense(label, f.l_max)) ** 2)
        )
        assert sections.per_channel[label] == pytest.approx(direct, rel=1e-13)
        assert sections.quadrature_per_channel[label] == pytest.approx(
            sections.per_channel[label], rel=1e-10, abs=1e-16
        )


def test_cross_section_samples_match_pointwise_amplitude():
    f, cs, _ = unitary_amplitude(3, 4, seed=9)
    grid = gauss_legendre_sphere(10)
    sections = cross_sections(f, cs, grid)
    for i, label in enumerate(cs.labels):
        direct = cs.weight(label) * np.abs(evaluate(f, label, grid.points)) ** 2
        np.testing.assert_array_equal(sections.differential[i], direct)


def test_total_flux_gram_route_is_exact_at_small_kr():
    f, cs, _ = unitary_amplitude(3, 6, seed=8)
    sigma = cross_sections(f, cs).total
    for R in (0.2, 0.5, 2.0, 100.0):
        flux = total_flux(f, cs, R, method="gram")
        assert abs(flux - sigma) / sigma < 1e-12


@pytest.mark.parametrize("l_max", [10, 20, 40])
def test_resolved_grid_totals_equal_sigma_at_any_kr(l_max):
    rng = np.random.default_rng(l_max)
    cs = channel_set(2)
    f = raw_amplitude(rng, cs, l_max)
    sigma = sum(cs.weight(c) * np.sum(np.abs(f.dense(c)) ** 2) for c in cs.labels)
    k_min = min(cs.k(label) for label in cs.labels)
    for grid in (None, gauss_legendre_sphere(l_max)):
        for kR in (1e-3, 0.05, 0.2, 1.0, 7.0, 300.0):
            value = total_flux(f, cs, kR / k_min, grid=grid)
            assert abs(value - sigma) <= 1e-12 * sigma, kR


def test_resolved_totals_need_no_pair_factors():
    # at l_max=40 and kR=1e-3 the pair factors overflow float64, the total does not
    f = PartialWaveAmplitude({("a", 40, 3): 0.5 + 0.2j, ("a", 1, 0): 0.1})
    cs = ChannelSet(channels=(Channel("a", 1.0),), entrance="a")
    with pytest.raises(FluxDomainError, match="l_max=40"):
        pair_matrix(40, -1e-3j)
    assert total_flux(f, cs, 1e-3) == pytest.approx(0.30, rel=1e-14)


def test_underresolved_canonical_grid_takes_gram_route(monkeypatch):
    calls = []
    real_gram = flux_module.sphere_mode_gram

    def spy(order, l_max):
        calls.append((order, l_max))
        return real_gram(order, l_max)

    monkeypatch.setattr(flux_module, "sphere_mode_gram", spy)
    f, cs, _ = unitary_amplitude(2, 4, seed=27)
    total_flux(f, cs, 2.0, grid=gauss_legendre_sphere(4))
    assert calls == []
    value = total_flux(f, cs, 2.0, grid=gauss_legendre_sphere(3))
    assert calls == [(3, 4)]
    assert np.isfinite(value)


def test_pointwise_flux_raises_typed_error_outside_float_range():
    # a lone degree pairs only with itself, and HW_ll = 1 at every distance:
    # past l_max = 75 the flux at kR = 5 is the far-field value
    cs = ChannelSet(channels=(Channel("a", 1.0),), entrance="a")
    f = PartialWaveAmplitude({("a", 80, 0): 0.7 - 0.2j})
    nhat = unit_from_angles(0.4, 1.0)
    far = cs.weight("a") * abs((0.7 - 0.2j) * sph_harm(80, 0, nhat)) ** 2
    assert differential_flux_exact(f, cs, 5.0, nhat) == pytest.approx(far, rel=1e-14)
    with pytest.raises(FluxDomainError, match="l_max=80, kR=0.001 "):
        differential_flux_exact(f, cs, 1e-3, nhat)


def test_flux_summed_past_float64_raises_typed_error():
    # finite pair factors (about 1e250 at kR 0.02) whose sum with degree sums
    # of 1e60 passes float64: both paths raise, naming the offending kR
    cs = ChannelSet(channels=(Channel("a", 1.0),), entrance="a")
    f = PartialWaveAmplitude({("a", l, 0): 1e60 for l in range(41)})
    nhat = unit_from_angles(0.3, 0.0)
    r_values = np.array([3.0, 0.02, 0.05])
    match = "the flux at l_max=40, kR=0.02 sums past the float64 limit"
    with pytest.raises(FluxDomainError, match=match):
        differential_flux_exact(f, cs, r_values, nhat)
    with pytest.raises(FluxDomainError, match=match):
        differential_flux_asymptotic(f, cs, r_values, nhat, order=80)
    assert np.all(np.isfinite(differential_flux_asymptotic(f, cs, r_values, nhat, order=4)))
    # a faster first channel (kR 2 and up) stays finite: the second one is named, at its kR
    two = ChannelSet(channels=(Channel("a", 100.0), Channel("b", 1.0)), entrance="a")
    g = f + PartialWaveAmplitude({("b", l, 0): 1e60 for l in range(41)})
    message = re.escape(f"{match} 1.798e+308; raise kR")
    with pytest.raises(FluxDomainError, match=f"^{message}$"):
        differential_flux_exact(g, two, r_values, nhat)
    with pytest.raises(FluxDomainError, match=f"^{message}$"):
        differential_flux_asymptotic(g, two, r_values, nhat, order=80)


def test_flux_profile_builds_no_integers(monkeypatch):
    # the pair factors of a scan come from the quadrature, not from the
    # exact Laurent integers behind half_wronskian_exact
    def forbidden(*args):
        raise AssertionError("integer pair coefficients on the flux path")

    monkeypatch.setattr(wronskian, "_laurent_float", forbidden)
    monkeypatch.setattr(wronskian, "_recurrence", forbidden)
    f, cs, _ = unitary_amplitude(2, 20, seed=12)
    profile = flux_profile(f, cs, np.geomspace(2.0, 40.0, 3))
    assert np.all(np.isfinite(profile.samples))


def test_pointwise_flux_domain_error_names_kr_without_warnings():
    cs = ChannelSet(channels=(Channel("a", 2.0),), entrance="a")
    f = PartialWaveAmplitude({("a", 40, 0): 1.0})
    nhat = unit_from_angles(0.4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError) as info:
            differential_flux_exact(f, cs, np.array([3.0, 5e-4, 1e-3]), nhat)
    message = str(info.value)
    assert "l_max=40" in message and "kR=0.001 " in message and "1.798e+308" in message
    # at a subnormal distance 1/(2z) overflows too, without a warning on either path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError, match="l_max=40, kR=1.99998e-320 "):
            differential_flux_exact(f, cs, 1e-320, nhat)
        with pytest.raises(FluxDomainError, match="l_max=40, kR=1.99998e-320, order=4 "):
            differential_flux_asymptotic(f, cs, 1e-320, nhat, order=4)
    # only the second of two channels passes float64 (the first one's kR is 1 and up)
    two = ChannelSet(channels=(Channel("a", 2000.0), Channel("b", 2.0)), entrance="a")
    g = f + PartialWaveAmplitude({("b", 40, 0): 1.0})
    message = re.escape(
        "pair factors at l_max=40, kR=0.001 exceed the float64 limit 1.798e+308: they grow "
        "like (2 kR)**-(2*l_max+1); raise kR or lower l_max"
    )
    with pytest.raises(FluxDomainError, match=f"^{message}$"):
        differential_flux_exact(g, two, np.array([3.0, 5e-4, 1e-3]), nhat)


def test_total_flux_pointwise_route_moderate_kr(rng):
    f, cs, _ = unitary_amplitude(2, 3, seed=6)
    sigma = cross_sections(f, cs).total
    for R in (4.0, 30.0):
        flux = total_flux(f, cs, R, method="pointwise")
        assert flux == pytest.approx(sigma, rel=1e-10)


def test_total_flux_on_the_default_grid_is_the_summed_cross_section_without_a_grid(monkeypatch):
    for n, l_max in ((1, 0), (2, 3), (3, 6)):
        f, momentum, _ = unitary_amplitude(n, l_max, seed=40 + l_max)
        for cs in (momentum, channel_set(n, entrance=n - 1, weight_mode="velocity_ratio")):
            with_grid = total_flux(f, cs, 2.5, grid=default_grid(f))
            total = cross_sections(f, cs).total
            with monkeypatch.context() as m:
                # the default grid is resolved by construction: no grid is built
                m.setattr(flux_module, "default_grid", _forbidden_grid)
                default = total_flux(f, cs, 2.5)
                assert total_flux(f, cs, np.float64(0.01)) == default
            assert type(default) is float
            assert default.hex() == with_grid.hex() == total.hex()
    # validation is unchanged: a bad method or distance still raises without a grid
    monkeypatch.setattr(flux_module, "default_grid", _forbidden_grid)
    with pytest.raises(ValueError, match="method must be gram or pointwise"):
        total_flux(f, cs, 1.0, method="auto", grid=gauss_legendre_sphere(3))
    with pytest.raises(ValueError, match="distance R must be finite and positive"):
        total_flux(f, cs, -1.0)


def _forbidden_grid(f):
    raise AssertionError("default_grid called")


def test_total_flux_method_validation(rng):
    f, cs, _ = unitary_amplitude(2, 2, seed=6)
    with pytest.raises(ValueError):
        total_flux(f, cs, 1.0, method="magic")
    with pytest.raises(ValueError, match="method must be gram or pointwise, got 'auto'"):
        total_flux(f, cs, 1.0, method="auto")
    with pytest.raises(ValueError):
        total_flux(f, cs, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, cs: total_flux(f, cs, 2.0, grid=8),
        lambda f, cs: flux_profile(f, cs, [1.0], grid=8),
        lambda f, cs: cross_sections(f, cs, 8),
    ],
    ids=["total_flux", "flux_profile", "cross_sections"],
)
def test_grid_that_is_not_an_angular_grid_raises_type_error(call):
    f = PartialWaveAmplitude({("c0", 1, 0): 1.0})
    with pytest.raises(TypeError, match=r"^grid must be an AngularGrid, got 8: use AngularGrid\(order\)$"):
        call(f, channel_set(1))


def test_total_flux_warns_on_underresolved_grid(caplog):
    f, cs, _ = unitary_amplitude(2, 4, seed=2)
    with caplog.at_level(logging.WARNING, logger="nearfield.flux"):
        total_flux(f, cs, 3.0, grid=gauss_legendre_sphere(3))
    assert any("grid order" in rec.message for rec in caplog.records)


def test_grid_of_order_l_max_integrates_the_pointwise_flux_exactly(caplog):
    # the one grid-resolution rule (flux._least_order): order l_max resolves
    # every mode bilinear, order l_max - 1 does not, and only it warns
    for l_max in (3, 6, 10):
        f, cs, family = unitary_amplitude(2, l_max, seed=4)
        g = family("c0", (0.6, 0.0, 0.8))
        sigma = cross_sections(g, cs).total
        R = 20.0 / min(c.k for c in cs.channels)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="nearfield.flux"):
            exact = total_flux(g, cs, R, grid=gauss_legendre_sphere(l_max), method="pointwise")
        assert not caplog.records
        assert abs(exact / sigma - 1.0) < 1e-14
        with caplog.at_level(logging.WARNING, logger="nearfield.flux"):
            coarse = total_flux(g, cs, R, grid=gauss_legendre_sphere(l_max - 1), method="pointwise")
        assert [rec.message for rec in caplog.records] == [
            f"grid order {l_max - 1} below l_max = {l_max}: "
            "mode bilinears are not integrated exactly"
        ]
        assert abs(coarse / sigma - 1.0) > 1e-3


def test_flux_profile_contents():
    f, cs, _ = unitary_amplitude(2, 2, seed=17)
    r_values = np.geomspace(0.5, 50.0, 7)
    profile = flux_profile(f, cs, r_values)
    assert len(profile) == 7
    sigma = profile.far_field_total
    assert np.max(np.abs(profile.total - sigma)) / sigma < 1e-12
    assert profile.samples.shape == (7, profile.grid.n_nodes)
    assert np.array_equal(
        profile.validity, np.min([cs.k(c) for c in cs.labels]) * r_values >= 1.0
    )
    assert np.all(profile.diff_min <= profile.diff_max)
    with pytest.raises(ValueError):
        flux_profile(f, cs, [])
    with pytest.raises(ValueError):
        flux_profile(f, cs, [1.0, -2.0])


_BAD_DISTANCES = (0.0, -2.0, np.nan, np.inf, -np.inf)


def _names(value):
    return f"finite and positive, got {float(value)!r}"


@pytest.mark.parametrize("bad", _BAD_DISTANCES)
def test_flux_profile_rejects_non_finite_distances(bad):
    f, cs, _ = unitary_amplitude(2, 3, seed=42)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=_names(bad)):
            flux_profile(f, cs, [1.0, bad, 2.0])


@pytest.mark.parametrize("bad", _BAD_DISTANCES)
@pytest.mark.parametrize("method", ["gram", "pointwise"])
def test_total_flux_rejects_non_finite_distances(bad, method):
    f, cs, _ = unitary_amplitude(2, 3, seed=42)
    with pytest.raises(ValueError, match=_names(bad)):
        total_flux(f, cs, bad, method=method)


@pytest.mark.parametrize("bad", _BAD_DISTANCES)
@pytest.mark.parametrize(
    "evaluate_at",
    [
        lambda f, cs, R, n: differential_flux_exact(f, cs, R, n),
        lambda f, cs, R, n: differential_flux_asymptotic(f, cs, R, n, order=3),
        lambda f, cs, R, n: flux_correction_term(f, cs, R, n, order=2),
    ],
    ids=["exact", "asymptotic", "correction"],
)
def test_differential_flux_rejects_non_finite_distances(bad, evaluate_at):
    f, cs, _ = unitary_amplitude(2, 3, seed=42)
    nhat = unit_from_angles(1.0, 0.5)
    for R in (bad, np.array([1.0, bad])):
        with pytest.raises(ValueError, match=_names(bad)):
            evaluate_at(f, cs, R, nhat)


# ----------------------------------------------------------------------
# unitarity and the optical theorem
# ----------------------------------------------------------------------

def test_unitarity_defect_family_vs_scaled():
    f, cs, family = unitary_amplitude(3, 3, seed=31)
    assert unitarity_defect(family, cs) < 1e-12

    def scaled_family(entrance, kappa_hat):
        return family(entrance, kappa_hat).scaled(1.1)

    assert unitarity_defect(scaled_family, cs) > 1e-2


def test_unitarity_defect_of_a_zero_amplitude_is_zero():
    # no bilinear to normalize by: a zero amplitude satisfies the identity exactly
    _, cs, _ = unitary_amplitude(2, 2, seed=31)
    assert unitarity_defect(PartialWaveAmplitude(), cs, kappa_hats=[(0.0, 0.0, 1.0)]) == 0.0
    assert unitarity_defect(lambda entrance, kappa_hat: PartialWaveAmplitude(), cs) == 0.0


def test_unitarity_defect_propagates_nan(monkeypatch):
    from nearfield import amplitudes as amplitudes_module

    _, cs, family = unitary_amplitude(2, 2, seed=31)
    real_table = flux_module._ylm

    def poisoned(l_max, directions):
        table = real_table(l_max, directions).copy()
        table[1, 1] = np.nan
        return table

    # an S-matrix family's rows and sampled values share the family's one table
    monkeypatch.setattr(flux_module, "_ylm", poisoned)
    monkeypatch.setattr(amplitudes_module, "_ylm", poisoned)
    assert np.isnan(unitarity_defect(family, cs))


def _reference_unitarity_defect(family, channels, kappa_hats, s_hats):
    """The identity sample by sample: two ``evaluate`` calls and a vdot per label."""
    defects, scales = [], []
    for gamma in channels.labels:
        for alpha in channels.labels:
            for s_hat in s_hats:
                for kappa_hat in kappa_hats:
                    fg = family(gamma, tuple(s_hat))
                    fa = family(alpha, tuple(kappa_hat))
                    l_max = max(fg.l_max, fa.l_max)
                    bilinear = 0.0 + 0.0j
                    for label in channels.labels:
                        bilinear += channels.k(label) * np.vdot(
                            fg.dense(label, l_max), fa.dense(label, l_max)
                        )
                    forward = evaluate(fa, gamma, np.asarray(s_hat))
                    backward = evaluate(fg, alpha, np.asarray(kappa_hat))
                    rhs = -(4.0 * np.pi / 2j) * (forward - np.conj(backward))
                    defects.append(abs(bilinear + rhs))
                    scales.append(abs(bilinear))
    return max(defects) / max(scales)


_S_HATS = ((0.0, 0.0, 1.0), (0.3, -0.4, 0.5))
_KAPPA_HATS = ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (-0.2, 0.9, -0.4))


@pytest.mark.parametrize("n_channels", [1, 2, 3])
@pytest.mark.parametrize("l_max", range(7))
def test_unitarity_defect_matches_sample_loop(n_channels, l_max):
    _, cs, family = unitary_amplitude(n_channels, l_max, seed=10 * n_channels + l_max)
    ref = _reference_unitarity_defect(
        family, cs, flux_module._DEFAULT_DIRECTIONS, flux_module._DEFAULT_DIRECTIONS
    )
    assert abs(unitarity_defect(family, cs) - ref) <= 1e-15
    ref = _reference_unitarity_defect(family, cs, _KAPPA_HATS, _S_HATS)
    got = unitarity_defect(family, cs, kappa_hats=_KAPPA_HATS, s_hats=_S_HATS)
    assert abs(got - ref) <= 1e-15

    # the inconsistent scaled family is compared too, far from rounding level
    def scaled(entrance, kappa_hat):
        return family(entrance, kappa_hat).scaled(1.0 + 0.1 * (entrance == "c0"))

    ref = _reference_unitarity_defect(scaled, cs, _KAPPA_HATS, _S_HATS)
    got = unitarity_defect(scaled, cs, kappa_hats=_KAPPA_HATS, s_hats=_S_HATS)
    assert abs(got - ref) <= 1e-15


def test_unitarity_defect_takes_each_amplitude_and_table_once(monkeypatch):
    _, cs, family = unitary_amplitude(3, 4, seed=12)
    calls = []

    def spy(entrance, kappa_hat):
        calls.append((entrance, tuple(kappa_hat)))
        return family(entrance, kappa_hat)

    real_table = flux_module._ylm
    tables = []

    def counted(l_max, directions):
        tables.append(np.shape(directions))
        return real_table(l_max, directions)

    def no_evaluate(*args, **kwargs):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(flux_module, "_ylm", counted)
    monkeypatch.setattr(flux_module, "evaluate", no_evaluate)
    assert unitarity_defect(spy, cs, kappa_hats=_KAPPA_HATS, s_hats=_S_HATS) < 1e-12
    distinct = set(_KAPPA_HATS) | set(_S_HATS)
    assert len(distinct) == 4
    assert sorted(calls) == sorted((e, d) for e in cs.labels for d in distinct)
    assert tables == [(4, 3)]


def test_smatrix_family_supplies_its_rows_from_one_table(monkeypatch):
    from nearfield import amplitudes as amplitudes_module

    _, cs, family = unitary_amplitude(3, 4, seed=12)
    directions = list(dict.fromkeys(_S_HATS + _KAPPA_HATS))
    amps = [family(e, d) for e in cs.labels for d in directions]
    l_max = max(amp.l_max for amp in amps)
    labels = ("c2", "absent", "c0")
    expected = np.array([amp.rows(labels, l_max) for amp in amps])
    real_table = amplitudes_module._ylm
    tables = []

    def counted(l_max, directions):
        tables.append(np.shape(directions))
        return real_table(l_max, directions)

    monkeypatch.setattr(amplitudes_module, "_ylm", counted)
    monkeypatch.setattr(flux_module, "_ylm", counted)
    rows, table = family._rows(labels, list(cs.labels), np.array(directions))
    np.testing.assert_array_equal(rows, expected)
    assert tables == [(4, 3)]
    # the family's table, cut to the rows' modes, is the table of their degree
    assert table.shape == (expected.shape[2], 4)
    assert table.tobytes() == real_table(l_max, np.array(directions)).tobytes()
    # unitarity_defect takes them so: one table for the rows and the values
    tables.clear()
    unitarity_defect(family, cs, kappa_hats=_KAPPA_HATS, s_hats=_S_HATS)
    assert tables == [(4, 3)]


def test_unitarity_defect_bare_amplitude_diagonal_only():
    f, cs, _ = unitary_amplitude(2, 2, seed=19)
    nhat = [(0.0, 0.0, 1.0)]
    assert unitarity_defect(f, cs, kappa_hats=nhat, s_hats=nhat) < 1e-12
    with pytest.raises(ValueError):
        unitarity_defect(f, cs)
    with pytest.raises(ValueError):
        unitarity_defect(
            f, cs, kappa_hats=[(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
        )


def test_optical_theorem_defects():
    f, cs, _ = unitary_amplitude(3, 4, seed=23)
    assert optical_theorem_defect(f, cs) < 1e-12
    real_f = PartialWaveAmplitude({("c0", 0, 0): 0.7, ("c0", 1, 0): -0.2})
    assert optical_theorem_defect(real_f, channel_set(1)) == pytest.approx(1.0)
    empty = PartialWaveAmplitude({})
    assert optical_theorem_defect(empty, channel_set(1)) == 0.0
    # squares below the float64 range: a nonzero amplitude must not read as empty
    tiny = PartialWaveAmplitude({("c0", 0, 0): 1e-170, ("c0", 1, 0): -3e-171j})
    with pytest.raises(FluxDomainError, match="underflows"):
        optical_theorem_defect(tiny, channel_set(1))


def test_optical_theorem_defect_is_one_float_for_one_direction():
    f, cs, _ = unitary_amplitude(2, 4, seed=23)
    kappa = (0.0, 0.0, 1.0)
    defect = optical_theorem_defect(f, cs, kappa)
    assert isinstance(defect, float)
    assert optical_theorem_defect(f, cs, [kappa]) == defect
    for kappa_hat in ([kappa, (1.0, 0.0, 0.0)], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="one direction vector"):
            optical_theorem_defect(f, cs, kappa_hat)


def test_optical_theorem_hard_sphere():
    from nearfield.amplitudes import amplitudes_from_smatrix, hard_sphere_model

    model = hard_sphere_model(1.0, 1.0, 12)
    cs = ChannelSet(channels=(Channel("el", 1.0),), entrance="el")
    f = amplitudes_from_smatrix(model, cs)
    assert optical_theorem_defect(f, cs) < 1e-12


# ----------------------------------------------------------------------
# contraction blocks
# ----------------------------------------------------------------------

_CHANNEL_CASES = [(l_max, c) for c in ("three", "middle-zero", "one") for l_max in (0, 3, 10)]


@pytest.mark.parametrize(
    "l_max, channels",
    _CHANNEL_CASES,
    ids=[str(l_max) if c == "three" else f"{l_max}-{c}" for l_max, c in _CHANNEL_CASES],
)
def test_flux_rows_equal_two_quadratic_forms_bitwise(l_max, channels):
    f, cs, _ = unitary_amplitude(1 if channels == "one" else 3, l_max, seed=70 + l_max)
    if channels == "middle-zero":
        f = PartialWaveAmplitude({key: b for key, b in f.coefficients.items() if key[0] != "c1"})
    pts = np.random.default_rng(l_max).normal(size=(50, 3))
    k_min = min(cs.k(label) for label in cs.labels)
    distances = np.geomspace(0.5, 300.0, 7) / k_min
    labels, sums = _degree_sums(f, cs, pts)
    # a zero channel has no degree sums
    assert labels == {"three": ["c0", "c1", "c2"], "middle-zero": ["c0", "c2"], "one": ["c0"]}[channels]
    rows = flux_module._flux_rows(labels, sums, cs, distances)
    expected = np.zeros_like(rows)
    for label, collapsed in zip(labels, sums):
        stack = wronskian._pair_stack(l_max, -1j * cs.k(label) * distances)
        for i, w_pairs in enumerate(stack):
            values = _kernels.quadratic_form(collapsed, w_pairs)
            scale = _kernels.quadratic_form(np.abs(collapsed), np.abs(w_pairs))
            expected[i] += cs.weight(label) * _real_with_hermitian_check(values, scale)
    np.testing.assert_array_equal(rows, expected)


@pytest.mark.parametrize("order", [None, 3])
def test_flux_rows_with_velocity_weights_equal_two_quadratic_forms_bitwise(order):
    # channels out of label order, a zero channel and an entrance that is not
    # the first: the stored wavenumbers and weights are read by position
    f, _, _ = unitary_amplitude(3, 4, seed=75)
    f = PartialWaveAmplitude({key: b for key, b in f.coefficients.items() if key[0] != "c1"})
    base = channel_set(3, weight_mode="velocity_ratio")
    cs = ChannelSet(base.channels[::-1], entrance="c1", weight_mode="velocity_ratio")
    pts = np.random.default_rng(75).normal(size=(5, 3))
    distances = np.geomspace(0.5, 300.0, 5)
    labels, sums = _degree_sums(f, cs, pts)
    assert labels == ["c2", "c0"]
    rows = flux_module._flux_rows(labels, sums, cs, distances, order)
    expected = np.zeros_like(rows)
    for label, collapsed in zip(labels, sums):
        zs = -1j * cs.k(label) * distances
        if order is None:
            stack = wronskian._pair_stack(4, zs)
        else:
            stack = wronskian._laurent_stack(4, zs, order)
        for i, w_pairs in enumerate(stack):
            values = _kernels.quadratic_form(collapsed, w_pairs)
            scale = _kernels.quadratic_form(np.abs(collapsed), np.abs(w_pairs))
            expected[i] += cs.weight(label) * _real_with_hermitian_check(values, scale)
    assert rows.tobytes() == expected.tobytes()


def _contraction_peak(labels, sums, cs, distances) -> tuple[int, int]:
    import tracemalloc

    tracemalloc.start()
    try:
        rows = flux_module._flux_rows(labels, sums, cs, distances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - rows.nbytes, rows[0].nbytes


def test_flux_peak_memory_does_not_grow_with_distances():
    # at 8000 points a block holds one distance, and every block and channel
    # writes its products into the same buffers, so 38 more distances add
    # less than one output row to the contraction's peak (measured past the
    # degree sums, whose table would otherwise set the peak)
    f, cs, _ = unitary_amplitude(3, 3, seed=71)
    pts = np.random.default_rng(71).normal(size=(8000, 3))
    labels, sums = _degree_sums(f, cs, pts)
    differential_flux_exact(f, cs, 1.0, pts[:1])  # warm the lazy tables
    few, row = _contraction_peak(labels, sums, cs, np.array([1.0, 7.0]))
    many, _ = _contraction_peak(labels, sums, cs, np.geomspace(1.0, 300.0, 40))
    assert many <= few + row


@pytest.mark.parametrize(
    "l_max, n_dirs, n_r",
    [(10, None, 40), (10, 50, 40), (0, 500, 40), (10, 1000, 40), (3, 50, 20), (3, 1000, 40)],
    ids=[
        "l10-rings", "l10-dirs", "l0-dirs", "l10-one-distance-blocks", "l3-channels-straddle",
        "l3-channel-groups",
    ],
)
def test_blocked_flux_rows_equal_per_distance_quadratic_forms_bitwise(l_max, n_dirs, n_r):
    f, cs, _ = unitary_amplitude(3, l_max, seed=80 + l_max)
    if n_dirs is None:
        directions = default_grid(f)  # a zonal amplitude: one point per polar ring
    else:
        directions = np.random.default_rng(l_max).normal(size=(n_dirs, 3))
    labels, sums = _degree_sums(f, cs, directions)
    n_points = sums.shape[2]
    k_min = min(cs.k(label) for label in cs.labels)
    distances = np.geomspace(0.5, 300.0, n_r) / k_min
    # more than one block of all channels' entries.  At l_max 3 and 50 points
    # one channel's 20 distances fit in a block and three channels' take two,
    # the second one short; at 1000 points a block holds two channels at one
    # distance, then one.  At l_max 10 1000 points take one channel a block.
    step = max(1, flux_module._BLOCK_ENTRIES // (len(labels) * (l_max + 1) * n_points))
    assert len(labels) == 3 and distances.size > step
    rows = flux_module._flux_rows(labels, sums, cs, distances)
    expected = np.zeros_like(rows)
    for label, collapsed in zip(labels, sums):
        for i, R in enumerate(distances):
            w_pairs = wronskian._pair_stack(l_max, -1j * cs.k(label) * R)[0]
            values = _kernels.quadratic_form(collapsed, w_pairs)
            scale = _kernels.quadratic_form(np.abs(collapsed), np.abs(w_pairs))
            expected[i] += cs.weight(label) * _real_with_hermitian_check(values, scale)
    np.testing.assert_array_equal(rows, expected)


@pytest.mark.parametrize(
    "evaluate_at", [differential_flux_exact, differential_flux_asymptotic]
)
def test_empty_inputs_keep_their_shapes(evaluate_at):
    f, cs, _ = unitary_amplitude(3, 4, seed=81)
    none, pts = np.empty((0, 3)), np.random.default_rng(81).normal(size=(5, 3))
    assert evaluate_at(f, cs, 2.0, none).shape == (0,)
    assert evaluate_at(f, cs, [1.0, 2.0], none).shape == (2, 0)
    assert evaluate_at(f, cs, np.array([]), pts).shape == (0, 5)
    zero = evaluate_at(PartialWaveAmplitude({}), cs, [1.0, 2.0], pts)
    np.testing.assert_array_equal(zero, np.zeros((2, 5)))


@pytest.mark.parametrize("l_max", [10, 20, 40])
def test_flux_rows_peak_is_bounded_by_one_block(l_max):
    # past the output and the pair matrices, a scan keeps only one block's
    # products and one block's finiteness test; what grows with the
    # distances is the points handed to the pair stack and their
    # reciprocals (16 bytes each per channel and distance), and a loop
    # counter past 256 is one more int object.  A finiteness test of the
    # whole stack (one byte per entry) passes the pair stack's own block
    # temporaries at 1000 distances at l_max 20.
    f, cs, _ = unitary_amplitude(3, l_max, seed=82)
    labels, sums = _degree_sums(f, cs, default_grid(f))
    flux_module._flux_rows(labels, sums, cs, np.array([1.0]))  # warm the rule tables
    counts = {10: (40, 160), 20: (40, 1000), 40: (40, 160, 400)}[l_max]
    excess = []
    for n in counts:
        distances = np.geomspace(1.0, 300.0, n)
        peak, _ = _contraction_peak(labels, sums, cs, distances)
        excess.append(peak - len(labels) * n * (l_max + 1) ** 2 * 16)
    for n, more in zip(counts[1:], excess[1:]):
        assert more - excess[0] <= 32 * len(labels) * (n - counts[0]) + 64, n
