"""Radial factors, spherical harmonics, and sphere quadrature."""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre, sph_harm_y, spherical_jn, spherical_yn

from nearfield.amplitudes import Channel, ChannelSet, PartialWaveAmplitude, evaluate
from nearfield.flux import differential_flux_exact
from nearfield.special import (
    AngularGrid,
    FluxDomainError,
    _MAX_DEGREE,
    _chi_integers,
    _chi_ratios,
    _chi_table,
    _few_directions,
    _gauss_legendre,
    _legendre_table,
    _radial_table,
    _sphere_grid_arrays,
    _ylm,
    _ylm_point,
    _ylm_vectorized,
    angles_from_unit,
    chi,
    chi_coefficient,
    chi_terms,
    gauss_legendre_sphere,
    mode_degrees,
    mode_index,
    mode_list,
    regular_psi,
    sph_harm,
    unit_from_angles,
    ylm_directions,
    ylm_table,
)

from conftest import _chi_series, bessel_psi_downward, macdonald_chi


# ----------------------------------------------------------------------
# chi coefficients and evaluation
# ----------------------------------------------------------------------

def test_chi_coefficient_factorial_form():
    # c_S = (l+S)! / (S! (l-S)!) as exact rationals, against the factorial
    # oracle of conftest, which shares no code with the neighbour ratio
    assert chi_coefficient(0, 0) == 1
    assert chi_coefficient(2, 1) == 6
    assert chi_coefficient(2, 2) == 12
    assert chi_coefficient(3, 2) == 60
    for l in [*range(41), 100, 300]:
        expect = _chi_series(l)
        got = [chi_coefficient(l, s) for s in range(l + 1)]
        assert got == expect and all(type(c) is Fraction for c in got), l


def test_chi_ratios_are_the_exact_ratios_rounded_once():
    # the float route of chi_terms and the exact rows share one ratio: each
    # entry is c_{s+1}/c_s of the integer rows, rounded once
    ratios = _chi_ratios(150, 150)
    for l in range(1, 151):
        row = _chi_integers(l)
        expect = np.array([float(Fraction(row[s + 1], row[s])) for s in range(l)])
        assert np.array_equal(ratios[:l, l].view(np.uint64), expect.view(np.uint64)), l


def _log_pole_peak(l: int) -> float:
    """``log max_m |Q_lm(1)|``, ``Q_lm(1) = sqrt((2l+1)/(4 pi) (l+m)!/(l-m)!) / (2**m m!)``."""
    log_norm = math.log((2 * l + 1) / (4 * math.pi))
    return max(
        0.5 * (log_norm + math.lgamma(l + m + 1) - math.lgamma(l - m + 1))
        - m * math.log(2)
        - math.lgamma(m + 1)
        for m in range(l + 1)
    )


def test_max_degree_is_the_last_with_finite_harmonics():
    # the pole values of the recurrence are the closed form, order by order ...
    # (c, w) = (1, 1) gives Q_lm(1) w**m = Q_lm(1) at m >= 0
    q = _ylm(20, (np.ones(1), np.ones(1, dtype=complex)))[420:441, 0]
    closed = [
        math.sqrt((41 / (4 * math.pi)) * math.factorial(20 + m) / math.factorial(20 - m))
        / (2**m * math.factorial(m))
        for m in range(21)
    ]
    np.testing.assert_allclose(np.abs(q), closed, rtol=1e-13)
    assert math.log(max(closed)) == pytest.approx(_log_pole_peak(20), rel=1e-14)
    # ... and their peak passes the float64 maximum first one degree past the bound
    limit = math.log(np.finfo(float).max)
    assert _log_pole_peak(_MAX_DEGREE) < limit < _log_pole_peak(_MAX_DEGREE + 1)


def test_harmonic_tables_past_the_degree_bound_raise_before_building():
    # the plan of every harmonic table holds the bound, so both layouts and every route to
    # them raise one ValueError and no RuntimeWarning, instead of a nan after seconds
    l = _MAX_DEGREE + 1
    f = PartialWaveAmplitude({("a", l, 0): 1.0})
    cs = ChannelSet(channels=(Channel("a", 1.0),), entrance="a")
    message = (
        f"l_max must be at most {_MAX_DEGREE}, the largest degree whose spherical "
        f"harmonics are finite in float64, got {l}"
    )
    calls = [
        lambda: evaluate(f, "a", (0.0, 0.0, 1.0)),
        lambda: ylm_directions(l, [(0.0, 0.6, 0.8), (1.0, 0.0, 0.0)]),
        lambda: differential_flux_exact(f, cs, 10.0, (0.0, 0.0, 1.0)),
        lambda: _ylm_point(l, 1.0, 0j),
        lambda: _ylm_vectorized(l, np.ones(2), np.zeros(2, dtype=complex)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message


def test_chi_coefficient_out_of_range():
    assert chi_coefficient(3, 4) == 0
    assert chi_coefficient(3, 9) == 0
    with pytest.raises(ValueError):
        chi_coefficient(-1, 0)
    with pytest.raises(ValueError):
        chi_coefficient(2, -1)


def test_chi_coefficient_operator_product_route():
    # The same integers arise as iterated images of the angular operator:
    # c_S(l) = prod_{mu=1..S} [l(l+1) - mu(mu-1)] / S!
    for l in range(21):
        lam = l * (l + 1)
        for s in range(l + 1):
            acc = Fraction(1)
            for mu in range(1, s + 1):
                acc *= lam - mu * (mu - 1)
            acc /= math.factorial(s)
            assert chi_coefficient(l, s) == acc


def test_chi_special_values():
    # chi_0(z) = exp(-z); chi_1(1) = 2/e
    z = 0.37 + 1.4j
    assert chi(0, z) == pytest.approx(np.exp(-z), rel=1e-15)
    assert chi(1, 1.0) == pytest.approx(2.0 / math.e, rel=1e-15)


def test_chi_matches_macdonald_oracle():
    for l, z in [(2, 0.5 + 0.3j), (5, 2.0 - 1.2j), (0, 1.0 + 0.0j), (7, 0.25 + 2.0j)]:
        expect = macdonald_chi(l, z)
        assert chi(l, z) == pytest.approx(expect, rel=1e-12)


def test_chi_rejects_negative_order_and_the_origin():
    with pytest.raises(ValueError):
        chi(-1, 1.0)
    with pytest.raises(ValueError):
        chi(3, 0.0)
    with pytest.raises(ValueError):
        chi(3, np.array([1.0 + 1.0j, 0.0]))


def test_chi_past_the_float_range_raises_typed_error():
    # toward small |z| the series leaves the float64 range; chi used to
    # return nan or inf with a RuntimeWarning, which this suite makes an error
    for l, z in ((150, 0.01j), (300, 1.0)):
        with pytest.raises(FluxDomainError, match=f"l={l}, z={z}"):
            chi(l, z)
    with pytest.raises(FluxDomainError, match=r"z=0\.01j"):
        chi(150, np.array([2.0j, 0.01j]))
    assert np.isfinite(chi(150, 2.0j))


def test_chi_on_the_imaginary_axis_matches_forty_digits():
    # past l ~ |z| the series terms cancel: summed, they give chi(100, -100j)
    # as -343.7+2632.1j, where the value is 2.298+1.088j
    checked = 0
    for x in np.geomspace(0.3, 300.0, 13):
        for l in (0, 1, 2, 7, 20, 45, 80, 100, 123, 150):
            expect = macdonald_chi(l, -1j * x)
            if not np.isfinite(expect):
                continue
            assert chi(l, -1j * x) == pytest.approx(expect, rel=1e-13), (l, x)
            checked += 1
    assert checked > 100


def test_chi_off_the_axis_matches_forty_digits():
    # off the axis the steps are complex; in the left half-plane the
    # recurrence, like the series, loses digits as exp(2 |Re z|)
    points = (2.0 - 0.5j, 0.3 + 0.1j, 40.0 + 90.0j, 150.0 - 250.0j, 7.0 + 1.0j,
              -0.7 - 30.0j, -2.5 + 120.0j, -1.0 + 1.0j, -3.0 - 280.0j, -0.2 + 5.0j)
    for z in points:
        for l in (0, 3, 17, 60, 101, 150):
            expect = macdonald_chi(l, z)
            if np.isfinite(expect):
                assert chi(l, z) == pytest.approx(expect, rel=1e-11), (l, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])
def test_chi_rejects_non_finite_arguments(bad):
    with pytest.raises(ValueError, match="finite, nonzero z") as info:
        chi(3, bad)
    assert not isinstance(info.value, FluxDomainError)
    with pytest.raises(ValueError, match="finite, nonzero z"):
        chi(3, np.array([1.0j, bad]))


def _scalar_chi_terms(l_max, s_max, u):
    # reference for scalar u: the neighbour ratios scaled by u in one
    # elementwise product, then one cumprod down the rows
    s = np.arange(s_max)[:, None]
    l = np.arange(l_max + 1)[None, :]
    ratios = (l + s + 1) * (l - s) / (s + 1) * u
    return np.concatenate([np.ones((1, l_max + 1)), np.cumprod(ratios, axis=0)])


def test_chi_terms_at_array_u_stack_the_scalar_calls_bitwise():
    u = 0.5 / np.array([[0.9 - 0.4j, -3.0j, 7.5j], [2.0 + 0.0j, 0.3 + 0.1j, -40.0j]])
    for l_max, s_max in ((0, 0), (6, 3), (12, 12), (5, 9)):
        terms = chi_terms(l_max, s_max, u)
        assert terms.shape == (s_max + 1, l_max + 1, *u.shape)
        for idx in np.ndindex(u.shape):
            single = chi_terms(l_max, s_max, complex(u[idx]))
            assert np.array_equal(terms[(slice(None), slice(None), *idx)], single)
            assert np.array_equal(single, _scalar_chi_terms(l_max, s_max, complex(u[idx])))


def test_chi_table_at_scalar_z_is_the_summed_scalar_terms_bitwise():
    # the greens outer factors rest on this table: degrees above s_max are
    # the summed cut series bit for bit, complete ones come from the
    # recurrence, within 1e-13 of 40 digits
    for z in (-1j * 0.7, -1j * 13.0, 1j * 250.0, 0.8 - 2.5j):
        for l_max, s_max in ((0, 0), (8, 8), (30, 5), (60, 60)):
            got = _chi_table(l_max, z, s_max)
            expect = np.exp(-z) * _scalar_chi_terms(l_max, s_max, 0.5 / z).sum(axis=0)
            assert np.array_equal(got[s_max + 1 :], expect[s_max + 1 :])
            for l in range(s_max + 1):
                assert got[l] == pytest.approx(macdonald_chi(l, z), rel=1e-13), (l, z)
    # orders past l_max add nothing
    assert np.array_equal(_chi_table(6, -2.0j, 40), _chi_table(6, -2.0j))


def test_chi_terms_match_exact_coefficients():
    u = 0.5 / (0.9 - 0.4j)
    terms = chi_terms(12, 15, u)
    assert terms.shape == (16, 13)
    for l in range(13):
        for s in range(16):
            assert terms[s, l] == pytest.approx(float(chi_coefficient(l, s)) * u**s, rel=1e-13)
        assert terms[:, l].sum() * np.exp(-0.9 + 0.4j) == pytest.approx(
            chi(l, 0.9 - 0.4j), rel=1e-13
        )


def test_chi_vectorized():
    z = np.array([0.5, 1.0 + 1.0j, -2.0 + 0.1j])
    values = chi(3, z)
    assert values.shape == z.shape
    for i, zi in enumerate(z):
        assert values[i] == pytest.approx(chi(3, complex(zi)), rel=1e-15)


def test_chi_second_order_ode():
    # chi'' = (1 + l(l+1)/z^2) chi, checked with Richardson-extrapolated
    # central differences
    l, z = 4, 1.7 + 0.9j
    h = 1e-3

    def second(hh):
        return (chi(l, z + hh) - 2 * chi(l, z) + chi(l, z - hh)) / hh**2

    d2 = (4 * second(h / 2) - second(h)) / 3
    target = (1 + l * (l + 1) / z**2) * chi(l, z)
    assert d2 == pytest.approx(target, rel=1e-9)


# ----------------------------------------------------------------------
# regular radial factor
# ----------------------------------------------------------------------

def test_regular_psi_matches_downward_recurrence():
    for x in (0.4, 1.0, 3.7, 12.0):
        oracle = bessel_psi_downward(8, x)
        for l in range(9):
            assert regular_psi(l, x) == pytest.approx(oracle[l], rel=1e-12, abs=1e-15)


def test_regular_psi_small_argument_power_law():
    # psi_l(x) ~ x^(l+1) / (2l+1)!! as x -> 0
    x = 1e-3
    for l in range(5):
        dfact = math.prod(range(2 * l + 1, 0, -2)) if l else 1
        assert regular_psi(l, x) == pytest.approx(x ** (l + 1) / dfact, rel=1e-5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_regular_psi_rejects_arguments_that_are_not_finite_and_positive(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"x must be finite and positive, got {bad!r}"):
            regular_psi(3, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            regular_psi(3, np.array([1.0, bad]))


def test_regular_psi_ode():
    l, x = 3, 2.4
    h = 1e-3

    def second(hh):
        return (regular_psi(l, x + hh) - 2 * regular_psi(l, x) + regular_psi(l, x - hh)) / hh**2

    d2 = (4 * second(h / 2) - second(h)) / 3
    assert d2 == pytest.approx(-(1 - l * (l + 1) / x**2) * regular_psi(l, x), rel=1e-8)


def _scipy_psi_y(l_max, x):
    ls = np.arange(l_max + 1)
    return x * spherical_jn(ls, x), spherical_yn(ls, x)


def test_radial_table_matches_scipy():
    # errors in units of the local size: |h_l| x in the oscillatory region
    # l < x, |x j_l| itself where it decays; SciPy's own x j_l is off by up
    # to 1.2e-13 relative there (against mpmath), hence 5e-13
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(0.3, 120.0, 40), [0.3, np.pi, 2 * np.pi, 10 * np.pi, 120.0]])
    ls = np.arange(101)
    for x in xs:
        psi, y = _radial_table(100, x)
        psi_ref, y_ref = _scipy_psi_y(100, x)
        envelope = np.hypot(psi_ref, x * y_ref)
        psi_scale = np.where(ls < x, envelope, np.abs(psi_ref))
        assert np.all(np.abs(psi - psi_ref) <= 5e-13 * psi_scale), x
        assert np.all(np.abs(x * (y - y_ref)) <= 1e-13 * envelope), x
    # the upward x h_l = i^-(l+1) chi_l(-i x): both parts to the same
    # envelope, the minimal real part past l ~ x only in that absolute sense
    phases = np.array([1, -1j, -1, 1j])[(ls + 1) % 4]
    for x, hankel in zip(xs, _chi_table(100, -1j * xs).T * phases):
        psi_ref, y_ref = _scipy_psi_y(100, x)
        envelope = np.hypot(psi_ref, x * y_ref)
        assert np.all(np.abs(hankel - (psi_ref + 1j * x * y_ref)) <= 1e-13 * envelope), x


def test_radial_table_underflow_side_matches_scipy():
    # x << l: the downward pass runs on ratios, so nothing overflows, and
    # values below the float64 range come out zero
    for x in np.geomspace(1e-3, 0.3, 15):
        psi, y = _radial_table(100, x)
        psi_ref, y_ref = _scipy_psi_y(100, x)
        normal = np.abs(psi_ref) > 1e-280
        assert np.all(np.abs(psi - psi_ref)[normal] <= 5e-13 * np.abs(psi_ref[normal])), x
        assert np.all(np.abs(psi[~normal]) < 1e-270)
        finite = np.isfinite(y_ref)
        assert np.all(np.abs(y[finite] - y_ref[finite]) <= 1e-13 * np.abs(y_ref[finite])), x
        assert np.array_equal(y[~finite], y_ref[~finite])


def test_radial_table_regular_matches_mpmath():
    for x, l_max in ((1e-3, 60), (0.0324, 100), (2.5, 30), (17.25, 100), (120.0, 100)):
        psi = _radial_table(l_max, x)[0]
        for l in range(0, l_max + 1, 3):
            with mpmath.workdps(40):
                ref = float(
                    mpmath.sqrt(mpmath.pi * mpmath.mpf(x) / 2) * mpmath.besselj(l + 0.5, x)
                )
            # below l = x the envelope |x h_l(x)| is at least 1
            scale = max(abs(ref), 1.0) if l < x else abs(ref)
            if scale > 1e-280:
                assert abs(psi[l] - ref) <= 1e-14 * scale * max(1.0, l / 10), (x, l)


def test_radial_table_above_l_max_matches_mpmath():
    # x > l_max puts every degree below the turning point l ~ x, where x j_l
    # comes upward from sin x; errors are measured against |x h_l(x)|
    cases = [(l_max, math.nextafter(float(l_max), math.inf)) for l_max in (1, 4, 30, 150)]
    cases += [(30, 30.5), (150, 300.0), (12, 1e3), (4, 1e7), (2, 12345.678)]
    for l_max, x in cases:
        psi, y = _radial_table(l_max, x)
        with mpmath.workdps(40):
            for l in range(l_max + 1):
                half = mpmath.sqrt(mpmath.pi * mpmath.mpf(x) / 2)
                ref_j = half * mpmath.besselj(l + 0.5, x)
                ref_y = half * mpmath.bessely(l + 0.5, x)
                envelope = float(mpmath.sqrt(ref_j**2 + ref_y**2))
                assert abs(psi[l] - float(ref_j)) <= 1e-14 * envelope, (x, l)
                assert abs(x * y[l] - float(ref_y)) <= 1e-13 * envelope, (x, l)


def test_radial_table_at_array_x_stacks_the_scalar_calls():
    # one pass over the degrees for arguments on both sides of l_max: the
    # Miller start is shared, which moves a converged ratio by an ulp at most
    xs = np.array([[1e-3, 0.5, 3.0, 17.25], [29.5, 31.0, 55.0, 120.0]])
    for l_max in (0, 1, 5, 30, 100):
        psi, y = _radial_table(l_max, xs)
        assert psi.shape == y.shape == (l_max + 1, *xs.shape)
        for idx in np.ndindex(xs.shape):
            psi_1, y_1 = _radial_table(l_max, xs[idx])
            assert np.all(np.abs(psi[(slice(None), *idx)] - psi_1) <= 1e-15 * np.abs(psi_1))
            assert np.array_equal(y[(slice(None), *idx)], y_1)
    c = np.array([[0.3, -1.0], [0.999, 0.0]])
    table = _legendre_table(40, c)
    assert table.shape == (41, 2, 2)
    for idx in np.ndindex(c.shape):
        assert np.array_equal(table[(slice(None), *idx)], _legendre_table(40, c[idx]))


def test_hard_sphere_model_at_huge_ka_returns_promptly():
    # x = k a far above l_max, where a Miller start loop would take about x
    # steps; the timeout only guards against a hang
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from nearfield.amplitudes import hard_sphere_model\n"
        "for args in ((1.0, 1e300, 4), (1, 1e7, 2)):\n"
        "    m = hard_sphere_model(*args)\n"
        "    assert m.l_max == args[2] and m.unitarity_defect() < 1e-14\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_legendre_table_matches_scipy():
    ls = np.arange(151)
    assert np.array_equal(_legendre_table(150, 1.0), np.ones(151))
    assert np.array_equal(_legendre_table(150, -1.0), (-1.0) ** ls)
    for c in (0.0, -0.93, -0.41, 0.07, 0.5, 0.999):
        assert np.max(np.abs(_legendre_table(150, c) - eval_legendre(ls, c))) <= 5e-14, c


def test_legendre_table_is_the_bonnet_loop_bitwise():
    # the recurrence as written before it ran in place: each step a fresh array
    def reference(l_max, c):
        c = np.asarray(c, dtype=float)
        out = np.empty((l_max + 1, *c.shape))
        lower, p = 0.0, np.ones_like(c)
        out[0] = p
        for l in range(l_max):
            lower, p = p, ((2 * l + 1) * c * p - l * lower) / (l + 1)
            out[l + 1] = p
        return out

    c = np.array([-1.0, -0.93, -0.0, 0.0, 0.07, 0.5, 0.999, 1.0])
    for l_max in (0, 1, 2, 7, 60, 170):
        assert np.array_equal(_legendre_table(l_max, c), reference(l_max, c))
        assert np.array_equal(_legendre_table(l_max, 0.3), reference(l_max, 0.3))
    assert _legendre_table(0, np.ones((2, 3))).shape == (1, 2, 3)


def test_regular_psi_rejects_nonpositive():
    with pytest.raises(ValueError):
        regular_psi(2, 0.0)
    with pytest.raises(ValueError):
        regular_psi(2, -1.0)


# ----------------------------------------------------------------------
# spherical harmonics and mode bookkeeping
# ----------------------------------------------------------------------

def test_sph_harm_pole_and_conjugation(rng):
    zhat = np.array([0.0, 0.0, 1.0])
    for l in range(5):
        assert sph_harm(l, 0, zhat) == pytest.approx(
            math.sqrt((2 * l + 1) / (4 * math.pi)), rel=1e-14
        )
        for m in range(1, l + 1):
            assert abs(sph_harm(l, m, zhat)) < 1e-15
    nhat = unit_from_angles(1.1, 2.4)
    for l in range(4):
        for m in range(-l, l + 1):
            # Condon-Shortley pairing of +-m
            lhs = sph_harm(l, -m, nhat)
            rhs = (-1) ** m * np.conj(sph_harm(l, m, nhat))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


def test_sph_harm_addition_theorem(rng):
    for _ in range(4):
        nhat = unit_from_angles(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        for l in range(6):
            total = sum(abs(sph_harm(l, m, nhat)) ** 2 for m in range(-l, l + 1))
            assert total == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-13)


def test_sph_harm_validates_mode():
    nhat = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sph_harm(2, 3, nhat)
    with pytest.raises(ValueError):
        sph_harm(-1, 0, nhat)


def test_mode_index_round_trip():
    modes = mode_list(6)
    assert len(modes) == 49
    for i, (l, m) in enumerate(modes):
        assert mode_index(l, m) == i
    degrees = mode_degrees(6)
    assert degrees.shape == (49,)
    assert [int(d) for d in degrees[:5]] == [0, 1, 1, 1, 2]


def test_ylm_table_matches_pointwise(rng):
    theta = rng.uniform(0.1, np.pi - 0.1, 5)
    phi = rng.uniform(0.0, 2 * np.pi, 5)
    table = ylm_table(3, theta, phi)
    assert table.shape == (16, 5)
    for i, (l, m) in enumerate(mode_list(3)):
        for p in range(5):
            nhat = unit_from_angles(theta[p], phi[p])
            assert table[i, p] == pytest.approx(sph_harm(l, m, nhat), rel=1e-13, abs=1e-15)


def _scipy_table(l_max, theta, phi):
    ls = mode_degrees(l_max)
    ms = np.arange(ls.size) - ls * ls - ls
    return sph_harm_y(ls[:, None], ms[:, None], theta[None, :], phi[None, :])


@pytest.mark.parametrize("l_max", [0, 1, 2, 6, 20, 40, 75])
def test_ylm_table_matches_scipy(l_max):
    rng = np.random.default_rng(l_max)
    theta = np.concatenate([[0.0, np.pi], np.arccos(rng.uniform(-1.0, 1.0, 30))])
    phi = rng.uniform(0.0, 2 * np.pi, theta.size)
    ref = _scipy_table(l_max, theta, phi)
    table = ylm_table(l_max, theta, phi)
    assert table.shape == ref.shape
    # largest error seen over five seeds: 1.4e-14 of the table maximum
    assert np.max(np.abs(table - ref)) <= 3e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("l_max", [2, 6, 20, 75])
def test_ylm_directions_match_scipy(l_max):
    rng = np.random.default_rng(100 + l_max)
    nhat = rng.normal(size=(30, 3)) * rng.uniform(0.5, 3.0, (30, 1))
    nhat[0], nhat[1] = (0.0, 0.0, 2.0), (0.0, 0.0, -0.5)
    theta, phi = angles_from_unit(nhat)
    ref = _scipy_table(l_max, theta, phi)
    # SciPy sees the rounded angles: up to 2.4e-14 of the maximum over five seeds
    assert np.max(np.abs(ylm_directions(l_max, nhat) - ref)) <= 5e-14 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        ylm_directions(l_max, np.zeros(3))


@pytest.mark.parametrize("l_max", [0, 1, 3, 6, 12])
def test_small_table_path_matches_vectorized_path(l_max):
    rng = np.random.default_rng(l_max)
    nhat = rng.normal(size=(6, 3))
    nhat[0] = (0.0, 0.0, -1.0)
    r = np.linalg.norm(nhat, axis=1)
    c, w = nhat[:, 2] / r, (nhat[:, 0] + 1j * nhat[:, 1]) / r
    vectorized = _ylm_vectorized(l_max, c, w)
    small = np.array([_ylm_point(l_max, ci, wi) for ci, wi in zip(c.tolist(), w.tolist())]).T
    # the same operations in the same order: the same values
    np.testing.assert_array_equal(small, vectorized)
    assert ylm_directions(l_max, np.zeros((0, 3))).shape == ((l_max + 1) ** 2, 0)
    # the public entry points switch paths by table size, one point at a time
    for p in range(nhat.shape[0]):
        assert _few_directions(l_max, 1)
        one = ylm_directions(l_max, nhat[p])
        assert one.shape == ((l_max + 1) ** 2, 1)
        np.testing.assert_array_equal(one[:, 0], vectorized[:, p])


def test_unit_angle_round_trip(rng):
    for _ in range(10):
        theta, phi = rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.0, 2 * np.pi)
        nhat = unit_from_angles(theta, phi)
        assert np.linalg.norm(nhat) == pytest.approx(1.0, rel=1e-15)
        t2, p2 = angles_from_unit(nhat)
        assert float(t2) == pytest.approx(theta, abs=1e-12)
        assert float(p2) % (2 * np.pi) == pytest.approx(phi % (2 * np.pi), abs=1e-12)
    with pytest.raises(ValueError):
        angles_from_unit(np.zeros(3))


# ----------------------------------------------------------------------
# sphere quadrature
# ----------------------------------------------------------------------

def test_grid_weights_sum_to_sphere_area():
    grid = gauss_legendre_sphere(5)
    assert isinstance(grid, AngularGrid)
    assert grid.weights.sum() == pytest.approx(4 * np.pi, rel=1e-14)
    assert grid.n_nodes == 6 * 11


def test_grid_exact_for_mode_pairs():
    order = 7
    grid = gauss_legendre_sphere(order)
    table = ylm_table(3, grid.theta, grid.phi)
    gram = np.einsum("ap,p,bp->ab", np.conj(table), grid.weights, table)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-14


def test_grid_integrates_smooth_function():
    grid = gauss_legendre_sphere(6)
    x, y, z = grid.points.T
    assert grid.integrate(x**2 + y**2 + z**2) == pytest.approx(4 * np.pi, rel=1e-14)
    assert grid.integrate(z**2) == pytest.approx(4 * np.pi / 3, rel=1e-13)
    # the last axis runs over the nodes: a scalar has none
    for samples in (3.0, np.ones(grid.n_nodes - 1), np.ones((grid.n_nodes, 2))):
        with pytest.raises(ValueError, match="sample count does not match grid"):
            grid.integrate(samples)


def _gauss_legendre_reference(n, nodes):
    """40-digit roots of ``P_n`` by Newton's method from ``nodes``, with weights."""
    with mpmath.workdps(40):
        roots, weights = [], []
        for x0 in nodes:
            x = mpmath.mpf(float(x0))
            for _ in range(4):
                p, lower = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                slope = n * (lower - x * p) / (1 - x * x)
                x -= p / slope
            p, lower = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            slope = n * (lower - x * p) / (1 - x * x)
            roots.append(x)
            weights.append(2 / ((1 - x * x) * slope**2))
        return roots, weights


@pytest.mark.parametrize("n", [21, 45, 85, 155, 205])
def test_gauss_legendre_rule_matches_forty_digits(n):
    x, w = _gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # the rule is symmetric, so the nonnegative half is checked
    half = x[n // 2 :]
    roots, weights = _gauss_legendre_reference(n, half)
    for node, weight, root, ref in zip(half, w[n // 2 :], roots, weights):
        assert abs(mpmath.mpf(float(node)) - root) <= 2 * np.spacing(float(abs(root)) or 1.0)
        assert abs((mpmath.mpf(float(weight)) - ref) / ref) <= 1e-12


@pytest.mark.parametrize("l_max", [20, 40, 75, 100])
def test_default_grid_polar_nodes_keep_legendre_orthonormality(l_max):
    # the polar nodes of the default grid, order 2 l_max + 4; leggauss nodes
    # left this Gram matrix off the identity by 7e-14 to 6.4e-13
    n = 2 * l_max + 5
    x, w = _gauss_legendre(n)
    grid = gauss_legendre_sphere(n - 1)
    assert np.array_equal(grid.theta[:: 2 * n - 1], np.arccos(x))
    p = _legendre_table(l_max, x) * np.sqrt(np.arange(l_max + 1) + 0.5)[:, None]
    gram = (p * w) @ p.T
    assert np.max(np.abs(gram - np.eye(l_max + 1))) <= 2e-14


def test_angular_grid_is_the_gauss_legendre_grid_of_its_order():
    grid = AngularGrid(4)
    assert grid == gauss_legendre_sphere(4) == AngularGrid(np.int64(4))
    assert hash(grid) == hash(gauss_legendre_sphere(4)) and grid != AngularGrid(5)
    assert type(AngularGrid(np.int64(4)).order) is int
    # the cached, read-only arrays of the order, not copies
    cached = _sphere_grid_arrays(4)
    assert all(a is b for a, b in zip((grid.theta, grid.phi, grid.weights), cached))
    assert not grid.weights.flags.writeable
    # the order is the one input (refused orders: INTEGER_ARGUMENTS in test_wronskian.py)
    with pytest.raises(TypeError):
        AngularGrid(4, grid.theta, grid.phi, grid.weights)


def test_grid_requires_positive_order():
    with pytest.raises(ValueError):
        gauss_legendre_sphere(0)
