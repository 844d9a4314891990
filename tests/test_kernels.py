"""Contraction kernels and double-double quadrature primitives."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nearfield import _dd, _kernels
from nearfield._dd import (
    dd_add,
    dd_div,
    dd_from_fraction,
    dd_mul,
    dd_sqrt,
    dd_sub,
    gauss_legendre_nodes_dd,
    sphere_mode_gram,
    two_prod,
    two_sum,
)
from nearfield.special import gauss_legendre_sphere, mode_list, ylm_table


def _random_problem(rng, n_modes, n_points):
    g = rng.standard_normal((n_modes, n_points)) + 1j * rng.standard_normal(
        (n_modes, n_points)
    )
    w = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal(
        (n_modes, n_modes)
    )
    w = w + w.conj().T  # hermitian pair matrix, like the real workload
    return g, w


# ----------------------------------------------------------------------
# NumPy contraction kernels
# ----------------------------------------------------------------------

def test_quadratic_form_matches_explicit_sum(rng):
    g, w = _random_problem(rng, 9, 40)
    ref = np.array(
        [
            sum(np.conj(g[a, p]) * w[a, b] * g[b, p] for a in range(9) for b in range(9))
            for p in range(40)
        ]
    )
    got = _kernels.quadratic_form(g, w)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)
    assert np.max(np.abs(got.imag)) < 1e-10 * np.max(np.abs(got))


def test_quadratic_form_stays_real_on_real_input(rng):
    g, w = _random_problem(rng, 6, 12)
    got = _kernels.quadratic_form(np.abs(g), np.abs(w))
    assert got.dtype == np.float64
    ref = _kernels.quadratic_form(np.abs(g).astype(complex), np.abs(w).astype(complex))
    assert np.allclose(got, ref.real, rtol=1e-14, atol=0.0)


def test_weighted_pair_sum_matches_explicit_sum(rng):
    n = 25
    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    _, w = _random_problem(rng, n, 1)
    _, gram = _random_problem(rng, n, 1)
    ref = sum(
        np.conj(coeff[a]) * coeff[b] * w[a, b] * gram[a, b]
        for a in range(n)
        for b in range(n)
    )
    assert _kernels.weighted_pair_sum(coeff, w, gram) == pytest.approx(ref, rel=1e-13)


def test_kernel_shape_validation(rng):
    g, w = _random_problem(rng, 4, 10)
    with pytest.raises(ValueError):
        _kernels.quadratic_form(g, w[:3, :3])
    with pytest.raises(ValueError):
        _kernels.weighted_pair_sum(np.ones(4, complex), w[:3, :3], w)


# ----------------------------------------------------------------------
# double-double primitives
# ----------------------------------------------------------------------

def test_two_sum_is_exact(rng):
    for _ in range(200):
        a = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        b = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        s, e = two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_prod_is_exact(rng):
    for _ in range(200):
        a = float(rng.standard_normal())
        b = float(rng.standard_normal())
        p, e = two_prod(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def _dd_to_mpf(x):
    return mpmath.mpf(float(x[0])) + mpmath.mpf(float(x[1]))


def test_dd_arithmetic_against_mpmath(rng):
    with mpmath.workdps(50):
        for _ in range(50):
            a = dd_from_fraction(Fraction(int(rng.integers(1, 10**12)), 10**6))
            b = dd_from_fraction(Fraction(int(rng.integers(1, 10**12)), 7**5))
            ma, mb = _dd_to_mpf(a), _dd_to_mpf(b)
            for op, mop in (
                (dd_add, lambda x, y: x + y),
                (dd_sub, lambda x, y: x - y),
                (dd_mul, lambda x, y: x * y),
                (dd_div, lambda x, y: x / y),
            ):
                got = _dd_to_mpf(op(a, b))
                want = mop(ma, mb)
                assert abs(got - want) <= mpmath.mpf("1e-30") * abs(want)
            got = _dd_to_mpf(dd_sqrt(a))
            assert abs(got - mpmath.sqrt(ma)) <= mpmath.mpf("1e-30") * mpmath.sqrt(ma)


def test_dd_from_fraction_keeps_32_digits():
    fr = Fraction(1, 3)
    hi, lo = dd_from_fraction(fr)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(hi) + mpmath.mpf(lo) - mpmath.mpf(1) / 3)
        assert err < mpmath.mpf("1e-32")


def test_dd_constants_are_the_50_digit_roundings():
    with mpmath.workdps(50):
        for stored, exact in (
            (_dd._TWO_PI, 2 * mpmath.pi),
            (_dd._Y00, 1 / mpmath.sqrt(4 * mpmath.pi)),
        ):
            hi = float(exact)
            lo = float(exact - mpmath.mpf(hi))
            assert stored[0] == hi and stored[1] == lo


# ----------------------------------------------------------------------
# extended-precision quadrature
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_gauss_legendre_nodes_dd_match_float_seeds(n):
    x, w = gauss_legendre_nodes_dd(n)
    seed_x, seed_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x[0] - seed_x)) < 1e-14
    assert np.max(np.abs(w[0] - seed_w)) < 1e-14
    # weights sum to exactly 2 at double-double accuracy
    total_hi, total_lo = 0.0, 0.0
    for i in range(n):
        total_hi, carry = two_sum(total_hi, w[0][i])
        total_lo += carry + w[1][i]
    assert abs((total_hi - 2.0) + total_lo) < 1e-29
    with pytest.raises(ValueError):
        gauss_legendre_nodes_dd(0)


def test_gauss_legendre_nodes_dd_integrate_monomials():
    # degree-9 polynomial integrated exactly by 5 nodes, checked in mpmath
    x, w = gauss_legendre_nodes_dd(5)
    with mpmath.workdps(40):
        for p in (0, 2, 4, 8):
            acc = mpmath.mpf(0)
            for i in range(5):
                xi = mpmath.mpf(x[0][i]) + mpmath.mpf(x[1][i])
                wi = mpmath.mpf(w[0][i]) + mpmath.mpf(w[1][i])
                acc += wi * xi**p
            exact = mpmath.mpf(2) / (p + 1)
            assert abs(acc - exact) < mpmath.mpf("1e-30")


def test_sphere_mode_gram_is_identity_when_resolved():
    l_max = 4
    gram = sphere_mode_gram(2 * l_max, l_max)
    n = (l_max + 1) ** 2
    assert gram.shape == (n, n)
    assert np.max(np.abs(gram - np.eye(n))) < 1e-13


def test_sphere_mode_gram_matches_float_quadrature():
    # the collapse to complex128 must agree with a plain float64 build of
    # the same Gram matrix wherever float64 is adequate
    order, l_max = 6, 3
    grid = gauss_legendre_sphere(order)
    table = ylm_table(l_max, grid.theta, grid.phi)
    ref = (table * grid.weights) @ table.conj().T
    got = sphere_mode_gram(order, l_max)
    assert np.max(np.abs(got - ref.conj())) < 1e-13
    assert len(mode_list(l_max)) == got.shape[0]


def test_sphere_mode_gram_validation():
    with pytest.raises(ValueError):
        sphere_mode_gram(-1, 2)
    with pytest.raises(ValueError):
        sphere_mode_gram(4, -2)
