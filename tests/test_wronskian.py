"""Two-mode radial overlaps: exact Laurent data, checked against the conftest oracles."""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nearfield import amplitudes, flux, greens, special, wronskian
from nearfield.special import FluxDomainError, _gauss_legendre
from nearfield.wronskian import (
    _STACK_ENTRIES,
    WronskianSeries,
    _laurent_stack,
    _pair_rule,
    _pair_stack,
    half_wronskian_exact,
    integral_representation_check,
    laurent_coefficients,
    pair_matrix,
    wronskian_series,
)

from conftest import laurent_oracle, pair_factor_oracle, series_product_oracle, unitary_amplitude


def _series_as_laurent(j: int, l: int) -> tuple[Fraction, ...]:
    # rebuild the Laurent coefficients in u = 1/(2z) from the series fields:
    # constant + prefactor * sum_n a_n u^(n+1) / (n+1)
    series = wronskian_series(j, l)
    top = max((n + 1 for n, _ in series.correction), default=0)
    out = [Fraction(0)] * (top + 1)
    out[0] = series.constant_term
    for n, a_n in series.correction:
        out[n + 1] += Fraction(series.prefactor) * a_n / (n + 1)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# ----------------------------------------------------------------------
# exact identities
# ----------------------------------------------------------------------

def test_dual_route_coefficients_identical():
    # the Laurent coefficients against the term-integrated series fields,
    # exact rational equality
    for j in range(13):
        for l in range(13):
            assert laurent_coefficients(j, l) == _series_as_laurent(j, l)


def test_diagonal_is_exactly_one():
    for l in range(11):
        assert laurent_coefficients(l, l) == (Fraction(1),)
        series = wronskian_series(l, l)
        assert series.prefactor == 0
        assert series.correction == ()


def test_closed_forms_low_orders():
    # a_0 = 1, a_1 = delta, a_2 = delta^2/2 - upsilon,
    # a_3 = delta (delta^2 - 8 upsilon + 12) / 6
    for j in range(9):
        for l in range(9):
            if j == l:
                continue
            series = wronskian_series(j, l)
            delta = Fraction(j * (j + 1) - l * (l + 1))
            upsilon = Fraction(j * (j + 1) + l * (l + 1))
            coeffs = dict(series.correction)
            assert series.prefactor == delta
            assert coeffs[0] == 1
            if j + l >= 1:
                assert coeffs[1] == delta
            if j + l >= 2:
                assert coeffs[2] == delta**2 / 2 - upsilon
            if j + l >= 3:
                assert coeffs[3] == delta * (delta**2 - 8 * upsilon + 12) / 6


def test_reference_tables_degree_three():
    tables = {
        0: [1, -12, 60, -120],
        1: [1, -10, 36, 0, -240],
        2: [1, -6, 0, 96, 0, -1440],
    }
    for j, expect in tables.items():
        series = wronskian_series(j, 3)
        got = [a for _, a in series.correction]
        assert got == expect
        assert len(got) == 3 + j + 1


def test_simplest_off_diagonal_closed_form():
    # overlap of the two lowest modes: 1 + 1/z + 1/(2 z^2)
    for z in (0.7, 1.0 + 0.5j, -2.0 + 3.0j):
        expect = 1 + 1 / z + 1 / (2 * z**2)
        assert half_wronskian_exact(1, 0, z) == pytest.approx(expect, rel=1e-14)


def test_top_laurent_coefficient_structure():
    # leading u-power is u^(j+l+1); its coefficient must be nonzero for
    # off-diagonal pairs
    for j, l in ((0, 3), (2, 5), (4, 1)):
        coeffs = laurent_coefficients(j, l)
        assert len(coeffs) == j + l + 2
        assert coeffs[-1] != 0


# ----------------------------------------------------------------------
# numerical evaluation
# ----------------------------------------------------------------------

def test_series_evaluate_matches_exact(rng):
    for _ in range(10):
        j = int(rng.integers(0, 7))
        l = int(rng.integers(0, 7))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 0.3:
            z += 1.0
        series = wronskian_series(j, l)
        assert series.evaluate(z) == half_wronskian_exact(j, l, z)


def test_series_evaluate_truncates_the_same_horner_sum():
    # n_terms corrections: the constant and the first n_terms coefficients
    # of u**(n+1), whatever the order past the last one
    series = wronskian_series(4, 2)
    z = 0.7 - 1.3j
    u = 1.0 / (2.0 * z)
    coeffs = wronskian._laurent_float(2, 4)
    for n_terms in (0, 1, 3, series.n_terms, series.n_terms + 4):
        expect = 0j
        for c in coeffs[: n_terms + 1][::-1]:
            expect = expect * u + c
        assert series.evaluate(z, n_terms) == expect
    assert series.evaluate(z, 0) == 1.0
    with pytest.raises(ValueError, match="n_terms"):
        series.evaluate(2.0, n_terms=-5)


@pytest.mark.parametrize(
    "evaluate, match",
    [
        # a coefficient past float64, not a bare OverflowError
        (lambda: wronskian_series(76, 75).evaluate(-50j), r"j=76, l=75\) at \|z\|=50 "),
        # the value past float64, not a warning and inf or nan
        (lambda: half_wronskian_exact(40, 39, 1e-3), r"j=40, l=39\) at \|z\|=0.001 "),
        (lambda: wronskian_series(40, 39).evaluate(1e-3), r"j=40, l=39\) at \|z\|=0.001 "),
        (lambda: half_wronskian_exact(40, 39, np.array([2.0j, -1e-3j])), r"\|z\|=0.001 "),
    ],
)
def test_pair_factor_overflow_raises_typed_error_without_warnings(evaluate, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError, match=match):
            evaluate()


@pytest.mark.parametrize(
    "evaluate, match",
    [
        (
            lambda: half_wronskian_exact(1, 2, np.nan),
            r"^HW\(j=1, l=2\) needs a finite, nonzero z, got z=nan$",
        ),
        (lambda: half_wronskian_exact(1, 2, complex(np.inf, 1.0)), r"got z=\(inf\+1j\)"),
        (lambda: half_wronskian_exact(3, 0, np.array([2.0j, np.nan])), r"got z=\(nan\+0j\)"),
        (lambda: half_wronskian_exact(3, 0, np.array([2.0j, 0.0])), "got z=0j"),
        (lambda: wronskian_series(1, 2).evaluate(-np.inf), "got z=-inf"),
        (lambda: wronskian_series(2, 2).evaluate(np.nan, 0), "got z=nan"),
        (lambda: pair_matrix(3, complex(0, np.nan)), r"^pair_matrix needs a finite, nonzero z, got z=nanj$"),
        (lambda: pair_matrix(3, complex(0, np.inf)), r"got z=infj$"),
        (lambda: pair_matrix(3, 0j), r"got z=0j$"),
    ],
)
def test_pair_factor_at_a_point_that_is_not_finite_names_it(evaluate, match):
    # a ValueError naming z, not a FluxDomainError about the float64 limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as info:
            evaluate()
    assert info.type is ValueError


# Every integer argument of a public function, constructor or method, read by
# ``special._integer``: (function, parameter, call with that argument, a valid
# value, its minimum).  ``tests/test_public_api.py`` fails for a public
# callable whose degree, order or count parameter is missing here.
_F, _CS, _ = unitary_amplitude(2, 3, seed=5)
_NHAT = np.array([0.6, 0.0, 0.8])
_QUERY = greens.GreensQuery(k=1.0, R_vec=np.array([0.0, 3.0, 4.0]), x_vec=np.array([0.3, 0.0, 0.4]))
INTEGER_ARGUMENTS = [
    (special.chi, "l", lambda v: special.chi(v, 1.5j), 2, 0),
    (special.chi_coefficient, "l", lambda v: special.chi_coefficient(v, 1), 3, 0),
    (special.chi_coefficient, "s", lambda v: special.chi_coefficient(3, v), 2, 0),
    (special.chi_terms, "l_max", lambda v: special.chi_terms(v, 2, 0.1), 2, 0),
    (special.chi_terms, "s_max", lambda v: special.chi_terms(3, v, 0.1), 2, 0),
    (special.regular_psi, "l", lambda v: special.regular_psi(v, 1.0), 2, 0),
    (special.sph_harm, "l", lambda v: special.sph_harm(v, 1, _NHAT), 2, 0),
    (special.sph_harm, "m", lambda v: special.sph_harm(2, v, _NHAT), 1, -2),
    (special.mode_index, "l", lambda v: special.mode_index(v, 1), 2, 0),
    (special.mode_index, "m", lambda v: special.mode_index(2, v), 1, -2),
    (special.mode_list, "l_max", special.mode_list, 2, 0),
    (special.mode_degrees, "l_max", special.mode_degrees, 2, 0),
    (special.ylm_table, "l_max", lambda v: special.ylm_table(v, [0.3, 1.0], [0.2, 4.0]), 2, 0),
    (special.ylm_directions, "l_max", lambda v: special.ylm_directions(v, _NHAT), 2, 0),
    (special.gauss_legendre_sphere, "order",
     lambda v: special.gauss_legendre_sphere(v).weights, 2, 1),
    (special.AngularGrid, "order", lambda v: special.AngularGrid(v).weights, 2, 1),
    (amplitudes.PartialWaveAmplitude.coefficient, "l", lambda v: _F.coefficient("c0", v, 1), 2, 0),
    (amplitudes.PartialWaveAmplitude.coefficient, "m", lambda v: _F.coefficient("c0", 2, v), 1, -2),
    (amplitudes.PartialWaveAmplitude.rows, "l_max", lambda v: _F.rows(["c0", "c1"], v), 2, 0),
    (amplitudes.PartialWaveAmplitude.dense, "l_max", lambda v: _F.dense("c0", v), 2, 0),
    (amplitudes.apply_angular_operator, "power",
     lambda v: amplitudes.apply_angular_operator(_F, v).table, 1, 1),
    (amplitudes.h_coefficient, "s", lambda v: amplitudes.h_coefficient(_F, v).table, 2, 1),
    (amplitudes.scattered_wave_series, "s_max",
     lambda v: amplitudes.scattered_wave_series(_F, _CS, "c0", 3.0, _NHAT, v), 1, 0),
    (amplitudes.random_unitary_smatrix, "n_channels",
     lambda v: amplitudes.random_unitary_smatrix(v, 2, 7).stack, 2, 1),
    (amplitudes.random_unitary_smatrix, "l_max",
     lambda v: amplitudes.random_unitary_smatrix(2, v, 7).stack, 2, 0),
    (amplitudes.hard_sphere_model, "l_max",
     lambda v: amplitudes.hard_sphere_model(1.0, 2.0, v).stack, 3, 0),
    (greens.greens_multipole, "l_max", lambda v: greens.greens_multipole(_QUERY, v), 2, 0),
    (greens.greens_asymptotic, "s_max", lambda v: greens.greens_asymptotic(_QUERY, v, 4), 2, 0),
    (greens.greens_asymptotic, "l_max", lambda v: greens.greens_asymptotic(_QUERY, 2, v), 4, 0),
    (flux.differential_flux_asymptotic, "order",
     lambda v: flux.differential_flux_asymptotic(_F, _CS, 2.0, _NHAT, v), 3, 0),
    (flux.flux_correction_term, "order",
     lambda v: flux.flux_correction_term(_F, _CS, 2.0, _NHAT, v), 2, 1),
    (half_wronskian_exact, "j", lambda v: half_wronskian_exact(v, 1, -2j), 3, 0),
    (half_wronskian_exact, "l", lambda v: half_wronskian_exact(3, v, -2j), 1, 0),
    (laurent_coefficients, "j", lambda v: laurent_coefficients(v, 1), 3, 0),
    (laurent_coefficients, "l", lambda v: laurent_coefficients(3, v), 1, 0),
    (wronskian_series, "j", lambda v: wronskian_series(v, 1), 3, 0),
    (wronskian_series, "l", lambda v: wronskian_series(3, v), 1, 0),
    (integral_representation_check, "j", lambda v: integral_representation_check(v, 1, 1.5), 2, 0),
    (integral_representation_check, "l", lambda v: integral_representation_check(2, v, 1.5), 1, 0),
    (pair_matrix, "l_max", lambda v: pair_matrix(v, -2j), 3, 0),
    (WronskianSeries.evaluate, "n_terms", lambda v: wronskian_series(3, 1).evaluate(-2j, v), 2, 0),
    # a series stores its degrees, and ``evaluate`` reads them
    (WronskianSeries, "j", lambda v: replace(wronskian_series(3, 1), j=v).evaluate(-2j), 3, 0),
    (WronskianSeries, "l", lambda v: replace(wronskian_series(3, 1), l=v).evaluate(-2j), 1, 0),
]


def _refusals():
    """A float, a NumPy float, ``True``, a fraction and a value below the minimum, per row."""
    for function, parameter, call, valid, minimum in INTEGER_ARGUMENTS:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        for bad, rule in (
            (2.0, "an integer, got 2.0"),
            (np.float64(2), "an integer, got " + repr(np.float64(2))),
            (True, "an integer, got True"),
            (valid + 0.5, f"an integer, got {valid + 0.5}"),
            (minimum - 1, f"{bound}, got {minimum - 1}"),
        ):
            match = rf"\b{parameter} must be {re.escape(rule)}"
            yield pytest.param(
                lambda call=call, bad=bad: call(bad), match,
                id=f"{function.__qualname__}-{parameter}-{bad!r}",
            )


@pytest.mark.parametrize(
    "call, match",
    [
        *_refusals(),
        (lambda: wronskian_series(2, 2.0), r"mode degree l must be an integer, got 2.0"),
        (lambda: wronskian_series(np.float64(1), 2), "mode degree j must be an integer"),
        (lambda: laurent_coefficients(2.5, 1), r"mode degree j must be an integer, got 2.5"),
        (lambda: laurent_coefficients(1, -1), r"mode degree l must be non-negative, got -1"),
        (lambda: half_wronskian_exact(2.0, 1, -2j), "mode degree j must be an integer"),
        (lambda: half_wronskian_exact(True, 1, -2j), r"mode degree j must be an integer, got True"),
        (lambda: pair_matrix(True, -1j), r"l_max must be an integer, got True"),
        (lambda: pair_matrix(2.0, -1j), r"l_max must be an integer, got 2.0"),
        (lambda: pair_matrix(-1, -1j), r"l_max must be non-negative, got -1"),
        (lambda: wronskian_series(3, 1).evaluate(-2j, 1.5), r"n_terms must be an integer, got 1.5"),
        (lambda: wronskian_series(3, 1).evaluate(-2j, False), "n_terms must be an integer"),
        (lambda: wronskian_series(3, 1).evaluate(-2j, -5), "n_terms must be non-negative"),
        (lambda: WronskianSeries(3, 1.0, Fraction(1), 0, ()).evaluate(-2j), "mode degree l"),
        (lambda: integral_representation_check(1, False, 1.5), "mode degree l must be an integer"),
    ],
)
def test_degrees_and_term_counts_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _bits(value):
    """``value`` for a bitwise comparison: arrays and numbers by type, dtype, shape and bytes."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    array = np.asarray(value)
    if array.dtype == object:
        return type(value), value
    return type(value), array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize(
    "call, valid",
    [
        pytest.param(call, valid, id=f"{function.__qualname__}-{parameter}")
        for function, parameter, call, valid, _ in INTEGER_ARGUMENTS
    ],
)
def test_numpy_integer_arguments_give_the_bits_of_ints(call, valid):
    assert _bits(call(np.int64(valid))) == _bits(call(valid))
    assert _bits(call(np.int32(valid))) == _bits(call(valid))


def test_numpy_integer_degrees_are_python_ints():
    series = wronskian_series(np.int64(3), np.uint8(1))
    assert series == wronskian_series(3, 1)
    assert type(series.j) is int and type(series.prefactor) is int
    assert laurent_coefficients(np.int32(4), 2) == laurent_coefficients(4, 2)
    assert series.evaluate(-2j, np.int64(2)) == series.evaluate(-2j, 2)
    assert np.array_equal(pair_matrix(np.int64(3), -2j), pair_matrix(3, -2j))


def test_hermiticity_on_imaginary_axis(rng):
    for _ in range(8):
        j = int(rng.integers(0, 7))
        l = int(rng.integers(0, 7))
        y = float(rng.uniform(0.2, 10.0))
        lhs = half_wronskian_exact(j, l, 1j * y)
        rhs = np.conj(half_wronskian_exact(l, j, 1j * y))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_half_wronskian_rejects_origin():
    with pytest.raises(ValueError):
        half_wronskian_exact(2, 1, 0.0)


def test_half_wronskian_vectorized():
    z = np.array([0.5 + 1j, 2.0, -1.0 + 0.3j])
    values = half_wronskian_exact(3, 1, z)
    assert values.shape == z.shape
    for i, zi in enumerate(z):
        assert values[i] == pytest.approx(half_wronskian_exact(3, 1, complex(zi)), rel=1e-15)


def test_pair_matrix_layout_and_hermiticity():
    z = 1j * 3.7
    mat = pair_matrix(4, z)
    assert mat.shape == (5, 5)
    assert np.max(np.abs(np.diag(mat) - 1.0)) < 1e-15
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-14
    # rows index the conjugated mode, columns the direct mode
    assert mat[2, 0] == pytest.approx(half_wronskian_exact(0, 2, z), rel=1e-15)


def test_pair_matrix_matches_half_wronskian_entrywise():
    # on the imaginary axis, where the flux evaluates it, the quadrature and
    # the per-pair Horner sum agree to rounding of the absolute-value sum;
    # off the axis pair_matrix refuses
    for l_max in (0, 1, 5, 12, 20):
        for kr in (0.05, 0.5, 3.0, 40.0, 1000.0):
            z = -1j * kr
            mat = pair_matrix(l_max, z)
            u = abs(1.0 / (2.0 * z))
            for row in range(l_max + 1):
                for col in range(l_max + 1):
                    ref = half_wronskian_exact(col, row, z)
                    coeffs = laurent_coefficients(col, row)
                    scale = sum(abs(float(c)) * u**n for n, c in enumerate(coeffs))
                    assert abs(mat[row, col] - ref) <= 1e-14 * scale
            with pytest.raises(ValueError, match="imaginary axis"):
                pair_matrix(l_max, complex(0.4 * kr, -kr))


@pytest.mark.parametrize("l_max", [0, 5, 20, 40, 75, 100])
def test_pair_matrix_matches_50_digit_oracle(l_max):
    # every entry of the sampled rows within 1e-13 of its exact value, and at
    # l_max <= 20 within the rounding bound of the Laurent sum; where the
    # factors leave float64 (the exact corner entry is past 1e300) it raises
    krs = sorted({0.05, 0.5, 3.0, 40.0, float(max(l_max, 1)), 1000.0})
    cols = range(l_max + 1)
    for i, kr in enumerate(krs):
        z = -1j * kr
        if l_max >= 40:
            rows = {(37 * i) % (l_max + 1)}
        else:
            rows = {0, l_max // 2, l_max, (7 * i) % (l_max + 1)}
        try:
            mat = pair_matrix(l_max, z)
        except FluxDomainError:
            corner = pair_factor_oracle(l_max - 1, [l_max], z)[0]
            assert abs(corner) > 1e300, kr
            continue
        u = 0.5 / kr
        for row in sorted(rows):
            exact = pair_factor_oracle(row, cols, z)
            assert np.all(np.abs(mat[row] - exact) <= 1e-13 * np.abs(exact)), (kr, row)
            if l_max <= 20:
                scale = [
                    sum(abs(float(c)) * u**n for n, c in enumerate(laurent_coefficients(col, row)))
                    for col in cols
                ]
                assert np.all(np.abs(mat[row] - exact) <= 1e-14 * np.array(scale)), (kr, row)


def test_series_route_integers_equal_combination_route():
    # the integer u**(n+1) coefficient is delta * A_n / (n+1), an exact
    # division, for every pair, as in the float tables of _laurent_table
    for l in range(31):
        for j in range(31):
            delta = j * (j + 1) - l * (l + 1)
            series = [1]
            for n, a_n in enumerate(series_product_oracle(l, j)):
                assert (delta * a_n) % (n + 1) == 0
                series.append(delta * a_n // (n + 1))
            assert tuple(series if delta else [1]) == laurent_oracle(l, j)


_ORACLE_PAIRS = [(j, l) for j in range(31) for l in range(31)] + [
    (3, 120), (120, 3), (60, 61), (61, 60)
]


def test_exact_coefficients_equal_the_oracles():
    # the program's one recurrence against the current combination and the
    # plain series product of conftest, which share no code with it
    for j, l in _ORACLE_PAIRS:
        assert laurent_coefficients(j, l) == tuple(map(Fraction, laurent_oracle(l, j))), (j, l)
        expect = () if j == l else tuple(enumerate(map(Fraction, series_product_oracle(l, j))))
        assert wronskian_series(j, l).correction == expect, (j, l)


def test_every_exact_integer_comes_from_the_recurrence(monkeypatch):
    # every row c_s(l) = P_l's coefficients comes from special._chi_integers,
    # and every product P_l(-u) P_j(u) from _recurrence
    def forbidden(source):
        def build(*args):
            raise AssertionError(f"exact integers outside {source}")

        return build

    def cleared():
        wronskian._pair_products.cache_clear()
        wronskian._laurent_float.cache_clear()
        wronskian._laurent_table.cache_clear()

    products = (
        lambda: laurent_coefficients(3, 5),
        lambda: wronskian_series(3, 5),
        lambda: half_wronskian_exact(3, 5, -2j),
        lambda: wronskian._laurent_stack(4, -2j, 3),
    )
    with monkeypatch.context() as patch:
        patch.setattr(special, "_chi_integers", forbidden("_chi_integers"))
        cleared()
        for build in (
            lambda: special.chi_coefficient(5, 2),
            lambda: amplitudes.h_coefficient(_F, 2),
            *products,
        ):
            with pytest.raises(AssertionError, match="outside _chi_integers"):
                build()
    monkeypatch.setattr(wronskian, "_recurrence", forbidden("_recurrence"))
    cleared()
    for build in products:
        with pytest.raises(AssertionError, match="outside _recurrence"):
            build()


def test_laurent_floats_equal_exact_rationals_bitwise():
    # every ordered pair's float coefficients are the Fraction route's,
    # each rounded once; half_wronskian_exact sums them by Horner's rule
    for row in range(31):
        for col in range(31):
            expect = np.array([float(c) for c in laurent_coefficients(col, row)])
            got = wronskian._laurent_float(row, col)
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), (row, col)


def test_laurent_table_scale_keeps_coefficients_past_float64():
    # the coefficients of pairs past l_max 75 overflow float64 unscaled; the
    # table holds them times 2**(-m n), and a pair's own row, where it fits,
    # rounds the exact rationals
    assert wronskian._laurent_table(75, 152)[1] == 0
    table, scale = wronskian._laurent_table(100, 202)
    assert scale == 3 and np.all(np.isfinite(table))
    for row, col in ((0, 100), (40, 100), (100, 3), (3, 120)):
        expect = np.array([float(c) for c in laurent_coefficients(col, row)])
        got = wronskian._laurent_float(row, col)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), (row, col)
    assert np.isnan(wronskian._laurent_float(99, 100)).all()


def test_one_pair_builds_no_table(monkeypatch):
    # a pair's coefficients run its own row of the recurrence, O((j + l)**2)
    # integer operations: a diagonal pair is 1 at once, and a pair past
    # float64 raises after its row, whatever the degree
    def forbidden(*args):
        raise AssertionError("a table was built for one pair")

    monkeypatch.setattr(wronskian, "_laurent_table", forbidden)
    assert half_wronskian_exact(1000, 1000, -7j) == 1.0
    assert wronskian_series(1000, 1000).evaluate(0.3) == 1.0
    with pytest.raises(FluxDomainError, match=r"HW\(j=400, l=3\)"):
        half_wronskian_exact(400, 3, -5j)


def test_laurent_stack_is_hermitian_bitwise_on_imaginary_axis():
    for l_max in range(13):
        zs = -1j * np.array([0.3, 0.7, 2.0, 13.0, 900.0])
        u = (0.5 / zs)[:, None, None]
        table, _ = wronskian._laurent_table(l_max, 2 * l_max + 2)
        for order in sorted({0, 1, 2, l_max, max(2 * l_max - 1, 0), 2 * l_max}):
            for single in (False, True):
                stack = _laurent_stack(l_max, zs, order, single)
                assert np.array_equal(stack, stack.conj().transpose(0, 2, 1)), (l_max, order)
                # below the complete order only the table's first orders are
                # built: Horner's rule over the whole table, bit for bit
                expect = np.zeros_like(stack)
                for n in range(min(order, len(table) - 1), -1, -1):
                    expect = expect * u + (table[n] if n == order or not single else 0.0)
                assert np.array_equal(stack, expect), (l_max, order, single)
        # through the complete order the cut series is the pair matrix
        for z, mat in zip(zs, _laurent_stack(l_max, zs, 2 * l_max)):
            scale = sum(np.abs(c) * abs(0.5 / z) ** n for n, c in enumerate(table))
            assert np.all(np.abs(mat - pair_matrix(l_max, z)) <= 1e-14 * scale), (l_max, z)


def test_pair_stack_equals_pointwise_pair_matrix_bitwise():
    # more distances than one block holds, the last block a single point;
    # about 256 points per degree are compared, both sides of the block edge
    for l_max in range(21):
        n = _STACK_ENTRIES // (l_max + 1) ** 2 + 1
        zs = -1j * np.geomspace(0.3, 900.0, n)
        stack = _pair_stack(l_max, zs)
        assert stack.shape == (n, l_max + 1, l_max + 1)
        for i in {*range(0, n, max(1, n // 256)), n - 2, n - 1}:
            mat = pair_matrix(l_max, zs[i])
            assert np.array_equal(stack[i].view(np.uint64), mat.view(np.uint64)), (l_max, i)


@pytest.mark.parametrize("l_max", [0, 1, 5, 20, 75, 100])
def test_pair_rule_integrates_every_degree_of_the_pair_integrand(l_max):
    # the pair integrand has degree at most 2 l_max; the rule, the Gauss-Legendre
    # rule of l_max + 1 nodes on [0, 1], is exact through 2 l_max + 1.  Each
    # node's rounding moves x**p by up to p/2 ulp, hence the bound in p
    steps, weights, _ = _pair_rule(l_max)
    nodes = 0.5 * (1.0 + _gauss_legendre(l_max + 1)[0])
    assert weights.shape == nodes.shape == (l_max + 1,)
    assert np.array_equal(steps, (4.0 * np.arange(l_max) + 2.0)[:, None] * nodes)
    for p in range(2 * l_max + 2):
        exact = 1.0 / (p + 1)
        assert abs(weights @ nodes**p - exact) <= (4 + p) * np.spacing(exact), (l_max, p)


def test_pair_matrix_is_hermitian_bitwise_on_imaginary_axis():
    for l_max in range(21):
        for kr in (0.3, 0.7, 2.0, 13.0, 900.0):
            mat = pair_matrix(l_max, -1j * kr)
            assert np.array_equal(mat, mat.conj().T)


def test_exact_tables_are_rational_at_the_boundary():
    for j, l in ((0, 0), (3, 1), (6, 9)):
        assert all(type(c) is Fraction for c in laurent_coefficients(j, l))
        series = wronskian_series(j, l)
        assert all(type(a) is Fraction for _, a in series.correction)


# ----------------------------------------------------------------------
# integral representation
# ----------------------------------------------------------------------

def test_integral_representation_samples(rng):
    for _ in range(8):
        j = int(rng.integers(0, 6))
        l = int(rng.integers(0, 6))
        z = float(rng.uniform(0.4, 6.0))
        report = integral_representation_check(j, l, z)
        scale = max(1.0, abs(report.closed_form))
        assert abs(report.difference) <= 1e-9 * scale


def test_integral_representation_diagonal_trivial():
    report = integral_representation_check(3, 3, 1.5)
    assert report.closed_form == pytest.approx(1.0, rel=1e-14)
    assert abs(report.difference) < 1e-12


@pytest.mark.parametrize("z", [-1.0, 0.0, float("nan")])
def test_integral_representation_needs_positive_z(z):
    with pytest.raises(ValueError, match="requires real z > 0"):
        integral_representation_check(1, 0, z)


def test_integral_representation_without_scipy_names_it(monkeypatch):
    # a None entry makes the import fail as if SciPy were not installed
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match="SciPy"):
        integral_representation_check(3, 2, 1.5)


# ----------------------------------------------------------------------
# float64 domain
# ----------------------------------------------------------------------

def test_pair_matrix_overflow_raises_typed_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError) as info:
            pair_matrix(40, -1e-3j)
    message = str(info.value)
    # named like the flux path's error: kR = |z|, not the complex z
    assert message == (
        "pair factors at l_max=40, kR=0.001 exceed the float64 limit 1.798e+308: "
        "they grow like (2 kR)**-(2*l_max+1); raise kR or lower l_max"
    )
    # a subnormal distance: 1/(2z) itself overflows, inside the same guard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluxDomainError, match="l_max=3, kR=9.99989e-321 "):
            pair_matrix(3, -1e-320j)


def test_laurent_coefficients_beyond_float_range_raise_typed_error():
    # (75, 76) is the first degree pair whose exact coefficients overflow
    # float64, so pair matrices stop at l_max = 75
    assert np.isfinite(half_wronskian_exact(75, 74, -3j))
    with pytest.raises(FluxDomainError, match="l_max=75"):
        half_wronskian_exact(76, 75, -3j)
    # the pair matrices take no Laurent coefficients, so they go past it
    mat = pair_matrix(80, -50j)
    assert np.array_equal(np.diag(mat), np.ones(81))
    assert np.array_equal(mat, mat.conj().T)
    exact = pair_factor_oracle(80, range(81), -50j)
    assert np.all(np.abs(mat[80] - exact) <= 1e-13 * np.abs(exact))
