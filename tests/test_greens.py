"""Helmholtz kernel: multipole factorization against the closed form."""

from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_legendre

from nearfield.greens import (
    GreensQuery,
    auto_l_max,
    greens_asymptotic,
    greens_multipole,
    greens_point,
)
from nearfield.special import FluxDomainError, chi, regular_psi, unit_from_angles

from conftest import fit_slope

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "greens_golden.json").read_text()
)


def _random_query(rng, sign, k_lo=0.3, k_hi=4.0, ratio_hi=0.5):
    k = rng.uniform(k_lo, k_hi)
    big = rng.uniform(2.0, 100.0) / k
    small = big * rng.uniform(0.02, ratio_hi)
    r_hat = unit_from_angles(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
    x_hat = unit_from_angles(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
    return GreensQuery(k=k, R_vec=big * r_hat, x_vec=small * x_hat, sign=sign)


# ----------------------------------------------------------------------
# construction and the closed form
# ----------------------------------------------------------------------

def test_query_validation():
    R = np.array([0.0, 0.0, 5.0])
    with pytest.raises(ValueError):
        GreensQuery(k=0.0, R_vec=R, x_vec=np.zeros(3))
    with pytest.raises(ValueError):
        GreensQuery(k=1.0, R_vec=R, x_vec=np.zeros(3), sign=2)
    with pytest.raises(ValueError):
        GreensQuery(k=1.0, R_vec=R, x_vec=np.array([0.0, 0.0, 6.0]))
    q = GreensQuery(k=1.0, R_vec=R, x_vec=np.array([0.0, 1.0, 0.0]))
    assert q.big_r == pytest.approx(5.0)
    assert q.small_r == pytest.approx(1.0)


def test_point_kernel_closed_form():
    q = GreensQuery(k=2.0, R_vec=np.array([0.0, 0.0, 3.0]), x_vec=np.array([1.0, 0.0, 0.0]))
    d = np.sqrt(10.0)
    assert greens_point(q) == pytest.approx(np.exp(2j * d) / (4 * np.pi * d), rel=1e-15)


def test_point_kernel_at_distances_whose_squares_leave_float64():
    # two distinct points whose squared distance is 0 in float64, then one
    # whose square is subnormal: the closed form at the exact distance, not
    # "coincident points" or a distance with lost bits; and two points whose
    # norms square within float64 but whose distance squares past it: not nan
    cases = [
        ([1e-150, 0.0, 0.0], [np.nextafter(1e-150, 0.0), 0.0, 0.0]),
        ([1e-150, 0.0, 0.0], [1e-150 - 3e-157, 4e-157, 0.0]),
        ([1e154, 0.0, 0.0], [-9e153, 0.0, 0.0]),
    ]
    for R_vec, x_vec in cases:
        q = GreensQuery(k=1.0, R_vec=R_vec, x_vec=x_vec)
        d = math.hypot(*(np.array(R_vec) - np.array(x_vec)))
        assert not 1e-155 < d < 1e154
        assert greens_point(q) == pytest.approx(np.exp(1j * d) / (4 * np.pi * d), rel=1e-15)
    record = greens_point([GreensQuery(k=1.0, R_vec=R, x_vec=x) for R, x in cases])
    assert np.all(np.isfinite(record))


def test_point_kernel_of_a_sequence_is_the_single_query_formula(rng):
    queries = [_random_query(rng, sign) for sign in (1, -1) for _ in range(30)]
    # the scalar formula, with np.linalg.norm of one difference vector
    expect = []
    for q in queries:
        d = float(np.linalg.norm(q.R_vec - q.x_vec))
        expect.append(complex(np.exp(1j * q.sign * q.k * d) / (4.0 * np.pi * d)))
    expect = np.array(expect)
    got = greens_point(queries)
    assert got.shape == (60,)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    lone = greens_point(queries[7])
    assert type(lone) is complex and lone == expect[7]
    assert greens_point([]).shape == (0,)
    with pytest.raises(TypeError):
        greens_point([queries[0], "not a query"])


def test_golden_values():
    l_max = GOLDEN["l_max"]
    rtol = GOLDEN["rtol"]
    for case in GOLDEN["cases"]:
        q = GreensQuery(
            k=case["k"],
            R_vec=np.array(case["R_vec"]),
            x_vec=np.array(case["x_vec"]),
            sign=case["sign"],
        )
        expect = complex(case["re"], case["im"])
        assert greens_multipole(q, l_max=l_max) == pytest.approx(expect, rel=rtol)


def test_multipole_matches_point_battery(rng):
    # fixed truncation at 60 converges only while the turning point
    # l ~ kr + 7 kr^(1/3) stays below it, so assert it for kr <= 35 and
    # cover the rest of the domain at a truncation past the turning point
    queries = [_random_query(rng, sign) for sign in (1, -1) for _ in range(20)]
    exact = np.array([greens_point(q) for q in queries])
    fixed = np.array([q.k * q.small_r <= 35.0 for q in queries])
    got_fixed = greens_multipole([q for q, f in zip(queries, fixed) if f], l_max=60)
    got_past = greens_multipole(queries, l_max=90)
    assert np.max(np.abs(got_fixed - exact[fixed]) / np.abs(exact[fixed])) < 1e-9
    assert np.max(np.abs(got_past - exact) / np.abs(exact)) < 1e-9


def test_sign_flip_is_conjugation(rng):
    q = _random_query(rng, 1)
    q_conj = GreensQuery(k=q.k, R_vec=q.R_vec, x_vec=q.x_vec, sign=-1)
    assert greens_multipole(q_conj, l_max=40) == pytest.approx(
        np.conj(greens_multipole(q, l_max=40)), rel=1e-13
    )


def test_source_at_origin_reduces_to_radial_kernel():
    q = GreensQuery(k=1.7, R_vec=np.array([2.0, -1.0, 2.0]), x_vec=np.zeros(3))
    expect = np.exp(1.7j * 3.0) / (4 * np.pi * 3.0)
    assert greens_multipole(q, l_max=10) == pytest.approx(expect, rel=1e-13)


def test_static_limit():
    # k -> 0 recovers the Coulomb kernel 1/(4 pi d)
    R = np.array([0.0, 2.0, 4.0])
    x = np.array([0.5, -0.3, 0.2])
    q = GreensQuery(k=1e-8, R_vec=R, x_vec=x)
    d = np.linalg.norm(R - x)
    assert greens_multipole(q, l_max=30) == pytest.approx(1 / (4 * np.pi * d), rel=1e-6)


# ----------------------------------------------------------------------
# per-degree structure
# ----------------------------------------------------------------------

def test_per_degree_term_matches_legendre_form():
    # the degree-l contribution collapses over orders to a single Legendre
    # polynomial with phase (-i)^(sign*l)
    k, R, r = 1.0, 9.0, 1.8
    gamma = 1.05
    r_hat = np.array([0.0, 0.0, 1.0])
    x_hat = unit_from_angles(gamma, 0.0)
    for sign in (1, -1):
        q = GreensQuery(k=k, R_vec=R * r_hat, x_vec=r * x_hat, sign=sign)
        for l in (0, 1, 2, 5):
            hi = greens_multipole(q, l_max=l)
            lo = greens_multipole(q, l_max=l - 1) if l else 0.0
            term = hi - lo
            expect = (
                (-1j) ** (sign * l)
                * (2 * l + 1)
                * regular_psi(l, k * r)
                * chi(l, -sign * 1j * k * R)
                * eval_legendre(l, np.cos(gamma))
                / (4 * np.pi * k * r * R)
            )
            assert term == pytest.approx(expect, rel=1e-12, abs=1e-18)


def test_default_cutoff_battery():
    # auto_l_max must hold the tail below 1e-9 over the whole documented
    # domain, including small k*r where it decays only like (r/R)**l
    rng = np.random.default_rng(31)
    queries = [_random_query(rng, sign) for sign in (1, -1) for _ in range(250)]
    exact = np.array([greens_point(q) for q in queries])
    assert np.max(np.abs(greens_multipole(queries) - exact) / np.abs(exact)) < 1e-9


@pytest.mark.parametrize(
    "k_r, ratio",
    [
        (1.57, 0.44),  # small k*r: the old margin of 15 (l_max = 20) left 2.6e-9
        (50.0, 0.25),  # large k*r: the cutoff passes degree 150
    ],
)
def test_default_cutoff_edges(k_r, ratio):
    q = GreensQuery(
        k=1.0,
        R_vec=(k_r / ratio) * unit_from_angles(0.4, 2.0),
        x_vec=k_r * unit_from_angles(2.2, 5.1),
    )
    exact = greens_point(q)
    assert abs(greens_multipole(q) - exact) / abs(exact) < 1e-12


def test_outer_factors_hold_past_the_turning_point():
    # at k|x| = 50 the cutoff reaches degree 166, far past kR = 100, where
    # the series sum_s c_s/(2z)^s of the outer factor cancels from 1e18
    # terms; summed that way the kernel was off by 4-5e-12
    geometries = [((0.4, 2.0), (2.2, 5.1)), ((1.3, 0.3), (1.9, 4.0)), ((2.8, 5.5), (0.6, 1.2))]
    for (t_big, p_big), (t_small, p_small) in geometries:
        for sign in (1, -1):
            q = GreensQuery(
                k=1.0,
                R_vec=100.0 * unit_from_angles(t_big, p_big),
                x_vec=50.0 * unit_from_angles(t_small, p_small),
                sign=sign,
            )
            exact = greens_point(q)
            assert abs(greens_multipole(q) - exact) / abs(exact) < 1e-13


def test_sequence_of_queries_matches_single_calls():
    # mixed default cutoffs (31 to 166) and a source at the origin, whose
    # cutoff of 30 reduces to the degree-0 mode
    rng = np.random.default_rng(8)
    queries = [_random_query(rng, sign, k_hi=6.0) for sign in (1, -1) for _ in range(8)]
    queries.insert(3, GreensQuery(k=1.7, R_vec=np.array([2.0, -1.0, 2.0]), x_vec=np.zeros(3)))
    assert len({auto_l_max(q.k, q.small_r) for q in queries}) > 10
    for batch, single in (
        (greens_multipole(queries), [greens_multipole(q) for q in queries]),
        (greens_multipole(queries, l_max=40), [greens_multipole(q, l_max=40) for q in queries]),
        (greens_asymptotic(queries, s_max=3), [greens_asymptotic(q, s_max=3) for q in queries]),
    ):
        assert isinstance(single[0], complex)
        assert batch.shape == (len(queries),)
        single = np.array(single)
        assert np.all(np.abs(batch - single) <= 1e-15 * np.abs(single))
    assert greens_multipole([]).shape == (0,)
    with pytest.raises(TypeError):
        greens_multipole([queries[0], 1.0])


def _record_of(queries):
    return GreensQuery(
        k=np.array([q.k for q in queries]),
        R_vec=np.array([q.R_vec for q in queries]),
        x_vec=np.array([q.x_vec for q in queries]),
        sign=np.array([q.sign for q in queries]),
    )


def test_record_of_queries_is_the_sequence_of_single_queries():
    rng = np.random.default_rng(21)
    queries = [_random_query(rng, sign, k_hi=6.0) for _ in range(10) for sign in (1, -1)]
    queries.insert(5, GreensQuery(k=1.7, R_vec=np.array([2.0, -1.0, 2.0]), x_vec=np.zeros(3)))
    record = _record_of(queries)
    assert record.k.shape == record.sign.shape == (21,)
    assert record.R_vec.shape == record.x_vec.shape == (21, 3)
    assert not record.k.flags.writeable and not record.R_vec.flags.writeable
    assert np.array_equal(record.small_r, [q.small_r for q in queries])
    assert np.array_equal(record.big_r, [q.big_r for q in queries])
    for route in (
        greens_point,
        greens_multipole,
        lambda q: greens_multipole(q, l_max=40),
        lambda q: greens_asymptotic(q, s_max=3),
    ):
        expect = route(queries)
        assert np.array_equal(route(record), expect)
        # a sequence of records is their concatenation
        assert np.array_equal(route([_record_of(queries[:4]), record, queries[7]]),
                              np.concatenate([expect[:4], expect, expect[7:8]]))
    # a record of one query still gives an array
    assert greens_point(_record_of(queries[:1])).shape == (1,)
    # a scalar sign applies to every query of a record
    both = GreensQuery(k=record.k, R_vec=record.R_vec, x_vec=record.x_vec, sign=-1)
    assert np.array_equal(both.sign, np.full(21, -1))


def test_record_validation_names_the_first_failure():
    rng = np.random.default_rng(4)
    queries = [_random_query(rng, 1) for _ in range(5)]
    fields = {
        "k": np.array([q.k for q in queries]),
        "R_vec": np.array([q.R_vec for q in queries]),
        "x_vec": np.array([q.x_vec for q in queries]),
        "sign": np.ones(5, dtype=int),
    }
    GreensQuery(**fields)
    for name, index, value, message in (
        ("k", 2, 0.0, "wavenumber must be positive"),
        ("k", 4, np.nan, "wavenumber must be positive"),
        ("sign", 1, 2, "sign must be"),
        ("x_vec", 3, fields["R_vec"][3], "require |x_vec| < |R_vec|"),
    ):
        bad = {key: value.copy() for key, value in fields.items()}
        bad[name][index] = value
        with pytest.raises(ValueError, match=message):
            GreensQuery(**bad)
    with pytest.raises(ValueError):
        GreensQuery(k=fields["k"][:, None], R_vec=fields["R_vec"], x_vec=fields["x_vec"])
    with pytest.raises(ValueError):
        GreensQuery(**(fields | {"sign": np.ones(4, dtype=int)}))


def test_query_rejects_points_that_are_not_finite_or_whose_norm_overflows():
    good = {"R_vec": np.array([0.0, 3.0, 4.0]), "x_vec": np.array([1.0, 0.0, 0.0])}
    for name in ("R_vec", "x_vec"):
        for bad in ([np.inf, 0.0, 0.0], [0.0, np.nan, 1.0], [1e200, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
                    GreensQuery(k=1.0, **(good | {name: np.array(bad)}))
    # in a record, the first offending query is named
    record = {name: np.stack([vec, vec, vec]) for name, vec in good.items()}
    record["R_vec"][1] = (0.0, 2e154, 2e154)
    record["R_vec"][2] = (np.inf, 0.0, 0.0)
    message = "R_vec must be finite with a finite norm, got [0.0, 2e+154, 2e+154]"
    with pytest.raises(ValueError, match=re.escape(message)):
        GreensQuery(k=np.ones(3), **record)


def test_auto_l_max_takes_arrays():
    k = np.array([0.3, 1.0, 2.5, 4.0])
    r = np.array([0.0, 1.0, 7.3, 50.0])
    cutoffs = auto_l_max(k, r)
    assert cutoffs.dtype == np.int64
    assert cutoffs.tolist() == [auto_l_max(float(a), float(b)) for a, b in zip(k, r)]
    assert type(auto_l_max(1.0, 2.0)) is int
    assert auto_l_max(1.0, 1e18) == math.ceil(math.e * 1e18) + 30
    with pytest.raises(ValueError):
        auto_l_max(k, -r)
    with pytest.raises(ValueError):
        auto_l_max(np.nan, 1.0)


def test_oversized_cutoff_raises_typed_error():
    # e k |x| overflows, or the cutoff leaves int64: both used to end in a
    # bare OverflowError
    for k, r in ((1e200, 1e199), (1.0, 4e18), (1.0, np.inf)):
        with pytest.raises(FluxDomainError, match=r"k\*\|x\|"):
            auto_l_max(k, r)
    with pytest.raises(FluxDomainError, match=r"k\*\|x\| = 1e\+299"):
        auto_l_max(np.array([1.0, 1e200]), np.array([2.0, 1e99]))
    query = GreensQuery(
        k=1e200, R_vec=np.array([0.0, 0.0, 2e99]), x_vec=np.array([1e99, 0.0, 0.0])
    )
    with pytest.raises(FluxDomainError, match=r"k\*\|x\| = 1e\+299"):
        greens_multipole(query)
    with pytest.raises(FluxDomainError):
        greens_asymptotic([query], s_max=2)


def test_auto_l_max_monotone():
    q1 = GreensQuery(k=1.0, R_vec=np.array([0.0, 0.0, 10.0]), x_vec=np.array([1.0, 0.0, 0.0]))
    q2 = GreensQuery(k=1.0, R_vec=np.array([0.0, 0.0, 10.0]), x_vec=np.array([4.0, 0.0, 0.0]))
    assert auto_l_max(q1.k, q1.small_r) >= 15
    assert auto_l_max(q2.k, q2.small_r) > auto_l_max(q1.k, q1.small_r)
    # default truncation is adequate for moderate geometries
    assert greens_multipole(q2) == pytest.approx(greens_point(q2), rel=1e-10)


# ----------------------------------------------------------------------
# asymptotic outer factors
# ----------------------------------------------------------------------

def test_asymptotic_complete_order_equals_multipole(rng):
    for sign in (1, -1):
        q = _random_query(rng, sign)
        l_max = 12
        full = greens_asymptotic(q, s_max=l_max, l_max=l_max)
        assert full == pytest.approx(greens_multipole(q, l_max=l_max), rel=1e-14)


def test_asymptotic_complete_order_is_multipole_bitwise(rng):
    for sign in (1, -1):
        for l_max in (0, 1, 7, 30):
            q = _random_query(rng, sign)
            full = greens_asymptotic(q, s_max=l_max, l_max=l_max)
            assert full == greens_multipole(q, l_max=l_max)
            assert greens_asymptotic(q, s_max=l_max + 5, l_max=l_max) == full


def test_asymptotic_zeroth_order_is_detector_plane_wave():
    # truncating every outer factor at its first term leaves a plane wave
    # arriving from the detector direction
    k = 1.2
    R_vec = 8.0 * unit_from_angles(0.7, 1.1)
    x_vec = 1.5 * unit_from_angles(2.0, 4.2)
    for sign in (1, -1):
        q = GreensQuery(k=k, R_vec=R_vec, x_vec=x_vec, sign=sign)
        got = greens_asymptotic(q, s_max=0, l_max=60)
        n_hat = R_vec / 8.0
        expect = np.exp(sign * 1j * k * (8.0 - n_hat @ x_vec)) / (4 * np.pi * 8.0)
        assert got == pytest.approx(expect, rel=1e-11)


def test_asymptotic_truncation_slopes():
    # defect of the order-S truncation falls off one power faster per order
    k, r_small, l_max = 1.0, 1.0, 20
    r_hat = unit_from_angles(1.2, 0.4)
    x_hat = unit_from_angles(2.1, 3.3)
    kr_values = np.geomspace(8.0, 120.0, 10)
    for s_max, target in ((1, -2.0), (2, -3.0), (3, -4.0)):
        defects = []
        for kr in kr_values:
            q = GreensQuery(k=k, R_vec=(kr / k) * r_hat, x_vec=r_small * x_hat)
            exact = greens_multipole(q, l_max=l_max)
            defects.append(abs(greens_asymptotic(q, s_max=s_max, l_max=l_max) - exact) / abs(exact))
        assert fit_slope(kr_values, np.array(defects)) == pytest.approx(target, abs=0.2)


def test_helmholtz_residual():
    # (laplacian + k^2) G = 0 away from the source, by central differences
    k = 1.3
    q0 = GreensQuery(k=k, R_vec=np.array([1.0, 2.0, 7.0]), x_vec=np.array([0.4, -0.2, 0.3]))
    h = 1e-3
    base = np.array(q0.R_vec)

    def g(offset):
        return greens_multipole(
            GreensQuery(k=k, R_vec=base + offset, x_vec=q0.x_vec), l_max=30
        )

    lap = 0.0
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        lap += (g(e) - 2 * g(np.zeros(3)) + g(-e)) / h**2
    residual = abs(lap + k**2 * g(np.zeros(3))) / abs(k**2 * g(np.zeros(3)))
    assert residual < 1e-6


def test_multipole_overflow_raises_typed_error():
    # far above auto_l_max the outer factors overflow while the inner ones
    # underflow, which used to return nan+nanj
    query = GreensQuery(k=1.0, R_vec=np.array([0.0, 0.0, 2.0]), x_vec=np.array([0.5, 0.0, 0.0]))
    with pytest.raises(FluxDomainError, match="l_max=200"):
        greens_multipole(query, l_max=200)
    with pytest.raises(FluxDomainError):
        greens_asymptotic(query, s_max=200, l_max=200)
    assert np.isfinite(greens_multipole(query))
    # inside a batch whose other queries stay finite at the same cutoff
    other = GreensQuery(k=1.0, R_vec=np.array([0.0, 0.0, 9.0]), x_vec=np.array([3.0, 0.0, 0.0]))
    assert np.isfinite(greens_multipole(other, l_max=200))
    with pytest.raises(FluxDomainError, match="l_max=200"):
        greens_multipole([other, query, other], l_max=200)
