"""Partial-wave amplitudes, angular-operator coefficients, S-matrix models."""

from __future__ import annotations

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from nearfield.amplitudes import (
    Channel,
    ChannelSet,
    PartialWaveAmplitude,
    amplitudes_from_smatrix,
    apply_angular_operator,
    evaluate,
    h_coefficient,
    hard_sphere_model,
    random_unitary_smatrix,
    scattered_wave,
    scattered_wave_series,
    smatrix_amplitude_family,
)
from nearfield.special import (
    FluxDomainError, chi, mode_index, sph_harm, unit_from_angles, ylm_directions
)

from conftest import channel_set, macdonald_chi, raw_amplitude, unitary_amplitude


# ----------------------------------------------------------------------
# channels
# ----------------------------------------------------------------------

def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(label="a", k=0.0)
    with pytest.raises(ValueError):
        Channel(label="a", k=-1.0)
    with pytest.raises(ValueError):
        Channel(label="a", k=1.0, velocity=-0.2)
    with pytest.raises(ValueError):
        Channel(label="", k=1.0)


def test_channel_set_membership_and_weights():
    cs = channel_set(3)
    assert cs.labels == ("c0", "c1", "c2")
    assert cs.entrance == "c0"
    assert cs.k("c1") == 0.8
    with pytest.raises(KeyError):
        cs.channel("missing")
    # momentum weights are k_beta / k_alpha
    assert cs.weight("c2") == pytest.approx(1.3 / 1.0)
    cs_v = channel_set(2, weight_mode="velocity_ratio")
    assert cs_v.weight("c1") == pytest.approx(0.8**2 / 1.0**2)


@pytest.mark.parametrize("weight_mode", ["momentum_ratio", "velocity_ratio"])
@pytest.mark.parametrize("entrance", [0, 2])
def test_channel_set_stores_its_constants_once(weight_mode, entrance):
    cs = channel_set(3, entrance=entrance, weight_mode=weight_mode)
    # the stored arrays, in channel order, are the per-label values, and the
    # weights are the ratios of the channels' own numbers, rounded once
    assert cs.labels is cs.labels
    for i, ch in enumerate(cs.channels):
        ref = cs.entrance_channel
        ratio = ch.velocity / ref.velocity if weight_mode == "velocity_ratio" else ch.k / ref.k
        assert cs._ks[i] == cs.k(ch.label) == ch.k
        assert cs._weights[i] == cs.weight(ch.label) == ratio
        assert cs.channel(ch.label) is ch
    assert not cs._ks.flags.writeable and not cs._weights.flags.writeable
    with pytest.raises(KeyError, match="unknown channel 'missing'"):
        cs.channel("missing")
    with pytest.raises(KeyError, match="unknown channel 'missing'"):
        cs.weight("missing")
    with pytest.raises(KeyError, match="unknown channel 'missing'"):
        cs.k("missing")
    # a new entrance recomputes them
    other = cs.with_entrance("c1")
    assert other.weight("c1") == 1.0 and other._weights[1] == 1.0


def test_channel_set_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ChannelSet(
            channels=(Channel("a", 1.0), Channel("a", 2.0)), entrance="a"
        )
    with pytest.raises(ValueError):
        ChannelSet(channels=(Channel("a", 1.0),), entrance="b")
    with pytest.raises(ValueError):
        ChannelSet(
            channels=(Channel("a", 1.0),), entrance="a", weight_mode="velocity_ratio"
        )
    with pytest.raises(ValueError, match="channel set must not be empty"):
        ChannelSet(channels=(), entrance="a")
    with pytest.raises(ValueError, match="weight_mode must be one of .*, got 'flat'"):
        ChannelSet(channels=(Channel("a", 1.0),), entrance="a", weight_mode="flat")


def test_with_entrance():
    cs = channel_set(3)
    moved = cs.with_entrance("c2")
    assert moved.entrance == "c2"
    assert moved.labels == cs.labels
    assert moved.weight("c0") == pytest.approx(1.0 / 1.3)


# ----------------------------------------------------------------------
# amplitude container
# ----------------------------------------------------------------------

def test_amplitude_bookkeeping(rng):
    cs = channel_set(2)
    f = raw_amplitude(rng, cs, 3)
    assert f.l_max == 3
    assert set(f.exit_labels) == {"c0", "c1"}
    dense = f.dense("c1", 3)
    assert dense.shape == (16,)
    assert dense[5] == f.coefficient("c1", 2, -1)
    assert f.coefficient("c0", 9, 0) == 0
    # a degree past l_max reads zero; an (l, m) that is not a mode raises
    with pytest.raises(ValueError, match="m must be at most 2, got 3"):
        f.coefficient("c0", 2, 3)


@pytest.mark.parametrize("l_max", [1, 4, 7])
def test_dense_matches_coefficient_loop(rng, l_max):
    # the amplitude's own l_max is 4: cut, exact and zero-padded layouts
    cs = channel_set(2)
    coeffs = {
        (beta, l, m): complex(rng.normal(), rng.normal())
        for beta in cs.labels
        for l in range(5)
        for m in range(-l, l + 1)
        if l == 4 or rng.uniform() < 0.6
    }
    f = PartialWaveAmplitude(coeffs)
    assert f.l_max == 4
    for beta in cs.labels + ("absent",):
        want = np.zeros((l_max + 1) ** 2, dtype=complex)
        for (label, l, m), value in f.coefficients.items():
            if label == beta and l <= l_max:
                want[mode_index(l, m)] = value
        got = f.dense(beta, l_max)
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert np.array_equal(f.dense("c0"), f.dense("c0", 4))


def test_rows_view_padding_and_absent_labels(rng):
    f = raw_amplitude(rng, channel_set(3), 2)
    # the table's own rows at its own width come back as a view of it
    assert np.shares_memory(f.rows(("c1", "c2")), f.table)
    assert np.shares_memory(f.rows(("c0", "c1", "c2"), 1), f.table)
    # other orders, absent labels and wider layouts are read-only copies
    got = f.rows(("c2", "absent", "c0"), 3)
    assert got.shape == (3, 16) and not got.flags.writeable
    assert np.array_equal(got[0, :9], f.table[2]) and not got[0, 9:].any()
    assert not got[1].any()
    assert np.array_equal(got[2, :9], f.table[0])
    assert np.array_equal(f.dense("c1", 3), f.rows(("c1",), 3)[0])


def test_zero_coefficients_are_not_stored():
    # l_max is the largest degree with a nonzero coefficient, and only the
    # nonzero entries are listed: an explicit zero adds nothing
    assert PartialWaveAmplitude({("a", 3, 0): 0}).l_max == 0
    assert PartialWaveAmplitude({("a", 3, 0): 0}) == PartialWaveAmplitude()
    f = PartialWaveAmplitude({("a", 3, 0): 0.0, ("b", 1, -1): 2.0, ("b", 2, 0): -0.0j})
    assert f.l_max == 1
    assert f.exit_labels == ("b",)
    assert f.coefficients == {("b", 1, -1): 2.0}
    assert f.table.shape == (1, 4)
    assert h_coefficient(f, 2) == PartialWaveAmplitude()
    assert h_coefficient(f, 2).l_max == 0
    assert f.scaled(0.0) == PartialWaveAmplitude()


def test_equality_compares_labels_and_table_values():
    f = PartialWaveAmplitude({("a", 1, 0): 1.0, ("b", 0, 0): 2j})
    assert f == PartialWaveAmplitude({("b", 0, 0): 2j, ("a", 1, 0): 1.0})
    assert f != PartialWaveAmplitude({("a", 1, 0): 1.0, ("c", 0, 0): 2j})
    assert f != PartialWaveAmplitude({("a", 1, 0): 1.0, ("b", 0, 0): 2j + 1e-16})
    assert f != PartialWaveAmplitude({("a", 1, 0): 1.0})
    assert f != f.coefficients
    with pytest.raises(AttributeError):
        f.l_max = 3
    assert not f.table.flags.writeable


def test_coefficient_map_rebuilds_every_builder(rng):
    cs = channel_set(3)
    model = random_unitary_smatrix(3, 5, seed=2)
    kappa = tuple(unit_from_angles(0.9, 4.0))
    raw = raw_amplitude(rng, channel_set(2), 3)
    built = [
        raw,
        PartialWaveAmplitude({("x", 2, -1): 0.5, ("a", 0, 0): 0.0}),
        PartialWaveAmplitude(),
        amplitudes_from_smatrix(model, cs),
        amplitudes_from_smatrix(model, cs.with_entrance("c2"), kappa_hat=kappa),
        smatrix_amplitude_family(model, cs)("c1", kappa),
        raw.map_modes(lambda l: (1j - l) ** 2),
        apply_angular_operator(raw),
        h_coefficient(raw, 2),
        h_coefficient(raw, 4),
        raw + amplitudes_from_smatrix(model, cs),
        raw + raw.scaled(-1.0),
        raw.scaled(0.3 - 2j),
    ]
    for f in built:
        assert PartialWaveAmplitude(f.coefficients) == f
        assert not f.table.flags.writeable
        assert f.table.shape == (len(f.exit_labels), (f.l_max + 1) ** 2)
        assert list(f.exit_labels) == sorted(f.exit_labels)
        if f.exit_labels:
            assert f.table.any(axis=1).all()
            assert f.table[:, f.l_max**2 :].any()


def _bits(f):
    """``{key: (re bits, im bits)}``: equal only where the coefficients are bit for bit."""
    return {
        key: np.array([value.real, value.imag]).view(np.int64).tolist()
        for key, value in f.coefficients.items()
    }


def test_array_builders_match_dict_loops_bitwise(rng):
    # operands with different label sets and different widths
    f = raw_amplitude(rng, channel_set(2), 3)
    g = PartialWaveAmplitude(
        {
            (beta, l, m): complex(rng.normal(), rng.normal())
            for beta in ("c1", "c2", "d")
            for l in range(6)
            for m in range(-l, l + 1)
        }
    )
    for a, b in ((f, g), (g, f), (f, f)):
        expect = dict(a.coefficients)
        for key, value in b.coefficients.items():
            expect[key] = expect.get(key, 0.0) + value
        assert _bits(a + b) == _bits(PartialWaveAmplitude(expect))
    for factor in (2.5, -0.3 + 1.7j, 1j):
        expect = {key: value * factor for key, value in g.coefficients.items()}
        assert _bits(g.scaled(factor)) == _bits(PartialWaveAmplitude(expect))
    calls = []

    def multiplier(l):
        calls.append(l)
        return complex(0.5 * l - 1.0, 1.0 / (l + 1))

    expect = {key: value * multiplier(key[1]) for key, value in g.coefficients.items()}
    calls.clear()
    assert _bits(g.map_modes(multiplier)) == _bits(PartialWaveAmplitude(expect))
    # one call per degree
    assert calls == list(range(g.l_max + 1))


def test_amplitude_rejects_invalid_modes():
    with pytest.raises(ValueError):
        PartialWaveAmplitude({("a", -1, 0): 1.0})
    with pytest.raises(ValueError):
        PartialWaveAmplitude({("a", 1, 2): 1.0})
    with pytest.raises(ValueError, match=re.escape("key ('a', 1) is not (exit label, l, m)")):
        PartialWaveAmplitude({("a", 1): 1.0})
    with pytest.raises(ValueError, match=re.escape("coefficient at ('a', 0, 0) is not finite")):
        PartialWaveAmplitude({("a", 0, 0): float("nan")})


def test_amplitude_keys_follow_the_integer_rule():
    # degrees and orders of keys go through special._integer: NumPy integers
    # are read as ints, a bool or a float is refused, and -l <= m <= l
    f = PartialWaveAmplitude({("a", 2, -1): 1.0, ("b", 1, 1): 2j})
    numpy_keys = {("a", np.int64(2), np.int32(-1)): 1.0, ("b", 1, np.int8(1)): 2j}
    assert PartialWaveAmplitude(numpy_keys) == f
    for key, rule in (
        (("a", True, 0), "l must be an integer, got True"),
        (("a", 1, False), "m must be an integer, got False"),
        (("a", 2.0, 0), "l must be an integer, got 2.0"),
        (("a", -1, 0), "l must be non-negative, got -1"),
        (("a", 1, -2), "m must be at least -1, got -2"),
        (("a", np.int64(1), 2), "m must be at most 1, got 2"),
    ):
        message = f"invalid mode indices in key {key!r}: {rule}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PartialWaveAmplitude({key: 1.0})


def test_amplitude_linearity(rng):
    cs = channel_set(2)
    f = raw_amplitude(rng, cs, 2)
    g = raw_amplitude(rng, cs, 2)
    nhat = unit_from_angles(0.8, 1.9)
    combo = f + g.scaled(2.5)
    expect = evaluate(f, "c1", nhat) + 2.5 * evaluate(g, "c1", nhat)
    assert evaluate(combo, "c1", nhat) == pytest.approx(expect, rel=1e-13)


def test_evaluate_single_mode():
    f = PartialWaveAmplitude({("a", 2, 1): 1.7 - 0.4j})
    nhat = unit_from_angles(1.2, 0.3)
    assert evaluate(f, "a", nhat) == pytest.approx(
        (1.7 - 0.4j) * sph_harm(2, 1, nhat), rel=1e-14
    )
    assert evaluate(f, "b", nhat) == 0
    # with a channel set, the exit label must be one of its channels
    with pytest.raises(KeyError, match="nope"):
        evaluate(f, "nope", nhat, channel_set(2))


# ----------------------------------------------------------------------
# angular operator and inverse-distance coefficients
# ----------------------------------------------------------------------

def test_angular_operator_multiplies_by_eigenvalue():
    f = PartialWaveAmplitude({("a", 3, -2): 1.0 + 1.0j})
    once = apply_angular_operator(f)
    twice = apply_angular_operator(f, power=2)
    assert once.coefficient("a", 3, -2) == pytest.approx(12 * (1 + 1j))
    assert twice.coefficient("a", 3, -2) == pytest.approx(144 * (1 + 1j))
    with pytest.raises(ValueError):
        apply_angular_operator(f, power=0)


def test_h_coefficient_values_match_radial_route():
    # the operator-product multiplier reproduces the radial-series integers
    f = PartialWaveAmplitude({("a", 3, 0): 1.0})
    assert h_coefficient(f, 1).coefficient("a", 3, 0) == pytest.approx(12.0)
    assert h_coefficient(f, 2).coefficient("a", 3, 0) == pytest.approx(60.0)
    assert h_coefficient(f, 3).coefficient("a", 3, 0) == pytest.approx(120.0)


def test_h_coefficient_terminates(rng):
    cs = channel_set(2)
    f = raw_amplitude(rng, cs, 4)
    for s in (5, 6, 9):
        h = h_coefficient(f, s)
        assert all(abs(v) == 0.0 for v in h.coefficients.values())


def test_scattered_wave_equals_terminated_series(rng):
    cs = channel_set(2)
    f = raw_amplitude(rng, cs, 4)
    nhat = unit_from_angles(np.array([0.4, 2.2]), np.array([1.0, 4.4]))
    for r in (0.8, 3.0, 20.0):
        exact = scattered_wave(f, cs, "c1", r, nhat)
        assert exact.shape == (2,)
        # the series terminates at l_max, so every cut at or past it is
        # the exact wave bit for bit
        for s_max in (None, 4, 5, 9):
            series = scattered_wave_series(f, cs, "c1", r, nhat, s_max=s_max)
            assert np.array_equal(series, exact)
        for i in range(2):
            single = scattered_wave(f, cs, "c1", r, nhat[i])
            assert single == pytest.approx(exact[i], rel=1e-14)


def test_scattered_wave_single_mode_chi_form():
    f = PartialWaveAmplitude({("a", 2, 0): 1.0})
    cs = ChannelSet(channels=(Channel("a", 1.3),), entrance="a")
    r = 2.1
    nhat = unit_from_angles(0.9, 0.0)
    k = 1.3
    expect = chi(2, -1j * k * r) / r * sph_harm(2, 0, nhat)
    assert scattered_wave(f, cs, "a", r, nhat) == pytest.approx(expect, rel=1e-14)


def test_scattered_wave_past_the_turning_point_matches_forty_digits():
    # past kr the series terms of a degree cancel: summed, they give r times
    # the wave at kr = 100, theta 0.3 as 34234-6759j, where it is -79.7-220.8j
    f, cs, _ = unitary_amplitude(1, 100, seed=7)
    k = cs.k("c0")
    nhat = unit_from_angles(np.array([0.3, 1.7, 2.9]), np.array([0.0, 2.0, 5.1]))
    harmonics = ylm_directions(100, nhat)
    degrees = np.repeat(np.arange(101), 2 * np.arange(101) + 1)
    for kr in (50.0, 100.0):
        radial = np.array([macdonald_chi(l, -1j * kr) for l in range(101)])
        r = kr / k
        expect = (f.dense("c0") * radial[degrees]) @ harmonics / r
        got = scattered_wave(f, cs, "c0", r, nhat)
        assert np.all(np.abs(got - expect) <= 1e-13 * np.abs(expect)), kr


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -2.0])
def test_scattered_wave_rejects_distances_that_are_not_finite_and_positive(bad):
    f, cs, _ = unitary_amplitude(2, 3, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"distance r must be finite and positive, got {bad!r}"):
            scattered_wave(f, cs, "c0", bad, unit_from_angles(0.4, 1.0))


def test_scattered_wave_past_the_float_range_raises_typed_error():
    # a degree-150 mode at kr = 1e-3: a typed error, not a warning and nan+nanj
    cs = ChannelSet(channels=(Channel("a", 2.0),), entrance="a")
    f = PartialWaveAmplitude({("a", 150, 3): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s_max in (None, 149):
            with pytest.raises(FluxDomainError, match=r"l_max=150, kr=0\.001 "):
                scattered_wave_series(f, cs, "a", 5e-4, unit_from_angles(0.4, 1.0), s_max)


def _series_by_h_coefficients(f, cs, beta, r, nhat, s_max):
    # the order-by-order route: one coefficient amplitude and one harmonic
    # evaluation per order of the distance expansion
    k = cs.k(beta)
    total = evaluate(f, beta, nhat)
    for s in range(1, s_max + 1):
        total = total + evaluate(h_coefficient(f, s), beta, nhat) / (-2j * k * r) ** s
    return cmath.exp(1j * k * r) / r * total


def test_scattered_wave_series_matches_the_h_coefficient_sum(rng):
    cs = channel_set(3)
    f = raw_amplitude(rng, cs, 8)
    nhat = unit_from_angles(np.array([0.2, 1.1, 2.5, 3.0]), np.array([0.4, 3.3, 1.9, 6.0]))
    worst = 0.0
    for beta in cs.labels:
        for r in (0.9, 5.0, 60.0):
            for s_max in range(8):
                got = scattered_wave_series(f, cs, beta, r, nhat, s_max=s_max)
                expect = _series_by_h_coefficients(f, cs, beta, r, nhat, s_max)
                worst = max(worst, float(np.max(np.abs(got - expect) / np.abs(expect))))
    assert worst <= 1e-13


# ----------------------------------------------------------------------
# S-matrix models
# ----------------------------------------------------------------------

def test_random_unitary_model_properties():
    model = random_unitary_smatrix(3, 4, seed=7)
    assert model.n_channels == 3
    assert model.l_max == 4
    assert model.unitarity_defect() < 1e-14
    again = random_unitary_smatrix(3, 4, seed=7)
    assert all(
        np.array_equal(a, b) for a, b in zip(model.matrices, again.matrices)
    )


@pytest.mark.parametrize("n_channels", [1, 2, 3])
@pytest.mark.parametrize("l_max", [0, 5, 12])
def test_random_unitary_smatrix_is_the_per_degree_loop(n_channels, l_max):
    # one draw and one QR per degree, as the stacked draw replaced it
    for seed in (0, 5, 11):
        rng = np.random.default_rng(seed)
        expect = []
        for _ in range(l_max + 1):
            g = rng.standard_normal((n_channels, n_channels)) + 1j * rng.standard_normal(
                (n_channels, n_channels)
            )
            q, r = np.linalg.qr(g)
            expect.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        model = random_unitary_smatrix(n_channels, l_max, seed=seed)
        assert len(model.matrices) == l_max + 1
        for got, ref in zip(model.matrices, expect):
            assert np.array_equal(got, ref)
        assert np.array_equal(model.stack, np.array(expect))
        assert not model.stack.flags.writeable
        assert not model.matrices[0].flags.writeable


def test_smatrix_model_validates_shapes():
    with pytest.raises(ValueError, match="degree-0"):
        type(random_unitary_smatrix(1, 0))(matrices=())
    with pytest.raises(ValueError, match="degree 1"):
        type(random_unitary_smatrix(1, 0))(matrices=(np.eye(2), np.eye(3)))
    model = type(random_unitary_smatrix(1, 0))(matrices=[np.eye(2), np.eye(2)])
    assert model.stack.shape == (2, 2, 2) and model.unitarity_defect() == 0.0


def test_hard_sphere_phases():
    k, a = 1.0, 0.5
    model = hard_sphere_model(k, a, 6)
    for s_l in model.matrices:
        assert abs(abs(s_l[0, 0]) - 1.0) < 1e-14
    # lowest phase shift is exactly -ka; all others follow the
    # regular/irregular Bessel ratio
    from scipy.special import spherical_jn, spherical_yn

    delta0 = np.angle(model.matrices[0][0, 0]) / 2
    assert delta0 == pytest.approx(-k * a, abs=1e-14)
    for l in range(1, 7):
        delta = np.angle(model.matrices[l][0, 0]) / 2
        expect = np.arctan(spherical_jn(l, k * a) / spherical_yn(l, k * a))
        assert delta == pytest.approx(expect, rel=1e-12)
    # cubic small-ka law for the l=1 phase
    tiny = hard_sphere_model(1.0, 0.05, 1)
    delta1 = np.angle(tiny.matrices[1][0, 0]) / 2
    assert delta1 == pytest.approx(-(0.05**3) / 3, rel=2e-3)
    # past the float64 range of y_l (l above about 150 at ka = 1) S_l is 1
    deep = hard_sphere_model(1.0, 1.0, 200)
    assert deep.matrices[200][0, 0] == 1.0
    assert deep.unitarity_defect() < 1e-12


def test_amplitudes_from_smatrix_axis_coefficients():
    model = random_unitary_smatrix(2, 3, seed=3)
    cs = channel_set(2)
    f = amplitudes_from_smatrix(model, cs)
    k_in = cs.k("c0")
    for (beta, l, m), value in f.coefficients.items():
        assert m == 0  # axis entrance excites only m = 0
        col = cs.labels.index("c0")
        row = cs.labels.index(beta)
        s_minus_1 = model.matrices[l][row, col] - (1.0 if row == col else 0.0)
        expect = (
            math.sqrt(4 * math.pi * (2 * l + 1))
            * s_minus_1
            / (2j * math.sqrt(k_in * cs.k(beta)))
        )
        assert value == pytest.approx(expect, rel=1e-13)


def test_amplitudes_from_smatrix_general_direction():
    model = random_unitary_smatrix(2, 2, seed=5)
    cs = channel_set(2)
    kappa = unit_from_angles(1.0, 2.0)
    f = amplitudes_from_smatrix(model, cs, kappa_hat=tuple(kappa))
    # entrance-direction dependence enters through conj(Y_lm(kappa))
    k_in = cs.k("c0")
    value = f.coefficient("c1", 2, 1)
    s_12 = model.matrices[2][1, 0]
    expect = 4 * math.pi * s_12 * np.conj(sph_harm(2, 1, kappa)) / (
        2j * math.sqrt(k_in * cs.k("c1"))
    )
    assert value == pytest.approx(expect, rel=1e-13)


def _scalar_smatrix_coefficients(model, channels, kappa_hat):
    """Reference: the coefficient formula evaluated one NumPy scalar at a time."""
    table = ylm_directions(model.l_max, kappa_hat)[:, 0]
    idx_in = channels.labels.index(channels.entrance)
    k_in = channels.entrance_channel.k
    coeffs = {}
    for l, mat in enumerate(model.matrices):
        t_col = mat[:, idx_in] - np.eye(model.n_channels)[:, idx_in]
        for i_beta, label in enumerate(channels.labels):
            for m in range(-l, l + 1):
                value = (
                    4.0
                    * np.pi
                    * t_col[i_beta]
                    * np.conj(table[mode_index(l, m)])
                    / (2j * math.sqrt(k_in * channels.k(label)))
                )
                if value != 0:
                    coeffs[(label, l, m)] = complex(value)
    return coeffs


@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_amplitudes_from_smatrix_match_scalar_formula(n_channels):
    model = random_unitary_smatrix(n_channels, 12, seed=40 + n_channels)
    directions = np.random.default_rng(n_channels).normal(size=(20, 3))
    for entrance in channel_set(n_channels).labels:
        cs = channel_set(n_channels).with_entrance(entrance)
        # on the axis every coefficient is bitwise the scalar formula's
        # the coefficient map is built on each read, so it is read once
        axis = amplitudes_from_smatrix(model, cs).coefficients
        expect = _scalar_smatrix_coefficients(model, cs, (0.0, 0.0, 1.0))
        assert axis.keys() == expect.keys()
        for key, value in expect.items():
            got = axis[key]
            assert (got.real, got.imag) == (value.real, value.imag)
        for kappa in directions:
            got = amplitudes_from_smatrix(model, cs, kappa_hat=kappa).coefficients
            expect = _scalar_smatrix_coefficients(model, cs, kappa)
            assert got.keys() == expect.keys()
            for key, value in expect.items():
                assert abs(got[key] - value) <= 1e-15 * abs(value)


def test_amplitudes_from_smatrix_wavenumbers_near_float_max():
    model = random_unitary_smatrix(2, 2, seed=4)
    cs = ChannelSet(channels=(Channel("a", 1e308), Channel("b", 1e308)), entrance="a")
    f = amplitudes_from_smatrix(model, cs)
    s_10 = model.matrices[1][1, 0] * math.sqrt(12 * math.pi) / 2j
    assert f.coefficient("b", 1, 0) == pytest.approx(s_10 / 1e308, rel=1e-14)
    # the product of two tiny wavenumbers underflows instead
    tiny = ChannelSet(channels=(Channel("a", 1e-200), Channel("b", 1e-200)), entrance="a")
    g = amplitudes_from_smatrix(model, tiny)
    assert g.coefficient("b", 1, 0) == pytest.approx(s_10 / 1e-200, rel=1e-14)


def test_hard_sphere_model_rejects_ka_outside_float_range():
    for k, a in ((1e200, 1e200), (1e-200, 1e-200)):
        with pytest.raises(ValueError, match="k\\*a"):
            hard_sphere_model(k, a, 4)
    for k, a in ((-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="k and a must be positive"):
            hard_sphere_model(k, a, 2)


def test_amplitudes_from_smatrix_rejects_nonunitary():
    model = random_unitary_smatrix(2, 2, seed=1)
    scaled = type(model)(matrices=tuple(1.1 * s for s in model.matrices))
    cs = channel_set(2)
    with pytest.raises(ValueError):
        amplitudes_from_smatrix(scaled, cs)
    # a nan block must fail the gate, also behind finite ones
    poisoned = type(model)(matrices=model.matrices + (np.full((2, 2), np.nan),))
    assert math.isnan(poisoned.unitarity_defect())
    with pytest.raises(ValueError):
        amplitudes_from_smatrix(poisoned, cs)
    with pytest.raises(ValueError, match="model channel count does not match channel set"):
        amplitudes_from_smatrix(model, channel_set(3))


def test_identity_smatrix_gives_empty_amplitude():
    eye = type(random_unitary_smatrix(2, 1))(
        matrices=tuple(np.eye(2, dtype=complex) for _ in range(2))
    )
    cs = channel_set(2)
    f = amplitudes_from_smatrix(eye, cs)
    assert f.coefficients == {}


def test_family_runs_the_unitarity_gate_once(monkeypatch):
    model = random_unitary_smatrix(3, 4, seed=4)
    cs = channel_set(3)
    calls = []
    gate = type(model).unitarity_defect
    monkeypatch.setattr(type(model), "unitarity_defect", lambda m: calls.append(1) or gate(m))
    family = smatrix_amplitude_family(model, cs)
    for entrance in cs.labels:
        for kappa in ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)):
            family(entrance, kappa)
    assert len(calls) == 1
    # a model that fails the gate fails it when the family is made
    bent = type(model)(matrices=tuple(1.1 * s for s in model.matrices))
    with pytest.raises(ValueError, match="not unitary"):
        smatrix_amplitude_family(bent, cs)


def test_smatrix_amplitudes_take_one_incident_direction():
    model = random_unitary_smatrix(2, 3, seed=4)
    cs = channel_set(2)
    family = smatrix_amplitude_family(model, cs)
    one = amplitudes_from_smatrix(model, cs, kappa_hat=(1.0, 0.0, 0.0))
    # a batch of one vector is that vector
    assert amplitudes_from_smatrix(model, cs, kappa_hat=[[1.0, 0.0, 0.0]]) == one
    assert family("c0", [[1.0, 0.0, 0.0]]) == one
    for kappa_hat in ([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], np.zeros((0, 3)), np.ones((2, 2, 3))):
        with pytest.raises(ValueError, match="one direction vector"):
            amplitudes_from_smatrix(model, cs, kappa_hat=kappa_hat)
        with pytest.raises(ValueError, match="one direction vector"):
            family("c1", kappa_hat)


def test_family_matches_direct_construction():
    model = random_unitary_smatrix(3, 2, seed=9)
    cs = channel_set(3)
    family = smatrix_amplitude_family(model, cs)
    kappa = unit_from_angles(0.7, 5.1)
    direct = amplitudes_from_smatrix(
        model, cs.with_entrance("c2"), kappa_hat=tuple(kappa)
    )
    via_family = family("c2", tuple(kappa))
    assert via_family == direct
