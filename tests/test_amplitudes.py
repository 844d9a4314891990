"""Partial-wave amplitudes, angular-operator coefficients, S-matrix models."""

from __future__ import annotations

import cmath
import math

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
from nearfield.special import chi, mode_index, sph_harm, unit_from_angles

from conftest import channel_set, raw_amplitude, unitary_amplitude


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


def test_amplitude_rejects_invalid_modes():
    with pytest.raises(ValueError):
        PartialWaveAmplitude({("a", -1, 0): 1.0})
    with pytest.raises(ValueError):
        PartialWaveAmplitude({("a", 1, 2): 1.0})


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
    k = cs.k("c1")
    for r in (0.8, 3.0, 20.0):
        for ang in ((0.4, 1.0), (2.2, 4.4)):
            nhat = unit_from_angles(*ang)
            exact = scattered_wave(f, cs, "c1", r, nhat)
            series = scattered_wave_series(f, cs, "c1", r, nhat)
            assert series == pytest.approx(exact, rel=1e-12)
            # adding terms beyond the termination order changes nothing
            longer = scattered_wave_series(f, cs, "c1", r, nhat, s_max=9)
            assert longer == exact or longer == pytest.approx(exact, rel=1e-15)


def test_scattered_wave_single_mode_chi_form():
    f = PartialWaveAmplitude({("a", 2, 0): 1.0})
    cs = ChannelSet(channels=(Channel("a", 1.3),), entrance="a")
    r = 2.1
    nhat = unit_from_angles(0.9, 0.0)
    k = 1.3
    expect = chi(2, -1j * k * r) / r * sph_harm(2, 0, nhat)
    assert scattered_wave(f, cs, "a", r, nhat) == pytest.approx(expect, rel=1e-14)


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


def test_identity_smatrix_gives_empty_amplitude():
    eye = type(random_unitary_smatrix(2, 1))(
        matrices=tuple(np.eye(2, dtype=complex) for _ in range(2))
    )
    cs = channel_set(2)
    f = amplitudes_from_smatrix(eye, cs)
    assert f.coefficients == {}


def test_family_matches_direct_construction():
    model = random_unitary_smatrix(3, 2, seed=9)
    cs = channel_set(3)
    family = smatrix_amplitude_family(model, cs)
    kappa = unit_from_angles(0.7, 5.1)
    direct = amplitudes_from_smatrix(
        model, cs.with_entrance("c2"), kappa_hat=tuple(kappa)
    )
    via_family = family("c2", tuple(kappa))
    assert via_family.coefficients == direct.coefficients
