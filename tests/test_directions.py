"""Direction vectors: one way in, the same bits in any batch, typed errors.

Every public function that takes direction vectors goes through
``special._directions`` and normalizes them by one rule in ``_ylm``, whose
two loop layouts (few directions one at a time, many at once) take the same
operations in the same order.  A direction's harmonics, and everything
built from them, therefore have the same bits alone as in any batch, and a
vector that is not finite or is zero raises the same ``ValueError`` in
either layout.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from nearfield.amplitudes import (
    amplitudes_from_smatrix,
    evaluate,
    random_unitary_smatrix,
    scattered_wave,
    scattered_wave_series,
    smatrix_amplitude_family,
)
from nearfield.flux import (
    differential_flux_asymptotic,
    differential_flux_exact,
    far_field_flux,
    flux_correction_term,
    optical_theorem_defect,
    unitarity_defect,
)
from nearfield.special import (
    FluxDomainError,
    angles_from_unit,
    sph_harm,
    ylm_directions,
    ylm_table,
)

from conftest import channel_set, unitary_amplitude


def _vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` nonzero vectors with zero components and magnitudes from 1e-250 to 1e250."""
    vectors = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-250.0, 250.0, (n, 3))
    vectors[rng.random((n, 3)) < 0.25] = 0.0
    vectors[~vectors.any(axis=1), 2] = -3.0
    return vectors


# Equality of floats is equality of bits, except that 0.0 == -0.0: NumPy
# fuses the multiply-add of a complex product, so a product that underflows
# to zero can take the other sign than in the scalar loop.


@pytest.mark.parametrize("l_max", range(41))
def test_every_column_has_the_bits_of_a_one_direction_call(l_max):
    rng = np.random.default_rng(1000 + l_max)
    for n in [*range(1, 9), 300]:
        vectors = _vectors(rng, n)
        alone = [ylm_directions(l_max, vector) for vector in vectors]
        np.testing.assert_array_equal(ylm_directions(l_max, vectors), np.hstack(alone))
        theta = rng.uniform(0.0, np.pi, n)
        theta[: min(n, 2)] = (0.0, np.pi)[: min(n, 2)]
        phi = rng.uniform(-7.0, 7.0, n)
        alone = [ylm_table(l_max, t, p) for t, p in zip(theta, phi)]
        np.testing.assert_array_equal(ylm_table(l_max, theta, phi), np.hstack(alone))


def test_smatrix_family_rows_do_not_depend_on_the_other_directions():
    # l_max 12: five directions take the vectorized layout, one the scalar
    # loop, which used to move the last bits of the rows
    model = random_unitary_smatrix(3, 12, seed=23)
    channels = channel_set(3)
    family = smatrix_amplitude_family(model, channels)
    labels, entrances = channels.labels, list(channels.labels)
    direction = (0.3, -0.5, 0.8)
    others = np.random.default_rng(5).normal(size=(4, 3))
    batch = np.concatenate([others[:1], [direction], others[1:]])
    alone, _ = family._rows(labels, entrances, np.array([direction]))
    together, _ = family._rows(labels, entrances, batch)
    l_max = math.isqrt(alone.shape[2]) - 1
    assert l_max == 12
    for e, entrance in enumerate(entrances):
        np.testing.assert_array_equal(alone[e], together[5 * e + 1])
        np.testing.assert_array_equal(alone[e], family(entrance, direction).rows(labels, l_max))


_F, _CHANNELS, _FAMILY = unitary_amplitude(2, 3, seed=41)
_MODEL = random_unitary_smatrix(2, 3, seed=41)
_GOOD = (0.3, -0.4, 0.5)

# name, call, whether it takes a batch of directions
_TAKERS = [
    ("ylm_directions", lambda d: ylm_directions(3, d), True),
    ("sph_harm", lambda d: sph_harm(2, -1, d), True),
    ("angles_from_unit", angles_from_unit, True),
    ("evaluate", lambda d: evaluate(_F, "c1", d), True),
    ("scattered_wave", lambda d: scattered_wave(_F, _CHANNELS, "c0", 5.0, d), True),
    (
        "scattered_wave_series",
        lambda d: scattered_wave_series(_F, _CHANNELS, "c0", 5.0, d, s_max=1),
        True,
    ),
    ("differential_flux_exact", lambda d: differential_flux_exact(_F, _CHANNELS, 5.0, d), True),
    (
        "differential_flux_asymptotic",
        lambda d: differential_flux_asymptotic(_F, _CHANNELS, 5.0, d),
        True,
    ),
    ("flux_correction_term", lambda d: flux_correction_term(_F, _CHANNELS, 5.0, d, 2), True),
    ("far_field_flux", lambda d: far_field_flux(_F, _CHANNELS, d), True),
    ("unitarity_defect", lambda d: unitarity_defect(_FAMILY, _CHANNELS, kappa_hats=d), True),
    (
        "unitarity_defect, bare amplitude",
        lambda d: unitarity_defect(_F, _CHANNELS, kappa_hats=d),
        False,
    ),
    ("optical_theorem_defect", lambda d: optical_theorem_defect(_F, _CHANNELS, d), False),
    ("amplitudes_from_smatrix", lambda d: amplitudes_from_smatrix(_MODEL, _CHANNELS, d), False),
    ("family", lambda d: _FAMILY("c1", d), False),
]

_BAD = {"nan": (math.nan, 0.5, 1.0), "inf": (0.2, -math.inf, 1.0), "zero": (0.0, 0.0, 0.0)}
# a batch of 3 takes the scalar layout in every call below, one of 300 the
# vectorized one; the bad vector is the second, behind a good one
_CASES = [
    pytest.param(call, bad, batch_size, id=f"{name}-{kind}-{batch_size or 'alone'}")
    for name, call, batch in _TAKERS
    for kind, bad in _BAD.items()
    for batch_size in ((3, 300) if batch else (None,))
]


@pytest.mark.parametrize("call, bad, batch_size", _CASES)
def test_bad_direction_raises_value_error_naming_it(call, bad, batch_size):
    if batch_size is None:
        directions = np.array(bad)
    else:
        directions = np.array([_GOOD, bad] + [_GOOD] * (batch_size - 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"got {list(bad)}")) as raised:
            call(directions)
    assert not isinstance(raised.value, FluxDomainError)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["theta", "phi"])
def test_ylm_table_rejects_non_finite_angles(which, angle):
    angles = {"theta": np.array([0.5, 1.0, 2.0]), "phi": np.array([0.1, 0.2, 0.3])}
    angles[which][1] = angle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"angle {which} must be finite, got {angle}"):
            ylm_table(4, angles["theta"], angles["phi"])


def test_ylm_table_rejects_angles_of_different_shapes():
    with pytest.raises(ValueError, match="theta and phi must have matching shapes"):
        ylm_table(2, np.zeros(3), np.zeros(2))
