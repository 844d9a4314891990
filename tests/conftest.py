"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from nearfield.amplitudes import (
    Channel,
    ChannelSet,
    PartialWaveAmplitude,
    amplitudes_from_smatrix,
    random_unitary_smatrix,
    smatrix_amplitude_family,
)

_CHANNEL_KS = (1.0, 0.8, 1.3, 0.6)


def channel_set(n: int, entrance: int = 0, weight_mode: str = "momentum_ratio") -> ChannelSet:
    """Deterministic n-channel set with fixed wavenumbers."""
    chans = tuple(
        Channel(label=f"c{i}", k=_CHANNEL_KS[i], velocity=_CHANNEL_KS[i] ** 2)
        for i in range(n)
    )
    return ChannelSet(channels=chans, entrance=f"c{entrance}", weight_mode=weight_mode)


def unitary_amplitude(n: int, l_max: int, seed: int):
    """Flux-conserving amplitude drawn from a random unitary S-matrix."""
    model = random_unitary_smatrix(n, l_max, seed=seed)
    channels = channel_set(n)
    f = amplitudes_from_smatrix(model, channels)
    family = smatrix_amplitude_family(model, channels)
    return f, channels, family


def raw_amplitude(rng: np.random.Generator, channels: ChannelSet, l_max: int) -> PartialWaveAmplitude:
    """Unconstrained random coefficients (not flux conserving)."""
    coeffs = {}
    for beta in channels.labels:
        for l in range(l_max + 1):
            for m in range(-l, l + 1):
                coeffs[(beta, l, m)] = complex(rng.normal(), rng.normal())
    return PartialWaveAmplitude(coeffs)


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def macdonald_chi(l: int, z: complex) -> complex:
    """chi_l through the half-odd-order Macdonald function (mpmath)."""
    import mpmath as mp

    with mp.workdps(40):
        zm = mp.mpc(z)
        value = mp.sqrt(2 * zm / mp.pi) * mp.besselk(l + mp.mpf(1) / 2, zm)
        return complex(value)


def bessel_psi_downward(l_max: int, x: float) -> np.ndarray:
    """Regular radial factors x*j_l(x) via Miller downward recurrence.

    Starts the two-term recurrence far above l_max with arbitrary seed
    values and renormalizes against sin(x), which is exact for l=0.
    """
    start = l_max + 30 + int(2 * abs(x))
    jl = np.zeros(start + 2)
    jl[start + 1] = 0.0
    jl[start] = 1e-30
    for l in range(start, 0, -1):
        jl[l - 1] = (2 * l + 1) / x * jl[l] - jl[l + 1]
    scale = (np.sin(x) / x) / jl[0]
    return x * jl[: l_max + 1] * scale


def hard_sphere_sigma_oracle(k: float, a: float, l_max: int) -> float:
    """Total cross section from Bessel-ratio phase shifts (mpmath)."""
    import mpmath as mp

    with mp.workdps(40):
        ka = mp.mpf(k) * mp.mpf(a)
        total = mp.mpf(0)
        for l in range(l_max + 1):
            nu = l + mp.mpf(1) / 2
            j = mp.sqrt(mp.pi / (2 * ka)) * mp.besselj(nu, ka)
            y = mp.sqrt(mp.pi / (2 * ka)) * mp.bessely(nu, ka)
            delta = mp.atan(j / y)
            total += (2 * l + 1) * mp.sin(delta) ** 2
        return float(4 * mp.pi / mp.mpf(k) ** 2 * total)


def _chi_series(l: int) -> list[int]:
    """Integer coefficients ``(l+s)!/(s!(l-s)!)`` of the decaying solution's series."""
    return [
        math.factorial(l + s) // (math.factorial(s) * math.factorial(l - s)) for s in range(l + 1)
    ]


def _signed_series(l: int, sign: int) -> np.ndarray:
    """``P_l(sign * u)``, ascending integer coefficients (an object array)."""
    return np.array([c * sign**s for s, c in enumerate(_chi_series(l))], dtype=object)


def _derivative(p: np.ndarray) -> np.ndarray:
    return np.array([n * c for n, c in enumerate(p)][1:] or [0], dtype=object)


@lru_cache(maxsize=None)
def series_product_oracle(l: int, j: int) -> tuple[int, ...]:
    """``A_n = [u**n] P_l(-u) P_j(u)`` for ``n <= j + l``: the plain product of the two
    terminating series, factorial by factorial."""
    return tuple(np.convolve(_signed_series(l, -1), _signed_series(j, 1)))


@lru_cache(maxsize=None)
def laurent_oracle(l: int, j: int) -> tuple[int, ...]:
    """Integer Laurent coefficients of ``HW(j, l; z)`` in ``u = 1/(2z)``, to the last nonzero.

    They come from the current combination itself, ``q p + u**2 (q p' - q' p)``
    with ``q = P_l(-u)`` and ``p = P_j(u)``, the chain-rule image of the
    defining derivative combination: three series products, no recurrence.
    """
    q, p = _signed_series(l, -1), _signed_series(j, 1)
    out = np.zeros(j + l + 3, dtype=object)
    qp = np.convolve(q, p)
    out[: qp.size] += qp
    for sign, cross in ((1, np.convolve(q, _derivative(p))), (-1, np.convolve(_derivative(q), p))):
        out[2 : 2 + cross.size] += sign * cross
    return tuple(np.trim_zeros(out, "b"))


def pair_factor_oracle(l: int, js, z: complex) -> np.ndarray:
    """``HW(j, l; z)`` for each ``j`` of ``js`` at imaginary ``z``, 50 digits (mpmath).

    The Laurent coefficients in ``u = 1/(2z)`` are built here in exact
    integers, ``1`` and ``delta * A_n / (n + 1)`` with ``A_n = [u**n]
    P_l(-u) P_j(u)``; the sum runs in 50-digit arithmetic at the float
    ``u`` that the program uses, split into the even and odd powers of the
    purely imaginary ``u``.
    """
    import mpmath as mp

    u = 0.5 / complex(z)
    assert u.real == 0
    out = np.empty(len(js), dtype=complex)
    with mp.workdps(50):
        y = mp.mpf(u.imag)
        for i, j in enumerate(js):
            delta = j * (j + 1) - l * (l + 1)
            products = series_product_oracle(l, j)
            coeffs = [1, *(delta * a // (n + 1) for n, a in enumerate(products))]
            # u**m = (i y)**m is real for even m, imaginary for odd m, of sign (-1)**(m // 2)
            signed = [mp.mpf((-1) ** (m // 2) * c) for m, c in enumerate(coeffs)]
            re = mp.polyval(signed[0::2][::-1], y * y)
            im = y * mp.polyval(signed[1::2][::-1], y * y)
            out[i] = complex(mp.mpc(re, im))
    return out


def flux_oracle(f, channels, R: float, nhat) -> np.ndarray:
    """``sum_beta weight_beta sum_{l,j} conj(S_l) HW_lj S_j`` at ``z = -i k_beta R``, 60 digits.

    The degree sums ``S_l`` are the program's (``flux._degree_sums``), which
    both flux paths share; the pair factors come from the exact integers of
    ``laurent_oracle``, summed with the sums in 60-digit arithmetic (mpmath)
    at the float ``u = 1/(2z)`` of the program.  One value per direction of
    the ``(n, 3)`` array ``nhat``.
    """
    import mpmath as mp

    from nearfield.flux import _degree_sums

    l_max = f.l_max
    out = np.zeros(len(nhat))
    with mp.workdps(60):
        for label, sums in zip(*_degree_sums(f, channels, np.asarray(nhat, dtype=float))):
            u = mp.mpc(0.5 / complex(-1j * channels.k(label) * R))
            pairs = mp.matrix(l_max + 1, l_max + 1)
            for l in range(l_max + 1):
                for j in range(l_max + 1):
                    coeffs = [mp.mpf(c) for c in laurent_oracle(l, j)]
                    pairs[l, j] = mp.polyval(coeffs[::-1], u)
            for p in range(len(nhat)):
                s = mp.matrix([mp.mpc(complex(v)) for v in sums[:, p]])
                value = (s.H * pairs * s)[0]
                out[p] += float(channels.weight(label) * mp.re(value))
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
