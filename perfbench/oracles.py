"""Reference values computed apart from the package under test.

Only NumPy and SciPy are used here; nothing is imported from ``nearfield``.
Both oracles take an amplitude given by its per-degree S-matrices, the
entrance channel and the incident direction, which is how every built-in
amplitude of the package is defined.
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn


def cross_section(smatrices, ks, entrance: int) -> float:
    """Total cross section ``(pi/k_a^2) sum_l (2l+1) sum_b |(S_l - 1)_{b a}|^2``.

    ``smatrices[l]`` is the unitary channel matrix of degree ``l`` and
    ``ks`` the channel wavenumbers; ``entrance`` indexes the entrance
    channel.  The flux weights are momentum ratios.
    """
    total = 0.0
    for l, s in enumerate(smatrices):
        t = np.asarray(s, dtype=complex)[:, entrance].copy()
        t[entrance] -= 1.0
        total += (2 * l + 1) * float(np.sum(np.abs(t) ** 2))
    return np.pi / ks[entrance] ** 2 * total


def hard_sphere_smatrices(ka: float, l_max: int) -> list[np.ndarray]:
    """``S_l = -h_l^(2)(ka) / h_l^(1)(ka)`` of an impenetrable sphere, as 1x1 matrices."""
    ls = np.arange(l_max + 1)
    h1 = spherical_jn(ls, ka) + 1j * spherical_yn(ls, ka)
    return [np.array([[s]]) for s in -np.conj(h1) / h1]


def _hankel(l: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    h = spherical_jn(l, x) + 1j * spherical_yn(l, x)
    dh = spherical_jn(l, x, derivative=True) + 1j * spherical_yn(l, x, derivative=True)
    return h, dh


def radial_current(smatrices, ks, entrance: int, kappa, R: float, nhat):
    """Outgoing radial current through the sphere of radius ``R``.

    Returns ``(flux, scale)`` at the directions ``nhat`` (shape ``(n, 3)``).
    ``flux`` is ``sum_b w_b R^2 Im(conj(psi_b) d_R psi_b) / k_b`` with

        psi_b = sum_l c_l P_l(nhat . kappa) i^(l+1) k_b h_l(k_b R),
        c_l = (2l+1) (S_l - 1)_{b a} / (2i sqrt(k_a k_b)),

    the partial-wave series of the scattered wave written with SciPy's
    spherical Bessel functions (``chi_l(-ix) = i^(l+1) x h_l(x)``) and the
    Legendre addition theorem in place of spherical harmonics.  ``scale``
    replaces every term of both sums by its absolute value: the natural
    yardstick for rounding in a bilinear form that cancels.
    """
    nhat = np.atleast_2d(np.asarray(nhat, dtype=float))
    kappa = np.asarray(kappa, dtype=float)
    cos_gamma = nhat @ kappa / (np.linalg.norm(nhat, axis=1) * np.linalg.norm(kappa))
    ls = np.arange(len(smatrices))
    legendre = eval_legendre(ls[:, None], np.clip(cos_gamma, -1.0, 1.0)[None, :])
    phase = 1j ** (ls + 1)
    k_in = ks[entrance]
    flux = np.zeros(nhat.shape[0])
    scale = np.zeros(nhat.shape[0])
    for beta, k in enumerate(ks):
        t = np.array([np.asarray(s, dtype=complex)[beta, entrance] for s in smatrices])
        if beta == entrance:
            t = t - 1.0
        c = (2 * ls + 1) * t / (2j * np.sqrt(k_in * k))
        h, dh = _hankel(ls, k * R)
        terms = (c * phase * k * h)[:, None] * legendre
        dterms = (c * phase * k * k * dh)[:, None] * legendre
        psi, dpsi = terms.sum(axis=0), dterms.sum(axis=0)
        weight = k / k_in
        flux += weight * R * R * np.imag(np.conj(psi) * dpsi) / k
        scale += weight * R * R * np.abs(terms).sum(axis=0) * np.abs(dterms).sum(axis=0) / k
    return flux, scale


def sphere_nodes(order: int) -> np.ndarray:
    """Nodes of the product Gauss-Legendre x uniform-azimuth sphere rule.

    ``order + 1`` polar nodes (ascending in ``cos(theta)``'s Gauss order) times
    ``2*order + 1`` azimuths, polar index outermost; shape ``(n, 3)``.
    """
    x, _ = np.polynomial.legendre.leggauss(order + 1)
    n_phi = 2 * order + 1
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - x * x)
    return np.stack(
        [
            np.repeat(st, n_phi) * np.tile(np.cos(phi), x.size),
            np.repeat(st, n_phi) * np.tile(np.sin(phi), x.size),
            np.repeat(x, n_phi),
        ],
        axis=-1,
    )
