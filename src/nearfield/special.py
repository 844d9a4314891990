"""Free radial solutions, spherical harmonics, and sphere quadrature.

The radial building blocks are the two standard solutions of the free radial
equation for angular momentum ``l``:

* ``regular_psi(l, x)``: the solution regular at the origin, ``x * j_l(x)``
  with ``j_l`` the spherical Bessel function.
* ``chi(l, z)``: the solution that decays like ``exp(-z)`` for large ``|z|``.
  It terminates: ``chi(l, z) = exp(-z) * sum_{S=0}^{l} c_S / (2 z)**S`` with
  exact integer coefficients ``c_S = (l+S)! / (S! (l-S)!)``.  Evaluated on the
  imaginary axis ``z = -i k R`` it carries the outgoing spherical wave, so it
  is the workhorse of every finite-distance formula in this package.

Angular building blocks are complex spherical harmonics in the physics
convention (Condon-Shortley phase included) and a product Gauss-Legendre x
uniform-azimuth sphere grid whose quadrature is exact for harmonic pair
products up to a requested degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import spherical_jn, sph_harm_y

__all__ = [
    "AngularGrid",
    "ChiPolynomial",
    "FluxDomainError",
    "angles_from_unit",
    "chi",
    "chi_coefficient",
    "gauss_legendre_sphere",
    "mode_degrees",
    "mode_index",
    "mode_list",
    "regular_psi",
    "sph_harm",
    "unit_from_angles",
    "ylm_table",
]


# ----------------------------------------------------------------------
# decaying radial solution
# ----------------------------------------------------------------------

class FluxDomainError(ValueError):
    """Raised where a float64 evaluation would leave the finite range.

    The decaying solution grows like ``(2l)! / (l! (2|z|)**l)`` toward small
    ``|z|``, so high degrees at small ``k R`` overflow.  The message names
    ``l_max``, the distance (``z`` or ``kR``) and the limit that was
    crossed.
    """


@lru_cache(maxsize=None)
def _chi_integers(order: int) -> tuple[int, ...]:
    f = math.factorial
    return tuple(f(order + s) // (f(s) * f(order - s)) for s in range(order + 1))


@lru_cache(maxsize=None)
def _chi_coefficients(order: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in _chi_integers(order))


def chi_coefficient(l: int, s: int) -> Fraction:
    """Exact series coefficient ``(l+s)! / (s! (l-s)!)``; zero for ``s > l``.

    These integers appear twice in the package: as the terminating series of
    the decaying radial solution, and as the image of the product of angular
    operators ``prod_{m=1}^{s} (L^2 - m(m-1)) / s!`` acting on a single
    harmonic of degree ``l``.  The dual-route tests exercise the equality of
    the two roles.
    """
    if l < 0 or s < 0:
        raise ValueError("orders must be non-negative")
    if s > l:
        return Fraction(0)
    return _chi_coefficients(l)[s]


@dataclass(frozen=True)
class ChiPolynomial:
    """Terminating series content of the decaying radial solution.

    ``evaluate(z)`` returns the full solution including the ``exp(-z)``
    factor; ``series(z)`` returns only the polynomial part in ``1/(2z)``,
    which is what survives when exponentials cancel analytically inside a
    product (see ``wronskian.integral_representation_check``).
    """

    order: int
    coefficients: tuple[Fraction, ...]

    @classmethod
    def for_order(cls, order: int) -> "ChiPolynomial":
        if order < 0:
            raise ValueError("order must be non-negative")
        return cls(order=order, coefficients=_chi_coefficients(order))

    def series(self, z: complex | np.ndarray) -> complex | np.ndarray:
        z = np.asarray(z)
        if np.any(z == 0):
            raise ValueError("series is singular at z = 0")
        u = 1.0 / (2.0 * z)
        # Ascending accumulation through the neighbor ratio
        # c_{s+1}/c_s = (order+s+1)(order-s)/(s+1): materialized float
        # coefficients overflow near order 140 even when every term of the
        # sum is moderate.
        term = np.ones_like(u)
        acc = np.ones_like(u)
        for s in range(self.order):
            term = term * u * ((self.order + s + 1) * (self.order - s) / (s + 1))
            acc = acc + term
        return acc if acc.ndim else acc[()]

    def evaluate(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return np.exp(-np.asarray(z)) * self.series(z)

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return self.evaluate(z)


def chi_terms(l_max: int, s_max: int, u: complex) -> np.ndarray:
    """Series terms ``c_s(l) u**s`` for ``s <= s_max`` and ``l <= l_max``.

    Shape ``(s_max + 1, l_max + 1)``: row ``s`` holds the order-``s`` term
    of every degree, zero for ``s > l``; with ``u = 1/(2z)`` the column sums
    are ``exp(z) chi_l(z)`` truncated at ``s_max``.  The integers
    ``c_s(l) = (l+s)!/(s!(l-s)!)`` enter only through the neighbour ratio
    ``c_{s+1}/c_s = (l+s+1)(l-s)/(s+1)``, accumulated by one ``cumprod`` down
    the rows: materialized coefficients would overflow near degree 140 even
    where every term is moderate.  Toward small ``|z|`` high orders can
    still overflow; callers check the result.
    """
    s = np.arange(s_max)[:, None]
    l = np.arange(l_max + 1)[None, :]
    ratios = (l + s + 1) * (l - s) / (s + 1) * u
    return np.concatenate([np.ones((1, l_max + 1)), np.cumprod(ratios, axis=0)])


def chi(l: int, z: complex | np.ndarray) -> complex | np.ndarray:
    """Decaying free radial solution ``exp(-z) * sum_S c_S / (2z)**S``."""
    return ChiPolynomial.for_order(l).evaluate(z)


def regular_psi(l: int, x: float | np.ndarray) -> float | np.ndarray:
    """Regular free radial solution ``x * j_l(x)``, for ``x > 0`` only.

    Vanishes like ``x**(l+1)`` toward the origin; real for real argument.
    """
    if l < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be positive")
    out = x * spherical_jn(l, x)
    return out if out.ndim else out[()]


# ----------------------------------------------------------------------
# spherical harmonics and mode bookkeeping
# ----------------------------------------------------------------------

def sph_harm(l: int, m: int, nhat) -> complex | np.ndarray:
    """Complex spherical harmonic ``Y_l^m`` with Condon-Shortley phase.

    ``nhat`` is a direction vector of shape ``(..., 3)``; it need not be
    normalized.
    """
    if l < 0 or abs(m) > l:
        raise ValueError("require l >= 0 and |m| <= l")
    theta, phi = angles_from_unit(nhat)
    return sph_harm_y(l, m, theta, phi)


def mode_index(l: int, m: int) -> int:
    """Position of ``(l, m)`` in the flattened ``(0,0), (1,-1), (1,0), ...`` order."""
    if l < 0 or abs(m) > l:
        raise ValueError("require l >= 0 and |m| <= l")
    return l * l + (m + l)


@lru_cache(maxsize=None)
def mode_list(l_max: int) -> tuple[tuple[int, int], ...]:
    """All ``(l, m)`` pairs with ``l <= l_max`` in ``mode_index`` order."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    return tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))


@lru_cache(maxsize=None)
def mode_degrees(l_max: int) -> np.ndarray:
    """Degree ``l`` of each flattened mode, shape ``((l_max+1)**2,)``."""
    arr = np.array([l for l, _ in mode_list(l_max)], dtype=np.intp)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _mode_lm_arrays(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    modes = mode_list(l_max)
    ls = np.array([l for l, _ in modes], dtype=np.intp)
    ms = np.array([m for _, m in modes], dtype=np.intp)
    ls.flags.writeable = False
    ms.flags.writeable = False
    return ls, ms


def ylm_table(l_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All harmonics up to ``l_max`` at the given angles.

    Returns a complex array of shape ``((l_max+1)**2, n_points)`` whose row
    order matches ``mode_list(l_max)``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape:
        raise ValueError("theta and phi must have matching shapes")
    ls, ms = _mode_lm_arrays(l_max)
    return sph_harm_y(ls[:, None], ms[:, None], theta[None, :], phi[None, :])


# ----------------------------------------------------------------------
# directions
# ----------------------------------------------------------------------

def unit_from_angles(theta, phi) -> np.ndarray:
    """Unit vectors from polar/azimuth angles; output shape ``(..., 3)``."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
    )


def angles_from_unit(nhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar/azimuth angles of direction vectors of shape ``(..., 3)``.

    Vectors need not be normalized; zero vectors are rejected.
    """
    nhat = np.asarray(nhat, dtype=float)
    if nhat.shape[-1] != 3:
        raise ValueError("directions must have shape (..., 3)")
    norm = np.linalg.norm(nhat, axis=-1)
    if np.any(norm == 0):
        raise ValueError("zero direction vector")
    theta = np.arccos(np.clip(nhat[..., 2] / norm, -1.0, 1.0))
    phi = np.arctan2(nhat[..., 1], nhat[..., 0])
    return theta, phi


# ----------------------------------------------------------------------
# sphere quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AngularGrid:
    """Product quadrature grid on the unit sphere.

    ``order`` is the guaranteed exactness degree: the weighted sum of
    ``conj(Y_a) * Y_b`` over the nodes equals the exact orthonormality
    integral whenever both degrees are at most ``order``.
    """

    order: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "weights"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape != self.theta.shape:
                raise ValueError("grid arrays must be matching 1-d arrays")

    @property
    def n_nodes(self) -> int:
        return self.theta.size

    @property
    def points(self) -> np.ndarray:
        """Node unit vectors, shape ``(n_nodes, 3)``."""
        return unit_from_angles(self.theta, self.phi)

    def integrate(self, values: np.ndarray) -> complex | float:
        """Weighted sum of per-node samples (last axis runs over nodes)."""
        values = np.asarray(values)
        if values.shape[-1] != self.n_nodes:
            raise ValueError("sample count does not match grid")
        out = values @ self.weights
        return out if np.ndim(out) else out[()]


@lru_cache(maxsize=32)
def _sphere_grid_arrays(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_theta = order + 1
    n_phi = 2 * order + 1
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w, n_phi) * (2.0 * np.pi / n_phi)
    for arr in (theta, phi, weights):
        arr.flags.writeable = False
    return theta, phi, weights


def gauss_legendre_sphere(order: int) -> AngularGrid:
    """Grid with ``order + 1`` polar nodes and ``2*order + 1`` azimuths.

    Gauss-Legendre in ``cos(theta)`` integrates polar polynomials up to
    degree ``2*order + 1`` exactly; the uniform azimuth rule is exact for
    Fourier modes up to ``2*order``.  Together the rule resolves every
    product ``conj(Y_a) Y_b`` with ``max(deg a, deg b) <= order`` exactly,
    and the weights sum to the full solid angle.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    theta, phi, weights = _sphere_grid_arrays(order)
    return AngularGrid(order=order, theta=theta, phi=phi, weights=weights)
