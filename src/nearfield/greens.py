"""Three routes to the free-space point-source kernel.

``greens_point`` evaluates the closed form ``exp(+-ik|R - x|)/(4 pi |R - x|)``
directly and serves as the oracle.  ``greens_multipole`` rebuilds it from the
mode sum over products of the regular solution at the inner radius and the
decaying solution at the outer radius, valid for ``|x| < |R|``.
``greens_asymptotic`` replaces each mode's decaying solution by its distance
expansion truncated at a chosen order, which is the per-mode image of the
operator expansion of the kernel; with the truncation order at or above the
retained degrees it coincides with the multipole sum identically, and its
error against the closed form falls off one power of ``kR`` faster for each
retained order.

Both mode sums run per degree only: the addition theorem
``sum_m Y_l^m(R_hat) conj(Y_l^m(x_hat)) = (2l+1)/(4 pi) P_l(cos gamma)``
(DLMF 14.30.9) collapses the orders into one Legendre polynomial of the angle
between the two points, and the outer factors of every degree come from one
ratio-accumulated table of the decaying solution's series terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .special import FluxDomainError, _chi_table, _legendre_table, _radial_table

__all__ = [
    "GreensQuery",
    "auto_l_max",
    "greens_asymptotic",
    "greens_multipole",
    "greens_point",
]


@dataclass(frozen=True)
class GreensQuery:
    """One kernel evaluation: wavenumber, outer point, inner point, sign.

    ``sign`` is +1 for the outgoing kernel, -1 for the incoming one.  The
    mode sum converges only inside the sphere through the outer point, so
    ``|x_vec| < |R_vec|`` is enforced at construction.
    """

    k: float
    R_vec: np.ndarray
    x_vec: np.ndarray
    sign: int = +1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("wavenumber must be positive")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 (outgoing) or -1 (incoming)")
        R = np.asarray(self.R_vec, dtype=float).reshape(3)
        x = np.asarray(self.x_vec, dtype=float).reshape(3)
        R.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "R_vec", R)
        object.__setattr__(self, "x_vec", x)
        if not np.linalg.norm(x) < np.linalg.norm(R):
            raise ValueError("require |x_vec| < |R_vec| for the mode expansion")

    @property
    def big_r(self) -> float:
        return float(np.linalg.norm(self.R_vec))

    @property
    def small_r(self) -> float:
        return float(np.linalg.norm(self.x_vec))


def greens_point(query: GreensQuery) -> complex:
    """Closed-form kernel ``exp(+-ik d)/(4 pi d)``, ``d = |R_vec - x_vec|``."""
    d = float(np.linalg.norm(query.R_vec - query.x_vec))
    if d == 0.0:
        raise ValueError("coincident source and observation points")
    return complex(np.exp(1j * query.sign * query.k * d) / (4.0 * np.pi * d))


def auto_l_max(k: float, r: float) -> int:
    """Default angular cutoff for the mode sums.

    The inner radial factor decays super-exponentially once the degree
    exceeds ``k r``, but at small ``k r`` the tail falls off only like
    ``(r/R)**l``; ``ceil(e * k * r) + 30`` keeps it below 1e-9 relative for
    inner/outer ratios up to one half.
    """
    if k <= 0 or r < 0:
        raise ValueError("need k > 0 and r >= 0")
    return int(math.ceil(math.e * k * r)) + 30


def _assemble(query: GreensQuery, l_max: int, s_max: int) -> complex:
    k, R, r = query.k, query.big_r, query.small_r
    z = -query.sign * 1j * k * R
    if r == 0.0:
        # only the degree-0 mode survives; its inner factor tends to 1
        return complex(_chi_table(0, z)[0] / (4.0 * np.pi * R))
    ls = np.arange(l_max + 1)
    cos_gamma = np.clip(query.R_vec @ query.x_vec / (R * r), -1.0, 1.0)
    phases = (1j) ** (-query.sign * ls)
    psi = _radial_table(l_max, k * r)[0]
    msums = (2 * ls + 1) / (4.0 * np.pi) * _legendre_table(l_max, cos_gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        outer = _chi_table(l_max, z, s_max)
        value = complex(np.sum(outer * phases * psi * msums) / (k * r * R))
    if not cmath.isfinite(value):
        # the outer factors pass the float64 limit while the inner ones
        # underflow, and inf * 0 leaves nan
        raise FluxDomainError(
            f"multipole sum at l_max={l_max}, z={z} is not finite: the outer "
            f"factors exceed the float64 limit {np.finfo(float).max:.4g}; lower "
            f"l_max (auto_l_max gives {auto_l_max(k, r)})"
        )
    return value


def greens_multipole(query: GreensQuery, l_max: int | None = None) -> complex:
    """Mode-sum kernel, converging to ``greens_point`` as ``l_max`` grows.

    Per degree the term is ``chi_l(-sign * i k R) i^{-sign * l}
    psi_l(k r) (2l+1) P_l(cos gamma) / (4 pi k r R)`` with ``gamma`` the
    angle between the two points; the default cutoff comes from
    ``auto_l_max``.  A cutoff far above ``auto_l_max`` at small ``k R``
    overflows the outer factors and raises ``FluxDomainError``.
    """
    if l_max is None:
        l_max = auto_l_max(query.k, query.small_r)
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    return _assemble(query, l_max, s_max=l_max)


def greens_asymptotic(
    query: GreensQuery, s_max: int, l_max: int | None = None
) -> complex:
    """Kernel with each mode's outer factor truncated at expansion order ``s_max``.

    The outer factor becomes ``exp(sign * i k R) sum_{s<=min(s_max,l)}
    g_s(l) / (2z)^s`` where ``g_s(l)`` is the order-``s`` operator product
    ``prod [l(l+1) - mu(mu-1)]/s!`` evaluated on the degree-``l`` eigenvalue,
    which is the integer ``(l+s)!/(s!(l-s)!)`` of the decaying solution's
    series.  With ``s_max >= l_max`` every per-mode series is complete and
    the result equals ``greens_multipole`` at the same cutoff bit for bit.
    """
    if s_max < 0:
        raise ValueError("s_max must be non-negative")
    if l_max is None:
        l_max = auto_l_max(query.k, query.small_r)
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    return _assemble(query, l_max, s_max)
