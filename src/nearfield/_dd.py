"""Double-double (hi/lo float64 pair) arithmetic for sphere quadrature.

Total-flux conservation is an exact analytic statement, but verifying it at
small ``k R`` in plain float64 is hopeless: the pointwise flux integrand can
exceed the integral by fifteen orders of magnitude and the quadrature loses
the cancellation.  The cure used here is to precompute the quadrature Gram
matrix of spherical-harmonic pairs in roughly 32-digit arithmetic, so the
near-perfect orthogonality cancellations happen *before* any large pair
factor multiplies in.  Everything downstream stays float64.  A grid of
order at least ``l_max`` needs none of this, since it integrates the
harmonic pairs exactly and the total follows from orthonormality; the
Gram serves only grids of lower order.

The double-double representation stores a value as an unevaluated sum
``hi + lo`` with ``|lo| <= ulp(hi)/2``.  All primitives below are branch-free
error-free transformations and operate elementwise on NumPy arrays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import _gauss_legendre, mode_list

__all__ = [
    "dd_add",
    "dd_div",
    "dd_from_fraction",
    "dd_mul",
    "dd_sqrt",
    "dd_sub",
    "gauss_legendre_nodes_dd",
    "sphere_mode_gram",
    "two_prod",
    "two_sum",
]

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


# ----------------------------------------------------------------------
# error-free transformations
# ----------------------------------------------------------------------

def two_sum(a, b):
    """Exact sum: returns (s, e) with s + e == a + b and s == fl(a + b)."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Exact product: returns (p, e) with p + e == a * b and p == fl(a * b)."""
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ----------------------------------------------------------------------
# double-double arithmetic on (hi, lo) pairs
# ----------------------------------------------------------------------

def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return _quick_two_sum(s, e)


def dd_sub(x, y):
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, np.zeros_like(q1) if np.ndim(q1) else 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, np.zeros_like(q2) if np.ndim(q2) else 0.0), y))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, np.zeros_like(q3) if np.ndim(q3) else 0.0))


def dd_sqrt(x):
    """Square root of a non-negative double-double via one Newton step."""
    a = np.sqrt(x[0])
    p, e = two_prod(a, a)
    diff = dd_add(dd_sub(x, (p, e)), (0.0, 0.0))
    corr = diff[0] / (2.0 * a)
    return _quick_two_sum(a, corr)


def dd_from_fraction(fr: Fraction):
    """Round an exact rational to double-double (about 32 digits)."""
    hi = float(fr)
    lo = float(fr - Fraction(hi))
    return (hi, lo)


# 2 pi and 1/sqrt(4 pi) as double-double pairs, rounded from 50-digit values
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
_Y00 = (0.28209479177387814, 3.83386490329147e-18)


# ----------------------------------------------------------------------
# Gauss-Legendre nodes and normalized associated Legendre rows
# ----------------------------------------------------------------------

def _legendre_dd(n: int, x):
    """Legendre P_n and P_{n-1} at double-double x (arrays)."""
    zeros = np.zeros_like(x[0])
    p_prev = (np.ones_like(x[0]), zeros.copy())
    if n == 0:
        return p_prev, (zeros.copy(), zeros.copy())
    p_cur = x
    for k in range(1, n):
        # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        t1 = dd_mul((float(2 * k + 1), zeros), dd_mul(x, p_cur))
        t2 = dd_mul((float(k), zeros), p_prev)
        p_next = dd_div(dd_sub(t1, t2), (float(k + 1), zeros))
        p_prev, p_cur = p_cur, p_next
    return p_cur, p_prev


def gauss_legendre_nodes_dd(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] in double-double.

    Float64 seeds are polished with three Newton steps using the
    double-double Legendre recurrence; weights use
    ``w = 2 / ((1 - x^2) P_n'(x)^2)``.
    """
    if n < 1:
        raise ValueError("need at least one node")
    seed, _ = _gauss_legendre(n)
    zeros = np.zeros_like(seed)
    x = (seed.copy(), zeros.copy())
    one = (np.ones_like(seed), zeros.copy())
    nn = (float(n), zeros)
    for _ in range(3):
        pn, pnm1 = _legendre_dd(n, x)
        # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
        num = dd_mul(nn, dd_sub(dd_mul(x, pn), pnm1))
        den = dd_sub(dd_mul(x, x), one)
        dpn = dd_div(num, den)
        x = dd_sub(x, dd_div(pn, dpn))
    pn, pnm1 = _legendre_dd(n, x)
    num = dd_mul(nn, dd_sub(dd_mul(x, pn), pnm1))
    den = dd_sub(dd_mul(x, x), one)
    dpn = dd_div(num, den)
    w = dd_div(
        (np.full_like(seed, 2.0), zeros.copy()),
        dd_mul(dd_sub(one, dd_mul(x, x)), dd_mul(dpn, dpn)),
    )
    return x, w


@lru_cache(maxsize=None)
def _npl_ab(l: int, m: int) -> tuple[tuple[float, float], tuple[float, float]]:
    a = dd_sqrt(dd_from_fraction(Fraction(4 * l * l - 1, l * l - m * m)))
    b = dd_sqrt(
        dd_from_fraction(
            Fraction((2 * l + 1) * (l - 1 + m) * (l - 1 - m), (2 * l - 3) * (l * l - m * m))
        )
    )
    return a, b


def _npl_table_dd(l_max: int, x):
    """Normalized associated Legendre values at double-double nodes.

    Returns ``table[(l, m)] = dd array`` for ``0 <= m <= l <= l_max`` with the
    Condon-Shortley phase folded in, normalized so that
    ``Y_l^m = table[(l, m)] * exp(i m phi)`` for ``m >= 0``.
    """
    n = x[0].size
    zeros = np.zeros(n)
    one_minus_x2 = dd_sub((np.ones(n), zeros.copy()), dd_mul(x, x))
    s = dd_sqrt(one_minus_x2)
    hi, lo = _Y00
    table = {(0, 0): (np.full(n, hi), np.full(n, lo))}
    for m in range(1, l_max + 1):
        fac = dd_sqrt(dd_from_fraction(Fraction(2 * m + 1, 2 * m)))
        prev = table[(m - 1, m - 1)]
        val = dd_mul(dd_mul(fac, s), prev)
        table[(m, m)] = (-val[0], -val[1])
    for m in range(0, l_max):
        fac = dd_sqrt(dd_from_fraction(Fraction(2 * m + 3, 1)))
        table[(m + 1, m)] = dd_mul(dd_mul(fac, x), table[(m, m)])
    for m in range(0, l_max + 1):
        for l in range(m + 2, l_max + 1):
            a, b = _npl_ab(l, m)
            t1 = dd_mul(a, dd_mul(x, table[(l - 1, m)]))
            t2 = dd_mul(b, table[(l - 2, m)])
            table[(l, m)] = dd_sub(t1, t2)
    return table


# ----------------------------------------------------------------------
# sphere Gram matrix
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def sphere_mode_gram(order: int, l_max: int) -> np.ndarray:
    """Quadrature Gram matrix ``G[a, b] = sum_i w_i conj(Y_a) Y_b`` on the
    product grid of ``gauss_legendre_sphere(order)``, in double-double.

    The azimuth sum of ``exp(i d phi)`` over ``2*order + 1`` uniform nodes is
    exactly ``2 pi`` when ``d`` is a multiple of the node count and exactly
    zero otherwise, so only the polar Gauss-Legendre part needs extended
    precision.  Entries are returned collapsed to complex128; off-diagonal
    residues of order 1e-32 survive the collapse, which is what makes the
    factored total-flux contraction immune to the pair-factor blowup at
    small ``k R``.

    The row/column order matches ``special.mode_list(l_max)``.
    """
    if order < 0 or l_max < 0:
        raise ValueError("order and l_max must be non-negative")
    n_phi = 2 * order + 1
    x, w = gauss_legendre_nodes_dd(order + 1)
    table = _npl_table_dd(l_max, x)

    modes = mode_list(l_max)
    n_modes = len(modes)
    n_theta = x[0].size
    rows_hi = np.empty((n_modes, n_theta))
    rows_lo = np.empty((n_modes, n_theta))
    for idx, (l, m) in enumerate(modes):
        hi, lo = table[(l, abs(m))]
        if m < 0 and (m % 2) != 0:
            hi, lo = -hi, -lo
        rows_hi[idx] = hi
        rows_lo[idx] = lo

    weighted = dd_mul((rows_hi, rows_lo), (w[0][None, :], w[1][None, :]))
    acc = (np.zeros((n_modes, n_modes)), np.zeros((n_modes, n_modes)))
    for i in range(n_theta):
        term = dd_mul(
            (weighted[0][:, None, i], weighted[1][:, None, i]),
            (rows_hi[None, :, i], rows_lo[None, :, i]),
        )
        acc = dd_add(acc, term)
    acc = dd_mul(acc, _TWO_PI)

    ms = np.array([m for _, m in modes])
    azimuth_pass = ((ms[None, :] - ms[:, None]) % n_phi) == 0
    gram = np.where(azimuth_pass, acc[0] + acc[1], 0.0)
    out = gram.astype(np.complex128)
    out.flags.writeable = False
    return out
