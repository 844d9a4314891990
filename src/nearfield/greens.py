"""Three routes to the free-space point-source kernel.

``greens_point`` evaluates the closed form ``exp(+-ik|R - x|)/(4 pi |R - x|)``
directly and serves as the oracle.  ``greens_multipole`` rebuilds it from the
mode sum over products of the regular solution at the inner radius and the
decaying solution at the outer radius, valid for ``|x| < |R|``.  A
``GreensQuery`` holds one query or a record of many, validated as one
array; all three routes take a query, a record or a sequence of them,
convert them to arrays once, run one array pass (over the degrees, for the
mode sums) and return an array, or a complex number for a lone query.  A
lone query takes the same array pass, and there is no scalar path: a lone
mode sum costs about 0.5 ms at k|x| = 1 and 5 (CPython 3.11, NumPy 2.4,
2-core x86-64), some four times a per-degree float loop, but nothing sums
lone queries in a loop; many queries go in as one record.
``greens_asymptotic`` replaces each mode's decaying solution by its distance
expansion truncated at a chosen order, which is the per-mode image of the
operator expansion of the kernel; with the truncation order at or above the
retained degrees it coincides with the multipole sum identically, and its
error against the closed form falls off one power of ``kR`` faster for each
retained order.

Both mode sums are one pass over one set of degree terms, and run per
degree only: the addition theorem
``sum_m Y_l^m(R_hat) conj(Y_l^m(x_hat)) = (2l+1)/(4 pi) P_l(cos gamma)``
(DLMF 14.30.9) collapses the orders into one Legendre polynomial of the angle
between the two points.  The inner factors ``x j_l(x)`` are the minimal
solution of the radial recurrence and come from Miller's downward
algorithm.  The outer factors of both routes are one ``special._chi_table``
of ``chi_l(-i sign X)`` at ``X = k R``: a complete degree is the dominant
solution of the upward recurrence (DLMF 10.51.1), so no degree past ``X``
loses digits to the cancelling terms of the series ``sum_s c_s / (2z)^s``;
the asymptotic route's degrees above its order take that series, cut there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .special import (
    _INV_I_POWERS, FluxDomainError, _chi_table, _integer, _legendre_table, _regular_table,
)

__all__ = [
    "GreensQuery",
    "auto_l_max",
    "greens_asymptotic",
    "greens_multipole",
    "greens_point",
]


@dataclass(frozen=True)
class GreensQuery:
    """Kernel evaluations: wavenumber, outer point, inner point, sign.

    One query has fields of shapes ``()`` and ``(3,)``; a record of ``n``
    queries has a 1-d ``k`` and fields of shapes ``(n,)`` and ``(n, 3)``,
    where a scalar ``sign`` applies to all of them.  ``sign`` is +1 for the
    outgoing kernel, -1 for the incoming one.  Both points must be finite
    with a finite norm (``ValueError`` names the field and vector).  The mode
    sum converges only inside the sphere through the outer point, so
    ``|x_vec| < |R_vec|`` is enforced at construction, for all queries.
    """

    k: float | np.ndarray
    R_vec: np.ndarray
    x_vec: np.ndarray
    sign: int | np.ndarray = +1

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=float)
        sign = np.asarray(self.sign)
        if k.ndim > 1:
            raise ValueError("k must be one wavenumber or a 1-d array of them")
        if not (np.isfinite(k) & (k > 0)).all():
            raise ValueError("wavenumber must be positive")
        if sign.dtype.kind not in "biuf" or not (np.abs(sign) == 1).all():
            raise ValueError("sign must be +1 (outgoing) or -1 (incoming)")
        if k.ndim:
            sign = np.broadcast_to(sign.astype(int), k.shape).copy()
            for name, value in (("k", k), ("sign", sign)):
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        norms = []
        for name in ("R_vec", "x_vec"):
            vec = np.asarray(getattr(self, name), dtype=float).reshape(*k.shape, 3)
            with np.errstate(over="ignore", invalid="ignore"):
                norms.append(_norms(vec).reshape(-1))
            if not np.isfinite(norms[-1]).all():
                bad = vec.reshape(-1, 3)[np.argmax(~np.isfinite(norms[-1]))].tolist()
                raise ValueError(f"{name} must be finite with a finite norm, got {bad}")
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        if not (norms[1] < norms[0]).all():
            raise ValueError("require |x_vec| < |R_vec| for the mode expansion")

    @property
    def big_r(self) -> float | np.ndarray:
        return _norms(self.R_vec)[()]

    @property
    def small_r(self) -> float | np.ndarray:
        return _norms(self.x_vec)[()]


def _norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each ``np.linalg.norm`` of its vector bit for bit.

    A ``(1, 3) @ (3, 1)`` product per vector is the dot product that
    ``np.linalg.norm`` takes of one vector; the sum over an axis may round
    differently.
    """
    return np.sqrt(np.matmul(vecs[..., None, :], vecs[..., :, None])[..., 0, 0])


# Below this norm the squared components leave the normal range: they lose
# bits, or vanish for two distinct points.
_SMALL_NORM = math.sqrt(np.finfo(float).tiny)


def _distances(vecs: np.ndarray) -> np.ndarray:
    """``_norms(vecs)`` of finite vectors, and where the squares leave the normal range
    (below ``_SMALL_NORM``, or past float64) the norm of each vector over its largest
    component times that component: a nonzero vector never reads 0, nor a finite one inf."""
    with np.errstate(over="ignore"):
        d = _norms(vecs)
    outside = (d < _SMALL_NORM) | (d == np.inf)
    if outside.any():
        part = vecs[outside]
        top = np.max(np.abs(part), axis=-1, keepdims=True)
        d[outside] = top[:, 0] * _norms(part / top)
    return d


def _batch(
    query: GreensQuery | Sequence[GreensQuery],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """``k``, ``R_vec``, ``x_vec`` and ``sign`` of all queries, shapes ``(n,)``
    and ``(n, 3)``, and whether ``query`` is a lone query."""
    records = (query,) if isinstance(query, GreensQuery) else tuple(query)
    if not all(isinstance(q, GreensQuery) for q in records):
        raise TypeError("expected a GreensQuery or a sequence of them")
    if not records:
        return np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty(0, dtype=int), False
    lone = isinstance(query, GreensQuery) and np.ndim(query.k) == 0
    k = np.concatenate([np.reshape(q.k, -1) for q in records]).astype(float)
    sign = np.concatenate([np.reshape(q.sign, -1) for q in records])
    R_vec = np.concatenate([q.R_vec.reshape(-1, 3) for q in records])
    x_vec = np.concatenate([q.x_vec.reshape(-1, 3) for q in records])
    return k, R_vec, x_vec, sign.astype(int), lone


def greens_point(query: GreensQuery | Sequence[GreensQuery]) -> complex | np.ndarray:
    """Closed-form kernel ``exp(+-ik d)/(4 pi d)``, ``d = |R_vec - x_vec|``, per query.

    The two points of a query differ (``|x_vec| < |R_vec|``), and ``d`` is
    taken without underflow or overflow of its squares (``_distances``), so
    it is never 0 and, for finite points, never inf.
    """
    k, R_vec, x_vec, sign, lone = _batch(query)
    d = _distances(R_vec - x_vec)
    values = np.exp(1j * sign * k * d) / (4.0 * np.pi * d)
    return complex(values[0]) if lone else values


# past this, ceil(e k r) + 30 leaves int64: the doubles below 2**63 end at 2**63 - 1024
_CUTOFF_LIMIT = 2.0**63


def auto_l_max(k: float | np.ndarray, r: float | np.ndarray) -> int | np.ndarray:
    """Default angular cutoff for the mode sums, per query.

    The inner radial factor decays super-exponentially once the degree
    exceeds ``k r``, but at small ``k r`` the tail falls off only like
    ``(r/R)**l``; ``ceil(e * k * r) + 30`` keeps it below 1e-9 relative for
    inner/outer ratios up to one half.  Scalars give an ``int``, arrays an
    ``int64`` array.  Where ``e k r`` is not finite or the cutoff leaves
    int64 it raises ``FluxDomainError``.
    """
    k_arr = np.asarray(k, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    if not ((k_arr > 0) & (r_arr >= 0)).all():
        raise ValueError("need k > 0 and r >= 0")
    with np.errstate(over="ignore"):
        x = math.e * k_arr * r_arr
        outside = ~(x < _CUTOFF_LIMIT)
        if outside.any():
            kr = (k_arr * r_arr).reshape(-1)[np.argmax(outside)]
            raise FluxDomainError(
                f"angular cutoff ceil(e*k*|x|) + 30 at k*|x| = {kr:.6g} is not an "
                f"int64: the mode sum cannot run to that degree"
            )
    cutoffs = np.ceil(x).astype(np.int64) + 30
    return int(cutoffs) if cutoffs.ndim == 0 else cutoffs


def _assemble(
    k: np.ndarray,
    R_vec: np.ndarray,
    x_vec: np.ndarray,
    sign: np.ndarray,
    cutoffs: np.ndarray,
    s_max: float,
) -> np.ndarray:
    """Mode sums of all queries in one pass over the degrees, shape ``(n,)``."""
    if k.size == 0:
        return np.empty(0, dtype=complex)
    big = _norms(R_vec)
    small = _norms(x_vec)
    source = small > 0
    # a source at the origin keeps only the degree-0 mode, whose inner
    # factor psi_0(k r) / (k r) tends to 1
    small = np.where(source, small, 1.0)
    cutoff = np.where(source, cutoffs, 0)
    l_max = int(cutoff.max())
    ls = np.arange(l_max + 1)[:, None]
    inner = np.where(source, _regular_table(l_max, k * small) / (k * small), ls == 0)
    outer_x = k * big
    cos_gamma = np.clip(np.einsum("ij,ij->i", R_vec, x_vec) / (big * small), -1.0, 1.0)
    msums = (2 * ls + 1) / (4.0 * np.pi) * _legendre_table(l_max, cos_gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        # chi_l(-i X) i^(-l) = i X h_l(X) for sign = +1, its conjugate
        # chi_l(i X) i^l for -1
        outer = _chi_table(l_max, -1j * outer_x, s_max) * _INV_I_POWERS[ls % 4]
        outer = np.where(sign > 0, outer, outer.conj())
        # summed in degree order, so the zeros past a query's own cutoff
        # leave its value as it is in a call of its own
        terms = np.where(ls <= cutoff, outer * inner * msums, 0.0)
        values = np.cumsum(terms, axis=0)[-1] / big
    bad = ~np.isfinite(values)
    if bad.any():
        # the outer factors pass the float64 limit while the inner ones
        # underflow, and inf * 0 leaves nan
        i = int(np.argmax(bad))
        raise FluxDomainError(
            f"multipole sum at l_max={cutoffs[i]}, kR={outer_x[i]:.6g} is not finite: "
            f"the outer factors exceed the float64 limit {np.finfo(float).max:.4g}; "
            f"lower l_max (auto_l_max gives {auto_l_max(k[i], _norms(x_vec[i]))})"
        )
    return values


def _evaluate(
    query: GreensQuery | Sequence[GreensQuery], l_max: int | None, s_max: float
) -> complex | np.ndarray:
    k, R_vec, x_vec, sign, lone = _batch(query)
    if l_max is None:
        cutoffs = auto_l_max(k, _norms(x_vec))
    else:
        cutoffs = np.full(k.size, _integer("l_max", l_max))
    values = _assemble(k, R_vec, x_vec, sign, cutoffs, s_max)
    return complex(values[0]) if lone else values


def greens_multipole(
    query: GreensQuery | Sequence[GreensQuery], l_max: int | None = None
) -> complex | np.ndarray:
    """Mode-sum kernel, converging to ``greens_point`` as ``l_max`` grows.

    Per degree the term is ``chi_l(-sign * i k R) i^{-sign * l}
    psi_l(k r) (2l+1) P_l(cos gamma) / (4 pi k r R)`` with ``gamma`` the
    angle between the two points; the default cutoff comes from
    ``auto_l_max``, query by query.  A sequence of queries gives the array
    of their values from one pass over the degrees.  A cutoff far above
    ``auto_l_max`` at small ``k R`` overflows the outer factors and raises
    ``FluxDomainError``.
    """
    return _evaluate(query, l_max, s_max=math.inf)


def greens_asymptotic(
    query: GreensQuery | Sequence[GreensQuery], s_max: int, l_max: int | None = None
) -> complex | np.ndarray:
    """Kernel with each mode's outer factor truncated at expansion order ``s_max``.

    The outer factor becomes ``exp(sign * i k R) sum_{s<=min(s_max,l)}
    g_s(l) / (2z)^s`` where ``g_s(l)`` is the order-``s`` operator product
    ``prod [l(l+1) - mu(mu-1)]/s!`` evaluated on the degree-``l`` eigenvalue,
    which is the integer ``(l+s)!/(s!(l-s)!)`` of the decaying solution's
    series.  Degrees ``l <= s_max`` have the complete series and take the
    exact factor of ``greens_multipole``, so with ``s_max >= l_max`` the
    result equals ``greens_multipole`` at the same cutoff bit for bit.  A
    sequence of queries gives an array, as there.
    """
    return _evaluate(query, l_max, _integer("s_max", s_max))
