"""Three routes to the free-space point-source kernel.

``greens_point`` evaluates the closed form ``exp(+-ik|R - x|)/(4 pi |R - x|)``
directly and serves as the oracle.  ``greens_multipole`` rebuilds it from the
mode sum over products of the regular solution at the inner radius and the
decaying solution at the outer radius, valid for ``|x| < |R|``.  All three
routes take one query or a sequence of them; a sequence runs as one array
pass (over the degrees, for the mode sums) and returns an array.  A lone
query takes the same array pass, and there is no scalar path: a lone mode
sum costs about 0.5 ms at k|x| = 1 and 5 (CPython 3.11, NumPy 2.4, 2-core
x86-64), some four times a per-degree float loop, but nothing sums lone
queries in a loop; many queries go in as one sequence.
``greens_asymptotic`` replaces each mode's decaying solution by its distance
expansion truncated at a chosen order, which is the per-mode image of the
operator expansion of the kernel; with the truncation order at or above the
retained degrees it coincides with the multipole sum identically, and its
error against the closed form falls off one power of ``kR`` faster for each
retained order.

Both mode sums run per degree only: the addition theorem
``sum_m Y_l^m(R_hat) conj(Y_l^m(x_hat)) = (2l+1)/(4 pi) P_l(cos gamma)``
(DLMF 14.30.9) collapses the orders into one Legendre polynomial of the angle
between the two points.  The inner factors ``x j_l(x)`` are the minimal
solution of the radial recurrence and come from Miller's downward
algorithm.  The complete outer factor is ``chi_l(-i X) = i^(l+1) X h_l(X)``
at ``X = k R``, the dominant solution, which runs upward (DLMF 10.51.1), so
no degree past ``X`` loses digits to the cancelling terms of the series
``sum_s c_s / (2z)^s``; the asymptotic route takes that series, cut at its
order, only for the degrees above the order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .special import FluxDomainError, _chi_table, _hankel_table, _legendre_table, _regular_table

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
        for name in ("R_vec", "x_vec"):
            vec = np.asarray(getattr(self, name), dtype=float).reshape(3)
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        if not self.small_r < self.big_r:
            raise ValueError("require |x_vec| < |R_vec| for the mode expansion")

    @property
    def big_r(self) -> float:
        return float(np.linalg.norm(self.R_vec))

    @property
    def small_r(self) -> float:
        return float(np.linalg.norm(self.x_vec))


def _queries(query: GreensQuery | Sequence[GreensQuery]) -> tuple[GreensQuery, ...]:
    queries = (query,) if isinstance(query, GreensQuery) else tuple(query)
    if not all(isinstance(q, GreensQuery) for q in queries):
        raise TypeError("expected a GreensQuery or a sequence of them")
    return queries


def greens_point(query: GreensQuery | Sequence[GreensQuery]) -> complex | np.ndarray:
    """Closed-form kernel ``exp(+-ik d)/(4 pi d)``, ``d = |R_vec - x_vec|``, per query."""
    queries = _queries(query)
    gap = np.array([q.R_vec - q.x_vec for q in queries]).reshape(-1, 3)
    # a (1, 3) @ (3, 1) product per query is the dot product that
    # np.linalg.norm takes of one vector, so each d is that norm bit for bit
    d = np.sqrt(np.matmul(gap[:, None, :], gap[:, :, None]).reshape(-1))
    if (d == 0.0).any():
        raise ValueError("coincident source and observation points")
    phase = np.array([1j * q.sign * q.k for q in queries], dtype=complex)
    values = np.exp(phase * d) / (4.0 * np.pi * d)
    return complex(values[0]) if isinstance(query, GreensQuery) else values


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


def _assemble(queries: tuple[GreensQuery, ...], cutoffs: np.ndarray, s_max: float) -> np.ndarray:
    """Mode sums of all queries in one pass over the degrees, shape ``(n,)``."""
    n = len(queries)
    if n == 0:
        return np.empty(0, dtype=complex)
    k = np.array([q.k for q in queries])
    sign = np.array([q.sign for q in queries])
    R_vec = np.array([q.R_vec for q in queries])
    x_vec = np.array([q.x_vec for q in queries])
    big = np.linalg.norm(R_vec, axis=1)
    small = np.linalg.norm(x_vec, axis=1)
    source = small > 0
    # a source at the origin keeps only the degree-0 mode, whose inner
    # factor psi_0(k r) / (k r) tends to 1
    small = np.where(source, small, 1.0)
    cutoff = np.where(source, cutoffs, 0)
    l_max = int(cutoff.max())
    ls = np.arange(l_max + 1)[:, None]
    inner = np.where(source, _regular_table(l_max, k * small) / (k * small), ls == 0)
    outer_x = k * big
    hankel = _hankel_table(l_max, outer_x)
    # chi_l(-i X) i^(-l) = i X h_l(X), and its conjugate for sign = -1
    outer = -hankel.imag + 1j * sign * hankel.real
    cos_gamma = np.clip(np.einsum("ij,ij->i", R_vec, x_vec) / (big * small), -1.0, 1.0)
    msums = (2 * ls + 1) / (4.0 * np.pi) * _legendre_table(l_max, cos_gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        if s_max < l_max:
            # the truncated series, only where it is incomplete, times
            # i^(-sign l)
            phases = np.array([1, -1j, -1, 1j])[(sign * ls) % 4]
            series = _chi_table(l_max, -1j * sign * outer_x, s_max) * phases
            outer = np.where(ls > s_max, series, outer)
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
            f"lower l_max (auto_l_max gives {auto_l_max(k[i], queries[i].small_r)})"
        )
    return values


def _evaluate(
    query: GreensQuery | Sequence[GreensQuery], l_max: int | None, s_max: float
) -> complex | np.ndarray:
    queries = _queries(query)
    if l_max is None:
        cutoffs = np.array([auto_l_max(q.k, q.small_r) for q in queries], dtype=int)
    elif l_max < 0:
        raise ValueError("l_max must be non-negative")
    else:
        cutoffs = np.full(len(queries), l_max)
    values = _assemble(queries, cutoffs, s_max)
    return complex(values[0]) if isinstance(query, GreensQuery) else values


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
    if s_max < 0:
        raise ValueError("s_max must be non-negative")
    return _evaluate(query, l_max, s_max)
