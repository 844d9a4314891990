"""Exact radial pair algebra behind the finite-distance flux.

For two decaying radial solutions, one entering directly with degree ``j``
and one through its complex conjugate with degree ``l``, the radial
probability current of a superposition involves the combination

    HW(j, l; z) = -(1/2) * [chi_l(-z) chi_j'(z) + chi_l'(-z) chi_j(z)]

evaluated at ``z = -i k r`` for outgoing waves.  Because the decaying
solutions terminate, the exponential factors cancel identically and ``HW``
is an exact Laurent polynomial in ``u = 1/(2z)``.

Structure worth knowing: the constant term is 1 for every pair, and the
diagonal ``j == l`` is *exactly* 1 at every distance, which is why the total
flux through any sphere is distance-independent.  Off-diagonal pairs carry a
terminating correction

    HW = 1 + delta * sum_{n >= 0} A_n u**(n+1) / (n+1),
    delta = j(j+1) - l(l+1),

whose coefficients ``A_n`` are exactly the product coefficients of the two
terminating series, ``A_n = [u**n] P_l(-u) P_j(u)``.  These corrections are
the whole content of pre-asymptotic flux behaviour.

Every exact integer here comes from one recurrence, ``_recurrence``, which
carries ``P_l(-u)`` to ``P_l(-u) P_j(u)`` one degree ``j`` at a time: for
one pair (``_pair_products``), whose ``A_n`` ``wronskian_series`` keeps,
``laurent_coefficients`` turns into rationals and ``half_wronskian_exact``
rounds once, or for all pairs up to ``l_max``, in the table the flux
expansion cuts at its order (``_laurent_stack``): past ``l_max = 75`` it
holds them times ``2**(-m n)`` for Horner's rule in ``2**m u``, an exact
rescaling.  The test suite checks them against the current combination and
the plain series product, built apart from this module.

The exact flux builds no integers.  The correction is the integral

    HW - 1 = delta * int_0^u P_l(-t) P_j(t) dt = delta * u * int_0^1 P_l(-u x) P_j(u x) dx,

whose integrand is a polynomial of degree at most ``2 l_max``, so the
``l_max + 1`` point Gauss-Legendre rule of the sphere grids, mapped to
``[0, 1]``, integrates it exactly.  On the imaginary axis, where the flux pairs its
modes (``z = -i k r``), ``P_l(-v) = conj(P_l(v))``, and the pair matrix of
one distance is one Hermitian product of the table of ``P_l`` at the nodes
(``_pair_stack``), without a degree limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import FluxDomainError, _gauss_legendre, _integer, chi_terms

__all__ = [
    "IntegralCheckReport",
    "WronskianSeries",
    "half_wronskian_exact",
    "integral_representation_check",
    "laurent_coefficients",
    "pair_matrix",
    "wronskian_series",
]


_FLOAT_MAX = float(np.finfo(float).max)


def _recurrence(start: np.ndarray, steps: int):
    """Yield ``start`` times ``P_1(u) .. P_steps(u)``, integer coefficients on the last axis."""
    previous, current = start, start
    for j in range(steps):
        previous, current = current, previous.copy()
        current[..., 1:] += 2 * (2 * j + 1) * previous[..., :-1]
        yield current


@lru_cache(maxsize=32)
def _laurent_table(l_max: int, orders: int) -> tuple[np.ndarray, int]:
    """``table[n, l, j] * 2**(m n)``, the ``u**n`` coefficient of ``HW(j, l)`` in
    ``pair_matrix``'s layout for ``n < orders`` (all at ``2 l_max + 2``), and ``m``:
    ``_recurrence`` carries each row ``P_l(-u)`` to ``P_l(-u) P_j(u)`` in exact integers,
    and ``delta A_n / (n+1)`` over ``2**(m n)``, least ``m`` keeping all finite, is rounded."""
    size, n = l_max + 1, np.arange(1, orders)
    one = np.array([1] + [0] * (orders - 2), dtype=object)
    rows = np.array([one, *_recurrence(one, l_max)], dtype=object)
    rows[:, 1::2] *= -1  # P_l(-u)
    degrees = np.arange(size) * np.arange(1, size + 1)
    columns, peaks = [], np.zeros(n.size, dtype=object)
    for j, products in enumerate(_recurrence(rows, l_max), start=1):
        delta = (degrees[j] - degrees[:j]).astype(object)
        columns.append(delta[:, None] * products[:j] // n)
        peaks = np.maximum(peaks, np.abs(columns[-1]).max(axis=0))
    scale = max(0, *(-(-(int(p).bit_length() - 1023) // k) for k, p in zip(n, peaks)))
    powers = np.array([1 << int(scale * k) for k in n])
    table = np.zeros((orders, size, size))
    for j, column in enumerate(columns, start=1):
        table[1:, :j, j] = (column / powers).astype(float).T
    # L_n(j, l) = (-1)**n L_n(l, j) below the diagonal; on it, HW = 1
    table[1:] += (-1.0) ** n[:, None, None] * table[1:].transpose(0, 2, 1)
    table[0] = 1.0
    table.flags.writeable = False
    return table, scale


@lru_cache(maxsize=None)
def _pair_products(conj_deg: int, dir_deg: int) -> np.ndarray:
    """``A_n = [u**n] P_conj(-u) P_dir(u)`` for ``n <= j + l``, exact integers, from the pair's
    own row: ``_recurrence`` gives ``P_low(-u)`` and carries it ``high`` steps to ``P_low(-u)
    P_high(u)``, and ``A_n(l, j) = (-1)**n A_n(j, l)`` (``O((j + l)**2)`` integer operations)."""
    low, high = sorted((conj_deg, dir_deg))
    row = np.zeros(low + high + 1, dtype=object)
    row[0] = 1
    for row in _recurrence(row, low):
        pass
    row[1::2] *= -1  # P_low(-u)
    for row in _recurrence(row, high):
        pass
    if conj_deg > dir_deg:
        row[1::2] *= -1
    row.flags.writeable = False
    return row


def _laurent_integers(conj_deg: int, dir_deg: int) -> np.ndarray:
    """An off-diagonal pair's Laurent coefficients ``1, delta A_n / (n+1)``, exact divisions."""
    products = _pair_products(conj_deg, dir_deg)
    delta = dir_deg * (dir_deg + 1) - conj_deg * (conj_deg + 1)
    return np.array([1, *delta * products // np.arange(1, products.size + 1)], dtype=object)


@lru_cache(maxsize=None)
def _laurent_float(conj_deg: int, dir_deg: int) -> np.ndarray:
    """One pair's ``_laurent_table`` entries, unscaled, to the last nonzero, each rounded once
    from ``_laurent_integers`` (none on the diagonal); a nan past float64."""
    arr = np.ones(1)
    if conj_deg != dir_deg:
        try:
            arr = _laurent_integers(conj_deg, dir_deg).astype(float)
        except OverflowError:
            arr = np.array([np.nan])
    arr.flags.writeable = False
    return arr


def _laurent_sum(j: int, l: int, z, n_terms: int | None = None) -> np.ndarray:
    """``HW(j, l; z)`` through ``n_terms`` corrections (all by default), by
    Horner's rule in ``u = 1/(2z)`` over ``_laurent_float``."""
    j, l = _check_orders(j, l)
    if n_terms is not None:
        n_terms = _integer("n_terms", n_terms)
    z = np.asarray(z)
    bad = ~(np.isfinite(z) & (z != 0))
    if bad.any():
        raise ValueError(f"HW(j={j}, l={l}) needs a finite, nonzero z, got z={z[bad].flat[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = 1.0 / (2.0 * z)
        acc = np.zeros_like(u)
        for c in _laurent_float(l, j)[: None if n_terms is None else n_terms + 1][::-1]:
            acc = acc * u + c
    bad = ~np.isfinite(acc)
    if bad.any():
        raise FluxDomainError(
            f"HW(j={j}, l={l}) at |z|={abs(z.flat[np.argmax(bad)]):.6g} exceeds the float64 "
            f"limit {_FLOAT_MAX:.4g}, or its coefficients do (past l_max=75)"
        )
    return acc


def _check_orders(j: int, l: int) -> tuple[int, int]:
    """The mode degrees ``j`` and ``l`` as Python ``int``s (see ``special._integer``)."""
    return _integer("mode degree j", j), _integer("mode degree l", l)


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------

def laurent_coefficients(j: int, l: int) -> tuple[Fraction, ...]:
    """Exact Laurent coefficients of ``HW(j, l; z)`` in ``u = 1/(2z)``.

    Ascending order; the leading entry is always 1.  An off-diagonal pair
    terminates at degree ``j + l + 1``; a diagonal pair is the constant 1.
    """
    j, l = _check_orders(j, l)
    if j == l:
        return (Fraction(1),)
    return tuple(Fraction(c) for c in _laurent_integers(l, j))


def half_wronskian_exact(j: int, l: int, z: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``HW(j, l; z)`` from its exact Laurent coefficients.

    ``j`` is the degree of the direct factor ``chi_j(z)``, ``l`` of the
    conjugated factor ``chi_l(-z)``; the outgoing flux pairing uses
    ``z = -i k r``.  On the imaginary axis the pair matrix is Hermitian:
    ``HW(j, l; z) == conj(HW(l, j; z))``.  Past float64 (coefficients past
    ``l_max = 75``, or the value) ``FluxDomainError`` names ``j``, ``l``, ``|z|``;
    a ``z`` that is zero or not finite raises ``ValueError`` naming it.
    """
    acc = _laurent_sum(j, l, z)
    return acc if acc.ndim else acc[()]


@dataclass(frozen=True)
class WronskianSeries:
    """Distance expansion of a radial pair current factor.

    ``correction`` holds ``(n, A_n)`` pairs with exact rational ``A_n`` for
    ``n = 0 .. j + l``; it is empty on the diagonal, where the factor is
    identically ``constant_term == 1``.  ``evaluate(z, n_terms)`` sums
    ``1 + prefactor * sum_{n < n_terms} A_n u**(n+1) / (n+1)``, ``u =
    1/(2z)``, by the Horner loop of ``half_wronskian_exact``; the series
    terminates, so all terms reproduce that bit for bit.
    """

    j: int
    l: int
    constant_term: Fraction
    prefactor: int
    correction: tuple[tuple[int, Fraction], ...]

    @property
    def n_terms(self) -> int:
        return len(self.correction)

    def evaluate(self, z: complex, n_terms: int | None = None) -> complex:
        return complex(_laurent_sum(self.j, self.l, z, n_terms))


def wronskian_series(j: int, l: int) -> WronskianSeries:
    """Series form of the pair factor: the ``A_n`` of ``_pair_products``, unscaled."""
    j, l = _check_orders(j, l)
    if j == l:
        return WronskianSeries(
            j=j, l=l, constant_term=Fraction(1), prefactor=0, correction=()
        )
    return WronskianSeries(
        j=j,
        l=l,
        constant_term=Fraction(1),
        prefactor=j * (j + 1) - l * (l + 1),
        correction=tuple((n, Fraction(c)) for n, c in enumerate(_pair_products(l, j))),
    )


@lru_cache(maxsize=32)
def _pair_rule(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recurrence steps, quadrature weights and half degree gaps.

    The rule is the ``l_max + 1`` point Gauss-Legendre rule of
    ``special._gauss_legendre`` mapped to ``[0, 1]``, nodes ``x_k = (1 +
    t_k) / 2`` and weights ``w_k / 2``, exact for polynomials of degree
    ``2 l_max + 1``.  ``steps[l] = 2 (2l+1) x_k`` are the node factors of
    the ``P_l`` recurrence, and ``half_delta[l, j] = (j(j+1) - l(l+1)) / 2``.
    """
    t, w = _gauss_legendre(l_max + 1)
    nodes, weights = 0.5 * (1.0 + t), 0.5 * w
    steps = (4 * np.arange(l_max) + 2.0)[:, None] * nodes
    degrees = np.arange(l_max + 1) * np.arange(1, l_max + 2)
    half_delta = 0.5 * (degrees - degrees[:, None])
    for arr in (steps, weights, half_delta):
        arr.flags.writeable = False
    return steps, weights, half_delta


# Pair matrices are built in blocks of distances whose polynomial table has
# at most this many entries (64 KiB of complex128), so that the table and
# its temporaries stay under glibc's default 128 KiB mmap threshold and a
# block reuses heap pages instead of faulting in fresh ones.  A block keeps
# at least _STACK_DISTANCES distances, though: from l_max 22 on the entry
# bound would allow fewer, and such small blocks pay the 2 l_max calls of
# the recurrence more often than they save page faults (measured in forked
# processes at l_max 10 to 75).
_STACK_ENTRIES = 2**12
_STACK_DISTANCES = 8


def _pair_stack(l_max: int, zs) -> np.ndarray:
    """Pair matrices at every point of ``zs``, shape ``(n, l_max + 1, l_max + 1)``.

    ``zs`` is one nonzero point on the imaginary axis or a 1-d array of
    them.  With ``u = 1/(2z)``, ``HW_lj = 1 + delta_lj u G_lj`` and ``G_lj =
    int_0^1 P_l(-u x) P_j(u x) dx``, whose integrand is a polynomial of
    degree at most ``2 l_max``: the Gauss-Legendre rule of ``_pair_rule``
    integrates it exactly.  The ``P_l(u x_k)`` come from the upward
    recurrence ``P_{l+1} = P_{l-1} + 2 (2l+1) u x_k P_l``, ``P_{-1} = P_0 =
    1``, and on the axis ``P_l(-v) = conj(P_l(v))``, so ``G = P^H diag(w)
    P``, symmetrized to be Hermitian bit for bit.  Distances run in blocks of
    at most ``_STACK_ENTRIES`` table entries (but at least
    ``_STACK_DISTANCES`` distances), with the same operations per distance
    as a single-point evaluation.  Entries past the float64 range
    come back non-finite, without a warning, and callers name the offending
    point in their terms.
    """
    steps, weights, half_delta = _pair_rule(l_max)
    out = np.empty((np.size(zs), l_max + 1, l_max + 1), dtype=complex)
    step = max(_STACK_DISTANCES, _STACK_ENTRIES // ((l_max + 1) * weights.size))
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.atleast_1d(0.5 / np.asarray(zs))
        for start in range(0, u.size, step):
            u_block = u[start : start + step]
            factors = steps[:, None] * u_block[:, None]
            table = np.empty((l_max + 1, u_block.size, weights.size), dtype=complex)
            table[0] = 1.0
            lower = 1.0
            for l in range(l_max):
                np.multiply(factors[l], table[l], out=table[l + 1])
                table[l + 1] += lower
                lower = table[l]
            # (n, l, k) with the node axis last: G_lj = sum_k conj(P_lk) w_k P_jk
            polys = table.transpose(1, 0, 2)
            gram = np.matmul(polys.conj(), (polys * weights).transpose(0, 2, 1))
            gram += gram.conj().transpose(0, 2, 1)
            gram *= u_block[:, None, None] * half_delta
            np.add(gram, 1.0, out=out[start : start + step])
    return out


def _laurent_stack(l_max: int, zs, order: int, single: bool = False) -> np.ndarray:
    """Pair factors cut at ``order`` in ``u = 1/(2z)``, shape ``(n, l_max + 1, l_max + 1)``:
    ``sum_{n <= order} L_n u**n`` at every point of ``zs`` (as in ``_pair_stack``), or
    ``L_order u**order`` with ``single``, by Horner's rule in ``2**m u`` over ``_laurent_table``,
    the unscaled sum's bits where finite.  Hermitian bit for bit (``conj(u) = -u``, ``L_n(j,
    l) = (-1)**n L_n(l, j)``); non-finite past float64, without a warning."""
    top = min(order, 2 * l_max + 1)
    # the first 2**k orders reaching ``top``: 8 at l_max 100 cost 4% of all
    # 202, and a sweep over the orders builds at most twice the whole table
    table, scale = _laurent_table(l_max, min(2 * l_max + 2, max(2, 1 << top.bit_length())))
    out = np.empty((np.size(zs), l_max + 1, l_max + 1), dtype=complex)
    out[...] = table[top] if top == order or not single else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        v = 0.5 / np.asarray(zs).reshape(-1, 1, 1) * 2.0**scale
        for n in range(top - 1, -1, -1):
            out *= v
            if not single:
                out += table[n]
    return out


def pair_matrix(l_max: int, z: complex) -> np.ndarray:
    """Dense pair factors for all degree pairs up to ``l_max``, at one ``z``.

    ``out[row, col] == HW(j=col, l=row; z)``: rows index the conjugated
    mode.  ``z`` is a nonzero scalar on the imaginary axis, where the flux
    evaluates the factors (``z = -i k R``); there the matrix is Hermitian
    bit for bit and its diagonal is exactly 1.  This is the one-point case of
    the stacked Gauss-Legendre evaluation that flux scans use for all
    distances at once; it has no degree limit of its own.  Each entry is
    within about 1e-13 of its exact value, relative to the entry.

    Raises ``ValueError`` for an ``l_max`` that is not a non-negative
    integer, for a ``z`` that is zero or not finite, and off the imaginary
    axis, where the recurrence for ``P_l(-v)`` would have to run separately
    and is unstable; ``FluxDomainError`` where the factors overflow float64:
    they grow like ``|2z|**-(2 l_max + 1)`` toward small ``|z|``.
    """
    l_max = _integer("l_max", l_max)
    z = complex(z)
    if not (np.isfinite(z) and z != 0):
        raise ValueError(f"pair_matrix needs a finite, nonzero z, got z={z}")
    if z.real != 0:
        raise ValueError(
            f"pair_matrix evaluates on the imaginary axis only (z = -i k R); got z={z}"
        )
    out = _pair_stack(l_max, z)[0]
    if not np.all(np.isfinite(out)):
        raise _pair_overflow(l_max, abs(z))
    return out


def _pair_overflow(l_max: int, kr: float, order: int | None = None) -> FluxDomainError:
    """Pair factors past float64, or their distance expansion cut at ``order``."""
    cut = "" if order is None else f", order={order}"
    return FluxDomainError(
        f"{'pair' if order is None else 'distance expansion of the pair'} factors at "
        f"l_max={l_max}, kR={kr:.6g}{cut} exceed the float64 limit {_FLOAT_MAX:.4g}: they "
        f"grow like (2 kR)**-(2*l_max+1); raise kR or lower l_max{cut and ' or the order'}"
    )


@dataclass(frozen=True)
class IntegralCheckReport:
    """Agreement report between closed-form and quadrature evaluation."""

    j: int
    l: int
    z: float
    closed_form: float
    quadrature: float
    quadrature_error: float

    @property
    def difference(self) -> float:
        return abs(self.closed_form - self.quadrature)


def integral_representation_check(j: int, l: int, z: float) -> IntegralCheckReport:
    """Check ``HW - 1`` against its integral representation at real ``z > 0``.

    The correction admits
    ``HW(j, l; z) = 1 + (delta/2) * int_z^inf chi_l(-t) chi_j(t) / t**2 dt``;
    the integrand's exponential factors cancel analytically, so only the
    terminating series enter and the quadrature is well conditioned at any
    ``z``.  Returns both values and the adaptive quadrature's own error
    estimate.

    The quadrature is SciPy's ``quad``, imported here so that the package
    imports without SciPy; without it this raises ``ImportError``.
    """
    try:
        from scipy.integrate import quad
    except ImportError as exc:
        raise ImportError(
            "integral_representation_check needs SciPy (scipy.integrate.quad), "
            "which is not installed"
        ) from exc

    j, l = _check_orders(j, l)
    if not (z > 0):
        raise ValueError("integral representation requires real z > 0")
    delta = j * (j + 1) - l * (l + 1)

    def integrand(t: float) -> float:
        # the series parts exp(+-t) chi(+-t): column sums of chi_terms at +-1/(2t)
        conj = chi_terms(l, l, -0.5 / t)[:, l].sum()
        direct = chi_terms(j, j, 0.5 / t)[:, j].sum()
        return float(conj * direct) / (t * t)

    value, err = quad(integrand, z, np.inf, limit=300)
    closed = float(np.real(half_wronskian_exact(j, l, z)))
    return IntegralCheckReport(
        j=j,
        l=l,
        z=float(z),
        closed_form=closed,
        quadrature=1.0 + 0.5 * delta * value,
        quadrature_error=0.5 * abs(delta) * err,
    )
