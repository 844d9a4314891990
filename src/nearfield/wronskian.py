"""Exact radial pair algebra behind the finite-distance flux.

For two decaying radial solutions, one entering directly with degree ``j``
and one through its complex conjugate with degree ``l``, the radial
probability current of a superposition involves the combination

    HW(j, l; z) = -(1/2) * [chi_l(-z) chi_j'(z) + chi_l'(-z) chi_j(z)]

evaluated at ``z = -i k r`` for outgoing waves.  Because the decaying
solutions terminate, the exponential factors cancel identically and ``HW``
is an exact Laurent polynomial in ``u = 1/(2z)``.  This module computes the
Laurent coefficients exactly (as rationals) through two independent routes
and exposes fast float evaluation for flux assembly.

Structure worth knowing: the constant term is 1 for every pair, and the
diagonal ``j == l`` is *exactly* 1 at every distance, which is why the total
flux through any sphere is distance-independent.  Off-diagonal pairs carry a
terminating correction

    HW = 1 + delta * sum_{n >= 0} A_n u**(n+1) / (n+1),
    delta = j(j+1) - l(l+1),

whose coefficients ``A_n`` are exactly the product coefficients of the two
terminating series, ``A_n = [u**n] P_l(-u) P_j(u)``.  These corrections are
the whole content of pre-asymptotic flux behaviour.

The float coefficients come from this series route: the integer
coefficient of ``u**(n+1)`` is ``delta * A_n / (n+1)``, an exact division,
so each pair costs one integer product.  The current combination itself
(three products) stays as the independent exact route behind
``laurent_coefficients``; the two agree integer for integer.  Swapping the
degrees mirrors the argument, ``HW(l, j; z) = HW(j, l; -z)``, so the
mirrored pair has the same integers with the sign of every odd power of
``u`` flipped, and one product per unordered pair fills the whole pair
tensor.  Flux scans evaluate that tensor for all distances of a channel in
one Horner pass (``_pair_stack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import FluxDomainError, _chi_integers, chi_terms

__all__ = [
    "IntegralCheckReport",
    "WronskianSeries",
    "half_wronskian_exact",
    "integral_representation_check",
    "laurent_coefficients",
    "pair_matrix",
    "wronskian_series",
]


# ----------------------------------------------------------------------
# exact polynomial helpers (ascending coefficient tuples of Python ints)
# ----------------------------------------------------------------------
# Every coefficient below is an integer: the chi coefficients are, and the
# tables are built from their products and derivatives only.  Integer
# arithmetic is exact and far cheaper than ``Fraction``; the public
# functions convert at the boundary.

def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for k, qk in enumerate(q):
            out[i + k] += pi * qk
    return tuple(out)


def _poly_diff(p: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) <= 1:
        return (0,)
    return tuple(n * c for n, c in enumerate(p))[1:]


@lru_cache(maxsize=None)
def _series_poly(order: int, negate: bool) -> tuple[int, ...]:
    sign = -1 if negate else 1
    return tuple(c * sign**s for s, c in enumerate(_chi_integers(order)))


@lru_cache(maxsize=None)
def _combination_laurent(conj_deg: int, dir_deg: int) -> tuple[int, ...]:
    """Laurent coefficients of HW via the current combination itself.

    ``q * p + u**2 * (q p' - q' p)`` with ``q = P_conj(-u)``, ``p = P_dir(u)``,
    which is the chain-rule image of the defining derivative combination.
    """
    q = _series_poly(conj_deg, negate=True)
    p = _series_poly(dir_deg, negate=False)
    qp = _poly_mul(q, p)
    cross1 = _poly_mul(q, _poly_diff(p))
    cross2 = _poly_mul(_poly_diff(q), p)
    out = [0] * (max(len(qp), len(cross1) + 2, len(cross2) + 2))
    for n, c in enumerate(qp):
        out[n] += c
    for n, c in enumerate(cross1):
        out[n + 2] += c
    for n, c in enumerate(cross2):
        out[n + 2] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def _series_product_coefficients(conj_deg: int, dir_deg: int) -> tuple[int, ...]:
    """``A_n = [u**n] P_conj(-u) P_dir(u)``, the series-route coefficients."""
    return _poly_mul(
        _series_poly(conj_deg, negate=True), _series_poly(dir_deg, negate=False)
    )


def _series_laurent(conj_deg: int, dir_deg: int) -> tuple[int, ...]:
    """Laurent coefficients of HW via the series route: ``1``, then
    ``delta * A_n / (n+1)`` for ``u**(n+1)``; every division is exact."""
    delta = dir_deg * (dir_deg + 1) - conj_deg * (conj_deg + 1)
    if delta == 0:
        return (1,)
    coeffs = _series_product_coefficients(conj_deg, dir_deg)
    return (1, *(delta * a // (n + 1) for n, a in enumerate(coeffs)))


_FLOAT_MAX = float(np.finfo(float).max)

# Largest l_max whose exact Laurent coefficients all fit in float64: the
# pair (75, 76) is the first whose coefficients overflow.
_FLOAT_PAIR_DEGREE = 75


@lru_cache(maxsize=None)
def _laurent_float(conj_deg: int, dir_deg: int) -> np.ndarray:
    try:
        arr = np.array([float(c) for c in _series_laurent(conj_deg, dir_deg)])
    except OverflowError:
        raise FluxDomainError(
            f"exact Laurent coefficients of HW(j={dir_deg}, l={conj_deg}) exceed the "
            f"float64 limit {_FLOAT_MAX:.4g}; pair factors are representable up to "
            f"l_max={_FLOAT_PAIR_DEGREE}"
        ) from None
    arr.flags.writeable = False
    return arr


def _check_orders(j: int, l: int) -> None:
    if j < 0 or l < 0:
        raise ValueError("mode degrees must be non-negative")


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------

def laurent_coefficients(j: int, l: int) -> tuple[Fraction, ...]:
    """Exact Laurent coefficients of ``HW(j, l; z)`` in ``u = 1/(2z)``.

    Ascending order; the leading entry is always 1 and the polynomial
    terminates at degree ``j + l + 1``.
    """
    _check_orders(j, l)
    return tuple(Fraction(c) for c in _combination_laurent(l, j))


def half_wronskian_exact(j: int, l: int, z: complex | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``HW(j, l; z)`` from its exact Laurent coefficients.

    ``j`` is the degree of the direct factor ``chi_j(z)``, ``l`` of the
    conjugated factor ``chi_l(-z)``; the outgoing flux pairing uses
    ``z = -i k r``.  On the imaginary axis the pair matrix is Hermitian:
    ``HW(j, l; z) == conj(HW(l, j; z))``.
    """
    _check_orders(j, l)
    z = np.asarray(z)
    if np.any(z == 0):
        raise ValueError("evaluation point z = 0 is singular")
    u = 1.0 / (2.0 * z)
    coeffs = _laurent_float(l, j)
    acc = np.zeros_like(u)
    for c in coeffs[::-1]:
        acc = acc * u + c
    return acc if acc.ndim else acc[()]


@dataclass(frozen=True)
class WronskianSeries:
    """Distance expansion of a radial pair current factor.

    ``correction`` holds ``(n, A_n)`` pairs with exact rational ``A_n`` for
    ``n = 0 .. j + l``; it is empty on the diagonal, where the factor is
    identically ``constant_term == 1``.  ``evaluate(z, n_terms)`` sums
    ``1 + prefactor * sum A_n u**(n+1) / (n+1)`` with ``u = 1/(2z)``; because
    the series terminates, summing all terms reproduces
    ``half_wronskian_exact`` identically.
    """

    j: int
    l: int
    constant_term: Fraction
    prefactor: int
    correction: tuple[tuple[int, Fraction], ...]

    @property
    def n_terms(self) -> int:
        return len(self.correction)

    def a_coefficient(self, n: int) -> Fraction:
        """Exact ``A_n``; zero beyond the terminating order."""
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n >= len(self.correction):
            return Fraction(0)
        return self.correction[n][1]

    def evaluate(self, z: complex, n_terms: int | None = None) -> complex:
        if z == 0:
            raise ValueError("evaluation point z = 0 is singular")
        if n_terms is None:
            n_terms = self.n_terms
        u = 1.0 / (2.0 * complex(z))
        total = 0.0 + 0.0j
        for n in range(min(n_terms, self.n_terms) - 1, -1, -1):
            total = total * u + float(self.correction[n][1]) / (n + 1)
        return float(self.constant_term) + self.prefactor * total * u


def wronskian_series(j: int, l: int) -> WronskianSeries:
    """Series form of the pair factor, built through the product route.

    The ``A_n`` come from the plain product of the two terminating series
    (no derivatives), which is an independent construction from the current
    combination used by ``half_wronskian_exact``; their agreement is an
    exact identity and is enforced in the test suite.
    """
    _check_orders(j, l)
    if j == l:
        return WronskianSeries(
            j=j, l=l, constant_term=Fraction(1), prefactor=0, correction=()
        )
    coeffs = _series_product_coefficients(l, j)
    return WronskianSeries(
        j=j,
        l=l,
        constant_term=Fraction(1),
        prefactor=j * (j + 1) - l * (l + 1),
        correction=tuple((n, Fraction(c)) for n, c in enumerate(coeffs)),
    )


@lru_cache(maxsize=None)
def _pair_coefficient_tensor(l_max: int) -> np.ndarray:
    """Laurent coefficients of every degree pair, highest power first.

    ``tensor[2*l_max + 1 - n, row, col]`` is the ``u**n`` coefficient of
    ``HW(j=col, l=row)``; pairs of lower total degree are zero-padded at the
    top, which leaves Horner's rule unchanged.  Only the upper triangle is
    built from integers, one series product per pair; the lower triangle is
    its mirror ``HW(l, j; u) = HW(j, l; -u)`` and the diagonal is exactly 1.
    """
    size = 2 * l_max + 2
    upper = np.zeros((size, l_max + 1, l_max + 1))
    for row in range(l_max + 1):
        for col in range(row + 1, l_max + 1):
            coeffs = _laurent_float(row, col)
            upper[size - coeffs.size :, row, col] = coeffs[::-1]
    # (-1)**n for the power n = size - 1 - i held in tensor row i
    signs = (-1.0) ** np.arange(size - 1, -1, -1)
    tensor = upper + signs[:, None, None] * upper.transpose(0, 2, 1)
    np.fill_diagonal(tensor[-1], 1.0)
    tensor.flags.writeable = False
    return tensor


# Horner's rule sweeps the tensor once per block of at most this many matrix
# entries (512 KiB of complex128): its 2*l_max + 2 steps each rewrite one
# block, whose size stays bounded however many distances a scan has.
_STACK_ENTRIES = 2**15


def _pair_stack(l_max: int, zs) -> np.ndarray:
    """Pair matrices at every point of ``zs``, shape ``(n, l_max + 1, l_max + 1)``.

    ``zs`` is one nonzero point or a 1-d array of them.  One Horner pass
    over ``_pair_coefficient_tensor`` runs on the whole stack, in blocks of
    at most ``_STACK_ENTRIES`` entries, with the same operations per entry
    as a single-point evaluation.  Raises ``FluxDomainError`` above
    ``l_max = 75``; entries past the float64 range come back non-finite,
    without a warning, and callers name the offending point in their terms.
    """
    if l_max > _FLOAT_PAIR_DEGREE:
        raise FluxDomainError(
            f"pair factors at l_max={l_max}: the exact Laurent coefficients exceed "
            f"the float64 limit {_FLOAT_MAX:.4g} above l_max={_FLOAT_PAIR_DEGREE}"
        )
    tensor = _pair_coefficient_tensor(l_max)
    # u = 1/(2z): 0.5/z gives the same bits with one multiplication fewer
    u = np.asarray(0.5 / zs).reshape(-1, 1, 1)
    out = np.zeros((u.shape[0], l_max + 1, l_max + 1), dtype=complex)
    step = max(1, _STACK_ENTRIES // (l_max + 1) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, out.shape[0], step):
            block = out[start : start + step]
            # a one-point block takes a 0-d factor, NumPy's scalar fast path,
            # which keeps single-point calls as cheap as a 2-d Horner loop
            u_block = u[start : start + step] if len(block) > 1 else u[start].reshape(())
            for coeffs in tensor:
                block *= u_block
                block += coeffs
    return out


def pair_matrix(l_max: int, z: complex) -> np.ndarray:
    """Dense pair factors for all degree pairs up to ``l_max``, at one ``z``.

    ``out[row, col] == half_wronskian_exact(j=col, l=row, z)``: rows index
    the conjugated mode.  Hermitian for purely imaginary ``z``, with unit
    diagonal at any ``z``.  This is the one-point case of the stacked
    evaluation that flux scans use for all distances at once; ``z`` is a
    scalar.

    Raises ``FluxDomainError`` above ``l_max = 75``, where the exact
    coefficients leave float64, and where the factors themselves overflow:
    they grow like ``|2z|**-(2 l_max + 1)`` toward small ``|z|``.
    """
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if z == 0:
        raise ValueError("evaluation point z = 0 is singular")
    out = _pair_stack(l_max, complex(z))[0]
    if not np.all(np.isfinite(out)):
        raise FluxDomainError(
            f"pair factors at l_max={l_max}, kR={abs(z):.6g} exceed the float64 "
            f"limit {_FLOAT_MAX:.4g}: they grow like (2 kR)**-(2*l_max+1); raise kR "
            f"or lower l_max"
        )
    return out


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

    _check_orders(j, l)
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
