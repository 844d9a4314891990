"""Free radial solutions, spherical harmonics, and sphere quadrature.

The radial building blocks are the two standard solutions of the free radial
equation for angular momentum ``l``:

* ``regular_psi(l, x)``: the solution regular at the origin, ``x * j_l(x)``
  with ``j_l`` the spherical Bessel function.
* ``chi(l, z)``: the solution that decays like ``exp(-z)`` for large ``|z|``.
  It terminates: ``chi(l, z) = exp(-z) * sum_{S=0}^{l} c_S / (2 z)**S`` with
  exact integer coefficients ``c_S = (l+S)! / (S! (l-S)!)``, one row per
  degree from the exact neighbour ratio (``_chi_integers``); these rows are
  also the ``P_l(u)`` of the pair factors, whose products come from
  ``wronskian._recurrence``.  Evaluated on the
  imaginary axis ``z = -i k R`` it carries the outgoing spherical wave, so it
  is the workhorse of every finite-distance formula in this package.  It
  comes from the upward recurrence, and the series only where it is cut.

Angular building blocks are complex spherical harmonics in the physics
convention (Condon-Shortley phase included) and a product Gauss-Legendre x
uniform-azimuth sphere grid whose quadrature is exact for harmonic pair
products up to a requested degree.

Every special function comes from a short recurrence in NumPy or ``math``:
the upward one for ``chi`` and ``y_l`` (DLMF 10.51.1), the neighbour ratios
of the series integers for a cut series (``chi_terms``), Miller's downward
recurrence for ``x j_l`` (Gautschi, SIAM Review 9, 1967; upward where ``x``
exceeds every degree), Bonnet's for ``P_l`` (DLMF 14.10.3) and the
normalized associated-Legendre recurrence for the harmonics (DLMF 14.10.3
with the ``m``-dependent normalization folded in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "AngularGrid",
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
    "ylm_directions",
    "ylm_table",
]


# ----------------------------------------------------------------------
# decaying radial solution
# ----------------------------------------------------------------------

def _integer(name: str, value, minimum: int = 0, error: type[ValueError] = ValueError) -> int:
    """The one integer rule of every degree, order and count, in a call or in a file:
    ``value`` as a Python ``int`` if it is an ``int`` or a NumPy integer (a ``bool`` is
    not) of at least ``minimum``, else ``error`` naming ``name`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


# The largest degree whose harmonic tables are finite in float64: |Q_lm| peaks at
# the poles, at sqrt((2l+1)/(4 pi) (l+m)!/(l-m)!) / (2**m m!), and for some m
# that peak passes the float64 maximum from l = 1478 on.
_MAX_DEGREE = 1477


def _degree(name: str, value, error: type[ValueError] = ValueError) -> int:
    """``_integer`` for a degree read from a file or a config, or planned for a harmonic
    table (``_harmonic_plan``): at most ``_MAX_DEGREE``."""
    l = _integer(name, value, error=error)
    if l > _MAX_DEGREE:
        raise error(
            f"{name} must be at most {_MAX_DEGREE}, the largest degree whose spherical "
            f"harmonics are finite in float64, got {l}"
        )
    return l


def _check_positive(values: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` and the first entry not finite and positive."""
    good = (values > 0) & (values < math.inf)
    if np.count_nonzero(good) < values.size:
        value = float(values.flat[np.argmin(good)])
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class FluxDomainError(ValueError):
    """Raised where a float64 evaluation would leave the finite range.

    The decaying solution grows like ``(2l)! / (l! (2|z|)**l)`` toward small
    ``|z|``, so high degrees at small ``k R`` overflow.  The message names
    ``l_max``, the distance (``z`` or ``kR``) and the limit that was
    crossed.
    """


@lru_cache(maxsize=None)
def _chi_integers(l: int) -> tuple[int, ...]:
    """``c_s(l)``, ``s <= l``, by the exact neighbour ratio ``c_{s+1} = c_s (l+s+1)(l-s)/(s+1)``."""
    return tuple(accumulate(range(l), lambda c, s: c * (l + s + 1) * (l - s) // (s + 1), initial=1))


def chi_coefficient(l: int, s: int) -> Fraction:
    """Exact series coefficient ``(l+s)! / (s! (l-s)!)``; zero for ``s > l``.

    These integers appear twice in the package: as the terminating series of
    the decaying radial solution, and as the image of the product of angular
    operators ``prod_{m=1}^{s} (L^2 - m(m-1)) / s!`` acting on a single
    harmonic of degree ``l``.  The dual-route tests exercise the equality of
    the two roles.
    """
    l, s = _integer("l", l), _integer("s", s)
    if s > l:
        return Fraction(0)
    return Fraction(_chi_integers(l)[s])


def chi_terms(l_max: int, s_max: int, u: complex | np.ndarray) -> np.ndarray:
    """Series terms ``c_s(l) u**s`` for ``s <= s_max`` and ``l <= l_max``.

    Shape ``(s_max + 1, l_max + 1, *np.shape(u))``: row ``s`` holds the
    order-``s`` term of every degree at every ``u``, zero for ``s > l``; with
    ``u = 1/(2z)`` the sums over axis 0 are ``exp(z) chi_l(z)`` truncated at
    ``s_max``.  The integers ``c_s(l) = (l+s)!/(s!(l-s)!)`` enter only
    through the neighbour ratio ``c_{s+1}/c_s = (l+s+1)(l-s)/(s+1)``,
    accumulated by one ``cumprod`` down the rows: materialized coefficients
    would overflow near degree 140 even where every term is moderate.
    Toward small ``|z|`` high orders can still overflow; callers check the
    result.
    """
    ratios = np.multiply.outer(_chi_ratios(_integer("l_max", l_max), _integer("s_max", s_max)), u)
    return np.concatenate([np.ones((1, *ratios.shape[1:])), np.cumprod(ratios, axis=0)])


@lru_cache(maxsize=64)
def _chi_ratios(l_max: int, s_max: int) -> np.ndarray:
    """Read-only ``(l+s+1)(l-s)/(s+1)``, shape ``(s_max, l_max + 1)``: degrees only."""
    s = np.arange(s_max)[:, None]
    l = np.arange(l_max + 1)[None, :]
    ratios = (l + s + 1) * (l - s) / (s + 1)
    ratios.flags.writeable = False
    return ratios


# i**(-k) at k mod 4
_INV_I_POWERS = np.array([1, -1j, -1, 1j])


def _chi_table(l_max: int, z: complex | np.ndarray, s_max: int | None = None) -> np.ndarray:
    """Decaying solutions ``exp(-z) sum_{s<=s_max} c_s(l)/(2z)^s`` for ``l <= l_max``.

    Shape ``(l_max + 1, *np.shape(z))``.  Degrees up to ``s_max`` (all by
    default) are complete and come from ``chi_{l+1} = chi_{l-1} + (2l+1)/z
    chi_l``, ``chi_{-1} = chi_0 = exp(-z)``: ``_upward`` on ``i^l chi_l`` at
    ``x = -iz``, real on the imaginary axis, where ``chi_l`` is dominant
    (DLMF 10.51.1) and keeps its digits past ``l ~ |z|``, where the series
    terms cancel.  Only degrees above ``s_max`` sum their cut series,
    ``chi_terms`` down axis 0.  ``z`` must be finite and nonzero
    (``ValueError``); past float64 the entries are not finite, silently.
    """
    flat = np.reshape(z, -1)
    bad = ~(np.isfinite(flat) & (flat != 0))
    if bad.any():
        raise ValueError(
            f"the decaying solution needs a finite, nonzero z, got z={flat[np.argmax(bad)]}"
        )
    s_max = l_max if s_max is None else min(s_max, l_max)
    with np.errstate(over="ignore", invalid="ignore"):
        # i^l chi_l from chi_0 = exp(-z) and i^-1 chi_{-1}, real steps on the axis
        start, x = np.exp(-flat), -1j * flat
        table = _upward(s_max, x.real if (flat.real == 0).all() else x, start, -1j * start)
        table *= _INV_I_POWERS[np.arange(s_max + 1) % 4, None]
        if s_max < l_max:
            # from z itself: a Python complex divides as Python does
            series = np.exp(-z) * chi_terms(l_max, s_max, 0.5 / z)[:, s_max + 1 :].sum(axis=0)
            table = np.concatenate([table, series.reshape(l_max - s_max, -1)])
    return table.reshape(l_max + 1, *np.shape(z))


def chi(l: int, z: complex | np.ndarray) -> complex | np.ndarray:
    """Decaying free radial solution ``exp(-z) * sum_S c_S / (2z)**S``.

    From the upward recurrence of ``_chi_table``; real for real ``z``, which
    must be finite and nonzero (``ValueError``).  For ``Re z < 0`` the
    relative error grows like ``exp(2 |Re z|)``.  Toward small ``|z|`` high
    orders leave the float64 range, which raises ``FluxDomainError``.
    """
    l = _integer("l", l)
    value = _chi_table(l, z)[l]
    finite = np.isfinite(value)
    if not np.all(finite):
        bad = np.asarray(z)[~finite][0]
        raise FluxDomainError(
            f"chi at l={l}, z={bad} is not finite: the upward recurrence exceeds the "
            f"float64 limit {np.finfo(float).max:.4g}; lower l or raise |z|"
        )
    return value.real if np.isrealobj(z) else value


def _upward(l_max: int, x: np.ndarray, f_0: np.ndarray, f_minus: np.ndarray) -> np.ndarray:
    """Rows ``l <= l_max`` of ``f_{l+1} = (2l+1)/x f_l - f_{l-1}``.

    Started from ``f_0`` and ``f_{-1} = f_minus``, one step per degree for
    all arguments of the 1-d ``x``, real or complex, at once; an overflow
    leaves non-finite entries, without a warning.
    """
    out = np.empty((l_max + 1, x.size), dtype=np.result_type(f_0, f_minus))
    out[0] = f_0
    lower = f_minus
    with np.errstate(over="ignore", invalid="ignore"):
        for l, step in enumerate((2 * np.arange(l_max) + 1)[:, None] / x):
            np.multiply(step, out[l], out=out[l + 1])
            out[l + 1] -= lower
            lower = out[l]
    return out


def _radial_table(l_max: int, x: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regular ``x j_l(x)`` and irregular ``y_l(x)`` for ``l <= l_max``, ``x > 0``.

    Both tables have shape ``(l_max + 1, *np.shape(x))``; the regular one
    is ``_regular_table``.  ``y_l`` is the dominant solution of ``f_{l+1} =
    (2l+1)/x f_l - f_{l-1}`` and runs upward from ``y_0 = -cos x / x`` and
    ``y_{-1} = sin x / x``, one step per degree for all arguments at once;
    past the float64 range it is ``-inf``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    irregular = _upward(l_max, flat, -np.cos(flat) / flat, np.sin(flat) / flat)
    # y_l < 0 past the turning point, the only place it can overflow; the
    # step after -inf is inf - inf
    irregular[np.isnan(irregular)] = -np.inf
    return _regular_table(l_max, x), irregular.reshape(l_max + 1, *x.shape)


def _regular_table(l_max: int, x: float | np.ndarray) -> np.ndarray:
    """Regular ``x j_l(x)`` for ``l <= l_max``, ``x > 0``.

    Shape ``(l_max + 1, *np.shape(x))``. ``x j_l`` solves ``f_{l+1} =
    (2l+1)/x f_l - f_{l-1}``, one step per degree for all arguments at once.
    Where ``x > l_max`` every degree lies below the turning point ``l ~ x``,
    the solutions oscillate there, and the recurrence runs upward from ``x
    j_0 = sin x`` and ``x j_{-1} = cos x``. Otherwise ``x j_l`` is the
    minimal solution past the turning point, so it comes from Miller's
    downward recurrence (Gautschi 1967), run on the ratios ``r_l = f_l /
    f_{l+1}``: started from ``f = 0`` above ``max(l_max, x)`` with a margin
    for the turning-point region (one start for all such arguments, set by
    the largest), it cannot leave the float64 range on the way down. The
    values then follow upward from whichever closed form is larger, ``sin
    x`` (degree 0) or ``sin x / x - cos x`` (degree 1), and underflow to
    zero where they must.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    sin, cos = np.sin(flat), np.cos(flat)
    regular = np.empty((l_max + 1, flat.size))
    up = flat > l_max
    if up.any():
        regular[:, up] = _upward(l_max, flat[up], sin[up], cos[up])
    down = ~up
    if down.any():
        xd = flat[down]
        big = float(xd.max())
        top = max(l_max, math.ceil(big + 10.0 * big ** (1.0 / 3.0))) + 20
        # row l-1 becomes r_{l-1} = (2l+1)/x - 1/r_l, from r_top = (2 top + 1)/x down
        ratios = (2 * np.arange(1, top + 1) + 1)[:, None] / xd
        inverse = 0.0
        for ratio in ratios[::-1]:
            ratio -= inverse
            inverse = 1.0 / ratio
        zeroth, first = sin[down], sin[down] / xd - cos[down]
        start = np.where(np.abs(zeroth) >= np.abs(first), zeroth, first * ratios[0])
        regular[:, down] = np.divide.accumulate(
            np.concatenate([start[None], ratios[:l_max]]), axis=0
        )
    return regular.reshape(l_max + 1, *x.shape)


def _legendre_table(l_max: int, c: float | np.ndarray) -> np.ndarray:
    """Legendre polynomials ``P_l(c)`` for ``l <= l_max`` by Bonnet's recurrence.

    Shape ``(l_max + 1, *np.shape(c))``, one step per degree for all ``c``,
    written in place, with the products ``(2l+1) c`` formed up front.
    """
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    out = np.empty((l_max + 1, flat.size))
    out[0] = 1.0
    if l_max > 0:
        out[1] = flat
    scaled = np.multiply.outer(2 * np.arange(1, l_max) + 1.0, flat)
    lower = np.empty_like(flat)
    for l in range(1, l_max):
        # P_{l+1} = ((2l+1) c P_l - l P_{l-1}) / (l+1)
        p = out[l + 1]
        np.multiply(scaled[l - 1], out[l], out=p)
        np.multiply(l, out[l - 1], out=lower)
        p -= lower
        p /= l + 1
    return out.reshape(l_max + 1, *c.shape)


def regular_psi(l: int, x: float | np.ndarray) -> float | np.ndarray:
    """Regular free radial solution ``x * j_l(x)``, for finite ``x > 0`` only.

    Vanishes like ``x**(l+1)`` toward the origin; real for real argument.
    """
    l = _integer("l", l)
    x = np.asarray(x, dtype=float)
    _check_positive(x, "argument x")
    out = _regular_table(l, x)[l]
    return out if out.ndim else out[()]


# ----------------------------------------------------------------------
# spherical harmonics and mode bookkeeping
# ----------------------------------------------------------------------

def sph_harm(l: int, m: int, nhat) -> complex | np.ndarray:
    """Complex spherical harmonic ``Y_l^m`` (Condon-Shortley phase) at directions ``(..., 3)``."""
    index = mode_index(l, m)
    rows, shape = _directions(nhat)
    # position l*l + l + m has integer square root l
    return _ylm(math.isqrt(index), rows)[index].reshape(shape)[()]


def mode_index(l: int, m: int) -> int:
    """Position of ``(l, m)`` in the flattened ``(0,0), (1,-1), (1,0), ...`` order."""
    l = _integer("l", l)
    m = _integer("m", m, -l)
    if m > l:
        raise ValueError(f"m must be at most {l}, got {m}")
    return l * l + (m + l)


def mode_list(l_max: int) -> tuple[tuple[int, int], ...]:
    """All ``(l, m)`` pairs with ``l <= l_max`` in ``mode_index`` order."""
    return _mode_list(_integer("l_max", l_max))


@lru_cache(maxsize=None)
def _mode_list(l_max: int) -> tuple[tuple[int, int], ...]:
    return tuple((l, m) for l in range(l_max + 1) for m in range(-l, l + 1))


def mode_degrees(l_max: int) -> np.ndarray:
    """Degree ``l`` of each flattened mode, shape ``((l_max+1)**2,)``, read-only."""
    return _mode_degrees(_integer("l_max", l_max))


@lru_cache(maxsize=None)
def _mode_degrees(l_max: int) -> np.ndarray:
    arr = np.array([l for l, _ in _mode_list(l_max)], dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _few_directions(l_max: int, n_points: int) -> bool:
    """Whether ``_ylm`` takes its scalar layout: a choice of speed, never of bits.

    Measured with CPython 3.11 and NumPy 2.4 on a 2-core x86-64 host: the
    scalar loop costs about ``(l_max+1)**2 + 8`` recurrence steps per
    direction, the vectorized one about ``250 + 35 l_max`` steps' worth of
    per-call overhead, whatever the direction count up to a few hundred.
    """
    return n_points * ((l_max + 1) ** 2 + 8) <= 250 + 35 * l_max


@dataclass(frozen=True)
class _HarmonicPlan:
    """Recurrence coefficients of all harmonics up to one degree.

    With ``w = sin(theta) exp(i phi)`` and ``c = cos(theta)``,
    ``Y_lm = Q_lm(c) w**m`` for ``m >= 0`` and ``Y_l,-m = (-1)**m
    conj(Y_lm)``.  ``Q_mm = (-1)**m sqrt((2m+1)!! / (4 pi (2m)!!))`` and
    ``Q_lm = a_lm (c Q_{l-1,m} - b_lm Q_{l-2,m})`` for ``l > m`` with
    ``a_lm = sqrt((4l^2-1)/(l^2-m^2))``, ``b_lm = 1/a_{l-1,m}`` and
    ``b_{m+1,m} = 0``.  ``a[l]`` and ``b[l]`` are ``(l, 1)`` columns over
    ``m < l``, and ``fold[l]`` lists ``|m|`` for ``m = -l..l``; ``columns``
    holds the same numbers per order for the scalar path, with the flat
    positions of ``(l, m)`` and ``(l, -m)``.
    """

    sectoral: np.ndarray
    a: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    fold: tuple[np.ndarray, ...]
    columns: tuple


@lru_cache(maxsize=None)
def _harmonic_plan(l_max: int) -> _HarmonicPlan:
    """The plan of every harmonic table; a degree past ``_MAX_DEGREE`` raises ``ValueError``."""
    l_max = _degree("l_max", l_max)
    sectoral = [1.0 / math.sqrt(4.0 * math.pi)]
    for m in range(1, l_max + 1):
        sectoral.append(-sectoral[-1] * math.sqrt((2 * m + 1) / (2 * m)))
    a, b = [], []
    for l in range(l_max + 1):
        m = np.arange(l, dtype=float)
        a.append(np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None])
        prev = l - 1.0
        b_l = np.sqrt(np.maximum(prev * prev - m * m, 0.0) / (4.0 * prev * prev - 1.0))
        b.append(b_l[:, None])
    columns = tuple(
        (
            m,
            sectoral[m],
            tuple(
                (float(a[l][m, 0]), float(b[l][m, 0]), l * l + l + m, l * l + l - m)
                for l in range(m + 1, l_max + 1)
            ),
        )
        for m in range(l_max + 1)
    )
    return _HarmonicPlan(
        sectoral=np.array(sectoral)[:, None],
        a=tuple(a),
        b=tuple(b),
        fold=tuple(np.abs(np.arange(-l, l + 1)) for l in range(l_max + 1)),
        columns=columns,
    )


def _ylm_point(l_max: int, c: float, w: complex) -> list[complex]:
    """All harmonics at one direction in scalar arithmetic, in mode order.

    ``mirror = (-1)**m conj(w**m)`` gives the negative orders, with the
    operations of ``_ylm_vectorized``.
    """
    plan = _harmonic_plan(l_max)
    out = [0j] * (l_max + 1) ** 2
    power = 1.0 + 0.0j
    for m, q, rest in plan.columns:
        lower = 0.0
        if m:
            mirror = -power.conjugate() if m & 1 else power.conjugate()
            out[m * m + 2 * m] = q * power
            out[m * m] = q * mirror
            for a, b, pos, neg in rest:
                q, lower = a * (c * q - b * lower), q
                out[pos] = q * power
                out[neg] = q * mirror
        else:
            out[0] = q
            for a, b, pos, _ in rest:
                q, lower = a * (c * q - b * lower), q
                out[pos] = q
        power *= w
    return out


def _ylm_vectorized(l_max: int, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """All harmonics at many directions, one recurrence step per degree.

    Each degree's rows go straight into the output, so the recurrence keeps
    only three degrees of ``Q`` in rotating buffers.  ``w**m`` comes from
    ``multiply.accumulate``, which rounds each product as Python does.
    """
    plan = _harmonic_plan(l_max)
    n = c.size
    # powers[l_max + m] = w**m, and (-1)**m conj(w**|m|) for negative m, as
    # ``mirror`` in _ylm_point
    powers = np.empty((2 * l_max + 1, n), dtype=complex)
    powers[l_max] = 1.0
    powers[l_max + 1 :] = w
    np.multiply.accumulate(powers[l_max:], axis=0, out=powers[l_max:])
    np.conjugate(powers[: l_max : -1], out=powers[:l_max])
    odd = powers[:l_max][::-2]
    np.negative(odd, out=odd)
    out = np.empty(((l_max + 1) ** 2, n), dtype=complex)
    # rows[l % 3][m] holds Q_lm; orders a degree has not reached stay zero
    rows = np.zeros((3, l_max + 1, n))
    for l in range(l_max + 1):
        q, prev, prev2 = rows[l % 3], rows[(l - 1) % 3], rows[(l - 2) % 3]
        q[:l] = plan.a[l] * (c * prev[:l] - plan.b[l] * prev2[:l])
        q[l] = plan.sectoral[l]
        np.multiply(
            q[plan.fold[l]], powers[l_max - l : l_max + l + 1], out=out[l * l : (l + 1) ** 2]
        )
    return out


def _ylm(l_max: int, directions: np.ndarray | tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """All harmonics up to ``l_max``, shape ``((l_max+1)**2, n)`` in ``mode_list`` order.

    ``directions`` is an ``(n, 3)`` array of direction vectors, normalized
    and checked by ``_unit``, or the pair ``(c, w) = (cos(theta), sin(theta)
    e^{i phi})`` of 1-d arrays.  The one size switch: few directions take
    ``_unit_point`` and ``_ylm_point`` one at a time, many ``_unit`` and
    ``_ylm_vectorized``, with the same operations in the same order and the
    same errors, so a column does not depend on its batch.
    """
    vectors = isinstance(directions, np.ndarray)
    n = len(directions) if vectors else directions[0].size
    if not _few_directions(l_max, n):
        return _ylm_vectorized(l_max, *(_unit(directions) if vectors else directions))
    if vectors:
        pairs = map(_unit_point, *directions.T.tolist())
    else:
        pairs = zip(directions[0].tolist(), directions[1].tolist())
    columns = [_ylm_point(l_max, c, w) for c, w in pairs]
    return np.array(columns, dtype=complex).reshape(n, (l_max + 1) ** 2).T


def ylm_table(l_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All harmonics up to ``l_max`` at the given angles.

    Shape ``((l_max+1)**2, n_points)`` in ``mode_list(l_max)`` order, from
    NumPy's ``cos(theta)`` and ``sin(theta) exp(i phi)`` at any batch size.
    Angles must be finite (``ValueError``).
    """
    l_max = _integer("l_max", l_max)
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.shape != phi.shape:
        raise ValueError("theta and phi must have matching shapes")
    theta, phi = theta.ravel(), phi.ravel()
    for name, angles in (("theta", theta), ("phi", phi)):
        if not np.isfinite(angles).all():
            raise ValueError(f"angle {name} must be finite, got {angles[~np.isfinite(angles)][0]}")
    return _ylm(l_max, (np.cos(theta), np.sin(theta) * np.exp(1j * phi)))


def ylm_directions(l_max: int, nhat) -> np.ndarray:
    """All harmonics up to ``l_max`` at direction vectors of shape ``(..., 3)``.

    Like ``ylm_table`` on their angles, without forming them: ``Y_lm =
    Q_lm(z/r) ((x + i y)/r)**m`` by the rule of ``_unit``, which raises
    ``ValueError`` for a vector that is not finite or is zero; shape
    ``((l_max+1)**2, n_points)``.
    """
    return _ylm(_integer("l_max", l_max), _directions(nhat)[0])


# ----------------------------------------------------------------------
# directions
# ----------------------------------------------------------------------

def _directions(nhat, one: str = "") -> tuple[np.ndarray, tuple[int, ...]]:
    """The one way in for direction vectors: flat float rows ``(n, 3)`` and the leading shape.

    Results take that shape by ``values.reshape(shape)[()]``, a scalar for
    one vector; ``_unit`` checks each vector where it normalizes it.  An
    argument named ``one`` must hold exactly one vector.
    """
    vectors = np.asarray(nhat, dtype=float)
    if vectors.ndim == 0 or vectors.shape[-1] != 3:
        raise ValueError("directions must have shape (..., 3)")
    if one and vectors.size != 3:
        raise ValueError(f"{one} must hold one direction vector, got shape {vectors.shape}")
    return vectors.reshape(-1, 3), vectors.shape[:-1]


def _unit(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(c, w) = (z/r, (x + i y)/r)`` of vectors ``(n, 3)``; ``_unit_point`` on one, bit for bit.

    A power-of-two scale, exact but for components below 2e-308 of the
    largest, brings each largest component into ``[1/2, 1)``.  Then ``r =
    sqrt(x*x + y*y + z*z)`` (the bits of ``np.linalg.norm``) must lie in
    ``(0, 2)``, or ``ValueError`` names the first vector that is not finite
    or is zero; ``w`` is formed as ``x (1/r) + i y (1/r)``.
    """
    exponents = np.frexp(np.abs(rows).max(axis=1))[1]
    x, y, z = np.ldexp(rows, -exponents[:, None]).T
    r = np.sqrt(x * x + y * y + z * z)
    bad = ~((r > 0.0) & (r < 2.0))
    if bad.any():
        _unit_point(*rows[np.argmax(bad)].tolist())  # raises the ValueError naming it
    s = 1.0 / r
    w = (x * s).astype(complex)
    w.imag = y * s
    return z / r, w


def _unit_point(x: float, y: float, z: float) -> tuple[float, complex]:
    """``_unit`` of one vector in ``math``."""
    e = -math.frexp(max(abs(x), abs(y), abs(z)))[1]
    sx, sy, sz = math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e)
    r = math.sqrt(sx * sx + sy * sy + sz * sz)
    if not 0.0 < r < 2.0:
        raise ValueError(f"direction vector must be finite and nonzero, got {[x, y, z]}")
    s = 1.0 / r
    return sz / r, complex(sx * s, sy * s)


def unit_from_angles(theta, phi) -> np.ndarray:
    """Unit vectors from polar/azimuth angles; output shape ``(..., 3)``."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
    )


def angles_from_unit(nhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar/azimuth angles of direction vectors ``(..., 3)``, checked by ``_unit``."""
    rows, shape = _directions(nhat)
    theta = np.arccos(np.clip(_unit(rows)[0], -1.0, 1.0))
    phi = np.arctan2(rows[:, 1], rows[:, 0])
    return theta.reshape(shape)[()], phi.reshape(shape)[()]


# ----------------------------------------------------------------------
# sphere quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AngularGrid:
    """The Gauss-Legendre product grid of ``order``, at least 1, on the unit sphere.

    Its ``order + 1`` polar nodes, Gauss-Legendre in ``cos(theta)``,
    integrate polar polynomials up to degree ``2*order + 1`` exactly, and
    its ``2*order + 1`` uniform azimuths Fourier modes up to ``2*order``.
    So ``order`` is the guaranteed exactness degree: the weighted sum of
    ``conj(Y_a) Y_b`` over the nodes is the exact orthonormality integral
    whenever both degrees are at most ``order``, and the weights sum to the
    full solid angle.  The node angles and weights are the cached, read-only
    arrays of the order, so grids are equal exactly when their orders are.
    """

    order: int
    theta: np.ndarray = field(init=False, compare=False, repr=False)
    phi: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        order = _integer("order", self.order, 1)
        object.__setattr__(self, "order", order)
        for name, array in zip(("theta", "phi", "weights"), _sphere_grid_arrays(order)):
            object.__setattr__(self, name, array)

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
        if values.shape[-1:] != (self.n_nodes,):
            raise ValueError("sample count does not match grid")
        out = values @ self.weights
        return out if np.ndim(out) else out[()]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights of the ``n``-point Gauss-Legendre rule.

    Newton's method on ``P_n``, with ``P_n`` and ``P_{n-1}`` from
    ``_legendre_table``, from Tricomi's guess ``(1 - (1 - 1/n) / (8 n^2))
    cos(pi (4i - 1) / (4n + 2))``, written as the sine of the complementary angle so
    that an odd rule's middle node is exactly 0.  Only the nonnegative nodes
    are computed; the others are their mirror images, so the rule is
    exactly symmetric.  The iteration stops once every step is below 1e-12,
    where the next error, the step squared times ``|P_n''/P_n'| < n**2``,
    is far below an ulp; the last step is then taken, and the weight ``2 /
    ((1 - x^2) P_n'(x)^2)`` moves from the last iterate to the root by its
    first-order change ``2 x dx / (1 - x^2)``.  Against 40-digit roots, for
    ``n`` up to 205, the nodes are within 2 ulp and the weights within 2e-13
    relative; NumPy's ``leggauss`` weights are off by up to 3e-11 there.
    """
    i = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * np.sin(np.pi * (n + 1 - 2 * i) / (2 * n + 1))
    # three or four steps from Tricomi's guess; the bound only rules out a hang
    for _ in range(20):
        lower, p = _legendre_table(n, x)[-2:]
        one_minus = (1.0 - x) * (1.0 + x)
        slope = n * (lower - x * p) / one_minus
        step = p / slope
        if np.max(np.abs(step)) <= 1e-12:
            break
        x = x - step
    weights = 2.0 / (one_minus * slope * slope) * (1.0 + 2.0 * x * step / one_minus)
    x = x - step
    # an odd rule's middle node, 0, is not mirrored
    return (
        np.concatenate([-x[n % 2 :][::-1], x]),
        np.concatenate([weights[n % 2 :][::-1], weights]),
    )


@lru_cache(maxsize=32)
def _sphere_grid_arrays(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_theta = order + 1
    n_phi = 2 * order + 1
    x, w = _gauss_legendre(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w, n_phi) * (2.0 * np.pi / n_phi)
    for arr in (theta, phi, weights):
        arr.flags.writeable = False
    return theta, phi, weights


def gauss_legendre_sphere(order: int) -> AngularGrid:
    """``AngularGrid(order)``: ``order + 1`` polar nodes times ``2*order + 1`` azimuths."""
    return AngularGrid(order)
