"""Finite-distance scattered flux: exact, expanded, and conserved totals.

The central object is the differential flux of the scattered wave through a
sphere of radius ``R``: a double partial-wave sum pairing every mode with
every other through the exact radial pair factors of ``wronskian``.  Those
factors depend only on the two degrees, so the pointwise path first sums
each degree's harmonics, ``S_l(p) = sum_m B_lm Y_lm(p)``, and then contracts
at degree level, with one set of sums for all distances of a scan; the pair
factors of all channels and distances come from one stacked Gauss-Legendre
evaluation on the imaginary axis (``wronskian._pair_stack``), exact in
structure and without a degree limit.  Channels and distances are contracted
in blocks small enough to stay off fresh pages, one batched product per block,
and each row is the one-channel, one-distance contractions summed, bit for bit.
Every ``AngularGrid`` is the Gauss-Legendre product grid of its order, where
the harmonics separate, ``Y_lm(theta_i, phi_j) = y_lm(theta_i) exp(i m
phi_j)``, so the sums come from a table on the polar nodes alone and one
product with the azimuthal Fourier matrix.  An amplitude with no ``m != 0``
coefficient is axially symmetric, so its flux is contracted once per polar
ring there.  Because the pair factors terminate, the "exact" path here is
exact in structure: they are Laurent polynomials, ``HW_lj = sum_n L_n(l, j)
u**n`` in ``u = 1/(2z)``, and the "asymptotic" path, the distance expansion,
is that series cut at its order (``wronskian._laurent_stack``).  It ends at
order ``2 l_max``, where the two paths must agree to rounding; their
agreement (and controlled disagreement below that order) is the main
scientific claim this package exists to check.  One kernel, ``_flux_rows``,
contracts both, at a scalar or a 1-d array of distances, from degree sums
they can share.  The sums depend on neither ``R`` nor the route, so a
pointwise call with the amplitude, channel set and directions of the call
before it reads that call's sums back from one slot, and every output keeps
its bits (``_pointwise``).  The rest of a lone call is mostly fixed cost,
so the kernel reads the channel set's stored wavenumbers and weights
(``ChannelSet`` computes them once), and its finiteness and Hermiticity
tests count bad entries with ``np.count_nonzero`` instead of reducing over
them.

Totals need care: at small ``kR`` the pointwise integrand can exceed its own
integral by many orders of magnitude, so totals are not taken from it where
the grid allows otherwise.  A grid of order at least ``l_max`` integrates
``conj(Y_a) Y_b`` to exactly ``delta_ab``, so the total collapses to
``sum_beta weight_beta sum_l (sum_m |B_lm|**2) HW_ll``, and the diagonal
pair factor ``HW_ll`` is exactly 1 at every distance: the total is the summed
cross section, exact at any ``kR`` and without a pair factor evaluated.
The default grid is resolved by construction, so ``total_flux`` without a
grid returns that sum and builds no grid.  Only an under-resolved grid
(order below ``l_max``) contracts the pair factors against the sphere Gram
matrix precomputed in double-double arithmetic (see ``_dd``); there the
Gram's own rounding noise (about 1e-31) is multiplied by pair factors that
grow like ``(kR)**-(2 l_max + 1)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _kernels
from ._dd import sphere_mode_gram
from .amplitudes import ChannelSet, PartialWaveAmplitude, evaluate
from .special import (
    AngularGrid,
    FluxDomainError,
    _check_positive,
    _directions,
    _integer,
    _ylm,
    gauss_legendre_sphere,
    mode_degrees,
    ylm_directions,
    ylm_table,
)
from .wronskian import _laurent_stack, _pair_overflow, _pair_stack, pair_matrix

__all__ = [
    "CrossSections",
    "FluxDomainError",
    "FluxHermiticityError",
    "FluxProfile",
    "cross_sections",
    "default_grid",
    "differential_flux_asymptotic",
    "differential_flux_exact",
    "far_field_flux",
    "flux_correction_term",
    "flux_profile",
    "optical_theorem_defect",
    "total_flux",
    "unitarity_defect",
]

log = logging.getLogger(__name__)

_VALIDITY_KR = 1.0


class FluxHermiticityError(ValueError):
    """Raised when the pair double sum fails to contract to a real value."""


# ----------------------------------------------------------------------
# shared assembly helpers
# ----------------------------------------------------------------------

def default_grid(f: PartialWaveAmplitude) -> AngularGrid:
    """Quadrature grid resolving every mode bilinear of ``f`` exactly."""
    return gauss_legendre_sphere(2 * f.l_max + 4)


def _grid(f: PartialWaveAmplitude, grid) -> AngularGrid:
    """``grid``, ``default_grid(f)`` for None; anything else raises ``TypeError``."""
    if grid is not None and not isinstance(grid, AngularGrid):
        raise TypeError(f"grid must be an AngularGrid, got {grid!r}: use AngularGrid(order)")
    return default_grid(f) if grid is None else grid


def _mode_pair_matrix(l_max: int, z: complex) -> np.ndarray:
    ls = np.asarray(mode_degrees(l_max))
    pm = pair_matrix(l_max, z)
    return np.ascontiguousarray(pm[np.ix_(ls, ls)])


def _real_with_hermitian_check(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Discard the imaginary residue after checking it is pure rounding.

    ``scale`` is the absolute-value contraction of the same double sum, the
    natural yardstick for accumulated rounding; a residue above 1e-10 of it
    means the Hermitian pairing itself is broken, not just noisy.
    """
    residue = np.abs(values.imag)
    floor = 1e-300
    bad = residue > 1e-10 * (scale + floor)
    if np.count_nonzero(bad):
        worst = float(np.max(residue / (scale + floor)))
        raise FluxHermiticityError(
            f"imaginary flux residue {worst:.3e} of local magnitude exceeds 1e-10"
        )
    return values.real


def _cross_sections_per_channel(f: PartialWaveAmplitude, channels: ChannelSet) -> np.ndarray:
    """``weight_beta * sum |B|**2`` in channel order, exact by orthonormality."""
    return channels._weights * np.sum(np.abs(f.rows(channels.labels)) ** 2, axis=1)


def _summed_cross_section(f: PartialWaveAmplitude, channels: ChannelSet) -> float:
    """The channel cross sections added in channel order, as Python's ``sum`` adds them."""
    return float(sum(_cross_sections_per_channel(f, channels).tolist()))


def _check_scale(f: PartialWaveAmplitude, channels: ChannelSet) -> float:
    """Summed cross section as the scale of a relative check defect.

    It is 0.0 for a zero amplitude, whose defects are 0 by convention.  A
    nonzero amplitude whose squared coefficients underflow would read 0.0
    too and pass the check without testing anything, so it raises
    ``FluxDomainError``.
    """
    sigma = _summed_cross_section(f, channels)
    largest = float(np.max(np.abs(f.rows(channels.labels))))
    if sigma == 0.0 and largest > 0.0:
        raise FluxDomainError(
            f"summed cross section underflows to 0.0 at largest |B| = {largest:.4g}: "
            f"the squared coefficients fall below the float64 range "
            f"(smallest normal {np.finfo(float).tiny:.4g}); rescale the amplitude"
        )
    return sigma


def _degree_sums(
    f: PartialWaveAmplitude,
    channels: ChannelSet,
    directions: AngularGrid | np.ndarray,
) -> tuple[list[str], np.ndarray]:
    """Labels of the nonzero channels, and their degree sums ``S_l(p) = sum_m B_lm
    Y_lm(p)``, shape ``(n_channels, l_max + 1, n_points)``.

    ``directions`` is a grid or an ``(n_points, 3)`` array of direction vectors
    for ``special._ylm``.  On a grid, one table on the ``order + 1`` polar nodes,
    at ``phi = 0``, serves every azimuth.  With no ``m != 0`` coefficient the sums
    do not depend on ``phi``: they are ``B_l0`` times the ``m = 0`` rows of that
    table, one column per polar ring (``n_points = order + 1``).  Otherwise each
    channel's terms are spread into an ``(l, m)`` layout, one channel at a time
    so that no layout of all channels raises the peak, and multiplied by the
    ``(2 l_max + 1) x n_phi`` Fourier matrix ``exp(i m phi_j)``; node order is
    polar-major, as in the grid.  Direction arrays take the table at their unit
    vectors, and each degree's rows are summed.
    """
    l_max = f.l_max
    # an amplitude keeps a table row for each exit label with a nonzero coefficient
    labels = [label for label in channels.labels if label in f.exit_labels]
    rows = f.rows(labels)
    if not isinstance(directions, AngularGrid):
        terms = rows[:, :, None] * _ylm(l_max, directions)
        return labels, np.add.reduceat(terms, _degree_starts(l_max), axis=1)
    n_phi = 2 * directions.order + 1
    theta = directions.theta[::n_phi]
    table = ylm_table(l_max, theta, np.zeros_like(theta))
    # mode (l, m) sits at flat index l*l + l + m, slot (l, m + l_max)
    ls = mode_degrees(l_max)
    ms_of_mode = np.arange(ls.size) - ls * ls - ls
    zonal = ms_of_mode == 0
    if not rows[:, ~zonal].any():
        return labels, rows[:, zonal, None] * table[zonal]
    fourier = np.exp(1j * np.outer(np.arange(-l_max, l_max + 1), directions.phi[:n_phi]))
    padded = np.zeros(((l_max + 1) * (2 * l_max + 1), theta.size), dtype=complex)
    layout = padded.reshape(l_max + 1, 2 * l_max + 1, -1).transpose(0, 2, 1)
    slots = ls * (2 * l_max + 1) + ms_of_mode + l_max
    sums = np.empty((len(labels), l_max + 1, theta.size * n_phi), dtype=complex)
    for row, out in zip(rows, sums):
        padded[slots] = row[:, None] * table
        np.matmul(layout, fourier, out=out.reshape(l_max + 1, theta.size, n_phi))
    return labels, sums


@lru_cache(maxsize=None)
def _degree_starts(l_max: int) -> np.ndarray:
    """Flat position ``l*l`` of each degree's first mode: the segments of one degree's sum."""
    starts = np.arange(l_max + 1) ** 2
    starts.flags.writeable = False
    return starts


# Blocks of channels and distances whose product has at most this many entries
# (128 KiB of complex128): every channel and as many distances as fit, else as
# many channels as fit at one distance, at least one.  The block buffers stay
# under glibc's default 128 KiB mmap threshold and come from heap pages already
# mapped (blocks of 2**14 and 2**15 entries measured no faster).  It also bounds
# the degree sums that ``_pointwise`` keeps for the next call.
_BLOCK_ENTRIES = 2**13


def _flux_rows(
    labels: list[str], sums: np.ndarray, channels: ChannelSet, distances: np.ndarray,
    order: int | None = None, single: bool = False,
) -> np.ndarray:
    """Differential flux, shape ``(n_distances, n_points)``, from ``_degree_sums``.

    ``weight_beta * sum_{l,j} conj(S_l) HW_lj S_j`` at ``z = -i k_beta R``, one
    matrix per channel and distance from one stacked call: the exact pair factors
    (``wronskian._pair_stack``), or with an ``order`` their distance expansion cut
    there, or with ``single`` its term of that order (``wronskian._laurent_stack``);
    order 0, the all-ones matrix, is ``|sum_l S_l|**2``.  Blocks of ``_BLOCK_ENTRIES``
    share buffers: one batched product gives the values of the block's channels, one
    of the moduli the absolute-value contraction, which must be finite, and the values
    are asserted real against it.  Channel groups run outermost, so a grid too large
    for one distance of every channel keeps one channel's sums in cache.  Channel rows
    are added in channel order: each row is the sum of ``_kernels.quadratic_form`` of
    each channel's sums and moduli, bit for bit.
    """
    n_channels, degrees, n_points = sums.shape
    l_max, n = degrees - 1, distances.size
    total = np.zeros((n, n_points))
    at = [channels._index[label] for label in labels]
    k, weight = channels._ks[at], channels._weights[at][:, None]
    if order == 0 and not single or not n_channels:
        for row in weight * np.abs(sums.sum(axis=1)) ** 2:
            total += row
        return total
    # distance-major, so that every block is a contiguous part of the stack
    zs = -1j * (distances[:, None] * k).ravel()
    stacks = _pair_stack(l_max, zs) if order is None else _laurent_stack(l_max, zs, order, single)
    stacks = stacks.reshape(n, n_channels, degrees, degrees)
    entries = degrees * max(n_points, 1)
    group = max(1, min(n_channels, _BLOCK_ENTRIES // entries))
    size = max(1, min(n, _BLOCK_ENTRIES // (group * entries)))  # 1 unless group == n_channels
    block_products = np.empty((size, group, degrees, n_points), dtype=complex)
    block_abs_products = np.empty(block_products.shape)
    for first in range(0, n_channels, group):
        part = slice(first, first + group)
        group_sums = sums[part]
        conj_sums, abs_sums = np.conjugate(group_sums), np.abs(group_sums)
        for start in range(0, n, size):
            rows = slice(start, start + size)
            block = stacks[rows, part]
            # the whole buffers, or their leading part for a last, short block
            products = block_products[: len(block), : block.shape[1]]
            abs_products = block_abs_products[: len(block), : block.shape[1]]
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(block, group_sums, out=products)
                products *= conj_sums
                np.matmul(np.abs(block), abs_sums, out=abs_products)
                abs_products *= abs_sums
                values, scale = np.add.reduce(products, -2), np.add.reduce(abs_products, -2)
            if np.count_nonzero(np.isfinite(scale)) < scale.size:
                raise _overflow(stacks[:, part], scale, k[part], distances, rows, order)
            weighted = weight[part] * _real_with_hermitian_check(values, scale)
            block_total = total[rows]
            for row in weighted.transpose(1, 0, 2):  # channel by channel
                block_total += row
    return total


def _overflow(stacks, scale, k, distances, rows, order) -> FluxDomainError:
    """A block's contraction past float64: at the smallest kR of the first channel whose
    matrices pass float64, or else of the first channel whose sum does in the block."""
    l_max = stacks.shape[-1] - 1
    for k_c, finite_c in zip(k, np.isfinite(stacks).all(axis=(2, 3)).T):
        if not finite_c.all():
            return _pair_overflow(l_max, k_c * float(distances[~finite_c].min()), order)
    bad = ~np.isfinite(scale).all(axis=2).T
    c = int(np.flatnonzero(bad.any(axis=1))[0])
    kr = k[c] * float(distances[rows][bad[c]].min())
    return FluxDomainError(f"the flux at l_max={l_max}, kR={kr:.6g} sums past the "
                           f"float64 limit {np.finfo(float).max:.4g}; raise kR")


def _grid_rows(
    f: PartialWaveAmplitude,
    channels: ChannelSet,
    grid: AngularGrid,
    distances: np.ndarray,
) -> np.ndarray:
    """Differential flux on ``grid``, shape ``(n_distances, n_nodes)``.

    Ring sums of ``_degree_sums`` are contracted once per polar ring, and
    each ring's value is repeated over its azimuths.
    """
    rows = _flux_rows(*_degree_sums(f, channels, grid), channels, distances)
    if rows.shape[1] == grid.n_nodes:
        return rows
    return np.repeat(rows, 2 * grid.order + 1, axis=1)


# ----------------------------------------------------------------------
# differential flux
# ----------------------------------------------------------------------

# The amplitude, channel set, direction key, labels and degree sums of the last
# pointwise call that returned with sums of at most one block (see ``_pointwise``).
_last_sums: tuple = (None,) * 5


def _pointwise(
    f: PartialWaveAmplitude, channels: ChannelSet, R, nhat, order=None, single=False
) -> float | np.ndarray:
    """``_flux_rows``, with its ``order`` and ``single``, at ``R`` and ``nhat``.

    ``R`` is a scalar or a 1-d array, finite and positive; the result has
    shape ``R.shape + nhat.shape[:-1]``, a scalar for both.

    The degree sums of the last call are kept in one slot, ``_last_sums``: a
    call with the same amplitude and channel set (the same objects, which are
    frozen) at direction rows of the same shape and bytes reads them back,
    read-only, instead of building them again.  Only sums of at most
    ``_BLOCK_ENTRIES`` entries are kept, and only by a call that returns.
    """
    global _last_sums
    r = np.asarray(R, dtype=float)
    if r.ndim > 1:
        raise ValueError("R must be a scalar or a 1-d array of distances")
    _check_positive(r, "distance R")
    vectors, shape = _directions(nhat)
    key = None
    if len(f.exit_labels) * (f.l_max + 1) * len(vectors) <= _BLOCK_ENTRIES:
        key = (vectors.shape, vectors.tobytes())
    last_f, last_channels, last_key, labels, sums = _last_sums
    hit = key is not None and last_f is f and last_channels is channels and last_key == key
    if not hit:
        labels, sums = _degree_sums(f, channels, vectors)
    total = _flux_rows(labels, sums, channels, np.atleast_1d(r), order, single)
    if key is not None and not hit:
        sums.flags.writeable = False
        _last_sums = (f, channels, key, labels, sums)
    return total.reshape(r.shape + shape)[()]


def differential_flux_exact(
    f: PartialWaveAmplitude, channels: ChannelSet, R: float | np.ndarray, nhat
) -> float | np.ndarray:
    """Differential scattered flux at distance(s) ``R`` and direction(s) ``nhat``.

    The pair factors depend only on the two degrees, so each channel is
    first collapsed to ``S_l(p) = sum_m B_lm Y_lm(p)``, which does not depend
    on ``R``; the flux is ``weight_beta * sum_{l,j} conj(S_l) HW_lj S_j`` with
    the exact pair factors at ``z = -i k_beta R``.  The result is real up to
    rounding, which is asserted before the imaginary residue is discarded.

    Scalar ``R`` and direction give a scalar.  A 1-d array of distances adds
    a leading axis, shape ``(n_R, *direction_shape)``, and shares one angular
    table between all of them.
    """
    return _pointwise(f, channels, R, nhat)


def differential_flux_asymptotic(
    f: PartialWaveAmplitude, channels: ChannelSet, R: float | np.ndarray, nhat, order: int = 4
) -> float | np.ndarray:
    """Distance expansion of the differential flux through ``order >= 0``.

    Order 0 is the far-field cross-section integrand; each further order
    adds one power of ``u = 1/(2z)``, ``z = -i k_beta R``.  The pair factors
    are Laurent polynomials, ``HW_lj = sum_n L_n(l, j) u**n``, and the flux
    through ``order`` is ``differential_flux_exact`` with ``sum_{n <= order}
    L_n u**n`` in their place.  From ``order = 2 * l_max`` on it is complete
    and matches ``differential_flux_exact`` to rounding.  Raises
    ``FluxDomainError`` where its terms leave float64 (high orders at small
    ``kR``), and ``ValueError`` for an ``order`` that is not an integer.

    ``R`` and ``nhat`` are shaped as in ``differential_flux_exact``: a 1-d
    array of distances gives shape ``(n_R, *direction_shape)``, one degree
    sum per channel for all of them, and each row is the scalar call's
    value bit for bit.
    """
    return _pointwise(f, channels, R, nhat, _integer("order", order))


def flux_correction_term(
    f: PartialWaveAmplitude, channels: ChannelSet, R: float | np.ndarray, nhat, order: int
) -> float | np.ndarray:
    """Single expansion term of a given integer order ``>= 1``, channel-weighted.

    The term ``L_order u**order`` of ``differential_flux_asymptotic``;
    past ``2 * l_max`` it is exactly zero.  Each one vanishes upon
    solid-angle integration, which is how the expansion stays consistent
    with flux conservation order by order.  ``R`` may be a 1-d array, as in
    ``differential_flux_asymptotic``.
    """
    return _pointwise(f, channels, R, nhat, _integer("order", order, 1), single=True)


def far_field_flux(
    f: PartialWaveAmplitude, channels: ChannelSet, nhat
) -> float | np.ndarray:
    """Infinite-distance limit ``sum_beta weight_beta |f_beta(nhat)|^2``."""
    return differential_flux_asymptotic(f, channels, R=1.0, nhat=nhat, order=0)


# ----------------------------------------------------------------------
# cross sections and totals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrossSections:
    """Per-channel cross sections with a quadrature cross-check.

    ``per_channel`` comes from the coefficient sum (exact by orthonormality);
    ``quadrature_per_channel`` integrates ``weight |f_beta|^2`` samples on
    ``grid``; ``differential`` holds those samples, one row per label.
    """

    labels: tuple[str, ...]
    per_channel: dict[str, float]
    quadrature_per_channel: dict[str, float]
    differential: np.ndarray
    grid: AngularGrid

    @property
    def total(self) -> float:
        return float(sum(self.per_channel.values()))

    @property
    def quadrature_total(self) -> float:
        return float(sum(self.quadrature_per_channel.values()))


def cross_sections(
    f: PartialWaveAmplitude, channels: ChannelSet, grid: AngularGrid | None = None
) -> CrossSections:
    """Channel cross sections ``weight_beta * sum |B|^2`` plus quadrature check."""
    grid = _grid(f, grid)
    table = ylm_directions(f.l_max, grid.points)
    labels = channels.labels
    # row by row: each row's samples are those of ``evaluate``, bit for bit
    samples = [np.abs(row @ table) ** 2 for row in f.rows(labels)]
    diff = channels._weights[:, None] * np.array(samples)
    quad = {label: float(grid.integrate(values)) for label, values in zip(labels, diff)}
    per_channel = dict(zip(labels, _cross_sections_per_channel(f, channels).tolist()))
    return CrossSections(labels, per_channel, quad, diff, grid)


def _least_order(l_max: int) -> int:
    """The one grid-resolution rule: the least grid order that integrates every mode
    bilinear ``conj(Y_a) Y_b`` of degrees up to ``l_max`` exactly (see ``AngularGrid``)."""
    return max(l_max, 1)


def _totals(
    f: PartialWaveAmplitude, channels: ChannelSet, distances: np.ndarray, grid: AngularGrid,
    method: str = "gram",
) -> np.ndarray:
    """``total_flux`` at each of ``distances``, the one route choice."""
    l_max = f.l_max
    resolved = grid.order >= _least_order(l_max)
    if not resolved:
        log.warning(
            "grid order %d below l_max = %d: mode bilinears are not integrated exactly",
            grid.order,
            l_max,
        )
    if method == "pointwise":
        samples = _grid_rows(f, channels, grid, distances)
        return np.array([float(grid.integrate(row)) for row in samples])
    if resolved:
        return np.full(distances.size, _summed_cross_section(f, channels))
    gram = np.ascontiguousarray(sphere_mode_gram(grid.order, l_max))
    totals = np.zeros(distances.size)
    for label, row in zip(channels.labels, f.rows(channels.labels)):
        if not row.any():
            continue
        row = np.ascontiguousarray(row)
        for i, R in enumerate(distances):
            w_pairs = _mode_pair_matrix(l_max, -1j * channels.k(label) * R)
            value = _kernels.weighted_pair_sum(row, w_pairs, gram)
            totals[i] += channels.weight(label) * value.real
    return totals


def total_flux(
    f: PartialWaveAmplitude,
    channels: ChannelSet,
    R: float,
    grid: AngularGrid | None = None,
    method: str = "gram",
) -> float:
    """Solid-angle integral of the differential flux at distance ``R``.

    Conservation makes this independent of ``R`` and equal to the summed
    cross sections; verifying that numerically is the whole point.
    ``"pointwise"`` integrates the differential flux samples on ``grid``
    directly and is conditioning-limited at small ``kR``, where the
    integrand dwarfs the integral.  ``"gram"``, the default, uses the
    grid's exactness instead: when its order is at least ``l_max`` the grid
    integrates ``conj(Y_a) Y_b`` to exactly ``delta_ab``, so the total is
    ``sum_beta weight_beta sum_l (sum_m |B_lm|**2) HW_ll`` with the diagonal
    pair factor ``HW_ll == 1``: the summed cross section, exact at any
    ``kR``.  With ``grid=None`` that is the default grid, resolved by
    construction, so the default call returns the summed cross section
    (``cross_sections(f, channels).total``, bit for bit) without building
    a grid.  On a grid of lower order the pair factors are contracted
    against the double-double sphere Gram matrix, whose rounding the pair
    factors amplify at small ``kR``.  ``R`` must be finite and positive, or
    ``ValueError`` is raised; a ``grid`` that is not an ``AngularGrid``
    raises ``TypeError`` and an unknown ``method`` ``ValueError``.
    """
    _check_positive(np.asarray(R, dtype=float), "distance R")
    if grid is not None or method != "gram":
        grid = _grid(f, grid)
    if method not in ("gram", "pointwise"):
        raise ValueError(f"method must be gram or pointwise, got {method!r}")
    if grid is None:
        # the default grid resolves every mode bilinear by construction
        return _summed_cross_section(f, channels)
    return float(_totals(f, channels, np.array([R], dtype=float), grid, method)[0])


@dataclass(frozen=True)
class FluxProfile:
    """Distance scan of the scattered flux.

    ``samples[i]`` holds the differential flux on ``grid`` at ``r_values[i]``
    (float64 pointwise evaluation); ``total`` holds the conserved
    solid-angle integrals from ``total_flux``'s Gram route: the summed
    cross section, by exact orthonormality, on a grid of order at least
    ``l_max``, and the Gram contraction on a coarser one.  ``validity``
    flags rows where every channel satisfies ``k R >= 1``, the stated
    domain of the distance expansion; rows below that are still computed
    but should be read as extrapolation.
    """

    r_values: np.ndarray
    total: np.ndarray
    diff_min: np.ndarray
    diff_max: np.ndarray
    samples: np.ndarray
    validity: np.ndarray
    far_field_total: float
    grid: AngularGrid

    def __len__(self) -> int:
        return self.r_values.size


def flux_profile(
    f: PartialWaveAmplitude,
    channels: ChannelSet,
    r_values,
    grid: AngularGrid | None = None,
) -> FluxProfile:
    """Evaluate the flux scan used by the command-line front end.

    ``r_values`` must be finite and positive, or ``ValueError`` is raised.
    """
    r_values = np.asarray(r_values, dtype=float)
    if r_values.ndim != 1 or r_values.size == 0:
        raise ValueError("r_values must be a non-empty 1-d array")
    _check_positive(r_values, "distance R")
    grid = _grid(f, grid)
    k_min = channels._ks.min()
    samples = _grid_rows(f, channels, grid, r_values)
    return FluxProfile(
        r_values=r_values,
        total=_totals(f, channels, r_values, grid),
        diff_min=samples.min(axis=1),
        diff_max=samples.max(axis=1),
        samples=samples,
        validity=k_min * r_values >= _VALIDITY_KR,
        far_field_total=_summed_cross_section(f, channels),
        grid=grid,
    )


# ----------------------------------------------------------------------
# conservation validators
# ----------------------------------------------------------------------

_DEFAULT_DIRECTIONS = (
    (0.0, 0.0, 1.0),
    (0.6, 0.0, 0.8),
    (-0.36, 0.48, 0.8),
    (0.0, -0.8, 0.6),
)


def unitarity_defect(
    f: PartialWaveAmplitude | Callable[[str, tuple[float, float, float]], PartialWaveAmplitude],
    channels: ChannelSet,
    kappa_hats=None,
    s_hats=None,
) -> float:
    """Defect of the bilinear flux-conservation identity between amplitudes.

    For every sampled pair of entrance channels ``(gamma, alpha)`` and
    incident directions ``(s_hat, kappa_hat)`` the identity couples

        sum_beta k_beta * integral conj(f_{beta gamma}) f_{beta alpha}

    (evaluated exactly as a coefficient contraction, since the grid that
    resolves the bilinear integrates it exactly) with the difference of the
    two amplitudes connecting the entrance pair.  The defect is the largest
    violation normalized by the largest bilinear magnitude; an exactly
    unitary amplitude family gives rounding-level values.

    ``f`` may be a family ``(entrance_label, direction) ->
    PartialWaveAmplitude``, called once per entrance and distinct direction;
    one from ``smatrix_amplitude_family`` gives all those coefficient rows
    from one harmonic table.  The sampled values come from one harmonic
    table and the bilinears from one product of the stacked rows.  A bare
    amplitude supplies only the diagonal sample ``gamma = alpha`` at its own
    incident direction, and more directions raise: the reciprocal amplitude
    data is missing.
    """
    if kappa_hats is None:
        kappa_hats = _DEFAULT_DIRECTIONS
    kappa_hats = [tuple(v) for v in _directions(kappa_hats)[0].tolist()]
    s_hats = kappa_hats if s_hats is None else [tuple(v) for v in _directions(s_hats)[0].tolist()]
    directions = list(dict.fromkeys(s_hats + kappa_hats))
    vectors = np.array(directions)

    if isinstance(f, PartialWaveAmplitude):
        if len(kappa_hats) > 1 or kappa_hats != s_hats:
            raise ValueError(
                "missing reciprocal amplitude data: a single amplitude only "
                "supports the diagonal sample; pass an amplitude family"
            )
        entrances = [channels.entrance]
        amplitudes = [f]
    else:
        entrances = list(channels.labels)
        amplitudes = None
        if not hasattr(f, "_rows"):
            amplitudes = [f(e, d) for e in entrances for d in directions]

    # the amplitude of entrance e at direction d is row e * n_dir + d
    if amplitudes is None:
        # an S-matrix family: every row, and the sampled values, from one harmonic table
        rows, table = f._rows(channels.labels, entrances, vectors)
    else:
        l_max = max(amp.l_max for amp in amplitudes)
        rows = np.array([amp.rows(channels.labels, l_max) for amp in amplitudes])
        table = _ylm(l_max, vectors)
    k = channels._ks[:, None]
    n_dir, n_amp = len(directions), rows.shape[0]
    bilinears = rows.reshape(n_amp, -1).conj() @ (k * rows).reshape(n_amp, -1).T
    values = rows @ table

    # gamma, alpha, s_hat, kappa_hat along four axes: every sampled pair
    entrance = np.arange(len(entrances))
    label = np.array([channels.labels.index(e) for e in entrances])
    s_at = np.array([directions.index(d) for d in s_hats])
    kappa_at = np.array([directions.index(d) for d in kappa_hats])
    g = entrance[:, None, None, None] * n_dir + s_at[:, None]
    a = entrance[:, None, None] * n_dir + kappa_at
    bilinear = bilinears[g, a]
    forward = values[a, label[:, None, None, None], s_at[:, None]]
    backward = values[g, label[:, None, None], kappa_at]
    rhs = -(4.0 * np.pi / 2j) * (forward - np.conj(backward))
    # np.max, not max(): a nan defect must propagate, not lose to 0.0
    worst = float(np.max(np.abs(bilinear + rhs)))
    scale = float(np.max(np.abs(bilinear)))
    if scale == 0.0:
        return 0.0
    return worst / scale


def optical_theorem_defect(
    f: PartialWaveAmplitude, channels: ChannelSet, kappa_hat=(0.0, 0.0, 1.0)
) -> float:
    """Relative defect of the forward-amplitude sum rule.

    ``|sum_beta sigma_beta - (4 pi / k_entrance) Im f_entrance(kappa_hat)|``
    normalized by the summed cross sections; zero amplitude gives 0 by
    convention, and a nonzero one whose cross sections underflow to 0 raises
    ``FluxDomainError``.  The sum rule holds for momentum-ratio weighting; velocity
    weighting departs from it unless velocities are proportional to the
    wavenumbers.  ``kappa_hat`` holds one vector, or ``ValueError`` is raised.
    """
    forward = evaluate(f, channels.entrance, _directions(kappa_hat, one="kappa_hat")[0][0])
    sigma = _check_scale(f, channels)
    if sigma == 0.0:
        return 0.0
    k_in = channels.entrance_channel.k
    return abs(sigma - 4.0 * np.pi / k_in * np.imag(forward)) / sigma
