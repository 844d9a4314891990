"""Multichannel partial-wave amplitudes and unitary test-amplitude generators.

An amplitude here is the finite partial-wave content of an exit wave: the
coefficients ``B_{beta}^{lm}`` such that the angular amplitude for exit
channel ``beta`` is ``f_beta(nhat) = sum B_{lm} Y_l^m``, stored as one
table with a row per exit channel and a column per mode ``(l, m)``.
Channels carry wavenumbers and an entrance label; flux weights are either
wavenumber ratios or, for rearrangement-style weighting, velocity ratios.

Generators at the bottom build amplitudes from per-degree unitary matrices,
so every conservation identity downstream can be exercised with inputs that
satisfy it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .special import (
    FluxDomainError, _check_positive, _chi_table, _directions, _integer, _radial_table, _ylm,
    chi_coefficient, mode_degrees, mode_index, mode_list,
)

__all__ = [
    "Channel",
    "ChannelSet",
    "PartialWaveAmplitude",
    "SMatrixModel",
    "WEIGHT_MODES",
    "amplitudes_from_smatrix",
    "apply_angular_operator",
    "evaluate",
    "h_coefficient",
    "hard_sphere_model",
    "random_unitary_smatrix",
    "scattered_wave",
    "scattered_wave_series",
    "smatrix_amplitude_family",
]

WEIGHT_MODES = ("momentum_ratio", "velocity_ratio")

# the largest |S^H S - 1| entry that the S-matrix generators accept
_UNITARITY_TOLERANCE = 1e-10


# ----------------------------------------------------------------------
# channels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Channel:
    """One open exit arrangement: a label, a wavenumber, optional velocity."""

    label: str
    k: float
    velocity: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("channel label must be a non-empty string")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"channel {self.label!r}: wavenumber must be positive")
        if self.velocity is not None and not (
            math.isfinite(self.velocity) and self.velocity > 0
        ):
            raise ValueError(f"channel {self.label!r}: velocity must be positive")


@dataclass(frozen=True)
class ChannelSet:
    """Open channels with a designated entrance and a flux weight rule.

    ``weight(label)`` returns the factor multiplying ``|f|^2`` quantities for
    that exit channel: ``k_exit / k_entrance`` for ``momentum_ratio`` or the
    same ratio of stored velocities for ``velocity_ratio``.  The labels, the
    wavenumbers and the weights are computed once, at construction, and kept
    in channel order: ``k(label)`` and ``weight(label)`` read them by label,
    and the flux kernels read whole read-only arrays of them.
    """

    channels: tuple[Channel, ...]
    entrance: str
    weight_mode: str = "momentum_ratio"

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("channel set must not be empty")
        labels = tuple(c.label for c in self.channels)
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("channel labels must be unique")
        if self.entrance not in index:
            raise ValueError(f"entrance channel {self.entrance!r} not present")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        ref = self.channels[index[self.entrance]]
        if self.weight_mode == "velocity_ratio":
            missing = [c.label for c in self.channels if c.velocity is None]
            if missing:
                raise ValueError(
                    f"velocity_ratio weighting needs velocities for {missing}"
                )
            weights = [c.velocity / ref.velocity for c in self.channels]
        else:
            weights = [c.k / ref.k for c in self.channels]
        ks = np.array([c.k for c in self.channels], dtype=float)
        weights = np.array(weights, dtype=float)
        ks.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ks", ks)
        object.__setattr__(self, "_weights", weights)

    def _position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown channel {label!r}") from None

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def channel(self, label: str) -> Channel:
        return self.channels[self._position(label)]

    def k(self, label: str) -> float:
        return self.channel(label).k

    @property
    def entrance_channel(self) -> Channel:
        return self.channel(self.entrance)

    def weight(self, label: str) -> float:
        return float(self._weights[self._position(label)])

    def with_entrance(self, label: str) -> "ChannelSet":
        """Same channels and weighting, different entrance."""
        if label == self.entrance:
            return self
        return ChannelSet(
            channels=self.channels, entrance=label, weight_mode=self.weight_mode
        )


# ----------------------------------------------------------------------
# amplitudes
# ----------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class PartialWaveAmplitude:
    """Partial-wave coefficients ``B_{beta}^{lm}``, stored as one read-only table.

    ``table[i, mode_index(l, m)]`` is the coefficient of ``exit_labels[i]``;
    labels are sorted, and only those with a nonzero coefficient have a row.
    ``l_max`` is the largest degree with one (0 if none), so amplitudes are
    equal exactly when their labels and tables are.  The constructor takes
    ``{(exit_label, l, m): value}``, where a zero adds nothing.  Immutable.
    """

    exit_labels: tuple[str, ...]
    table: np.ndarray
    l_max: int

    def __init__(self, coefficients: Mapping[tuple[str, int, int], complex] | None = None):
        coefficients = coefficients or {}
        keys = list(coefficients)
        positions = []
        for key in keys:
            if not (isinstance(key, tuple) and len(key) == 3 and isinstance(key[0], str)):
                raise ValueError(f"coefficient key {key!r} is not (exit label, l, m)")
            try:
                positions.append(mode_index(key[1], key[2]))
            except ValueError as exc:
                raise ValueError(f"invalid mode indices in key {key!r}: {exc}") from None
        labels = list(dict.fromkeys(beta for beta, _, _ in keys))
        width = (math.isqrt(max(positions, default=0)) + 1) ** 2
        table = np.zeros((len(labels), width), dtype=complex)
        values = np.fromiter(map(complex, coefficients.values()), dtype=complex, count=len(keys))
        table[[labels.index(beta) for beta, _, _ in keys], positions] = values
        self._store(tuple(labels), table)

    @classmethod
    def _from_table(cls, labels: Sequence[str], table: np.ndarray) -> "PartialWaveAmplitude":
        amplitude = cls.__new__(cls)
        amplitude._store(tuple(labels), np.asarray(table, dtype=complex))
        return amplitude

    def _store(self, labels: tuple[str, ...], table: np.ndarray) -> None:
        """The one validation path of every builder, whose table is labels by ``(l_max+1)**2``
        modes: check that it is finite, then keep the canonical form."""
        width = table.shape[1]
        finite = np.isfinite(table)
        if not finite.all():
            row, position = divmod(int(np.argmin(finite)), width)
            key = (labels[row], *mode_list(math.isqrt(width) - 1)[position])
            raise ValueError(f"coefficient at {key!r} is not finite")
        nonzero = table != 0
        kept = sorted(np.flatnonzero(nonzero.any(axis=1)), key=lambda i: labels[i])
        used = np.flatnonzero(nonzero.any(axis=0))
        # position l*l + l + m has integer square root l
        l_max = math.isqrt(int(used[-1])) if used.size else 0
        canonical = table[kept, : (l_max + 1) ** 2]
        canonical[canonical == 0] = 0  # +0, the 0.0 that an absent key adds in a sum
        canonical.flags.writeable = False
        object.__setattr__(self, "exit_labels", tuple(labels[i] for i in kept))
        object.__setattr__(self, "table", canonical)
        object.__setattr__(self, "l_max", l_max)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialWaveAmplitude):
            return NotImplemented
        return self.exit_labels == other.exit_labels and np.array_equal(self.table, other.table)

    @property
    def coefficients(self) -> dict[tuple[str, int, int], complex]:
        """The nonzero coefficients as ``{(exit_label, l, m): value}``, in table order."""
        modes = mode_list(self.l_max)
        rows, positions = np.nonzero(self.table)
        values = self.table[rows, positions].tolist()
        return {
            (self.exit_labels[i], *modes[p]): value
            for i, p, value in zip(rows.tolist(), positions.tolist(), values)
        }

    def coefficient(self, beta: str, l: int, m: int) -> complex:
        """``B_beta^{lm}``, zero past ``l_max``; ``(l, m)`` must be a mode (``mode_index``)."""
        position = mode_index(l, m)
        return complex(self.dense(beta)[position]) if l <= self.l_max else 0.0 + 0.0j

    def rows(self, labels: Sequence[str], l_max: int | None = None) -> np.ndarray:
        """Read-only rows of ``labels``, cut at or zero-padded to degree ``l_max``.

        Absent labels read as zeros; a run of the table's rows is a view of it."""
        n = ((self.l_max if l_max is None else _integer("l_max", l_max)) + 1) ** 2
        width = self.table.shape[1]
        index = [self.exit_labels.index(b) if b in self.exit_labels else -1 for b in labels]
        start = min(index, default=0)
        if start >= 0 and n <= width and index == list(range(start, start + len(index))):
            return self.table[start : start + len(index), :n]
        padded = np.zeros((len(self.exit_labels) + 1, max(n, width)), dtype=complex)
        padded[:-1, :width] = self.table  # row -1 stays zero, for absent labels
        out = padded[index, :n]
        out.flags.writeable = False
        return out

    def dense(self, beta: str, l_max: int | None = None) -> np.ndarray:
        """``rows((beta,), l_max)[0]``: the coefficients of exit channel ``beta``."""
        return self.rows((beta,), l_max)[0]

    def map_modes(self, multiplier: Callable[[int], complex | float]) -> "PartialWaveAmplitude":
        """New amplitude with each coefficient times ``multiplier(l)``, called once per l."""
        factors = np.array([multiplier(l) for l in range(self.l_max + 1)], dtype=complex)
        scaled = _product(self.table, factors[mode_degrees(self.l_max)])
        return self._from_table(self.exit_labels, scaled)

    def __add__(self, other: "PartialWaveAmplitude") -> "PartialWaveAmplitude":
        labels = sorted(set(self.exit_labels) | set(other.exit_labels))
        l_max = max(self.l_max, other.l_max)
        return self._from_table(labels, self.rows(labels, l_max) + other.rows(labels, l_max))

    def scaled(self, factor: complex) -> "PartialWaveAmplitude":
        return self._from_table(self.exit_labels, _product(self.table, factor))


def _product(a: np.ndarray, b) -> np.ndarray:
    """``a * b``, rounded as Python's complex product: NumPy's may fuse a multiply-add."""
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def evaluate(
    f: PartialWaveAmplitude, beta: str, nhat, channels: ChannelSet | None = None
) -> complex | np.ndarray:
    """Pointwise amplitude ``f_beta(nhat) = sum B_{lm} Y_l^m(nhat)``.

    ``nhat`` has shape ``(..., 3)``; scalar in, scalar out.  When a channel
    set is supplied the exit label is validated against it.
    """
    if channels is not None:
        channels.channel(beta)
    rows, shape = _directions(nhat)
    return (f.dense(beta) @ _ylm(f.l_max, rows)).reshape(shape)[()]


def apply_angular_operator(f: PartialWaveAmplitude, power: int = 1) -> PartialWaveAmplitude:
    """Apply the squared-orbital-momentum operator ``power`` times.

    Each mode is an eigenvector with eigenvalue ``l(l+1)``, so the action is
    an exact per-degree rescaling.
    """
    power = _integer("power", power, 1)
    return f.map_modes(lambda l: float(l * (l + 1)) ** power)


def h_coefficient(f: PartialWaveAmplitude, s: int) -> PartialWaveAmplitude:
    """Distance-expansion coefficient amplitude of order ``s``.

    Multiplies each mode by ``(1/s!) prod_{mu=1}^{s} [l(l+1) - mu(mu-1)]``,
    the decaying solution's series integer ``(l+s)!/(s!(l-s)!)``, taken as
    the float of the exact ``chi_coefficient``.  The ``mu = l + 1`` factor
    kills every mode with ``l < s``, so the expansion of any finite
    amplitude terminates at ``s = l_max``.  An integer or a scaled
    coefficient past float64 raises ``FluxDomainError`` naming its ``l``.
    """
    s = _integer("s", s, 1)
    limit = f"passes the float64 limit {np.finfo(float).max:.4g}"
    factors = []
    for l in range(f.l_max + 1):
        try:
            factors.append(float(chi_coefficient(l, s)))
        except OverflowError:
            raise FluxDomainError(
                f"the series integer (l+s)!/(s!(l-s)!) at l={l}, s={s} {limit}"
            ) from None
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = _product(f.table, np.array(factors, dtype=complex)[mode_degrees(f.l_max)])
    finite = np.isfinite(scaled).all(axis=0)
    if not finite.all():
        # position l*l + l + m has integer square root l
        l = math.isqrt(int(np.argmin(finite)))
        raise FluxDomainError(f"the scaled coefficient at l={l}, s={s} {limit}")
    return f._from_table(f.exit_labels, scaled)


def scattered_wave(
    f: PartialWaveAmplitude, channels: ChannelSet, beta: str, r: float, nhat
) -> complex | np.ndarray:
    """Exact outgoing scattered wave at distance ``r``, direction ``nhat``.

    Per mode, the far-field coefficient rides the exact decaying radial
    solution: ``(1/r) sum B_{lm} chi_l(-i k r) Y_l^m``.
    """
    return scattered_wave_series(f, channels, beta, r, nhat)


def scattered_wave_series(
    f: PartialWaveAmplitude,
    channels: ChannelSet,
    beta: str,
    r: float,
    nhat,
    s_max: int | None = None,
) -> complex | np.ndarray:
    """Distance expansion of the scattered wave through order ``s_max``.

    ``(e^{ikr}/r) [f + sum_{s=1}^{s_max} h_s(f) / (-2 i k r)^s]``: each
    degree's decaying solution at ``-i k r`` with its series cut at
    ``s_max`` (default ``l_max``), spread over the modes and contracted with
    one harmonic table.  With ``s_max >= l_max`` every series is complete,
    and this is ``scattered_wave`` bit for bit.  ``r`` must be finite and
    positive (``ValueError``), and the radial factors finite (``FluxDomainError``).
    """
    _check_positive(np.asarray(r, dtype=float), "distance r")
    if s_max is not None:
        s_max = _integer("s_max", s_max)
    rows, shape = _directions(nhat)
    l_max = f.l_max
    kr = channels.k(beta) * r
    radial = _chi_table(l_max, -1j * kr, s_max)
    if not np.isfinite(radial).all():
        raise FluxDomainError(
            f"radial factors at l_max={l_max}, kr={kr:.6g} exceed the float64 limit "
            f"{np.finfo(float).max:.4g}; raise kr or lower l_max"
        )
    values = (f.dense(beta) * radial[mode_degrees(l_max)]) @ _ylm(l_max, rows) / r
    return values.reshape(shape)[()]


# ----------------------------------------------------------------------
# unitary generators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SMatrixModel:
    """Per-degree unitary channel matrices, degrees ``0 .. l_max``.

    ``matrices`` takes any sequence of ``n x n`` matrices and keeps read-only
    views of ``stack``, the same matrices as one ``(l_max + 1, n, n)`` array.
    """

    matrices: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.matrices) == 0:
            raise ValueError("need at least the degree-0 matrix")
        n = np.shape(self.matrices[0])[0]
        for l, mat in enumerate(self.matrices):
            if np.shape(mat) != (n, n):
                raise ValueError(f"degree {l}: expected shape {(n, n)}")
        stack = np.array(self.matrices, dtype=complex)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    @property
    def n_channels(self) -> int:
        return self.stack.shape[1]

    @property
    def l_max(self) -> int:
        return len(self.stack) - 1

    def unitarity_defect(self) -> float:
        """Largest entry of ``|S^H S - 1|`` over all degrees, from one stacked product."""
        products = self.stack.conj().transpose(0, 2, 1) @ self.stack
        # np.max, not max(): a nan defect must propagate, not lose to a number
        return float(np.max(np.abs(products - np.eye(self.n_channels))))


def random_unitary_smatrix(n_channels: int, l_max: int, seed: int = 0) -> SMatrixModel:
    """Haar-ish random unitary matrix per degree, reproducible by seed.

    All normals come from one draw, the real and imaginary parts of degree
    ``l`` in that order, and one stacked QR factorization; the phases of
    ``R``'s diagonal are moved into ``Q``.
    """
    n_channels, l_max = _integer("n_channels", n_channels, 1), _integer("l_max", l_max)
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((l_max + 1, 2, n_channels, n_channels))
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return SMatrixModel(matrices=q * (diagonal / np.abs(diagonal))[:, None, :])


def hard_sphere_model(k: float, a: float, l_max: int) -> SMatrixModel:
    """Single-channel impenetrable-sphere phases up to degree ``l_max``.

    ``S_l = (y_l + i j_l)/(y_l - i j_l)`` at ``x = k a``, the closed form of
    ``e^{2 i delta_l}`` with ``tan(delta_l) = j_l(x)/y_l(x)``; manifestly
    unimodular.
    """
    if k <= 0 or a <= 0:
        raise ValueError("k and a must be positive")
    l_max = _integer("l_max", l_max)
    x = k * a
    if not 0.0 < x < math.inf:
        raise ValueError(f"k*a = {x!r} is not a positive finite float")
    psi, yl = _radial_table(l_max, x)
    jl = psi / x
    # where y_l overflows to -inf the phase shift is 0 and S_l is exactly 1
    s = np.ones(l_max + 1, dtype=complex)
    finite = np.isfinite(yl)
    y, j = yl[finite], jl[finite]
    s[finite] = (y + 1j * j) / (y - 1j * j)
    return SMatrixModel(matrices=s[:, None, None])


def amplitudes_from_smatrix(
    model: SMatrixModel,
    channels: ChannelSet,
    kappa_hat=(0.0, 0.0, 1.0),
) -> PartialWaveAmplitude:
    """Scattering amplitude of a unitary model for a given incident direction.

    ``B_{beta}^{lm} = 4 pi (S_l - 1)_{beta, entrance} conj(Y_l^m(kappa_hat))
    / (2 i sqrt(k_entrance k_beta))``.  For ``kappa_hat = z`` only ``m = 0``
    survives and the coefficient reduces to
    ``sqrt(4 pi (2l+1)) (S_l - 1)_{beta, entrance} / (2 i sqrt(k k'))``; a
    general direction is the rigid rotation of those multiplets, which is
    exactly what the conjugated harmonic factor implements.  All exit
    channels and modes come from one array expression over one harmonic
    table at ``kappa_hat``, which is the amplitude's table.  ``kappa_hat``
    holds one vector, or ``ValueError`` is raised; so does the family of
    ``smatrix_amplitude_family``, and so does a model whose unitarity defect
    exceeds ``1e-10``.
    """
    _require_unitary(model, channels)
    return _smatrix_amplitude(model, channels, kappa_hat)


def _require_unitary(model: SMatrixModel, channels: ChannelSet) -> None:
    """The gate of ``amplitudes_from_smatrix``: matching channels, unitary blocks."""
    if model.n_channels != len(channels.channels):
        raise ValueError("model channel count does not match channel set")
    defect = model.unitarity_defect()
    if not defect <= _UNITARITY_TOLERANCE:
        raise ValueError(f"model is not unitary: defect {defect:.3e}")


def _smatrix_tables(
    model: SMatrixModel, channels: ChannelSet, entrances, table: np.ndarray
) -> np.ndarray:
    """Coefficient tables past the gate, shape ``(entrances, directions, labels, modes)``.

    ``table`` is ``_ylm(model.l_max, directions)`` at the ``(n, 3)`` incident
    directions, and one array expression serves every entrance label and
    direction: each table has the bits of a call with its pair alone.
    """
    labels = channels.labels
    idx_in = np.array([labels.index(e) for e in entrances])
    # (S_l - 1)[beta, entrance] on every mode of degree l
    t = model.stack[:, :, idx_in].transpose(2, 1, 0)[:, :, mode_degrees(model.l_max)]
    t[np.arange(idx_in.size), idx_in] -= 1.0
    ks = [c.k for c in channels.channels]
    root = np.array([[_root_product(channels.k(e), k) for k in ks] for e in entrances])
    # dividing by 2i alone is exact and keeps 2 sqrt(k k') from overflowing
    conj_rows = np.ascontiguousarray(np.conj(table).T)
    return 4.0 * np.pi * t[:, None] * conj_rows[:, None] / 2j / root[:, None, :, None]


def _smatrix_amplitude(model: SMatrixModel, channels: ChannelSet, kappa_hat):
    """``amplitudes_from_smatrix`` past its gate: the table from one array expression."""
    table = _ylm(model.l_max, _directions(kappa_hat, one="kappa_hat")[0])
    values = _smatrix_tables(model, channels, [channels.entrance], table)[0, 0]
    return PartialWaveAmplitude._from_table(channels.labels, values)


def _root_product(a: float, b: float) -> float:
    """``sqrt(a b)``, split into ``sqrt(a) sqrt(b)`` where ``a b`` leaves the float range."""
    product = a * b
    return math.sqrt(product) if 0.0 < product < math.inf else math.sqrt(a) * math.sqrt(b)


def smatrix_amplitude_family(
    model: SMatrixModel, channels: ChannelSet
) -> Callable[[str, np.ndarray], PartialWaveAmplitude]:
    """Amplitudes for every entrance choice, as required by reciprocity checks.

    Returns ``family(entrance_label, incident_direction)``; the bilinear
    conservation identity couples amplitudes with different entrances and
    incident directions, which a single amplitude cannot supply.  The
    unitarity gate of ``amplitudes_from_smatrix`` runs once, here.
    """
    _require_unitary(model, channels)

    def family(entrance: str, kappa_hat) -> PartialWaveAmplitude:
        return _smatrix_amplitude(model, channels.with_entrance(entrance), kappa_hat)

    def rows(labels, entrances, directions) -> tuple[np.ndarray, np.ndarray]:
        """``family(e, d).rows(labels, l_max)`` for every ``e`` and every row
        ``d`` of the ``(n, 3)`` array ``directions``, shape ``(entrances * n,
        labels, modes)``, entrance-major, with ``l_max`` the largest of those
        amplitudes; and the harmonic table they come from, cut to the same
        modes, ``_ylm(l_max, directions)`` bit for bit (a degree's rows do not
        depend on the table's ``l_max``)."""
        table = _ylm(model.l_max, directions)
        tables = _smatrix_tables(model, channels, entrances, table)
        tables[tables == 0] = 0  # +0, as PartialWaveAmplitude stores it
        used = np.flatnonzero(tables.any(axis=(0, 1, 2)))
        n_modes = (math.isqrt(int(used[-1])) + 1) ** 2 if used.size else 1
        padded = np.zeros((*tables.shape[:2], tables.shape[2] + 1, n_modes), dtype=complex)
        padded[:, :, :-1] = tables[..., :n_modes]  # row -1 stays zero, for absent labels
        index = [channels.labels.index(b) if b in channels.labels else -1 for b in labels]
        out = np.ascontiguousarray(padded[:, :, index].reshape(-1, len(labels), n_modes))
        return out, table[:n_modes]

    family._rows = rows
    return family
