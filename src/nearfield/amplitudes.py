"""Multichannel partial-wave amplitudes and unitary test-amplitude generators.

An amplitude here is the finite partial-wave content of an exit wave: a
sparse map ``(exit_channel, l, m) -> complex`` such that the angular
amplitude for exit channel ``beta`` is ``f_beta(nhat) = sum B_{lm} Y_l^m``.
Channels carry wavenumbers and an entrance label; flux weights are either
wavenumber ratios or, for rearrangement-style weighting, velocity ratios.

Generators at the bottom build amplitudes from per-degree unitary matrices,
so every conservation identity downstream can be exercised with inputs that
satisfy it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .special import (
    _chi_integers, _chi_table, _radial_table, mode_degrees, mode_list, ylm_directions
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
    same ratio of stored velocities for ``velocity_ratio``.
    """

    channels: tuple[Channel, ...]
    entrance: str
    weight_mode: str = "momentum_ratio"

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("channel set must not be empty")
        labels = [c.label for c in self.channels]
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        if self.entrance not in labels:
            raise ValueError(f"entrance channel {self.entrance!r} not present")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        if self.weight_mode == "velocity_ratio":
            missing = [c.label for c in self.channels if c.velocity is None]
            if missing:
                raise ValueError(
                    f"velocity_ratio weighting needs velocities for {missing}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.channels)

    def channel(self, label: str) -> Channel:
        for c in self.channels:
            if c.label == label:
                return c
        raise KeyError(f"unknown channel {label!r}")

    def k(self, label: str) -> float:
        return self.channel(label).k

    @property
    def entrance_channel(self) -> Channel:
        return self.channel(self.entrance)

    def weight(self, label: str) -> float:
        ref = self.entrance_channel
        ch = self.channel(label)
        if self.weight_mode == "velocity_ratio":
            return ch.velocity / ref.velocity
        return ch.k / ref.k

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

@dataclass(frozen=True)
class PartialWaveAmplitude:
    """Sparse partial-wave coefficients keyed by ``(exit_label, l, m)``.

    Immutable; all transformations return new instances.  ``l_max`` is the
    largest populated degree (0 for the empty amplitude).  Construction also
    lays each exit channel's coefficients out in ``mode_list`` order, which
    ``dense`` hands out without another pass over the dict.
    """

    coefficients: Mapping[tuple[str, int, int], complex] = field(default_factory=dict)
    l_max: int = field(init=False, compare=False, repr=False)
    _dense: dict[str, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys: list[tuple[str, int, int]] = []
        labels: dict[str, int] = {}
        rows: list[int] = []
        positions: list[int] = []
        for key in self.coefficients:
            try:
                beta, l, m = key
            except (TypeError, ValueError):
                raise ValueError(f"coefficient key {key!r} is not (channel, l, m)")
            if not isinstance(beta, str):
                raise ValueError(f"exit channel {beta!r} must be a string label")
            if not (isinstance(l, int) and isinstance(m, int) and -l <= m <= l):
                raise ValueError(f"invalid mode indices (l={l!r}, m={m!r})")
            keys.append((beta, l, m))
            rows.append(labels.setdefault(beta, len(labels)))
            positions.append(l * l + l + m)  # mode_index(l, m)
        values = np.fromiter(
            map(complex, self.coefficients.values()), dtype=complex, count=len(keys)
        )
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"coefficient at {keys[int(np.argmin(finite))]!r} is not finite")
        # position l*l + l + m has integer square root l
        l_max = math.isqrt(max(positions, default=0))
        table = np.zeros((len(labels), (l_max + 1) ** 2), dtype=complex)
        table[rows, positions] = values
        table.flags.writeable = False
        object.__setattr__(self, "coefficients", dict(zip(keys, values.tolist())))
        object.__setattr__(self, "l_max", l_max)
        object.__setattr__(self, "_dense", {beta: table[i] for beta, i in labels.items()})

    @property
    def exit_labels(self) -> tuple[str, ...]:
        return tuple(sorted({beta for (beta, _, _) in self.coefficients}))

    def coefficient(self, beta: str, l: int, m: int) -> complex:
        return self.coefficients.get((beta, l, m), 0.0 + 0.0j)

    def dense(self, beta: str, l_max: int | None = None) -> np.ndarray:
        """Read-only coefficients of exit channel ``beta`` in ``mode_list`` order.

        Cut at, or zero-padded to, degree ``l_max`` (default: the
        amplitude's own).
        """
        if l_max is None:
            l_max = self.l_max
        n = (l_max + 1) ** 2
        own = self._dense.get(beta)
        if own is not None and own.size >= n:
            return own[:n]
        out = np.zeros(n, dtype=complex)
        if own is not None:
            out[: own.size] = own
        out.flags.writeable = False
        return out

    def map_modes(
        self, multiplier: Callable[[int], complex | float]
    ) -> "PartialWaveAmplitude":
        """New amplitude with each coefficient scaled by ``multiplier(l)``."""
        return PartialWaveAmplitude(
            {
                key: value * multiplier(key[1])
                for key, value in self.coefficients.items()
            }
        )

    def __add__(self, other: "PartialWaveAmplitude") -> "PartialWaveAmplitude":
        out = dict(self.coefficients)
        for key, value in other.coefficients.items():
            out[key] = out.get(key, 0.0) + value
        return PartialWaveAmplitude(out)

    def scaled(self, factor: complex) -> "PartialWaveAmplitude":
        return PartialWaveAmplitude(
            {key: value * factor for key, value in self.coefficients.items()}
        )


def evaluate(
    f: PartialWaveAmplitude, beta: str, nhat, channels: ChannelSet | None = None
) -> complex | np.ndarray:
    """Pointwise amplitude ``f_beta(nhat) = sum B_{lm} Y_l^m(nhat)``.

    ``nhat`` has shape ``(..., 3)``; scalar in, scalar out.  When a channel
    set is supplied the exit label is validated against it.
    """
    if channels is not None:
        channels.channel(beta)
    nhat = np.asarray(nhat, dtype=float)
    scalar = nhat.ndim == 1
    values = f.dense(beta) @ ylm_directions(f.l_max, nhat)
    if scalar:
        return complex(values[0])
    return values.reshape(nhat.shape[:-1])


def apply_angular_operator(f: PartialWaveAmplitude, power: int = 1) -> PartialWaveAmplitude:
    """Apply the squared-orbital-momentum operator ``power`` times.

    Each mode is an eigenvector with eigenvalue ``l(l+1)``, so the action is
    an exact per-degree rescaling.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    return f.map_modes(lambda l: float(l * (l + 1)) ** power)


def h_coefficient(f: PartialWaveAmplitude, s: int) -> PartialWaveAmplitude:
    """Distance-expansion coefficient amplitude of order ``s``.

    Multiplies each mode by ``(1/s!) prod_{mu=1}^{s} [l(l+1) - mu(mu-1)]``,
    the decaying solution's series integer ``(l+s)!/(s!(l-s)!)``, taken as
    the float of the exact integer.  The ``mu = l + 1`` factor kills every
    mode with ``l < s``, so the expansion of any finite amplitude terminates
    at ``s = l_max``.
    """
    if s < 1:
        raise ValueError("order s must be a positive integer")
    return f.map_modes(lambda l: float(_chi_integers(l)[s]) if s <= l else 0.0)


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
    and this is ``scattered_wave`` bit for bit.
    """
    if r <= 0:
        raise ValueError("distance must be positive")
    if s_max is not None and s_max < 0:
        raise ValueError("s_max must be non-negative")
    l_max = f.l_max
    radial = _chi_table(l_max, -1j * channels.k(beta) * r, s_max)
    nhat = np.asarray(nhat, dtype=float)
    values = (f.dense(beta) * radial[mode_degrees(l_max)]) @ ylm_directions(l_max, nhat) / r
    if nhat.ndim == 1:
        return complex(values[0])
    return values.reshape(nhat.shape[:-1])


# ----------------------------------------------------------------------
# unitary generators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SMatrixModel:
    """Per-degree unitary channel matrices, degrees ``0 .. l_max``."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.matrices:
            raise ValueError("need at least the degree-0 matrix")
        n = self.matrices[0].shape[0]
        frozen = []
        for l, mat in enumerate(self.matrices):
            mat = np.array(mat, dtype=complex)
            if mat.shape != (n, n):
                raise ValueError(f"degree {l}: expected shape {(n, n)}")
            mat.flags.writeable = False
            frozen.append(mat)
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def n_channels(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def l_max(self) -> int:
        return len(self.matrices) - 1

    def unitarity_defect(self) -> float:
        eye = np.eye(self.n_channels)
        # np.max, not max(): a nan defect must propagate, not lose to a number
        return float(np.max([np.abs(mat.conj().T @ mat - eye) for mat in self.matrices]))


def random_unitary_smatrix(n_channels: int, l_max: int, seed: int = 0) -> SMatrixModel:
    """Haar-ish random unitary matrix per degree, reproducible by seed."""
    if n_channels < 1 or l_max < 0:
        raise ValueError("need n_channels >= 1 and l_max >= 0")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(l_max + 1):
        g = rng.standard_normal((n_channels, n_channels)) + 1j * rng.standard_normal(
            (n_channels, n_channels)
        )
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        mats.append(q)
    return SMatrixModel(matrices=tuple(mats))


def hard_sphere_model(k: float, a: float, l_max: int) -> SMatrixModel:
    """Single-channel impenetrable-sphere phases up to degree ``l_max``.

    ``S_l = (y_l + i j_l)/(y_l - i j_l)`` at ``x = k a``, the closed form of
    ``e^{2 i delta_l}`` with ``tan(delta_l) = j_l(x)/y_l(x)``; manifestly
    unimodular.
    """
    if k <= 0 or a <= 0:
        raise ValueError("k and a must be positive")
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
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
    return SMatrixModel(matrices=tuple(np.array([[v]]) for v in s))


def amplitudes_from_smatrix(
    model: SMatrixModel,
    channels: ChannelSet,
    kappa_hat=(0.0, 0.0, 1.0),
    unitarity_tolerance: float = 1e-10,
) -> PartialWaveAmplitude:
    """Scattering amplitude of a unitary model for a given incident direction.

    ``B_{beta}^{lm} = 4 pi (S_l - 1)_{beta, entrance} conj(Y_l^m(kappa_hat))
    / (2 i sqrt(k_entrance k_beta))``.  For ``kappa_hat = z`` only ``m = 0``
    survives and the coefficient reduces to
    ``sqrt(4 pi (2l+1)) (S_l - 1)_{beta, entrance} / (2 i sqrt(k k'))``; a
    general direction is the rigid rotation of those multiplets, which is
    exactly what the conjugated harmonic factor implements.  All exit
    channels and modes come from one array expression over one harmonic
    table at ``kappa_hat``; exact zeros are left out of the result.
    """
    if model.n_channels != len(channels.channels):
        raise ValueError("model channel count does not match channel set")
    defect = model.unitarity_defect()
    if not defect <= unitarity_tolerance:
        raise ValueError(f"model is not unitary: defect {defect:.3e}")
    table = ylm_directions(model.l_max, kappa_hat)[:, 0]
    idx_in = channels.labels.index(channels.entrance)
    k_in = channels.entrance_channel.k
    # (S_l - 1)[beta, entrance] on every mode of degree l
    t = np.array(model.matrices)[:, :, idx_in].T[:, mode_degrees(model.l_max)]
    t[idx_in] -= 1.0
    root = np.array([_root_product(k_in, c.k) for c in channels.channels])
    # dividing by 2i alone is exact and keeps 2 sqrt(k k') from overflowing
    values = 4.0 * np.pi * t * np.conj(table) / 2j / root[:, None]
    keys = [(label, l, m) for label in channels.labels for l, m in mode_list(model.l_max)]
    return PartialWaveAmplitude(
        {key: value for key, value in zip(keys, values.ravel().tolist()) if value != 0}
    )


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
    incident directions, which a single amplitude cannot supply.
    """

    def family(entrance: str, kappa_hat) -> PartialWaveAmplitude:
        return amplitudes_from_smatrix(
            model, channels.with_entrance(entrance), kappa_hat
        )

    return family
