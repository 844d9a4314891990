"""Configuration parsing and amplitude (de)serialization.

Two error families map onto the command-line exit codes: ``ConfigError``
covers malformed run configuration (exit 2) and ``AmplitudeDataError``
covers amplitude files that parse but violate a documented invariant
(exit 3).  Amplitude files round-trip byte-identically: the writer emits a
fixed key order and canonical 17-significant-digit floats, so loading and
re-saving a file produced here is the identity on bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .amplitudes import (
    Channel,
    ChannelSet,
    PartialWaveAmplitude,
    SMatrixModel,
    WEIGHT_MODES,
    hard_sphere_model,
    random_unitary_smatrix,
    smatrix_amplitude_family,
)
from .special import _degree, _integer, mode_list

__all__ = [
    "AmplitudeDataError",
    "AmplitudeSource",
    "ConfigError",
    "DEFAULT_TOLERANCES",
    "RunConfig",
    "dumps_amplitude",
    "load_amplitude",
    "load_config",
    "loads_amplitude",
    "resolve_amplitude",
    "save_amplitude",
]

DEFAULT_TOLERANCES = {
    "conservation": 1e-9,
    "unitarity": 1e-10,
    "optical": 1e-10,
    "greens": 1e-9,
    "two_path": 1e-10,
}


class ConfigError(ValueError):
    """Run configuration cannot be parsed or fails validation."""


class AmplitudeDataError(ValueError):
    """Amplitude data violates a documented invariant."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ----------------------------------------------------------------------
# amplitude files
# ----------------------------------------------------------------------

def dumps_amplitude(f: PartialWaveAmplitude, channels: ChannelSet) -> str:
    """Canonical JSON text for an amplitude and its channel set.

    Key order, coefficient ordering (by exit label, then l, then m), and
    float formatting are all fixed, which is what makes load/save an exact
    round trip.
    """
    channel_rows = [
        f'    {{"label": {json.dumps(ch.label)}, "k": {_fmt(ch.k)}'
        + ("" if ch.velocity is None else f', "v": {_fmt(ch.velocity)}')
        + "}"
        for ch in channels.channels
    ]
    # the table's rows run in label order and its modes in (l, m) order
    modes = mode_list(f.l_max)
    coefficient_rows = [
        f'    {{"beta": {json.dumps(f.exit_labels[i])}, "l": {modes[p][0]}, "m": {modes[p][1]}, '
        f'"re": {_fmt(f.table[i, p].real)}, "im": {_fmt(f.table[i, p].imag)}}}'
        for i, p in zip(*np.nonzero(f.table))
    ]
    lines = ["{", '  "channels": [', ",\n".join(channel_rows), "  ],"]
    lines.append(f'  "alpha": {json.dumps(channels.entrance)},')
    lines.append(f'  "weight_mode": {json.dumps(channels.weight_mode)},')
    lines += ['  "coefficients": [', ",\n".join(coefficient_rows), "  ]", "}"]
    return "\n".join(lines) + "\n"


def save_amplitude(path: str | Path, f: PartialWaveAmplitude, channels: ChannelSet) -> None:
    Path(path).write_text(dumps_amplitude(f, channels), encoding="utf-8")


def _require_keys(
    obj: dict, allowed: set[str], required: set[str], what: str, error: type[ValueError]
) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise error(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise error(f"{what}: missing keys {sorted(missing)}")


def _number(value: Any, what: str, error: type[ValueError]) -> float:
    """``value`` as a float, or ``error`` unless it is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number")
    # false for nan and infinities, and for integers past the float64 range
    if not abs(value) <= sys.float_info.max:
        raise error(f"{what} must be finite")
    return float(value)


def _numbers(
    values: Any, what: str, error: type[ValueError], length: int | None = None
) -> list[float]:
    """A non-empty JSON list of finite numbers, of ``length`` entries if given."""
    if not isinstance(values, list) or not values or length and len(values) != length:
        raise error(f"{what} must be a list of {length or 'one or more'} numbers")
    return [_number(v, what, error) for v in values]


def loads_amplitude(text: str) -> tuple[PartialWaveAmplitude, ChannelSet]:
    """Parse amplitude JSON, enforcing every schema invariant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AmplitudeDataError(f"amplitude file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AmplitudeDataError("amplitude document must be a JSON object")
    _require_keys(
        doc,
        allowed={"channels", "alpha", "weight_mode", "coefficients"},
        required={"channels", "alpha", "coefficients"},
        what="amplitude document",
        error=AmplitudeDataError,
    )
    raw_channels = doc["channels"]
    if not isinstance(raw_channels, list) or not raw_channels:
        raise AmplitudeDataError("channels must be a non-empty list")
    parsed = []
    for i, entry in enumerate(raw_channels):
        what = f"channel[{i}]"
        if not isinstance(entry, dict):
            raise AmplitudeDataError(f"{what}: must be an object")
        _require_keys(entry, {"label", "k", "v"}, {"label", "k"}, what, AmplitudeDataError)
        label = entry["label"]
        if not isinstance(label, str) or not label:
            raise AmplitudeDataError(f"{what}: label must be a non-empty string")
        k = _number(entry["k"], f"{what}: k", AmplitudeDataError)
        velocity = None
        if "v" in entry:
            velocity = _number(entry["v"], f"{what}: v", AmplitudeDataError)
        try:
            parsed.append(Channel(label=label, k=k, velocity=velocity))
        except ValueError as exc:
            raise AmplitudeDataError(f"{what}: {exc}") from exc
    alpha = doc["alpha"]
    if not isinstance(alpha, str):
        raise AmplitudeDataError("alpha must be a channel label string")
    weight_mode = doc.get("weight_mode", "momentum_ratio")
    if weight_mode not in WEIGHT_MODES:
        raise AmplitudeDataError(f"weight_mode must be one of {WEIGHT_MODES}")
    try:
        channels = ChannelSet(
            channels=tuple(parsed), entrance=alpha, weight_mode=weight_mode
        )
    except ValueError as exc:
        raise AmplitudeDataError(str(exc)) from exc

    raw_coeffs = doc["coefficients"]
    if not isinstance(raw_coeffs, list):
        raise AmplitudeDataError("coefficients must be a list")
    labels = set(channels.labels)
    coeffs: dict[tuple[str, int, int], complex] = {}
    for i, entry in enumerate(raw_coeffs):
        what = f"coefficient[{i}]"
        if not isinstance(entry, dict):
            raise AmplitudeDataError(f"{what}: must be an object")
        keys = {"beta", "l", "m", "re", "im"}
        _require_keys(entry, keys, keys, what, AmplitudeDataError)
        beta = entry["beta"]
        if beta not in labels:
            raise AmplitudeDataError(f"{what}: unknown exit channel {beta!r}")
        l = _degree(f"{what}: l", entry["l"], AmplitudeDataError)
        m = _integer(f"{what}: m", entry["m"], -l, AmplitudeDataError)
        if m > l:
            raise AmplitudeDataError(f"{what}: m must satisfy |m| <= l")
        value = complex(
            _number(entry["re"], f"{what}: re", AmplitudeDataError),
            _number(entry["im"], f"{what}: im", AmplitudeDataError),
        )
        if (beta, l, m) in coeffs:
            raise AmplitudeDataError(f"{what}: duplicate mode ({beta!r}, {l}, {m})")
        coeffs[(beta, l, m)] = value
    # every check of the constructor has been made above, entry by entry
    return PartialWaveAmplitude(coeffs), channels


def load_amplitude(path: str | Path) -> tuple[PartialWaveAmplitude, ChannelSet]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AmplitudeDataError(f"cannot read amplitude file {path}: {exc}") from exc
    return loads_amplitude(text)


# ----------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration for the command-line front end."""

    amplitude: dict[str, Any] | None = None
    r_values: np.ndarray | None = None
    grid_degree: int | None = None
    format: str = "csv"
    out: str | None = None
    per_angle: bool = False
    weight_mode: str | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    seed: int = 0
    base_dir: Path = field(default_factory=Path)

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


_CONFIG_KEYS = {
    "amplitude",
    "r_values",
    "r_range",
    "grid_degree",
    "format",
    "out",
    "per_angle",
    "weight_mode",
    "tolerances",
    "seed",
}


def _parse_r_schedule(doc: dict) -> np.ndarray | None:
    if "r_values" in doc and "r_range" in doc:
        raise ConfigError("give either r_values or r_range, not both")
    if "r_values" in doc:
        arr = np.array(_numbers(doc["r_values"], "r_values", ConfigError))
        if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
            raise ConfigError("r_values must be positive and strictly increasing")
        return arr
    if "r_range" in doc:
        rng = doc["r_range"]
        if not isinstance(rng, dict):
            raise ConfigError("r_range must be an object")
        keys = {"min", "max", "points"}
        _require_keys(rng, keys | {"spacing"}, keys, "r_range", ConfigError)
        lo = _number(rng["min"], "r_range: min", ConfigError)
        hi = _number(rng["max"], "r_range: max", ConfigError)
        points = _integer("r_range: points", rng["points"], 2, ConfigError)
        spacing = rng.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ConfigError("r_range spacing must be 'log' or 'linear'")
        if not 0 < lo < hi:
            raise ConfigError("r_range needs 0 < min < max")
        if spacing == "log":
            return np.geomspace(lo, hi, points)
        return np.linspace(lo, hi, points)
    return None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, _CONFIG_KEYS, set(), "config", ConfigError)

    amplitude = doc.get("amplitude")
    if amplitude is not None and not isinstance(amplitude, dict):
        raise ConfigError("amplitude must be an object")

    grid_degree = doc.get("grid_degree")
    if grid_degree is not None:
        grid_degree = _integer("grid_degree", grid_degree, 1, ConfigError)

    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")

    per_angle = doc.get("per_angle", False)
    if not isinstance(per_angle, bool):
        raise ConfigError("per_angle must be a boolean")

    weight_mode = doc.get("weight_mode")
    if weight_mode is not None and weight_mode not in WEIGHT_MODES:
        raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    _require_keys(tolerances, set(DEFAULT_TOLERANCES), set(), "tolerances", ConfigError)
    clean_tol = {}
    for name, value in tolerances.items():
        clean_tol[name] = _number(value, f"tolerances: {name}", ConfigError)
        if clean_tol[name] <= 0:
            raise ConfigError(f"tolerances: {name} must be positive")

    return RunConfig(
        amplitude=amplitude,
        r_values=_parse_r_schedule(doc),
        grid_degree=grid_degree,
        format=fmt,
        out=out,
        per_angle=per_angle,
        weight_mode=weight_mode,
        tolerances=clean_tol,
        seed=_integer("seed", doc.get("seed", 0), error=ConfigError),
        base_dir=path.parent,
    )


# ----------------------------------------------------------------------
# amplitude sources
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeSource:
    """A resolved amplitude plus, when available, its whole-entrance family.

    ``kappa_hat`` is the incident direction ``f`` was built for, where the
    optical theorem takes its forward amplitude: the configured ``kappa`` of
    a ``random_unitary`` model, ``+z`` for the hard sphere and for files.
    """

    f: PartialWaveAmplitude
    channels: ChannelSet
    family: Callable[[str, Any], PartialWaveAmplitude] | None
    description: str
    kappa_hat: tuple[float, float, float] = (0.0, 0.0, 1.0)


def _resolve_file(config: RunConfig, spec: dict) -> AmplitudeSource:
    _require_keys(spec, {"file"}, {"file"}, "amplitude file source", ConfigError)
    if not isinstance(spec["file"], str):
        raise ConfigError("amplitude file source: file must be a path string")
    raw = Path(spec["file"])
    path = raw if raw.is_absolute() else config.base_dir / raw
    f, channels = load_amplitude(path)
    if config.weight_mode is not None and config.weight_mode != channels.weight_mode:
        try:
            channels = ChannelSet(
                channels=channels.channels,
                entrance=channels.entrance,
                weight_mode=config.weight_mode,
            )
        except ValueError as exc:
            raise ConfigError(f"weight_mode override: {exc}") from exc
    return AmplitudeSource(
        f=f, channels=channels, family=None, description=f"file:{path.name}"
    )


def _resolve_hard_sphere(config: RunConfig, spec: dict) -> AmplitudeSource:
    what = "hard_sphere model"
    allowed = {"model", "k", "radius", "l_max", "label"}
    _require_keys(spec, allowed, set(), what, ConfigError)
    k = _number(spec.get("k", 1.0), f"{what}: k", ConfigError)
    radius = _number(spec.get("radius", 1.0), f"{what}: radius", ConfigError)
    l_max = _degree(f"{what}: l_max", spec.get("l_max", 8), ConfigError)
    label = spec.get("label", "elastic")
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{what}: label must be a non-empty string")
    if k <= 0 or radius <= 0:
        raise ConfigError(f"{what} needs k > 0 and radius > 0")
    if not 0.0 < k * radius < math.inf:
        raise ConfigError(f"{what}: k*radius = {k * radius!r} is not a positive finite float")
    if config.weight_mode == "velocity_ratio":
        raise ConfigError(f"{what} does not define velocities")
    model = hard_sphere_model(k, radius, l_max)
    channels = ChannelSet(channels=(Channel(label, k),), entrance=label)
    # the family runs the unitarity gate of amplitudes_from_smatrix once
    family = smatrix_amplitude_family(model, channels)
    return AmplitudeSource(
        f=family(label, (0.0, 0.0, 1.0)),
        channels=channels,
        family=family,
        description=f"hard_sphere(k={k:g}, radius={radius:g}, l_max={l_max})",
    )


def _resolve_random_unitary(config: RunConfig, spec: dict) -> AmplitudeSource:
    what = "random_unitary model"
    allowed = {"model", "n_channels", "l_max", "seed", "k", "v", "labels", "alpha", "kappa"}
    _require_keys(spec, allowed, set(), what, ConfigError)
    n_channels = _integer(f"{what}: n_channels", spec.get("n_channels", 2), 1, ConfigError)
    l_max = _degree(f"{what}: l_max", spec.get("l_max", 3), ConfigError)
    seed = _integer(f"{what}: seed", spec.get("seed", config.seed), error=ConfigError)
    labels = spec.get("labels")
    if labels is None:
        labels = [f"ch{i}" for i in range(n_channels)]
    if (
        not isinstance(labels, list)
        or len(labels) != n_channels
        or not all(isinstance(s, str) and s for s in labels)
    ):
        raise ConfigError(f"{what}: labels must be n_channels strings")
    ks = spec.get("k")
    if ks is None:
        rng = np.random.default_rng(seed + 1)
        ks = list(np.round(rng.uniform(0.5, 2.0, n_channels), 6))
    ks = _numbers(ks, f"{what}: k", ConfigError, n_channels)
    vs = spec.get("v")
    if vs is not None:
        vs = _numbers(vs, f"{what}: v", ConfigError, n_channels)
    alpha = spec.get("alpha", labels[0])
    if alpha not in labels:
        raise ConfigError(f"{what}: alpha {alpha!r} not in labels")
    kappa = _numbers(spec.get("kappa", [0.0, 0.0, 1.0]), f"{what}: kappa", ConfigError, 3)
    if not any(kappa):
        raise ConfigError(f"{what}: kappa must be a nonzero vector")
    try:
        channels = ChannelSet(
            channels=tuple(
                Channel(label, k, None if vs is None else vs[i])
                for i, (label, k) in enumerate(zip(labels, ks))
            ),
            entrance=alpha,
            weight_mode=config.weight_mode or "momentum_ratio",
        )
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    model = random_unitary_smatrix(n_channels, l_max, seed=seed)
    family = smatrix_amplitude_family(model, channels)
    return AmplitudeSource(
        f=family(alpha, tuple(kappa)),
        channels=channels,
        family=family,
        description=f"random_unitary(n={n_channels}, l_max={l_max}, seed={seed})",
        kappa_hat=tuple(kappa),
    )


def resolve_amplitude(config: RunConfig) -> AmplitudeSource:
    """Build the amplitude named by the config (file or built-in model)."""
    spec = config.amplitude
    if spec is None:
        raise ConfigError("config does not name an amplitude source")
    if "file" in spec and "model" in spec:
        raise ConfigError("amplitude source must be a file or a model, not both")
    if "file" in spec:
        return _resolve_file(config, spec)
    model_name = spec.get("model")
    if model_name == "hard_sphere":
        return _resolve_hard_sphere(config, spec)
    if model_name == "random_unitary":
        return _resolve_random_unitary(config, spec)
    raise ConfigError(
        "amplitude source must set file or model in {hard_sphere, random_unitary}"
    )
