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
    amplitudes_from_smatrix,
    hard_sphere_model,
    random_unitary_smatrix,
    smatrix_amplitude_family,
)

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
    lines = ["{", '  "channels": [']
    rows = []
    for ch in channels.channels:
        row = f'    {{"label": {json.dumps(ch.label)}, "k": {_fmt(ch.k)}'
        if ch.velocity is not None:
            row += f', "v": {_fmt(ch.velocity)}'
        rows.append(row + "}")
    lines.append(",\n".join(rows))
    lines.append("  ],")
    lines.append(f'  "alpha": {json.dumps(channels.entrance)},')
    lines.append(f'  "weight_mode": {json.dumps(channels.weight_mode)},')
    lines.append('  "coefficients": [')
    rows = []
    for (beta, l, m) in sorted(f.coefficients):
        value = f.coefficients[(beta, l, m)]
        rows.append(
            f'    {{"beta": {json.dumps(beta)}, "l": {l}, "m": {m}, '
            f'"re": {_fmt(value.real)}, "im": {_fmt(value.imag)}}}'
        )
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_amplitude(path: str | Path, f: PartialWaveAmplitude, channels: ChannelSet) -> None:
    Path(path).write_text(dumps_amplitude(f, channels), encoding="utf-8")


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise AmplitudeDataError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise AmplitudeDataError(f"{what}: missing keys {sorted(missing)}")


def _number(obj: dict, key: str, what: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AmplitudeDataError(f"{what}: {key} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise AmplitudeDataError(f"{what}: {key} must be finite")
    return value


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
    )
    raw_channels = doc["channels"]
    if not isinstance(raw_channels, list) or not raw_channels:
        raise AmplitudeDataError("channels must be a non-empty list")
    parsed = []
    for i, entry in enumerate(raw_channels):
        what = f"channel[{i}]"
        if not isinstance(entry, dict):
            raise AmplitudeDataError(f"{what}: must be an object")
        _require_keys(entry, allowed={"label", "k", "v"}, required={"label", "k"}, what=what)
        label = entry["label"]
        if not isinstance(label, str) or not label:
            raise AmplitudeDataError(f"{what}: label must be a non-empty string")
        k = _number(entry, "k", what)
        velocity = _number(entry, "v", what) if "v" in entry else None
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
        _require_keys(
            entry,
            allowed={"beta", "l", "m", "re", "im"},
            required={"beta", "l", "m", "re", "im"},
            what=what,
        )
        beta = entry["beta"]
        if beta not in labels:
            raise AmplitudeDataError(f"{what}: unknown exit channel {beta!r}")
        l, m = entry["l"], entry["m"]
        if not isinstance(l, int) or isinstance(l, bool) or l < 0:
            raise AmplitudeDataError(f"{what}: l must be a non-negative integer")
        if not isinstance(m, int) or isinstance(m, bool) or abs(m) > l:
            raise AmplitudeDataError(f"{what}: m must be an integer with |m| <= l")
        value = complex(_number(entry, "re", what), _number(entry, "im", what))
        if (beta, l, m) in coeffs:
            raise AmplitudeDataError(f"{what}: duplicate mode ({beta!r}, {l}, {m})")
        coeffs[(beta, l, m)] = value
    try:
        f = PartialWaveAmplitude(coeffs)
    except ValueError as exc:
        raise AmplitudeDataError(str(exc)) from exc
    return f, channels


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
    has_values = "r_values" in doc
    has_range = "r_range" in doc
    if has_values and has_range:
        raise ConfigError("give either r_values or r_range, not both")
    if has_values:
        values = doc["r_values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("r_values must be a non-empty list of distances")
        arr = np.array(
            [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)],
            dtype=float,
        )
        if arr.size != len(values):
            raise ConfigError("r_values entries must be numbers")
        if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
            raise ConfigError("r_values must be positive and strictly increasing")
        return arr
    if has_range:
        rng = doc["r_range"]
        if not isinstance(rng, dict):
            raise ConfigError("r_range must be an object")
        unknown = set(rng) - {"min", "max", "points", "spacing"}
        if unknown:
            raise ConfigError(f"r_range: unknown keys {sorted(unknown)}")
        try:
            lo, hi = float(rng["min"]), float(rng["max"])
            points = int(rng["points"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"r_range needs numeric min, max, points: {exc}") from exc
        spacing = rng.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ConfigError("r_range spacing must be 'log' or 'linear'")
        if not (0 < lo < hi) or points < 2:
            raise ConfigError("r_range needs 0 < min < max and points >= 2")
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
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")

    amplitude = doc.get("amplitude")
    if amplitude is not None and not isinstance(amplitude, dict):
        raise ConfigError("amplitude must be an object")

    grid_degree = doc.get("grid_degree")
    if grid_degree is not None:
        if not isinstance(grid_degree, int) or isinstance(grid_degree, bool) or grid_degree < 1:
            raise ConfigError("grid_degree must be a positive integer")

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
    unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ConfigError(f"tolerances: unknown names {sorted(unknown)}")
    clean_tol = {}
    for name, value in tolerances.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"tolerance {name} must be a positive number")
        clean_tol[name] = float(value)

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    return RunConfig(
        amplitude=amplitude,
        r_values=_parse_r_schedule(doc),
        grid_degree=grid_degree,
        format=fmt,
        out=out,
        per_angle=per_angle,
        weight_mode=weight_mode,
        tolerances=clean_tol,
        seed=seed,
        base_dir=path.parent,
    )


# ----------------------------------------------------------------------
# amplitude sources
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeSource:
    """A resolved amplitude plus, when available, its whole-entrance family."""

    f: PartialWaveAmplitude
    channels: ChannelSet
    family: Callable[[str, Any], PartialWaveAmplitude] | None
    description: str


def _resolve_file(config: RunConfig, spec: dict) -> AmplitudeSource:
    unknown = set(spec) - {"file"}
    if unknown:
        raise ConfigError(f"amplitude file source: unknown keys {sorted(unknown)}")
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
    unknown = set(spec) - {"model", "k", "radius", "l_max", "label"}
    if unknown:
        raise ConfigError(f"hard_sphere model: unknown keys {sorted(unknown)}")
    try:
        k = float(spec.get("k", 1.0))
        radius = float(spec.get("radius", 1.0))
        l_max = int(spec.get("l_max", 8))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"hard_sphere model: {exc}") from exc
    label = spec.get("label", "elastic")
    if not isinstance(label, str) or not label:
        raise ConfigError("hard_sphere model: label must be a non-empty string")
    if k <= 0 or radius <= 0 or l_max < 0:
        raise ConfigError("hard_sphere model needs k > 0, radius > 0, l_max >= 0")
    model = hard_sphere_model(k, radius, l_max)
    channels = ChannelSet(channels=(Channel(label, k),), entrance=label)
    if config.weight_mode == "velocity_ratio":
        raise ConfigError("hard_sphere model does not define velocities")
    f = amplitudes_from_smatrix(model, channels)
    return AmplitudeSource(
        f=f,
        channels=channels,
        family=smatrix_amplitude_family(model, channels),
        description=f"hard_sphere(k={k:g}, radius={radius:g}, l_max={l_max})",
    )


def _resolve_random_unitary(config: RunConfig, spec: dict) -> AmplitudeSource:
    allowed = {"model", "n_channels", "l_max", "seed", "k", "v", "labels", "alpha", "kappa"}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"random_unitary model: unknown keys {sorted(unknown)}")
    try:
        n_channels = int(spec.get("n_channels", 2))
        l_max = int(spec.get("l_max", 3))
        seed = int(spec.get("seed", config.seed))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"random_unitary model: {exc}") from exc
    if n_channels < 1 or l_max < 0:
        raise ConfigError("random_unitary model needs n_channels >= 1, l_max >= 0")
    labels = spec.get("labels")
    if labels is None:
        labels = [f"ch{i}" for i in range(n_channels)]
    if (
        not isinstance(labels, list)
        or len(labels) != n_channels
        or not all(isinstance(s, str) and s for s in labels)
    ):
        raise ConfigError("random_unitary model: labels must be n_channels strings")
    ks = spec.get("k")
    if ks is None:
        rng = np.random.default_rng(seed + 1)
        ks = list(np.round(rng.uniform(0.5, 2.0, n_channels), 6))
    if not isinstance(ks, list) or len(ks) != n_channels:
        raise ConfigError("random_unitary model: k must list one wavenumber per channel")
    vs = spec.get("v")
    if vs is not None and (not isinstance(vs, list) or len(vs) != n_channels):
        raise ConfigError("random_unitary model: v must list one velocity per channel")
    alpha = spec.get("alpha", labels[0])
    if alpha not in labels:
        raise ConfigError(f"random_unitary model: alpha {alpha!r} not in labels")
    kappa = spec.get("kappa", [0.0, 0.0, 1.0])
    if not isinstance(kappa, list) or len(kappa) != 3:
        raise ConfigError("random_unitary model: kappa must be a 3-vector")
    weight_mode = config.weight_mode or "momentum_ratio"
    try:
        channels = ChannelSet(
            channels=tuple(
                Channel(
                    label=labels[i],
                    k=float(ks[i]),
                    velocity=float(vs[i]) if vs is not None else None,
                )
                for i in range(n_channels)
            ),
            entrance=alpha,
            weight_mode=weight_mode,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"random_unitary model: {exc}") from exc
    model = random_unitary_smatrix(n_channels, l_max, seed=seed)
    f = amplitudes_from_smatrix(model, channels, kappa_hat=tuple(float(c) for c in kappa))
    return AmplitudeSource(
        f=f,
        channels=channels,
        family=smatrix_amplitude_family(model, channels),
        description=f"random_unitary(n={n_channels}, l_max={l_max}, seed={seed})",
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
