"""Command-line front end.

Three subcommands share one executable:

``nearfield flux --config run.json [--format csv|json] [--out path]``
    Evaluate the detector-sphere flux over the configured distance
    schedule and emit one row per distance.

``nearfield coeffs --l L --j J`` (or ``--table``)
    Print the exact rational correction coefficients of the two-mode
    radial overlap series.

``nearfield check [which] --config run.json``
    Run the named consistency battery (or all of them) and print one
    ``defect= tol= PASS|FAIL`` line per check.

An option's value follows it or joins it with ``=`` (``--format=json``);
long options are never abbreviated.  ``-h`` or ``--help`` prints this text.

Exit codes: 0 success, 1 a check failed, 2 a usage error (one
``usage error:`` line) or configuration error, 3 amplitude data violates an
invariant, 4 the requested degrees and distances leave the float64 range
(``FluxDomainError``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import io as nf_io
from .amplitudes import PartialWaveAmplitude
from .flux import (
    _check_scale,
    _degree_sums,
    _flux_rows,
    _least_order,
    default_grid,
    flux_profile,
    optical_theorem_defect,
    total_flux,
    unitarity_defect,
)
from .greens import GreensQuery, greens_multipole, greens_point
from .io import AmplitudeSource, ConfigError, RunConfig
from .special import FluxDomainError, _integer, gauss_legendre_sphere, unit_from_angles
from .wronskian import wronskian_series

__all__ = ["main"]

log = logging.getLogger("nearfield.cli")

_fmt = nf_io._fmt


def _output(path: str | None):
    """The stream a command writes to: stdout, or the file ``--out`` names."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


# ----------------------------------------------------------------------
# flux
# ----------------------------------------------------------------------

def _flux_grid(config: RunConfig, f: PartialWaveAmplitude):
    """Quadrature grid for the run, raised to resolve every mode pair (``flux._least_order``)."""
    if config.grid_degree is None:
        return default_grid(f)
    minimum = _least_order(f.l_max)
    degree = config.grid_degree
    if degree < minimum:
        log.warning(
            "grid_degree %d cannot resolve mode pairs up to degree %d; raising to %d",
            degree,
            f.l_max,
            minimum,
        )
        degree = minimum
    return gauss_legendre_sphere(degree)


def cmd_flux(config: RunConfig) -> int:
    source = nf_io.resolve_amplitude(config)
    if config.r_values is None:
        raise ConfigError("flux needs a distance schedule (r_values or r_range)")
    grid = _flux_grid(config, source.f)
    profile = flux_profile(source.f, source.channels, config.r_values, grid=grid)

    labels = source.channels.labels
    far = float(profile.far_field_total)
    head = {
        "amplitude": source.description,
        "entrance": source.channels.entrance,
        "grid_order": grid.order,
        "far_field_total": far,
        "cross_section_total": far,
    }
    r_values = profile.r_values.tolist()
    kr = np.multiply.outer(profile.r_values, source.channels._ks)
    columns = ("total_flux", "differential_min", "differential_max")
    values = np.column_stack([profile.total, profile.diff_min, profile.diff_max]).tolist()
    nodes = list(zip(grid.theta.tolist(), grid.phi.tolist())) if config.per_angle else []
    if config.format == "json":
        rows = [
            {"R": r, "kR": dict(zip(labels, kr[i].tolist()))}
            | dict(zip(columns, values[i]))
            | {"within_validity": bool(profile.validity[i])}
            for i, r in enumerate(r_values)
        ]
        doc = head | {"rows": rows}
        if config.per_angle:
            doc["angles"] = [
                {
                    "R": r,
                    "samples": [
                        {"theta": theta, "phi": phi, "flux": flux}
                        for (theta, phi), flux in zip(nodes, profile.samples[i].tolist())
                    ],
                }
                for i, r in enumerate(r_values)
            ]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {key}: {v if isinstance(v, str) else _fmt(v)}" for key, v in head.items()]
        header = ["R", *(f"kR_{label}" for label in labels), *columns, "within_validity"]
        lines.append(",".join(header))
        for i, r in enumerate(r_values):
            flag = "1" if profile.validity[i] else "0"
            lines.append(",".join(map(_fmt, [r, *kr[i], *values[i]])) + "," + flag)
        if config.per_angle:
            lines += ["# per-angle samples", "R,theta,phi,flux"]
            lines += [
                ",".join(map(_fmt, (r, theta, phi, flux)))
                for i, r in enumerate(r_values)
                for (theta, phi), flux in zip(nodes, profile.samples[i].tolist())
            ]
        text = "\n".join(lines) + "\n"

    with _output(config.out) as out:
        out.write(text)
    return 0


# ----------------------------------------------------------------------
# coeffs
# ----------------------------------------------------------------------

def _series_rows(l: int, j: int) -> tuple[int, tuple[tuple[int, Fraction], ...]]:
    series = wronskian_series(j, l)
    return series.prefactor, series.correction


def _coeff_lines(l: int, j: int) -> list[str]:
    prefactor, rows = _series_rows(l, j)
    lines = [f"# l={l} j={j} delta={prefactor}"]
    if prefactor == 0:
        lines.append("# diagonal pair: series is identically 1, no correction rows")
        return lines
    lines.append("n,numerator,denominator")
    for n, value in rows:
        lines.append(f"{n},{value.numerator},{value.denominator}")
    return lines


def _coeff_json(l: int, j: int) -> dict:
    prefactor, rows = _series_rows(l, j)
    return {
        "l": l,
        "j": j,
        "delta": prefactor,
        "rows": [
            {"n": n, "numerator": value.numerator, "denominator": value.denominator}
            for n, value in rows
        ],
    }


def cmd_coeffs(args: SimpleNamespace) -> int:
    if args.table is not None:
        table = _integer("coeffs: --table", args.table, error=ConfigError)
        pairs = [(table, j) for j in range(table + 1)]
    else:
        if args.l is None or args.j is None:
            raise ConfigError("coeffs needs --l and --j (or --table)")
        l = _integer("coeffs: --l", args.l, error=ConfigError)
        pairs = [(l, _integer("coeffs: --j", args.j, error=ConfigError))]
    if args.format == "json":
        doc = {"tables": [_coeff_json(l, j) for l, j in pairs]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines: list[str] = []
        for l, j in pairs:
            lines += _coeff_lines(l, j)
        text = "\n".join(lines) + "\n"
    with _output(args.out) as out:
        out.write(text)
    return 0


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def _greens_battery(seed: int) -> GreensQuery:
    """The record of 48 queries of ``check greens``: 24 geometries of seven draws
    each, in one array (``k``, ``k |R|``, ``|x| / |R|``, ``cos theta`` and ``phi``
    of both points), queried with both signs."""
    rng = np.random.default_rng(seed + 17)
    low = (0.3, 2.0, 0.02, -1.0, 0.0, -1.0, 0.0)
    high = (4.0, 100.0, 0.5, 1.0, 2 * np.pi, 1.0, 2 * np.pi)
    k, big, ratio, cos_r, phi_r, cos_x, phi_x = rng.uniform(low, high, size=(24, 7)).T
    big = big / k
    r_vecs = big[:, None] * unit_from_angles(np.arccos(cos_r), phi_r)
    x_vecs = (big * ratio)[:, None] * unit_from_angles(np.arccos(cos_x), phi_x)
    return GreensQuery(
        k=np.repeat(k, 2),
        R_vec=np.repeat(r_vecs, 2, axis=0),
        x_vec=np.repeat(x_vecs, 2, axis=0),
        sign=np.tile([1, -1], 24),
    )


def _check_greens(config: RunConfig) -> float:
    queries = _greens_battery(config.seed)
    exact = greens_point(queries)
    # the default cutoff of each query is auto_l_max(k, |x|)
    defects = np.abs(greens_multipole(queries) - exact) / np.abs(exact)
    # np.max, not max(): a nan defect must fail the check, not lose to 0.0
    return float(np.max(defects))


def _source_for_check(config: RunConfig) -> AmplitudeSource:
    if config.amplitude is not None:
        return nf_io.resolve_amplitude(config)
    fallback = RunConfig(
        amplitude={"model": "random_unitary", "n_channels": 2, "l_max": 3},
        seed=config.seed,
        weight_mode=config.weight_mode,
        base_dir=config.base_dir,
    )
    return nf_io.resolve_amplitude(fallback)


def _check_unitarity(config: RunConfig, source: AmplitudeSource) -> float:
    if source.family is not None:
        return unitarity_defect(source.family, source.channels)
    # a bare amplitude (say, from a file) carries no reciprocal data, so only
    # the diagonal sample at its incident direction, as in the optical check
    return unitarity_defect(source.f, source.channels, kappa_hats=[source.kappa_hat])


def _check_conservation(config: RunConfig, source: AmplitudeSource) -> float:
    grid = _flux_grid(config, source.f)
    sigma = _check_scale(source.f, source.channels)
    if sigma == 0.0:
        return 0.0
    k_min = source.channels._ks.min()
    r_values = config.r_values
    if r_values is None:
        r_values = np.geomspace(0.2, 200.0, 7) / k_min
    defects = [
        abs(total_flux(source.f, source.channels, float(r), grid=grid) - sigma) / sigma
        for r in r_values
    ]
    return float(np.max(defects))


def _check_two_path(config: RunConfig, source: AmplitudeSource) -> float:
    """Largest relative gap between the exact flux and its complete expansion.

    At order ``2 * l_max`` the distance expansion is the whole terminating
    series, so the two routes must agree to rounding at every distance; the
    distances run from ``kR = 0.7`` to 120 in the slowest channel.
    """
    f, channels = source.f, source.channels
    # the relative gaps below would read 0 where every flux underflows
    _check_scale(f, channels)
    k_min = channels._ks.min()
    directions = unit_from_angles(
        np.array([0.0, 1.1, 2.0, 2.9]), np.array([0.0, 0.7, 3.9, 5.2])
    )
    r_values = np.array([0.7, 2.0, 9.0, 120.0]) / k_min
    # one set of degree sums for both paths: the rows of
    # differential_flux_exact and differential_flux_asymptotic, bit for bit
    labels, sums = _degree_sums(f, channels, directions)
    exact = _flux_rows(labels, sums, channels, r_values)
    series = _flux_rows(labels, sums, channels, r_values, order=2 * f.l_max)
    return float(np.max(np.abs(exact - series) / np.maximum(np.abs(exact), 1e-300)))


_CHECKS = ("greens", "unitarity", "optical", "conservation", "two-path")


def _run_check(name: str, config: RunConfig, source: AmplitudeSource | None) -> float:
    """Defect of one battery."""
    if name == "greens":
        return _check_greens(config)
    if name == "unitarity":
        return _check_unitarity(config, source)
    if name == "optical":
        return optical_theorem_defect(source.f, source.channels, source.kappa_hat)
    if name == "conservation":
        return _check_conservation(config, source)
    return _check_two_path(config, source)


def cmd_check(args: SimpleNamespace, config: RunConfig) -> int:
    names = _CHECKS if args.which == "all" else (args.which,)
    needs_amplitude = any(name != "greens" for name in names)
    source = _source_for_check(config) if needs_amplitude else None

    failures = 0
    with _output(args.out) as out:
        for name in names:
            # each line goes out as soon as its check finishes, so a later
            # crash cannot hide the lines already computed
            defect = _run_check(name, config, source)
            tol = config.tolerance(name.replace("-", "_"))
            ok = defect <= tol
            failures += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            out.write(f"check {name}: defect={defect:.3e} tol={tol:.3e} {status}\n")
            out.flush()
        if source is not None:
            out.write(f"# amplitude: {source.description}\n")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_FORMATS = ("csv", "json")

# Each command's arguments: an option maps to ``str``, ``int`` or the tuple of
# its allowed values; a name without dashes is the positional argument.
_OPTIONS = {
    "flux": {"--config": str, "--format": _FORMATS, "--out": str},
    "coeffs": {"--l": int, "--j": int, "--table": int, "--format": _FORMATS, "--out": str},
    "check": {"which": (*_CHECKS, "all"), "--config": str, "--out": str},
}
_DEFAULTS = {"which": "all"}
# an option that may stand alone, and the value it then takes
_BARE = {"--table": "3"}


class _UsageError(Exception):
    """The command line does not match ``_OPTIONS``."""


def _is_flag(token: str) -> bool:
    """Whether ``token`` starts an option (``-1`` and ``-0.5`` are values)."""
    return token.startswith("-") and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of one command, or ``None`` where help is asked for."""
    if not argv:
        raise _UsageError("expected a command: flux, coeffs or check")
    command, pending = argv[0], argv[:0:-1]  # the rest, last token first
    if command in ("-h", "--help"):
        return None
    if command not in _OPTIONS:
        raise _UsageError(f"unknown command {command!r}")
    options = _OPTIONS[command]
    positional = [name for name in options if not name.startswith("-")]
    args = {name.lstrip("-"): _DEFAULTS.get(name) for name in options}
    while pending:
        token = pending.pop()
        if token in ("-h", "--help"):
            return None
        if not _is_flag(token):
            if not positional:
                raise _UsageError(f"{command}: unexpected argument {token!r}")
            name, value, where = positional.pop(), token, command
        else:
            name, given, value = token.partition("=")
            if name not in options:
                raise _UsageError(f"{command}: unknown option {name!r}")
            where = f"{command} {name}"
            if not given:
                if pending and not _is_flag(pending[-1]):
                    value = pending.pop()
                elif name in _BARE:
                    value = _BARE[name]
                else:
                    raise _UsageError(f"{where}: expected a value")
        kind = options[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{where}: {value!r} is not an integer") from None
        elif kind is not str and value not in kind:
            raise _UsageError(f"{where}: {value!r} is not one of {', '.join(kind)}")
        args[name.lstrip("-")] = value
    if command == "flux" and args["config"] is None:
        raise _UsageError("flux: --config is required")
    return SimpleNamespace(command=command, **args)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(__doc__, end="")
        return 0
    try:
        if args.command == "coeffs":
            return cmd_coeffs(args)
        if args.command == "check":
            config = nf_io.load_config(args.config) if args.config else RunConfig()
            return cmd_check(args, config)
        config = nf_io.load_config(args.config)
        if args.format is not None:
            config = replace(config, format=args.format)
        if args.out is not None:
            config = replace(config, out=args.out)
        return cmd_flux(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except nf_io.AmplitudeDataError as exc:
        print(f"amplitude data error: {exc}", file=sys.stderr)
        return 3
    except FluxDomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
