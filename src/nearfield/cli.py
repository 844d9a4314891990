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

Exit codes: 0 success, 1 a check failed, 2 configuration error,
3 amplitude data violates an invariant, 4 the requested degrees and
distances leave the float64 range (``FluxDomainError``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import io as nf_io
from .amplitudes import PartialWaveAmplitude
from .flux import (
    _summed_cross_section,
    default_grid,
    differential_flux_asymptotic,
    differential_flux_exact,
    flux_profile,
    optical_theorem_defect,
    total_flux,
    unitarity_defect,
)
from .greens import GreensQuery, auto_l_max, greens_multipole, greens_point
from .io import AmplitudeSource, ConfigError, RunConfig
from .special import FluxDomainError, gauss_legendre_sphere, unit_from_angles
from .wronskian import wronskian_series

__all__ = ["main"]

log = logging.getLogger("nearfield.cli")

_fmt = nf_io._fmt


# ----------------------------------------------------------------------
# flux
# ----------------------------------------------------------------------

def _flux_grid(config: RunConfig, f: PartialWaveAmplitude):
    """Quadrature grid for the run, raised to resolve every mode pair."""
    if config.grid_degree is None:
        return default_grid(f)
    minimum = max(2 * f.l_max, 1)
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
    if config.format == "json":
        rows = []
        for i, r in enumerate(profile.r_values):
            rows.append(
                {
                    "R": float(r),
                    "kR": {
                        label: float(source.channels.k(label) * r) for label in labels
                    },
                    "total_flux": float(profile.total[i]),
                    "differential_min": float(profile.diff_min[i]),
                    "differential_max": float(profile.diff_max[i]),
                    "within_validity": bool(profile.validity[i]),
                }
            )
        doc = {
            "amplitude": source.description,
            "entrance": source.channels.entrance,
            "grid_order": grid.order,
            "far_field_total": float(profile.far_field_total),
            "cross_section_total": float(profile.far_field_total),
            "rows": rows,
        }
        if config.per_angle:
            theta, phi = grid.theta, grid.phi
            doc["angles"] = [
                {
                    "R": float(r),
                    "samples": [
                        {
                            "theta": float(theta[a]),
                            "phi": float(phi[a]),
                            "flux": float(profile.samples[i, a]),
                        }
                        for a in range(grid.n_nodes)
                    ],
                }
                for i, r in enumerate(profile.r_values)
            ]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [
            f"# amplitude: {source.description}",
            f"# entrance: {source.channels.entrance}",
            f"# grid_order: {grid.order}",
            f"# far_field_total: {_fmt(profile.far_field_total)}",
            f"# cross_section_total: {_fmt(profile.far_field_total)}",
        ]
        header = ["R"]
        header += [f"kR_{label}" for label in labels]
        header += ["total_flux", "differential_min", "differential_max", "within_validity"]
        lines.append(",".join(header))
        for i, r in enumerate(profile.r_values):
            row = [_fmt(r)]
            row += [_fmt(source.channels.k(label) * r) for label in labels]
            row += [
                _fmt(profile.total[i]),
                _fmt(profile.diff_min[i]),
                _fmt(profile.diff_max[i]),
                "1" if profile.validity[i] else "0",
            ]
            lines.append(",".join(row))
        if config.per_angle:
            lines.append("# per-angle samples")
            lines.append("R,theta,phi,flux")
            for i, r in enumerate(profile.r_values):
                for a in range(grid.n_nodes):
                    lines.append(
                        ",".join(
                            (
                                _fmt(r),
                                _fmt(grid.theta[a]),
                                _fmt(grid.phi[a]),
                                _fmt(profile.samples[i, a]),
                            )
                        )
                    )
        text = "\n".join(lines) + "\n"

    if config.out is None:
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text, encoding="utf-8")
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


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.table is not None:
        if args.table < 0:
            raise ConfigError("coeffs: --table degree must be non-negative")
        pairs = [(args.table, j) for j in range(args.table + 1)]
    else:
        if args.l is None or args.j is None:
            raise ConfigError("coeffs needs --l and --j (or --table)")
        if args.l < 0 or args.j < 0:
            raise ConfigError("coeffs: --l and --j must be non-negative")
        pairs = [(args.l, args.j)]
    if args.format == "json":
        doc = {"tables": [_coeff_json(l, j) for l, j in pairs]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines: list[str] = []
        for l, j in pairs:
            lines += _coeff_lines(l, j)
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def _check_greens(config: RunConfig) -> float:
    rng = np.random.default_rng(config.seed + 17)
    defects = []
    for _ in range(24):
        k = rng.uniform(0.3, 4.0)
        big = rng.uniform(2.0, 100.0) / k
        small = big * rng.uniform(0.02, 0.5)
        r_vec = big * unit_from_angles(
            np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi)
        )
        x_vec = small * unit_from_angles(
            np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi)
        )
        for sign in (1, -1):
            query = GreensQuery(k=k, R_vec=r_vec, x_vec=x_vec, sign=sign)
            exact = greens_point(query)
            approx = greens_multipole(query, l_max=auto_l_max(k, small))
            defects.append(abs(approx - exact) / abs(exact))
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
    # the diagonal sample at its incident direction, +z as in the optical check
    return unitarity_defect(source.f, source.channels, kappa_hats=[(0.0, 0.0, 1.0)])


def _check_conservation(config: RunConfig, source: AmplitudeSource) -> float:
    grid = _flux_grid(config, source.f)
    sigma = _summed_cross_section(source.f, source.channels)
    if sigma == 0.0:
        return 0.0
    k_min = min(source.channels.k(label) for label in source.channels.labels)
    if config.r_values is not None:
        r_values = config.r_values
    else:
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
    k_min = min(channels.k(label) for label in channels.labels)
    directions = unit_from_angles(
        np.array([0.0, 1.1, 2.0, 2.9]), np.array([0.0, 0.7, 3.9, 5.2])
    )
    r_values = np.array([0.7, 2.0, 9.0, 120.0]) / k_min
    exact = differential_flux_exact(f, channels, r_values, directions)
    series = np.array(
        [
            differential_flux_asymptotic(f, channels, r, directions, order=2 * f.l_max)
            for r in r_values
        ]
    )
    return float(np.max(np.abs(exact - series) / np.maximum(np.abs(exact), 1e-300)))


_CHECKS = ("greens", "unitarity", "optical", "conservation", "two-path")


def _run_check(name: str, config: RunConfig, source: AmplitudeSource | None) -> float:
    """Defect of one battery."""
    if name == "greens":
        return _check_greens(config)
    if name == "unitarity":
        return _check_unitarity(config, source)
    if name == "optical":
        return optical_theorem_defect(source.f, source.channels)
    if name == "conservation":
        return _check_conservation(config, source)
    return _check_two_path(config, source)


def cmd_check(args: argparse.Namespace, config: RunConfig) -> int:
    names = _CHECKS if args.which == "all" else (args.which,)
    needs_amplitude = any(name != "greens" for name in names)
    source = _source_for_check(config) if needs_amplitude else None

    failures = 0
    with (
        open(args.out, "w", encoding="utf-8") if args.out is not None
        else contextlib.nullcontext(sys.stdout)
    ) as out:
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield",
        description="Finite-distance scattered flux on a detector sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flux = sub.add_parser("flux", help="evaluate flux over a distance schedule")
    p_flux.add_argument("--config", required=True, help="run configuration JSON")
    p_flux.add_argument("--format", choices=("csv", "json"))
    p_flux.add_argument("--out", help="write output here instead of stdout")

    p_coeffs = sub.add_parser("coeffs", help="exact overlap-series coefficients")
    p_coeffs.add_argument("--l", type=int, help="conjugated-mode degree")
    p_coeffs.add_argument("--j", type=int, help="direct-mode degree")
    p_coeffs.add_argument(
        "--table",
        type=int,
        nargs="?",
        const=3,
        default=None,
        metavar="L",
        help="print the full table for conjugated degree L, j=0..L (default L=3)",
    )
    p_coeffs.add_argument("--format", choices=("csv", "json"), default="csv")
    p_coeffs.add_argument("--out")

    p_check = sub.add_parser("check", help="run consistency batteries")
    p_check.add_argument(
        "which", nargs="?", default="all", choices=_CHECKS + ("all",)
    )
    p_check.add_argument("--config", help="run configuration JSON")
    p_check.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
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
