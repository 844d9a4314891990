"""One workload process: set up, run timed rounds, check every output.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints one JSON object: the raw figures that ``run.py`` turns into
metrics.  ``--setup-only`` stops at the first timed operation, which is how
``run.py`` takes extra set-up samples.

Commands of the command-line front end run in a forked copy of this
process, so each one starts with the package imported and every lazy table
and cache empty, as a fresh ``nearfield`` process would.
"""

from __future__ import annotations

import time

_T0 = time.monotonic()
import nearfield.cli  # noqa: E402  (the import is timed)

IMPORT_S = time.monotonic() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from nearfield import io as nf_io  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

# Relative tolerances of the output checks.  Totals are conserved exactly in
# exact arithmetic; pointwise values are compared in units of the
# absolute-value contraction, which bounds float64 rounding (observed ratios
# are below 1e-14).
TOTAL_RTOL = 1e-9
POINTWISE_RTOL = 1e-12
# The order-4 expansion error falls like (kR)^-5: it is O(1) at kR=1 and
# O(1e-3) at kR=10 for l_max=6, and at most 1.5e-11 of the absolute-value
# contraction at kR in [630, 1000] over 150 seeds of the probe.
ASYMPTOTIC_FAR_RTOL = 1e-9

CHECK_NAMES = ("greens", "unitarity", "optical", "conservation", "two-path")
CHECK_LINE = re.compile(r"^check (\S+): defect=(\S+) tol=(\S+) (PASS|FAIL)$")


class OutputError(Exception):
    """An output of the program failed a check."""


# ----------------------------------------------------------------------
# commands in forked processes
# ----------------------------------------------------------------------

def run_command(argv: list[str], tracer: tracing.Tracer | None) -> dict:
    """Run ``nearfield.cli.main(argv)`` in a forked child and report on it.

    The report holds the exit code or the uncaught exception, the command's
    own wall time, the mean calibration loop time measured here while the
    command ran on the other core, and the child's trace aggregates when
    tracing.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.reset()
            report: dict = {}
            start = time.perf_counter()
            try:
                report["rc"] = nearfield.cli.main(argv)
            except Exception as exc:  # the report carries it to the parent
                report["error"] = f"{type(exc).__name__}: {exc}"
            report["elapsed"] = time.perf_counter() - start
            if tracer is not None:
                report["trace"] = tracer.snapshot()
            sys.stdout.flush()
            sys.stderr.flush()
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(report, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    # the child writes its report when it is done
    loops = calibration.loops_until(lambda: select.select([read_fd], [], [], 0)[0])
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    if not text:
        raise OutputError(f"command {argv} died without a report")
    report = json.loads(text)
    report["loop_s"] = statistics.fmean(loops)
    if tracer is not None:
        tracer.merge(report.pop("trace"))
    return report


class Clock:
    """Start of the timed part, and operation times in reference seconds."""

    def __init__(self) -> None:
        self.ready = time.monotonic()
        self.ready_loop_s = self._loop_s = calibration.loop_seconds()
        self.wall_s = 0.0

    def reference(self, wall_s: float) -> float:
        """Rescale an operation that ran here, bracketed by calibrations."""
        after = calibration.loop_seconds()
        self.wall_s += wall_s
        ref = calibration.to_reference(wall_s, 0.5 * (self._loop_s + after))
        self._loop_s = after
        return ref

    def command(self, report: dict) -> float:
        """Rescale a forked command by the calibration run alongside it."""
        self.wall_s += report["elapsed"]
        return calibration.to_reference(report["elapsed"], report["loop_s"])

    def expired(self, seconds: float) -> bool:
        return time.monotonic() - self.ready >= seconds


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# inputs: every number comes from the workload seed
# ----------------------------------------------------------------------

def _wavenumbers(rng, n: int) -> list[float]:
    return [round(float(k), 6) for k in rng.uniform(0.5, 2.0, n)]


def flux_config(workload: str, seed: int, smoke: bool) -> dict:
    """Run configuration of a ``nearfield flux`` workload."""
    rng = np.random.default_rng([seed, 1])
    if workload == "scan":
        # the medium config of the ROADMAP baseline: 3 channels, l_max=10,
        # default grid (order 24), about 40 distances from kR=0.5 to ~300
        ks = _wavenumbers(rng, 3)
        l_max, points = (3, 6) if smoke else (10, 40)
        k_min = min(ks)
        return {
            "amplitude": {
                "model": "random_unitary",
                "n_channels": 3,
                "l_max": l_max,
                "seed": int(rng.integers(1 << 30)),
                "k": ks,
            },
            "r_range": {
                "min": 0.5 / k_min,
                "max": float(rng.uniform(250.0, 350.0)) / k_min,
                "points": points,
                "spacing": "log",
            },
            "format": "csv",
        }
    # large_degree: hard sphere with k*a = 8 at l_max=20 on the default grid
    # (order 44, 4005 nodes), three distances with kR >= 2
    k = round(float(rng.uniform(0.5, 2.0)), 6)
    l_max = 8 if smoke else 20
    kr = np.sort(np.concatenate([[2.0], rng.uniform(3.0, 40.0, 2)]))
    return {
        "amplitude": {"model": "hard_sphere", "k": k, "radius": 8.0 / k, "l_max": l_max},
        "r_values": [float(x) / k for x in kr],
        "format": "csv",
    }


def check_configs(seed: int, run_dir: Path) -> list[tuple[str, Path]]:
    """The five ``check all`` configs, each with its own fixed config seed.

    The config seed also seeds the queries of ``check greens``, so it stays
    fixed: seeds 1, 3 and 4 draw queries that the l_max=60 multipole sum does
    not resolve.  The workload seed varies the l_max=6 amplitude and the
    amplitude file.
    """
    rng = np.random.default_rng([seed, 2])
    file_source = nf_io.resolve_amplitude(
        nf_io.RunConfig(
            amplitude={
                "model": "random_unitary",
                "n_channels": 2,
                "l_max": 4,
                "seed": int(rng.integers(1 << 30)),
                "k": _wavenumbers(rng, 2),
            }
        )
    )
    nf_io.save_amplitude(run_dir / "amp.json", file_source.f, file_source.channels)
    docs = [
        ("default", {"seed": 1}),
        ("hard_sphere_l8", {"amplitude": {"model": "hard_sphere", "l_max": 8}, "seed": 2}),
        (
            "random_unitary_l6",
            {
                "amplitude": {
                    "model": "random_unitary",
                    "n_channels": 3,
                    "l_max": 6,
                    "seed": int(rng.integers(1 << 30)),
                    "k": _wavenumbers(rng, 3),
                },
                "seed": 3,
            },
        ),
        ("file", {"amplitude": {"file": "amp.json"}, "seed": 4}),
        (
            "random_unitary_l12",
            {
                "amplitude": {"model": "random_unitary", "n_channels": 3, "l_max": 12, "seed": 5},
                "seed": 5,
            },
        ),
    ]
    return [(name, write_json(run_dir / f"check_{name}.json", doc)) for name, doc in docs]


# Check lines that fail on every run because of known faults of the program.
# A listed line may pass once its fault is mended; any other failure is wrong.
KNOWN_FAILURES = {
    ("random_unitary_l12", "conservation"),  # Gram rounding times pair factors at kR=0.2
    ("default", "greens"),  # queries with k|x| near 50 summed only to l_max=60
    ("random_unitary_l6", "greens"),
    ("file", "greens"),  # lost with the whole battery while the crash below stays
}
# Configs whose battery may crash: `check unitarity` raises on a file
# amplitude ("missing reciprocal amplitude data") and every line is lost.
KNOWN_CRASHES = {"file": "ValueError: missing reciprocal amplitude data"}


def probe_inputs(seed: int, run_dir: Path, smoke: bool) -> list[dict]:
    """Amplitudes and call groups of the library probe.

    Five 2-channel random_unitary amplitudes, l_max 2 to 6, each written by
    ``save_amplitude`` and read back through a config.  Each group is one
    amplitude, one set of 1 to 4 directions and a ladder of four kR values,
    one per decade from 1 to 1000 (kR of the slower channel).
    """
    rng = np.random.default_rng([seed, 3])
    groups_per_amplitude = 1 if smoke else 8
    amplitudes = []
    for l_max in range(2, 7):
        spec = {
            "model": "random_unitary",
            "n_channels": 2,
            "l_max": l_max,
            "seed": int(rng.integers(1 << 30)),
            "k": _wavenumbers(rng, 2),
            "kappa": [float(x) for x in rng.normal(size=3)],
        }
        model_cfg = write_json(run_dir / f"probe_model_l{l_max}.json", {"amplitude": spec})
        source = nf_io.resolve_amplitude(nf_io.load_config(model_cfg))
        amp_path = run_dir / f"probe_amp_l{l_max}.json"
        nf_io.save_amplitude(amp_path, source.f, source.channels)
        file_cfg = write_json(
            run_dir / f"probe_file_l{l_max}.json", {"amplitude": {"file": amp_path.name}}
        )
        loaded = nf_io.resolve_amplitude(nf_io.load_config(file_cfg))
        k_min = min(spec["k"])
        groups = []
        for group in range(groups_per_amplitude):
            n_dirs = 1 + group % 4
            dirs = rng.normal(size=(n_dirs, 3))
            exponents = [rng.uniform(0.0, 0.2)] + [d - rng.uniform(0.0, 0.2) for d in (1, 2, 3)]
            groups.append(
                {
                    "nhat": dirs[0] if n_dirs == 1 else dirs,
                    "R": [10.0**e / k_min for e in exponents],
                }
            )
        amplitudes.append({"spec": spec, "f": loaded.f, "channels": loaded.channels, "groups": groups})
    return amplitudes


# ----------------------------------------------------------------------
# output checks (independent oracles in oracles.py)
# ----------------------------------------------------------------------

def _smatrices(spec: dict):
    import oracles

    if spec["model"] == "hard_sphere":
        return oracles.hard_sphere_smatrices(spec["k"] * spec["radius"], spec["l_max"])
    return nearfield.random_unitary_smatrix(spec["n_channels"], spec["l_max"], spec["seed"]).matrices


def _spec_ks(spec: dict) -> list[float]:
    return [spec["k"]] if spec["model"] == "hard_sphere" else spec["k"]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def check_flux_csv(text: str, config: dict, seed: int) -> None:
    """Totals against sigma; extrema of sampled rows against the Hankel current."""
    import oracles

    spec = config["amplitude"]
    smats, ks = _smatrices(spec), _spec_ks(spec)
    sigma = oracles.cross_section(smats, ks, 0)
    header = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line:
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line and line[0].isdigit():
            rows.append([float(v) for v in line.split(",")])
    n_ch = len(ks)
    r_expected = (
        np.geomspace(config["r_range"]["min"], config["r_range"]["max"], config["r_range"]["points"])
        if "r_range" in config
        else np.asarray(config["r_values"])
    )
    _require(len(rows) == r_expected.size, f"{len(rows)} rows, expected {r_expected.size}")
    for key in ("far_field_total", "cross_section_total"):
        value = float(header[key])
        _require(abs(value / sigma - 1) <= TOTAL_RTOL, f"{key} {value!r} against sigma {sigma!r}")
    order = int(header["grid_order"])
    nodes = oracles.sphere_nodes(order)
    eligible = []
    for i, row in enumerate(rows):
        R = row[0]
        _require(abs(R / r_expected[i] - 1) <= 1e-15, f"row {i}: R={R!r}")
        kr = [k * R for k in ks]
        _require(np.allclose(row[1 : 1 + n_ch], kr, rtol=1e-15, atol=0), f"row {i}: kR {row[1:1 + n_ch]}")
        total, _, _, valid = row[1 + n_ch : 5 + n_ch]
        _require(abs(total / sigma - 1) <= TOTAL_RTOL, f"row {i}: total {total!r} against sigma {sigma!r}")
        kr_min = min(kr)
        _require(valid == (1.0 if kr_min >= 1.0 else 0.0), f"row {i}: within_validity {valid}")
        if kr_min >= 1.0:
            eligible.append(i)
    rng = np.random.default_rng([seed, 4])
    for i in rng.choice(eligible, size=min(3, len(eligible)), replace=False):
        R, (dmin, dmax) = rows[i][0], rows[i][2 + n_ch : 4 + n_ch]
        flux, scale = oracles.radial_current(smats, ks, 0, [0.0, 0.0, 1.0], R, nodes)
        tol = POINTWISE_RTOL * scale.max()
        _require(abs(dmin - flux.min()) <= tol, f"row {i}: differential_min {dmin!r} vs {flux.min()!r}")
        _require(abs(dmax - flux.max()) <= tol, f"row {i}: differential_max {dmax!r} vs {flux.max()!r}")


def check_probe(amplitudes: list[dict], results: list) -> None:
    """Pointwise flux and totals against the oracles; the expansion in the far zone."""
    import oracles

    it = iter(results)
    for amp in amplitudes:
        spec = amp["spec"]
        smats, ks = _smatrices(spec), spec["k"]
        sigma = oracles.cross_section(smats, ks, 0)
        k_min = min(ks)
        for group in amp["groups"]:
            for R in group["R"]:
                exact, asym, total = next(it), next(it), next(it)
                flux, scale = oracles.radial_current(smats, ks, 0, spec["kappa"], R, group["nhat"])
                exact, asym = np.atleast_1d(exact), np.atleast_1d(asym)
                where = f"l_max={spec['l_max']} kR={k_min * R:.4g}"
                _require(
                    np.all(np.abs(exact - flux) <= POINTWISE_RTOL * scale),
                    f"{where}: exact flux {exact} vs Hankel current {flux}",
                )
                _require(abs(total / sigma - 1) <= TOTAL_RTOL, f"{where}: total {total!r} vs {sigma!r}")
            # the last rung of the ladder is the far zone, kR near 1000
            error = np.max(np.abs(asym - exact) / scale)
            _require(error <= ASYMPTOTIC_FAR_RTOL, f"{where}: order-4 expansion off by {error:.3e}")


def parse_check_output(name: str, report: dict, text: str | None) -> tuple[int, int, list]:
    """Completed and failed line counts of one battery; raises on a wrong output."""
    if "error" in report:
        _require(
            name in KNOWN_CRASHES and report["error"].startswith(KNOWN_CRASHES[name]),
            f"check all on {name}: {report['error']}",
        )
        return 0, 0, []
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    _require(len(lines) == len(CHECK_NAMES), f"check all on {name}: {len(lines)} lines")
    failed = 0
    parsed = []
    for expected, line in zip(CHECK_NAMES, lines):
        match = CHECK_LINE.match(line)
        _require(match is not None and match.group(1) == expected, f"{name}: bad line {line!r}")
        defect, tol, status = float(match.group(2)), float(match.group(3)), match.group(4)
        _require((status == "PASS") == (defect <= tol), f"{name}: inconsistent line {line!r}")
        if status == "FAIL":
            _require((name, expected) in KNOWN_FAILURES, f"{name}: unexpected failure {line!r}")
            failed += 1
        parsed.append(line)
    _require(report["rc"] == (1 if failed else 0), f"{name}: exit code {report['rc']}")
    return len(lines), failed, parsed


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def setup(workload: str, seed: int, run_dir: Path, smoke: bool):
    if workload in ("scan", "large_degree"):
        config = flux_config(workload, seed, smoke)
        return config, write_json(run_dir / f"{workload}.json", config)
    if workload == "checks":
        return check_configs(seed, run_dir)
    return probe_inputs(seed, run_dir, smoke)


def run_flux(args, inputs, run_dir: Path, tracer, clock: Clock) -> dict:
    config, path = inputs
    out = run_dir / "flux.csv"
    rates, first = [], None
    attempted = 0
    while True:
        report = run_command(["flux", "--config", str(path), "--out", str(out)], tracer)
        _require("error" not in report and report["rc"] == 0, f"flux command: {report}")
        text = out.read_text(encoding="utf-8")
        rows = sum(1 for line in text.splitlines() if line[:1].isdigit())
        attempted += rows
        rates.append(rows / clock.command(report))
        if tracer is not None:
            tracer.count("cli.output_bytes", len(text.encode()))
        if first is None:
            first = text
        _require(text == first, "flux output differs between identical commands")
        if clock.expired(args.seconds):
            break
    check_flux_csv(first, config, args.seed)
    return {"attempted": attempted, "failed": 0, "rates": rates}


def run_checks(args, inputs, run_dir: Path, tracer, clock: Clock) -> dict:
    configs = inputs
    out = run_dir / "check.txt"
    rates, first = [], None
    attempted = failed = 0
    while True:
        done = 0
        elapsed = 0.0
        round_lines = []
        for name, path in configs:
            out.unlink(missing_ok=True)
            report = run_command(["check", "all", "--config", str(path), "--out", str(out)], tracer)
            elapsed += clock.command(report)
            text = out.read_text(encoding="utf-8") if out.exists() else None
            if tracer is not None and text is not None:
                tracer.count("cli.output_bytes", len(text.encode()))
            completed, bad, parsed = parse_check_output(name, report, text)
            attempted += len(CHECK_NAMES)
            failed += bad + len(CHECK_NAMES) - completed
            done += completed
            round_lines.append(parsed)
        rates.append(done / elapsed)
        if first is None:
            first = round_lines
        _require(round_lines == first, "check output differs between identical rounds")
        if clock.expired(args.seconds):
            break
    return {"attempted": attempted, "failed": failed, "rates": rates}


def run_probe(args, inputs, run_dir: Path, tracer, clock: Clock) -> dict:
    amplitudes = inputs
    exact_fn = nearfield.differential_flux_exact
    asym_fn = nearfield.differential_flux_asymptotic
    total_fn = nearfield.total_flux
    rates, first = [], None
    attempted = 0
    while True:
        results = []
        start = time.perf_counter()
        for amp in amplitudes:
            f, channels = amp["f"], amp["channels"]
            for group in amp["groups"]:
                nhat = group["nhat"]
                for R in group["R"]:
                    results.append(exact_fn(f, channels, R, nhat))
                    results.append(asym_fn(f, channels, R, nhat, order=4))
                    results.append(total_fn(f, channels, R))
        rates.append(len(results) / clock.reference(time.perf_counter() - start))
        if tracer is not None:
            tracer.end_round()
        attempted += len(results)
        if first is None:
            first = results
        _require(
            all(np.array_equal(a, b) for a, b in zip(results, first)),
            "probe results differ between identical rounds",
        )
        if clock.expired(args.seconds):
            break
    check_probe(amplitudes, first)
    return {"attempted": attempted, "failed": 0, "rates": rates}


RUNNERS = {"scan": run_flux, "large_degree": run_flux, "probe": run_probe, "checks": run_checks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = Path(nearfield.__file__).resolve().parents[1]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    args.run_dir.mkdir(parents=True, exist_ok=True)
    inputs = setup(args.workload, args.seed, args.run_dir, args.smoke)
    clock = Clock()
    result = {"ready": clock.ready, "ready_loop_s": clock.ready_loop_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    result.update(src=str(src), import_s=IMPORT_S, correct=True, error=None)
    try:
        result.update(RUNNERS[args.workload](args, inputs, args.run_dir, tracer, clock))
    except OutputError as exc:
        result.update(correct=False, error=str(exc))
    result["wall_s"] = clock.wall_s
    if tracer is not None:
        result["per_layer"] = tracer.metrics(IMPORT_S)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
