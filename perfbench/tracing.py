"""Per-layer spans recorded around calls into the package's public functions.

The spans live in the benchmark, not in the package: ``install`` wraps each
traced function and rebinds every name under which a ``nearfield`` module
holds it (``from .special import ylm_table`` in ``flux``, ``greens`` and
``amplitudes``, the re-export in the package, ``_kernels.quadratic_form``
looked up by attribute).  A span's self time is its duration minus the time
covered by the traced calls it made.

Aggregates stay in memory.  A forked command process starts from
``reset()`` and hands its ``snapshot()`` back to the workload process,
which ``merge``s it.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time

# (module, function) pairs that get a span.  Span names are "module.function"
# without the leading underscore of private modules (``kernels``, ``dd``).
TRACED = (
    ("special", "ylm_table"),
    ("_kernels", "quadratic_form"),
    ("_kernels", "weighted_pair_sum"),
    ("wronskian", "pair_matrix"),
    ("_dd", "sphere_mode_gram"),
    ("flux", "differential_flux_exact"),
    ("flux", "total_flux"),
    ("flux", "differential_flux_asymptotic"),
    ("flux", "cross_sections"),
    ("flux", "flux_profile"),
    ("greens", "greens_multipole"),
    ("amplitudes", "amplitudes_from_smatrix"),
    ("amplitudes", "evaluate"),
    ("io", "load_config"),
    ("io", "resolve_amplitude"),
    ("io", "load_amplitude"),
    ("cli", "main"),
)

# Per-layer metrics in output order: name -> (unit, better).
PER_LAYER = {
    "special.ylm_table.calls": ("count", "lower"),
    "special.ylm_table.self_s": ("s", "lower"),
    "special.ylm_table.values": ("count", "lower"),
    "special.ylm_table.distinct_ratio": ("ratio", "higher"),
    "kernels.quadratic_form.calls": ("count", "lower"),
    "kernels.quadratic_form.self_s": ("s", "lower"),
    "kernels.quadratic_form.gflop": ("GFLOP", "lower"),
    "kernels.weighted_pair_sum.calls": ("count", "lower"),
    "kernels.weighted_pair_sum.self_s": ("s", "lower"),
    "wronskian.pair_matrix.calls": ("count", "lower"),
    "wronskian.pair_matrix.self_s": ("s", "lower"),
    "wronskian.pair_matrix.distinct_ratio": ("ratio", "higher"),
    "wronskian.pair_matrix.first_s": ("s", "lower"),
    "dd.sphere_mode_gram.calls": ("count", "lower"),
    "dd.sphere_mode_gram.self_s": ("s", "lower"),
    "flux.differential_flux_exact.calls": ("count", "lower"),
    "flux.differential_flux_exact.self_s": ("s", "lower"),
    "flux.total_flux.calls": ("count", "lower"),
    "flux.total_flux.self_s": ("s", "lower"),
    "flux.differential_flux_asymptotic.self_s": ("s", "lower"),
    "flux.cross_sections.self_s": ("s", "lower"),
    "flux.flux_profile.self_s": ("s", "lower"),
    "greens.greens_multipole.calls": ("count", "lower"),
    "greens.greens_multipole.self_s": ("s", "lower"),
    "amplitudes.amplitudes_from_smatrix.calls": ("count", "lower"),
    "amplitudes.amplitudes_from_smatrix.self_s": ("s", "lower"),
    "amplitudes.evaluate.self_s": ("s", "lower"),
    "io.load_config.self_s": ("s", "lower"),
    "io.resolve_amplitude.self_s": ("s", "lower"),
    "io.load_amplitude.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "import.nearfield_s": ("s", "lower"),
}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _ylm_observe(tracer, dur, args, kwargs) -> None:
    import numpy as np

    l_max, theta, phi = args[:3]
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    tracer.count("special.ylm_table.values", (l_max + 1) ** 2 * theta.size)
    tracer.distinct("special.ylm_table", _digest(l_max, theta, phi))


def _quadratic_observe(tracer, dur, args, kwargs) -> None:
    modes, points = args[0].shape
    tracer.count("kernels.quadratic_form.gflop", 8.0 * modes * modes * points / 1e9)


def _pair_observe(tracer, dur, args, kwargs) -> None:
    l_max, z = args[:2]
    tracer.distinct("wronskian.pair_matrix", _digest(l_max, complex(z)))
    if l_max not in tracer.pair_degrees_seen:
        tracer.pair_degrees_seen.add(l_max)
        tracer.first_s.append(dur)


_OBSERVERS = {
    "special.ylm_table": _ylm_observe,
    "kernels.quadratic_form": _quadratic_observe,
    "wronskian.pair_matrix": _pair_observe,
}


class Tracer:
    """Span and counter aggregates for one workload run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        # distinct inputs seen in the current round, and per-name totals of
        # (distinct, calls) over finished rounds
        self.round_keys: dict[str, set[str]] = {}
        self.round_calls: dict[str, int] = {}
        self.distinct_totals: dict[str, list[int]] = {}
        self.pair_degrees_seen: set[int] = set()
        self.first_s: list[float] = []
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def distinct(self, name: str, key: str) -> None:
        self.round_keys.setdefault(name, set()).add(key)
        self.round_calls[name] = self.round_calls.get(name, 0) + 1

    def end_round(self) -> None:
        """Close one round (a command or a probe round) for the distinct ratios."""
        for name, keys in self.round_keys.items():
            total = self.distinct_totals.setdefault(name, [0, 0])
            total[0] += len(keys)
            total[1] += self.round_calls[name]
        self.round_keys.clear()
        self.round_calls.clear()

    def wrap(self, name: str, func):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                frames = self._stack
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
                if observe is not None:
                    observe(self, dur, args, kwargs)

        traced.__wrapped__ = func
        return traced

    def snapshot(self) -> dict:
        self.end_round()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "distinct_totals": self.distinct_totals,
            "first_s": self.first_s,
        }

    def merge(self, snap: dict) -> None:
        for name, n in snap["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, s in snap["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        for name, v in snap["counters"].items():
            self.count(name, v)
        for name, (d, n) in snap["distinct_totals"].items():
            total = self.distinct_totals.setdefault(name, [0, 0])
            total[0] += d
            total[1] += n
        self.first_s.extend(snap["first_s"])

    def metrics(self, import_s: float) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        self.end_round()
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self.calls.get(span, 0)
            elif field == "self_s":
                out[metric] = self.self_s.get(span, 0.0)
            elif field == "distinct_ratio":
                d, n = self.distinct_totals.get(span, (0, 0))
                out[metric] = d / n if n else 0.0
            elif field == "first_s":
                out[metric] = statistics.median(self.first_s) if self.first_s else 0.0
            elif metric == "import.nearfield_s":
                out[metric] = import_s
            else:
                out[metric] = self.counters.get(metric, 0)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced function under every name that binds it."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nearfield" or name.startswith("nearfield."))
    ]
    for module_name, func_name in TRACED:
        original = getattr(sys.modules[f"nearfield.{module_name}"], func_name)
        traced = tracer.wrap(f"{module_name.lstrip('_')}.{func_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
