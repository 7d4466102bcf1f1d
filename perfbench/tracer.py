"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the names that callers really
look up: every layer function that ``nclab.cli`` imports, the
``propagate_analytic`` that ``nclab.observables`` calls, the library entry
points the library-level workload calls, the two ``write_csv`` methods, and
the manifest's hashing and writing.  Each call becomes a span (name, start,
end, parent, counts) kept in memory; ``install``/``uninstall`` patch and
restore the names, so untraced passes run the unmodified package.

A span's self time is its duration minus the time its child spans cover.
Whatever a pass spends outside every span (argument resolution, the inline
CSV writers and check arithmetic of ``cli``, and the benchmark's own glue)
is reported as ``cli.self_s``.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import time

import nclab.algebra
import nclab.cli
import nclab.dynamics
import nclab.manifest
import nclab.observables

LAYERS = ("cli", "algebra", "dynamics", "observables", "wigner", "manifest")

# Span names whose self time is reported as "<metric>.busy_s".
BUSY_METRICS = {
    "observables.write_csv": "observables.write_csv",
    "dynamics.write_csv": "dynamics.write_csv",
    "dynamics.integrate_numeric": "dynamics.integrate_numeric",
    "dynamics.propagate_analytic": "dynamics.propagate_analytic",
    "observables.sector_energy_series": "observables.sector_energy_series",
    "wigner.wigner_normalization": "wigner.normalization",
    "wigner.stargen_residual": "wigner.stargen_residual",
    "manifest.file_sha256": "manifest.file_sha256",
    "manifest.write": "manifest.write",
}

COUNT_METRICS = (
    "observables.write_csv.rows",
    "observables.write_csv.bytes",
    "dynamics.write_csv.rows",
    "dynamics.write_csv.bytes",
    "dynamics.rk4_steps",
    "dynamics.propagate_analytic.points",
    "observables.sector_energy_series.points",
    "wigner.quad_points",
    "wigner.stargen_residual.calls",
    "manifest.hashed_bytes",
    "algebra.calls",
)

# Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    **{m + ".busy_s": "s" for m in BUSY_METRICS.values()},
    "algebra.busy_s": "s",
    **{m: ("B" if m.endswith("bytes") else "count") for m in COUNT_METRICS},
    "dynamics.rk4_step_us": "us",
    "wigner.quad_point_ns": "ns",
    "wigner.stargen_point_ms": "ms",
    "cli.self_s": "s",
    **{layer + ".share": "%" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def _csv_counts(prefix):
    def count(bound, result):
        return {
            prefix + ".rows": len(bound["self"].times),
            prefix + ".bytes": os.path.getsize(bound["path"]),
        }

    return count


# Counts taken from a call's arguments and the files it wrote.
COUNTERS = {
    "observables.write_csv": _csv_counts("observables.write_csv"),
    "dynamics.write_csv": _csv_counts("dynamics.write_csv"),
    "dynamics.integrate_numeric": lambda b, r: {
        "dynamics.rk4_steps": max(1, int(round(b["t_end"] / b["dt"])))
    },
    "dynamics.propagate_analytic": lambda b, r: {
        "dynamics.propagate_analytic.points": int(getattr(b["t"], "size", 1))
    },
    "observables.sector_energy_series": lambda b, r: {
        "observables.sector_energy_series.points": len(b["omega_t"])
    },
    "wigner.wigner_normalization": lambda b, r: {
        "wigner.quad_points": int(b["n_nodes"]) ** 4
    },
    "wigner.stargen_residual": lambda b, r: {"wigner.stargen_residual.calls": 1},
    "manifest.file_sha256": lambda b, r: {
        "manifest.hashed_bytes": os.path.getsize(b["path"])
    },
}


def _targets():
    """(owner, attribute, span name) for every name the tracer wraps."""
    layer_modules = {"nclab." + layer for layer in LAYERS[1:]}
    targets = [
        (nclab.cli, attr, obj.__module__.rpartition(".")[2] + "." + obj.__name__)
        for attr, obj in sorted(vars(nclab.cli).items())
        if inspect.isfunction(obj) and obj.__module__ in layer_modules
    ]
    targets += [
        (nclab.observables, "propagate_analytic", "dynamics.propagate_analytic"),
        (nclab.dynamics, "integrate_numeric", "dynamics.integrate_numeric"),
        (nclab.dynamics, "propagate_analytic", "dynamics.propagate_analytic"),
        (nclab.algebra, "derived_constants", "algebra.derived_constants"),
        (nclab.algebra, "make_gauge", "algebra.make_gauge"),
        (nclab.manifest, "file_sha256", "manifest.file_sha256"),
        (nclab.dynamics.Trajectory, "write_csv", "dynamics.write_csv"),
        (nclab.observables.SectorEnergySeries, "write_csv", "observables.write_csv"),
        (nclab.manifest.RunManifest, "write", "manifest.write"),
    ]
    return targets


class Tracer:
    """Records spans around the wrapped names while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counts or None]
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = counter(bound.arguments, result)
            return result

        return traced

    def pass_metrics(self, first: int, wall: float) -> dict:
        """Per-layer metrics of one pass whose spans start at index ``first``."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
            else:
                top += end - start
        out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, counts), cover in zip(spans, covered):
            own = end - start - cover
            layer = name.partition(".")[0]
            layer_self[layer] += own
            if name in BUSY_METRICS:
                out[BUSY_METRICS[name] + ".busy_s"] += own
            if layer == "algebra":
                out["algebra.busy_s"] += own
                out["algebra.calls"] += 1
            for key, value in (counts or {}).items():
                out[key] += value
        layer_self["cli"] = out["cli.self_s"] = wall - top
        for layer in LAYERS:
            out[layer + ".share"] = 100.0 * layer_self[layer] / wall
        out["dynamics.rk4_step_us"] = _per(
            out["dynamics.integrate_numeric.busy_s"], out["dynamics.rk4_steps"], 1e6
        )
        out["wigner.quad_point_ns"] = _per(
            out["wigner.normalization.busy_s"], out["wigner.quad_points"], 1e9
        )
        out["wigner.stargen_point_ms"] = _per(
            out["wigner.stargen_residual.busy_s"],
            out["wigner.stargen_residual.calls"],
            1e3,
        )
        return out

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "counts": c}
            for n, s, e, p, c in self.spans
        ]


def _per(busy: float, count: float, scale: float) -> float:
    return scale * busy / count if count else 0.0


def median_metrics(per_pass: list) -> dict:
    """Median of each per-layer metric over the traced passes."""
    return {
        key: statistics.median(p[key] for p in per_pass)
        for key in per_pass[0]
    }
