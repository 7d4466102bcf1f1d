"""The four benchmark workloads: seeded inputs, passes, output validation.

A workload turns a seeded generator into a list of pass inputs, runs one
pass on one input (the timed part), and validates what the pass produced
(untimed).  CLI operations call ``nclab.cli.main(argv)`` in-process, so
interpreter start-up stays out of the pass time; the library-level
workload calls ``nclab.dynamics`` directly.

Parameters are drawn over the whole admissible domain, as the test suite's
``random_params`` does but with both signs of theta: m, omega, hbar in
[0.5, 2], |theta| in [0.2, 1.5], and theta*eta/hbar**2 in (-0.9, 0.9).
Draws are not steered away from regimes where a command's checks fail;
such operations are counted as failed, with their reasons.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nclab.algebra
import nclab.cli
import nclab.dynamics
from nclab.states import InitialConditions

# Criterion 04's bounds on the RK4 oracle.
RK4_SUP_BOUND = 1e-8
RK4_RATIO_RANGE = (12.0, 20.0)

# The excited (n1, n2) pairs that wigner-spectrum cycles through.
WIGNER_PAIRS = ((3, 0), (0, 3), (2, 2), (3, 1), (1, 3))

SECTOR_HEADER = ["Omega_t", "xi1_over_hOmega", "xi2_over_hOmega", "source"]
TRAJECTORY_HEADER = ["t", "Omega_t", "Q1", "Q2", "P1", "P2"]


@dataclass
class Op:
    """One operation of a pass and what the harness found about it."""

    label: str
    inputs: object = None  # argv of a CLI op, the case of a library op
    outdir: Path = None
    rc: int = None
    error: str = None
    result: object = None
    reasons: list = field(default_factory=list)  # empty when the op succeeded
    silent: bool = False  # failed although the program reported success
    artifacts: dict = field(default_factory=dict)


def draw_params(rng) -> dict:
    m, omega, hbar = (float(v) for v in rng.uniform(0.5, 2.0, 3))
    x = float(rng.uniform(-0.9, 0.9))  # theta*eta / hbar**2
    theta = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5))
    eta = x * hbar**2 / theta
    return {"m": m, "omega": omega, "hbar": hbar, "theta": theta, "eta": eta}


def draw_gauge_ratio(rng) -> float:
    return float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))


def physics_argv(params: dict, gauge_ratio: float) -> list:
    # "--flag=value" keeps argparse from reading a negative value as a flag.
    argv = ["--%s=%r" % (key, value) for key, value in params.items()]
    return argv + ["--gauge-ratio=%r" % gauge_ratio]


def run_cli(label: str, argv: list, outdir: Path) -> Op:
    """Run one CLI command in-process; never raises."""
    op = Op(label, inputs=list(argv), outdir=outdir)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            op.rc = nclab.cli.main(argv + ["--out", str(outdir)])
    except SystemExit as exc:  # argparse rejects its input this way
        op.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback the CLI should not produce
        op.error = "%s: %s" % (type(exc).__name__, exc)
    op.result = sink.getvalue()
    return op


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_csv(path: Path, header: list, rows: int, numeric: int):
    """Parse a CSV the harness expects; returns (array, problem or None)."""
    with open(path) as fh:
        first = fh.readline().rstrip("\r\n").split(",")
    if first != header:
        return None, "%s: header %s" % (path.name, first)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(numeric), ndmin=2)
    except ValueError as exc:
        return None, "%s does not parse: %s" % (path.name, exc)
    if data.shape != (rows, numeric):
        return None, "%s: %d rows, expected %d" % (path.name, data.shape[0], rows)
    if not np.isfinite(data).all():
        return None, "%s: non-finite values" % path.name
    return data, None


def validate_cli(op: Op, manifest_name: str, files: dict, check=None) -> None:
    """Validate a CLI operation against its manifest and expected files.

    ``files`` maps file name -> (header, rows, numeric columns); ``check``
    gets the parsed arrays and returns a list of problems.
    """
    if op.error:
        op.reasons.append("raised " + op.error)
        return
    if op.rc != 0:
        tail = [ln for ln in op.result.splitlines() if ln.startswith("error")]
        op.reasons.append("exit %s%s" % (op.rc, ": " + tail[-1] if tail else ""))
    problems = []
    mpath = op.outdir / manifest_name
    try:
        manifest = json.loads(mpath.read_text())
    except (OSError, ValueError) as exc:
        problems.append("manifest unreadable: %s" % exc)
        manifest = {"checks": [], "outputs": []}
    for c in manifest.get("checks", []):
        if c.get("passed") is not True:
            op.reasons.append("check %s failed (%s)" % (c.get("name"), c.get("value")))
    recorded = {o.get("path"): o.get("sha256") for o in manifest.get("outputs", [])}
    arrays = {}
    for name, spec in files.items():
        path = op.outdir / name
        if not path.exists():
            problems.append("%s missing" % name)
            continue
        digest = _sha256(path)
        op.artifacts[name] = digest
        if recorded.get(name) != digest:
            problems.append("%s: hash differs from the manifest" % name)
        if spec is None:
            continue
        arrays[name], problem = _load_csv(path, *spec)
        if problem:
            problems.append(problem)
    if check is not None and not problems:
        problems += check(arrays)
    op.reasons += problems
    # Exit code 0 claims every check passed and every file is sound.
    op.silent = op.rc == 0 and bool(op.reasons)


def _partition(name):
    def check(arrays):
        xi = arrays[name]
        gap = float(np.max(np.abs(xi[:, 1] + xi[:, 2] - 1.0)))
        return [] if gap <= 1e-12 else ["%s: xi1 + xi2 - 1 = %.3g" % (name, gap)]

    return check


class Workload:
    """Seeded pass inputs, one timed pass, and validation of its outputs."""

    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def inputs(self, rng, count: int) -> list:
        return [self.draw(rng) for _ in range(count)]

    def draw(self, rng):
        raise NotImplementedError

    def run_pass(self, inp, outdir: Path) -> list:
        raise NotImplementedError

    def validate(self, ops: list) -> None:
        raise NotImplementedError


class FigureReport(Workload):
    name = "figure-report"

    def draw(self, rng):
        return {"params": draw_params(rng), "gauge_ratio": draw_gauge_ratio(rng)}

    def _sizes(self):
        # (figure 1 full grid, figure 2 and xi grid); figure 1's zoom is 4000.
        return (1000, 200) if self.tiny else (50000, 4000)

    def run_pass(self, inp, outdir):
        full, grid = self._sizes()
        phys = physics_argv(inp["params"], inp["gauge_ratio"])
        return [
            run_cli(
                "figure 1", ["figure", "1", "--grid-points=%d" % full] + phys, outdir / "f1"
            ),
            run_cli(
                "figure 2", ["figure", "2", "--grid-points=%d" % grid] + phys, outdir / "f2"
            ),
            run_cli(
                "xi trajectory",
                ["xi", "--source", "trajectory", "--grid-points=%d" % grid] + phys,
                outdir / "xi",
            ),
        ]

    def validate(self, ops):
        full, grid = self._sizes()
        fig1, fig2, xi = ops
        validate_cli(
            fig1,
            "figure1_manifest.json",
            {
                "figure1_full.csv": (SECTOR_HEADER, full, 3),
                "figure1_zoom.csv": (SECTOR_HEADER, 4000, 3),
            },
            _partition("figure1_full.csv"),
        )
        validate_cli(
            fig2,
            "figure2_manifest.json",
            {
                "figure2.csv": (
                    ["Omega_t", "xi1_rate_over_hOmega2", "first_order_amplitude"],
                    grid,
                    3,
                )
            },
        )
        validate_cli(
            xi,
            "xi_manifest.json",
            {"xi_trajectory.csv": (SECTOR_HEADER, grid, 3)},
            _partition("xi_trajectory.csv"),
        )


def _stack(state) -> np.ndarray:
    return np.stack([np.asarray(state.Q1), np.asarray(state.Q2),
                     np.asarray(state.P1), np.asarray(state.P2)], axis=-1)


class Rk4Oracle(Workload):
    name = "rk4-oracle"
    cases_per_pass = 2
    periods = 2.0
    steps_per_period = 2000  # coarse step; the fine run halves it
    stride = 20

    def draw(self, rng):
        cases = []
        for _ in range(self.cases_per_pass):
            params = draw_params(rng)
            cases.append(
                {
                    "params": params,
                    "gauge_ratio": draw_gauge_ratio(rng),
                    "ic": [float(v) for v in rng.normal(0.0, 1.0, 4)],
                }
            )
        return cases

    def _case(self, case):
        p = nclab.algebra.PhysicalParams(**case["params"])
        dc = nclab.algebra.derived_constants(
            p, nclab.algebra.make_gauge(p, case["gauge_ratio"])
        )
        ic = InitialConditions(*case["ic"])
        period = 2.0 * math.pi / dc.omega_big
        t_end = (0.125 if self.tiny else self.periods) * period
        sups = []
        for dt in (period / self.steps_per_period, period / (2 * self.steps_per_period)):
            traj = nclab.dynamics.integrate_numeric(ic, dc, t_end, dt, stride=self.stride)
            ref = nclab.dynamics.propagate_analytic(ic, dc, traj.times)
            sups.append(float(np.max(np.abs(traj.states - _stack(ref)))))
        return sups

    def run_pass(self, inp, outdir):
        ops = []
        for case in inp:
            op = Op("rk4 case", inputs=case)
            try:
                op.result = self._case(case)
            except Exception as exc:  # counted as a failed case
                op.error = "%s: %s" % (type(exc).__name__, exc)
            ops.append(op)
        return ops

    def validate(self, ops):
        lo, hi = RK4_RATIO_RANGE
        for op in ops:
            if op.error:
                op.reasons.append("raised " + op.error)
                continue
            coarse, fine = op.result
            ratio = coarse / fine if fine > 0.0 else math.inf
            if not coarse < RK4_SUP_BOUND:
                op.reasons.append("sup error %.3g >= %g" % (coarse, RK4_SUP_BOUND))
            if not lo <= ratio <= hi:
                op.reasons.append("halving ratio %.3g outside [%g, %g]" % (ratio, lo, hi))
            # A library call has no exit code: a wrong answer is silent.
            op.silent = bool(op.reasons)


class WignerSpectrum(Workload):
    name = "wigner-spectrum"

    def inputs(self, rng, count):
        # The pairs do not cost the same, so every seed gets each pair
        # equally often (as near as count allows): the pass-time mix is then
        # the same whatever the seed.
        drawn = super().inputs(rng, count)
        for k, inp in enumerate(drawn):
            inp["pair"] = WIGNER_PAIRS[k % len(WIGNER_PAIRS)]
        return drawn

    def draw(self, rng):
        return {
            "params": draw_params(rng),
            "gauge_ratio": draw_gauge_ratio(rng),
            "seed": int(rng.integers(2**31)),
        }

    def _sizes(self):
        # (slice grid points per axis, residual points, quadrature nodes)
        return (11, 3, 16) if self.tiny else (81, 20, 40)

    def run_pass(self, inp, outdir):
        grid, points, nodes = self._sizes()
        n1, n2 = inp["pair"]
        argv = [
            "wigner", "--n1=%d" % n1, "--n2=%d" % n2, "--seed=%d" % inp["seed"],
            "--grid-points=%d" % grid, "--residual-points=%d" % points,
            "--nodes=%d" % nodes,
        ]
        argv += physics_argv(inp["params"], inp["gauge_ratio"])
        return [run_cli("wigner %d,%d" % (n1, n2), argv, outdir / "w")]

    def validate(self, ops):
        grid, points, _ = self._sizes()
        op = ops[0]

        def residuals(arrays):
            keys = ("rho", "residual_re", "residual_im", "rel")
            try:
                report = json.loads((op.outdir / "wigner_residuals.json").read_text())
                records = report["records"]
                values = [float(r[k]) for r in records for k in keys]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return ["wigner_residuals.json does not parse: %s" % exc]
            if len(records) != points:
                return ["wigner_residuals.json: %d records" % len(records)]
            if not all(map(math.isfinite, values)):
                return ["wigner_residuals.json: non-finite values"]
            return []

        validate_cli(
            op,
            "wigner_manifest.json",
            {
                "wigner_slice.csv": (["Q1", "Q2", "P1", "P2", "rho"], grid * grid, 5),
                "wigner_residuals.json": None,
            },
            residuals,
        )


class SimulateBoth(Workload):
    name = "simulate-both"
    t_max = 40.0  # Omega*t units; the CLI's default step is pi/1000

    def draw(self, rng):
        return {
            "ratio": float(rng.uniform(0.0, 0.9)),
            "mode": nclab.cli.MODES[int(rng.integers(len(nclab.cli.MODES)))],
            "gauge_ratio": draw_gauge_ratio(rng),
            "ic": [float(v) for v in rng.normal(0.0, 1.0, 4)],
        }

    def _t_max(self):
        return 2.0 if self.tiny else self.t_max

    def run_pass(self, inp, outdir):
        argv = [
            "simulate", "--method", "both", "--t-max=%r" % self._t_max(),
            "--ratio=%r" % inp["ratio"], "--mode", inp["mode"],
            "--gauge-ratio=%r" % inp["gauge_ratio"],
            "--ic=" + ",".join(repr(v) for v in inp["ic"]),
        ]
        return [run_cli("simulate both", argv, outdir / "s")]

    def validate(self, ops):
        rows = max(1, int(round(self._t_max() / (math.pi / 1000.0)))) + 1

        def agree(arrays):
            a = arrays["trajectory_analytic.csv"]
            b = arrays["trajectory_rk4.csv"]
            sup = float(np.max(np.abs(a[:, 2:] - b[:, 2:])))
            return [] if sup <= RK4_SUP_BOUND else ["rk4 vs analytic sup %.3g" % sup]

        validate_cli(
            ops[0],
            "simulate_manifest.json",
            {
                "trajectory_analytic.csv": (TRAJECTORY_HEADER, rows, 6),
                "trajectory_rk4.csv": (TRAJECTORY_HEADER, rows, 6),
            },
            agree,
        )


WORKLOADS = {w.name: w for w in (FigureReport, Rk4Oracle, WignerSpectrum, SimulateBoth)}


def clear(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
