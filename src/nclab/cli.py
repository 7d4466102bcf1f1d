"""Command-line surface: deterministic CSV and manifest reports.

Subcommands
-----------
constants   derived constants plus algebra and gauge checks
simulate    trajectory CSV from the exact flow and/or Runge-Kutta
xi          sector-energy series for any supported source expression
wigner      stargenfunction slice, eigen-equation residuals, normalization
figure      plot-ready data behind the two report figures
sweep       gamma/Omega grid with per-cell manifests and an index

Every command resolves its settings from built-in defaults, then an
optional JSON config file, then command-line flags (most specific wins),
writes its data files plus a run manifest into the output directory, and
exits 0 only if every invariant check it ran has passed.  Identical
resolved settings produce byte-identical data files and manifests that
differ only in the timestamp field.

Times and steps are given on the command line in dimensionless Omega*t
units so windows transfer between parameter sets.  The output directory is
--out, else the config key "out", else $NCLAB_OUT, else ./nclab_out.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import (
    DerivedConstants,
    PhysicalParams,
    algebra_residual,
    derived_constants,
    gamma_components,
    make_gauge,
)
from .dynamics import Trajectory, integrate_numeric, invariant_pair, propagate_analytic
from .errors import CHECKS_FAILED_EXIT, NCLabError, UnreachableRatio, exit_code_for
from .manifest import TOOL_VERSION, RunManifest, write_csv, write_json
from .observables import (
    SOURCES,
    SectorEnergySeries,
    ground_mode_ic,
    paper_coefficients,
    sector_energy_series,
    signed_coefficients,
    xi_closed,
    xi_closed_rate,
)
from .states import InitialConditions, PhaseState
from .wigner import (
    MAX_NODES,
    QuantumNumbers,
    energy_level,
    stargen_residual,
    wigner_eigenfunction,
    wigner_normalization,
)

__all__ = ["RatioSpec", "params_from_ratio", "build_parser", "main"]

MODES = ("single_theta", "symmetric")

WIGNER_SLICE_HEADER = ("Q1", "Q2", "P1", "P2", "rho")
FIG2_HEADER = ("Omega_t", "xi1_rate_over_hOmega2", "first_order_amplitude")


@dataclass(frozen=True)
class RatioSpec:
    """Target beat-to-fast frequency ratio gamma/Omega and how to reach it.

    mode 'single_theta' keeps eta = 0 and realises the ratio with the
    position deformation alone; 'symmetric' sets theta = eta.  Since
    Omega > |gamma| for every admissible parameter set, only ratios in
    [0, 1) are reachable; anything else raises UnreachableRatio.
    """

    ratio: float
    mode: str = "single_theta"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(
                "mode must be one of %s, got %r" % (", ".join(MODES), self.mode)
            )
        if not 0.0 <= self.ratio < 1.0:
            raise UnreachableRatio(
                "gamma/Omega = %r is outside the reachable range [0, 1)"
                % (self.ratio,)
            )


def params_from_ratio(
    spec: RatioSpec, base: PhysicalParams = PhysicalParams(1.0, 1.0, 1.0)
) -> PhysicalParams:
    """Physical parameters realising gamma/Omega = spec.ratio exactly.

    m, omega and hbar are those of ``base``; its theta and eta are replaced.
    single_theta: gamma = r*omega/sqrt(1 - r**2) and theta = 2*hbar*gamma
    / (m*omega**2); then Omega**2 = omega**2 + gamma**2 and the ratio comes
    out to r up to roundoff.  symmetric: theta = eta chosen so the two
    deformation frequencies are equal; with m = omega = hbar = 1 this
    reduces to theta = eta = r and Omega = omega exactly.
    """
    r, m, omega, hbar = spec.ratio, base.m, base.omega, base.hbar
    if r == 0.0:
        return replace(base, theta=0.0, eta=0.0)
    if spec.mode == "single_theta":
        gamma = r * omega / math.sqrt(1.0 - r * r)
        return replace(base, theta=2.0 * hbar * gamma / (m * omega**2), eta=0.0)
    k = (m * omega**2 + 1.0 / m) / (2.0 * hbar)
    theta = r * omega / math.sqrt(k * k * (1.0 - r * r) + (r * omega / hbar) ** 2)
    return replace(base, theta=theta, eta=theta)


# Settings shared by every command; per-command extras are added in the
# command functions.  None means "not set here".
_DEFAULTS = {
    "m": 1.0,
    "omega": 1.0,
    "hbar": 1.0,
    "theta": 0.0,
    "eta": 0.0,
    "ratio": None,
    "mode": "single_theta",
    "gauge_ratio": 1.0,
    "seed": 0,
    "out": None,
}


def _load_config(path) -> dict:
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError("cannot read config %s: %s" % (path, exc))
    with fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ValueError("config %s must hold a JSON object" % path)
    return cfg


def _resolve(args, extra_defaults: dict) -> dict:
    """Merge defaults, config file and flags; flags win, then the file."""
    settings = dict(_DEFAULTS)
    settings.update(extra_defaults)
    path = getattr(args, "config", None)
    if path:
        cfg = _load_config(path)
        unknown = sorted(set(cfg) - set(settings))
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(unknown))
        settings.update(cfg)
    for key in settings:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def _out_dir(settings) -> Path:
    out = settings.get("out") or os.environ.get("NCLAB_OUT") or "nclab_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_params(settings) -> PhysicalParams:
    if settings["ratio"] is not None:
        spec = RatioSpec(ratio=float(settings["ratio"]), mode=settings["mode"])
        base = PhysicalParams(
            float(settings["m"]), float(settings["omega"]), float(settings["hbar"])
        )
        return params_from_ratio(spec, base)
    return PhysicalParams(
        float(settings["m"]),
        float(settings["omega"]),
        float(settings["hbar"]),
        float(settings["theta"]),
        float(settings["eta"]),
    )


def _physics(settings) -> DerivedConstants:
    params = _build_params(settings)
    return derived_constants(params, make_gauge(params, float(settings["gauge_ratio"])))


def _manifest_args(settings) -> dict:
    # The output location is where the run landed, not what it computed.
    return {k: v for k, v in settings.items() if k != "out"}


def _positive_finite(settings, *keys) -> None:
    for key in keys:
        if not 0.0 < float(settings[key]) < math.inf:
            raise ValueError(
                "%s must be positive and finite, got %r" % (key, settings[key])
            )


def _grid_points(settings, default=None) -> int:
    """The resolved number of time samples; a time grid needs at least two."""
    n = settings["grid_points"]
    n = int(default if n is None else n)
    if n < 2:
        raise ValueError("grid_points must be at least 2, got %d" % n)
    return n


def _print_checks(checks) -> None:
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print("check %s: %s (%.6g)" % (c["name"], status, c["value"]))


def _add_output(man: RunManifest, path) -> None:
    man.add_output(path)
    print("wrote", path)


def _finish(man: RunManifest, path) -> int:
    man.write(path)
    print("wrote", path)
    if not man.all_passed():
        print("one or more checks failed", file=sys.stderr)
        return CHECKS_FAILED_EXIT
    return 0


def cmd_constants(args) -> int:
    s = _resolve(args, {})
    dc = _physics(s)
    params = dc.params
    outdir = _out_dir(s)
    man = RunManifest("constants", _manifest_args(s), dc)

    x = params.nc_product
    resid = abs(dc.product_lm * (1.0 - dc.product_lm) - x / 4.0)
    man.add_check(
        "gauge_product_residual", resid <= 1e-14 * max(1.0, abs(x) / 4.0), resid
    )
    branch = abs((2.0 * dc.product_lm - 1.0) ** 2 - (1.0 - x)) / (1.0 - x)
    man.add_check("gauge_branch_identity", branch <= 1e-14, branch)

    w_gauge = math.sqrt(
        (2.0 * dc.product_lm - 1.0) ** 2 * params.omega**2 + dc.gamma**2
    )
    w_plain = math.sqrt(params.omega**2 * (1.0 - x) + dc.gamma**2)
    w_rel = abs(w_gauge - w_plain) / w_plain
    man.add_check("omega_identity", w_rel <= 1e-12, w_rel)
    w_con = abs(dc.omega_big - w_plain) / w_plain
    man.add_check("omega_construction", w_con <= 1e-12, w_con)

    alg = algebra_residual(params, dc.gauge)
    man.add_check("algebra_residual", alg <= 1e-12, alg)
    if params.theta == 0.0 and params.eta == 0.0:
        comm = abs(dc.omega_big - params.omega) / params.omega
        man.add_check("commutative_limit", comm <= 1e-15, comm)
    if s["ratio"] is not None:
        r_err = abs(dc.gamma / dc.omega_big - float(s["ratio"]))
        man.add_check("ratio_match", r_err <= 1e-12, r_err)

    g_theta, g_eta = gamma_components(params)
    man.add_measured("gamma_theta", g_theta)
    man.add_measured("gamma_eta", g_eta)
    man.add_measured("nc_product", x)
    man.add_measured("gamma_over_omega_big", dc.gamma / dc.omega_big)

    rows = [
        ("alpha", dc.alpha),
        ("beta", dc.beta),
        ("gamma", dc.gamma),
        ("Omega", dc.omega_big),
        ("lambda*mu", dc.product_lm),
        ("lambda", dc.gauge.lam),
        ("mu", dc.gauge.mu),
        ("gamma/Omega", dc.gamma / dc.omega_big),
    ]
    width = max(len(name) for name, _ in rows)
    for name, val in rows:
        print("%-*s  %.6g" % (width, name, val))
    _print_checks(man.checks)
    return _finish(man, outdir / "constants_manifest.json")


def _initial_conditions(settings, dc) -> InitialConditions:
    raw = settings.get("ic")
    if raw is None:
        return ground_mode_ic(dc)
    if isinstance(raw, str):
        raw = raw.split(",")
    vals = [float(v) for v in raw]
    if len(vals) != 4:
        raise ValueError("ic needs exactly four values x,y,pi_x,pi_y")
    return InitialConditions(*vals)


def _invariant_drift(states: np.ndarray, dc) -> tuple[float, float]:
    """Spreads of the two flow invariants over rows (Q1, Q2, P1, P2), over |X(0)|."""
    i1, i2 = invariant_pair(PhaseState(*states.T), dc)
    scale = abs(float(i1[0])) or 1.0
    return float(i1.max() - i1.min()) / scale, float(i2.max() - i2.min()) / scale


def cmd_simulate(args) -> int:
    s = _resolve(
        args,
        {
            "t_max": 40.0,
            "dt": math.pi / 1000.0,
            "method": "analytic",
            "ic": None,
        },
    )
    method = s["method"]
    if method not in ("analytic", "rk4", "both"):
        raise ValueError("method must be analytic, rk4 or both, got %r" % (method,))
    _positive_finite(s, "t_max", "dt")
    dc = _physics(s)
    ic = _initial_conditions(s, dc)
    outdir = _out_dir(s)
    man = RunManifest("simulate", _manifest_args(s), dc)
    t_end = float(s["t_max"]) / dc.omega_big
    dt = float(s["dt"]) / dc.omega_big

    analytic_states = None
    if method in ("analytic", "both"):
        n_steps = max(1, int(round(t_end / dt)))
        times = dt * np.arange(n_steps + 1)
        analytic_states = propagate_analytic(ic, dc, times).as_array()
        traj = Trajectory(times=times, states=analytic_states, step=dt, constants=dc)
        path = outdir / "trajectory_analytic.csv"
        traj.write_csv(path)
        _add_output(man, path)
        d1, d2 = _invariant_drift(analytic_states, dc)
        man.add_check("invariant_quadratic_drift", d1 <= 1e-10, d1)
        man.add_check("invariant_angular_drift", d2 <= 1e-10, d2)
        if dc.gamma == 0.0:
            periods = float(s["t_max"]) / (2.0 * math.pi)
            if round(periods) >= 1 and abs(periods - round(periods)) < 1e-9:
                gap = float(np.max(np.abs(analytic_states[-1] - analytic_states[0])))
                man.add_check("periodic_return", gap <= 1e-8, gap)

    if method in ("rk4", "both"):
        traj_n = integrate_numeric(ic, dc, t_end, dt)
        path = outdir / "trajectory_rk4.csv"
        traj_n.write_csv(path)
        _add_output(man, path)
        d1, d2 = _invariant_drift(traj_n.states, dc)
        man.add_check("invariant_quadratic_drift_rk4", d1 <= 1e-8, d1)
        man.add_check("invariant_angular_drift_rk4", d2 <= 1e-8, d2)
        if analytic_states is not None:
            ref = propagate_analytic(ic, dc, traj_n.times).as_array()
            sup = float(np.max(np.abs(traj_n.states - ref)))
            man.add_check("rk4_matches_analytic", sup <= 1e-8, sup)

    _print_checks(man.checks)
    return _finish(man, outdir / "simulate_manifest.json")


def _series_pair_gap(a, b) -> float:
    return float(
        max(np.max(np.abs(a.xi1 - b.xi1)), np.max(np.abs(a.xi2 - b.xi2)))
    )


def _first_order_rel_err(first, closed) -> float:
    """Gap of the first-order series to the closed one, over its beat deviation."""
    dev = float(np.max(np.abs(closed.xi1 - 0.5)))
    return _series_pair_gap(first, closed) / dev if dev > 0.0 else 0.0


def cmd_xi(args) -> int:
    s = _resolve(
        args, {"t_max": 40.0, "grid_points": 4000, "source": "closed_form"}
    )
    source = s["source"]
    if source not in SOURCES:
        raise ValueError(
            "source must be one of %s, got %r" % (", ".join(SOURCES), source)
        )
    n = _grid_points(s)
    _positive_finite(s, "t_max")
    dc = _physics(s)
    omega_t = np.linspace(0.0, float(s["t_max"]), n)
    # Before the output directory: the degenerate form refuses theta*eta != 0.
    series = sector_energy_series(dc, omega_t, source)
    outdir = _out_dir(s)
    man = RunManifest("xi", _manifest_args(s), dc)
    path = outdir / ("xi_%s.csv" % source)
    series.write_csv(path)
    _add_output(man, path)

    part = float(np.max(np.abs(series.xi1 + series.xi2 - 1.0)))
    man.add_check("energy_partition", part <= 1e-12, part)

    if source == "trajectory":
        closed = sector_energy_series(dc, omega_t, "closed_form")
        man.add_measured("trajectory_closed_gap", _series_pair_gap(series, closed))
        coeffs = signed_coefficients(dc)
        t = omega_t / dc.omega_big
        scale = dc.hbar * dc.omega_big
        signed = [xi_closed(dc, coeffs, t, i) / scale for i in (1, 2)]
        gap = _series_pair_gap(series, SectorEnergySeries(omega_t, *signed, "signed"))
        man.add_check("trajectory_matches_closed", gap <= 1e-9, gap)

    if source == "first_order":
        closed = sector_energy_series(dc, omega_t, "closed_form")
        man.add_measured("first_order_rel_err", _first_order_rel_err(series, closed))

    _print_checks(man.checks)
    return _finish(man, outdir / "xi_manifest.json")


def cmd_wigner(args) -> int:
    s = _resolve(
        args,
        {
            "n1": 0,
            "n2": 0,
            "grid_points": 81,
            "extent": 3.0,
            "residual_points": 20,
            "nodes": 40,
        },
    )
    n = _grid_points(s)
    nodes = int(s["nodes"])
    if not 11 <= nodes <= MAX_NODES - 10:
        # The three rules have nodes - 10, nodes and nodes + 10 nodes per action.
        raise ValueError(
            "nodes must be from 11 to %d, got %d" % (MAX_NODES - 10, nodes)
        )
    n_points = int(s["residual_points"])
    if n_points < 1:
        raise ValueError("residual_points must be at least 1, got %d" % n_points)
    _positive_finite(s, "extent")
    extent = float(s["extent"])
    seed = int(s["seed"])
    if seed < 0:
        raise ValueError("seed must be nonnegative, got %d" % seed)
    qn = QuantumNumbers(int(s["n1"]), int(s["n2"]))
    dc = _physics(s)
    params, hb = dc.params, dc.hbar
    outdir = _out_dir(s)
    man = RunManifest("wigner", _manifest_args(s), dc)
    w_q = math.sqrt(hb * dc.beta / dc.alpha)
    w_p = math.sqrt(hb * dc.alpha / dc.beta)

    q_axis = np.linspace(-extent * w_q, extent * w_q, n)
    p_axis = np.linspace(-extent * w_p, extent * w_p, n)
    grid_q, grid_p = np.meshgrid(q_axis, p_axis, indexing="ij")
    rho = wigner_eigenfunction(PhaseState(grid_q, 0.0, grid_p, 0.0), qn, dc)
    slice_path = outdir / "wigner_slice.csv"
    write_csv(
        slice_path,
        WIGNER_SLICE_HEADER,
        [grid_q.ravel(), "0", grid_p.ravel(), "0", rho.ravel()],
    )
    _add_output(man, slice_path)

    energy = energy_level(qn, dc)
    u = np.random.default_rng(seed).uniform(-2.0, 2.0, (n_points, 4))
    z = u * np.array([w_q, w_q, w_p, w_p])
    pts = PhaseState(*z.T)
    residuals = np.broadcast_to(stargen_residual(pts, qn, dc), n_points)
    rhos = wigner_eigenfunction(pts, qn, dc)
    records = []
    for point, res, rho0 in zip(z.tolist(), residuals.tolist(), rhos.tolist()):
        rel = max(abs(res.real), abs(res.imag)) / abs(energy * rho0)
        records.append(
            {
                "point": point,
                "n1": qn.n1,
                "n2": qn.n2,
                "rho": rho0,
                "residual_re": res.real,
                "residual_im": res.imag,
                "rel": rel,
            }
        )
    res_path = outdir / "wigner_residuals.json"
    write_json(res_path, {"energy": energy, "n1": qn.n1, "n2": qn.n2, "records": records})
    _add_output(man, res_path)
    # np.max, unlike max(), carries a NaN residual through to the check.
    worst = float(np.max([r["rel"] for r in records]))
    man.add_check("stargen_residual_bound", worst <= 1e-6, worst)

    spread_e = max(
        abs(energy_level(qn, derived_constants(params, make_gauge(params, r))) - energy)
        for r in (0.5, 1.0, 2.0)
    )
    man.add_check(
        "spectrum_gauge_invariance", spread_e <= 1e-12 * abs(energy), spread_e
    )

    norms = [
        wigner_normalization(qn, dc, n_nodes=k)
        for k in (nodes - 10, nodes, nodes + 10)
    ]
    man.add_measured("wigner_normalization", norms[1])
    stability = max(norms) - min(norms)
    man.add_check("normalization_stable", stability <= 1e-6, stability)
    # Stability alone would pass a prefactor that is off by a constant.
    unit_gap = abs(norms[1] - 1.0)
    man.add_check("normalization_unit", unit_gap <= 1e-9, unit_gap)

    _print_checks(man.checks)
    return _finish(man, outdir / "wigner_manifest.json")


def cmd_figure(args) -> int:
    s = _resolve(args, {"t_max": None, "grid_points": None})
    if s["ratio"] is None and s["theta"] == 0.0 and s["eta"] == 0.0:
        s["ratio"] = 0.002
    which = int(args.which)
    n = _grid_points(s, 200000 if which == 1 else 4000)
    if s["t_max"] is not None:
        _positive_finite(s, "t_max")
    dc = _physics(s)
    params = dc.params
    if dc.gamma == 0.0:
        raise ValueError("figure data needs gamma > 0; set --ratio or deformations")
    outdir = _out_dir(s)
    man = RunManifest("figure", dict(_manifest_args(s), which=which), dc)

    if which == 1:
        beat = math.pi * dc.omega_big / dc.gamma
        full_t = np.linspace(0.0, 3.0 * beat, n)
        full = sector_energy_series(dc, full_t, "closed_form")
        path = outdir / "figure1_full.csv"
        full.write_csv(path)
        _add_output(man, path)

        t_max = 40.0 if s["t_max"] is None else float(s["t_max"])
        zoom_t = np.linspace(0.0, min(t_max, 3.0 * beat), 4000)
        zoom = sector_energy_series(dc, zoom_t, "closed_form")
        path = outdir / "figure1_zoom.csv"
        zoom.write_csv(path)
        _add_output(man, path)

        one_beat = full_t <= beat
        env_max = float(np.max(full.xi1[one_beat]))
        env_min = float(np.min(full.xi2[one_beat]))
        man.add_check("envelope_max_xi1", 0.999 <= env_max <= 1.001, env_max)
        man.add_check("envelope_min_xi2", -0.001 <= env_min <= 0.001, env_min)
        part = float(np.max(np.abs(full.xi1 + full.xi2 - 1.0)))
        man.add_check("energy_partition", part <= 1e-12, part)

        r_eff = dc.gamma / dc.omega_big
        start1 = float(zoom.xi1[0])
        start2 = float(zoom.xi2[0])
        man.add_measured("zoom_start_xi1", start1)
        man.add_measured("zoom_start_xi2", start2)
        gap1 = abs(start1 - 0.5 * (1.0 + r_eff))
        gap2 = abs(start2 - 0.5 * (1.0 - r_eff))
        man.add_check("zoom_start_xi1_match", gap1 <= 1e-9, gap1)
        man.add_check("zoom_start_xi2_match", gap2 <= 1e-9, gap2)
    else:
        span = 4.0 * math.pi if s["t_max"] is None else float(s["t_max"])
        omega_t = np.linspace(0.0, span, n)
        t = omega_t / dc.omega_big
        rate = np.asarray(
            xi_closed_rate(dc, paper_coefficients(dc), t, 1)
            / (dc.hbar * dc.omega_big**2)
        )
        target = dc.gamma / dc.omega_big
        path = outdir / "figure2.csv"
        write_csv(path, FIG2_HEADER, [omega_t, rate, target])
        _add_output(man, path)

        amplitude = 0.5 * float(np.max(rate) - np.min(rate))
        man.add_measured("rate_amplitude", amplitude)
        man.add_measured("rate_amplitude_target", target)
        rel = abs(amplitude - target) / target
        man.add_check("rate_amplitude_match", rel <= 1e-3, rel)

        if params.nc_product == 0.0:
            window = np.linspace(0.0, 40.0, 4001)
            half = replace(params, theta=params.theta / 2.0, eta=params.eta / 2.0)
            errs = []
            for d in (dc, derived_constants(half, make_gauge(half, dc.gauge.ratio))):
                first = sector_energy_series(d, window, "first_order")
                closed = sector_energy_series(d, window, "closed_form")
                errs.append(_first_order_rel_err(first, closed))
            man.add_measured("first_order_rel_err", errs[0])
            ratio = errs[0] / errs[1]
            man.add_check("first_order_truncation_ratio", 3.2 <= ratio <= 4.8, ratio)

    _print_checks(man.checks)
    return _finish(man, outdir / ("figure%d_manifest.json" % which))


def cmd_sweep(args) -> int:
    s = _resolve(
        args,
        {"ratios": [0.001, 0.002, 0.004], "t_max": 40.0, "grid_points": 2000},
    )
    raw = s["ratios"]
    if isinstance(raw, str):
        raw = raw.split(",")
    ratios = sorted(float(r) for r in raw)
    if not ratios:
        raise ValueError("empty ratio grid")
    physics = [_physics(dict(s, ratio=r)) for r in ratios]
    if ratios[0] == 0.0:
        # Each cell's error is relative to the beat amplitude, zero at ratio 0.
        raise ValueError("sweep ratios must be positive, got 0")
    names = ["r_%s" % format(r, "g") for r in ratios]
    if len(set(names)) < len(names):
        # Two cells would share one directory and be checked against each other.
        raise ValueError("sweep ratios must be distinct cells, got %s" % ", ".join(names))
    s["ratios"] = ratios
    n = _grid_points(s)
    _positive_finite(s, "t_max")
    outdir = _out_dir(s)
    omega_t = np.linspace(0.0, float(s["t_max"]), n)

    cells = []
    all_ok = True
    for r, name, dc in zip(ratios, names, physics):
        cell_dir = outdir / name
        cell_dir.mkdir(parents=True, exist_ok=True)
        cman = RunManifest("sweep-cell", dict(_manifest_args(s), ratio=r), dc)
        closed = sector_energy_series(dc, omega_t, "closed_form")
        first = sector_energy_series(dc, omega_t, "first_order")
        path = cell_dir / "xi_closed_form.csv"
        closed.write_csv(path)
        cman.add_output(path)
        path = cell_dir / "xi_first_order.csv"
        first.write_csv(path)
        cman.add_output(path)

        part = float(np.max(np.abs(closed.xi1 + closed.xi2 - 1.0)))
        cman.add_check("energy_partition", part <= 1e-12, part)
        err = _first_order_rel_err(first, closed)
        cman.add_measured("first_order_rel_err", err)
        cman.add_measured("gamma_over_omega_big", dc.gamma / dc.omega_big)
        cman.write(cell_dir / "manifest.json")
        all_ok = all_ok and cman.all_passed()
        cells.append(
            {
                "ratio": r,
                "dir": name,
                "manifest": name + "/manifest.json",
                "first_order_rel_err": err,
            }
        )
        print("cell %s: first_order_rel_err = %.6g" % (name, err))

    index_checks = []
    if s["mode"] == "single_theta":
        # Truncation error grows as the square of the ratio; adjacent
        # cells must reproduce that power law.
        for low, high in zip(cells, cells[1:]):
            expected = (high["ratio"] / low["ratio"]) ** 2
            low_err = low["first_order_rel_err"]
            # A lower cell without error (too short a span) shows no power law.
            got = high["first_order_rel_err"] / low_err if low_err else math.inf
            passed = 0.8 * expected <= got <= 1.2 * expected
            index_checks.append(
                {
                    "name": "error_scaling_%s_to_%s" % (low["dir"], high["dir"]),
                    "passed": passed,
                    "value": got,
                    "expected": expected,
                }
            )
            all_ok = all_ok and passed
    index = {
        "cells": cells,
        "checks": index_checks,
        "command": "sweep",
        "tool_version": TOOL_VERSION,
    }
    index_path = outdir / "index.json"
    write_json(index_path, index)
    print("wrote", index_path)
    _print_checks(index_checks)
    if not all_ok:
        print("one or more checks failed", file=sys.stderr)
        return CHECKS_FAILED_EXIT
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON settings file; flags override its keys")
    p.add_argument("--out", help="output directory (default $NCLAB_OUT or ./nclab_out)")
    p.add_argument("--m", type=float, help="mass")
    p.add_argument("--omega", type=float, help="trap frequency")
    p.add_argument("--hbar", type=float, help="Planck constant")
    p.add_argument("--theta", type=float, help="position-position deformation")
    p.add_argument("--eta", type=float, help="momentum-momentum deformation")
    p.add_argument(
        "--ratio", type=float, help="target gamma/Omega; takes precedence over theta/eta"
    )
    p.add_argument("--mode", choices=MODES, help="how --ratio picks the deformations")
    p.add_argument(
        "--gauge-ratio", type=float, dest="gauge_ratio", help="lambda/mu of the frame map"
    )
    p.add_argument(
        "--grid-points", type=int, dest="grid_points", help="number of time samples"
    )
    p.add_argument(
        "--t-max", type=float, dest="t_max", help="time span, in Omega*t units"
    )
    p.add_argument("--dt", type=float, help="time step, in Omega*t units")
    p.add_argument("--seed", type=int, help="seed for sampled phase-space points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclab",
        description="Deformed-oscillator simulations: CSV data plus run manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived constants and algebra checks")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser(
        "simulate", help="trajectory CSV from the exact flow and/or Runge-Kutta"
    )
    _add_common(p)
    p.add_argument("--method", choices=("analytic", "rk4", "both"))
    p.add_argument("--ic", help="initial conditions x,y,pi_x,pi_y (default ground mode)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("xi", help="sector-energy series for a chosen source")
    _add_common(p)
    p.add_argument("--source", choices=SOURCES)
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser(
        "wigner", help="stargenfunction slice, residual report, normalization"
    )
    _add_common(p)
    p.add_argument("--n1", type=int, help="first quantum number")
    p.add_argument("--n2", type=int, help="second quantum number")
    p.add_argument(
        "--extent", type=float, help="slice half-width, in Gaussian widths"
    )
    p.add_argument(
        "--residual-points",
        type=int,
        dest="residual_points",
        help="number of sampled residual points",
    )
    p.add_argument("--nodes", type=int, help="Gauss-Laguerre nodes per mode action")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("figure", help="plot-ready data behind the report figures")
    p.add_argument("which", type=int, choices=(1, 2))
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("sweep", help="gamma/Omega grid with per-cell manifests")
    _add_common(p)
    p.add_argument("--ratios", help="comma-separated gamma/Omega grid (sorted ascending)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NCLabError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exit_code_for(exc)
    except ValueError as exc:
        print("error:", exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
