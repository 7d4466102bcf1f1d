"""Command-line surface: deterministic CSV and manifest reports.

Subcommands
-----------
constants   derived constants plus algebra and gauge checks
simulate    trajectory CSV from the exact flow and/or Runge-Kutta
xi          sector-energy series for any supported source expression
wigner      stargenfunction slice, eigen-equation residuals, normalization
figure      plot-ready data behind the two report figures
sweep       gamma/Omega grid with per-cell manifests and an index

Every setting is declared once: ``_SETTINGS`` gives its parser and its
flag's help, and each command in ``_COMMANDS`` lists the settings it reads
beyond the shared physics block, with their defaults.  A command takes
a flag, and a config-file key, for exactly the settings it reads.  It
resolves them from the defaults, then an optional JSON config file, then
command-line flags (most specific wins), each value through the parser
of its setting, so a config value is refused (exit 2) wherever its flag
would be.  A count takes 4000 or 4000.0, never 1.5 or true; a JSON null
unsets only a setting whose default is unset.  A command then computes,
records its checks (each with its value and its bound) and hands each data
file and manifest to ``main``'s ``RunOutput``, which stages them and, once
the command has returned, commits them all into the output directory.  A
run exits 0 only if every check it ran has passed, and 1 if one failed;
any other exit code leaves no file or directory behind.  Identical
resolved settings produce byte-identical data files and manifests that
differ only in the timestamp field.

Times and steps are given on the command line in dimensionless Omega*t
units so windows transfer between parameter sets.  Every command computes
on the model at m = omega = hbar = 1 (DerivedConstants.core) and applies
m, omega and hbar only to what it writes: times over omega, states times
(l_q, l_q, l_p, l_p), densities over hbar**2; check_scales refuses each
such unit that is not a normal float.  The output directory is --out, else
the config key "out", else $NCLAB_OUT, else ./nclab_out; one whose nearest
existing ancestor is not a directory is refused (exit 2) before the command
computes anything.  No array may have more than MAX_ROWS rows; larger sizes
are refused before anything is allocated or written.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .algebra import (
    DerivedConstants,
    PhysicalParams,
    algebra_residual,
    check_scales,
    derived_constants,
    gamma_components,
    invariant_pair,
    make_gauge,
)
from .dynamics import Trajectory, integrate_numeric, propagate_analytic, step_count
from .errors import NCLabError, UnreachableRatio, exit_code_for
from .manifest import CSV_BLOCK_VALUES, RunManifest, RunOutput
from .manifest import write_csv, write_csv_blocks, write_json
from .observables import (
    CSV_HEADER,
    SOURCES,
    ground_mode_ic,
    paper_coefficients,
    sector_energy_series,
    xi_closed_rate,
    xi_trajectory_rate,
)
from .states import PhaseState
from .wigner import (
    MAX_NODES,
    QuantumNumbers,
    energy_level,
    stargen_residual,
    wigner_eigenfunction,
    wigner_normalization,
)

__all__ = ["params_from_ratio", "build_parser", "main"]

MODES = ("single_theta", "symmetric")
METHODS = ("analytic", "rk4", "both")

# The most rows any one array of a run may have: 50 times the largest default,
# figure 1's 200 000; xi, sweep and figure 1 hold 8 bytes a row plus one block
# (_write_series).  Larger is refused before any allocation: a mistyped size exits 2.
MAX_ROWS = 10**7

WIGNER_SLICE_HEADER = ("Q1", "Q2", "P1", "P2", "rho")
FIG2_HEADER = ("Omega_t", "xi1_rate_over_hOmega2", "first_order_amplitude")


def params_from_ratio(
    ratio: float,
    mode: str = "single_theta",
    base: PhysicalParams = PhysicalParams(1.0, 1.0, 1.0),
) -> PhysicalParams:
    """Physical parameters realising gamma/Omega = ratio exactly.

    m, omega and hbar are those of ``base``; its theta and eta are replaced.
    mode 'single_theta' keeps eta = 0 and realises the ratio with the
    position deformation alone: b = 0 and a = 2r/sqrt(1 - r**2), so
    gamma = omega*a/2 and Omega**2 = omega**2 + gamma**2; theta =
    a*hbar/m/omega.  'symmetric': theta = eta solved from gamma/Omega = r,
    theta = u*hbar/sqrt(1 - r**2 + u**2) with u = 2 r omega/(m omega**2 +
    1/m) <= r, so no square leaves float range; at m = omega = hbar = 1 this
    is theta = eta = r and Omega = omega exactly.  Another mode raises
    ValueError.  Since Omega > |gamma| for every admissible parameter set,
    only ratios in [0, 1) are reachable; anything else raises
    UnreachableRatio.  check_scales refuses a theta, which manifests record,
    outside the normal floats.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), mode))
    if not 0.0 <= ratio < 1.0:
        raise UnreachableRatio(
            "gamma/Omega = %r is outside the reachable range [0, 1)" % (ratio,)
        )
    r, m, omega, hbar = ratio, base.m, base.omega, base.hbar
    if r == 0.0:
        return replace(base, theta=0.0, eta=0.0)
    if mode == "single_theta":
        a = 2.0 * r / math.sqrt(1.0 - r * r)
        theta, eta = a * hbar / m / omega, 0.0
    else:
        u = 2.0 * r * omega / (m * omega * omega + 1.0 / m)
        theta = eta = u * hbar / math.sqrt(1.0 - r * r + u * u)
    check_scales({"theta": theta})
    return replace(base, theta=theta, eta=eta)


def _text(val) -> str:
    if not isinstance(val, str):
        raise ValueError("must be text")
    return val


def _real(val) -> float:
    """A float from text or a JSON number; true, false, null and lists raise."""
    if isinstance(val, str) or type(val) in (int, float):
        try:
            return float(val)
        except (ValueError, OverflowError):  # bad text, or an int past 1e308
            pass
    raise ValueError("must be a number")


def _positive(val) -> float:
    x = _real(val)
    if not 0.0 < x < math.inf:
        raise ValueError("must be positive and finite")
    return x


def _count(lo, hi=math.inf):
    """Parser of a whole number from lo to hi: 4000 or 4000.0, not 1.5 or true."""
    span = "of at least %d" % lo if hi == math.inf else "from %d to %d" % (lo, hi)

    def parse(val) -> int:
        x = _real(val)
        if not (x.is_integer() and lo <= x <= hi):
            raise ValueError("must be a whole number %s" % span)
        try:
            return int(val)  # exact, where text has more digits than a float
        except ValueError:  # "4000.0"
            return int(x)
    return parse


def _one_of(options):
    def parse(val) -> str:
        if val not in options:
            raise ValueError("must be one of %s" % ", ".join(options))
        return val
    return parse


def _reals(val) -> tuple:
    """Floats from comma-separated text or a nonempty JSON list."""
    if isinstance(val, str):
        val = val.split(",")
    if not isinstance(val, (list, tuple)) or not val:
        raise ValueError("must be comma-separated numbers or a list of them")
    return tuple(map(_real, val))


def _initial_state(val) -> tuple:
    xs = _reals(val)
    if len(xs) != 4 or not all(map(math.isfinite, xs)):
        raise ValueError("must be four finite numbers Q1,Q2,P1,P2")
    return xs


# Every setting a command can read: its parser, which turns a flag's text
# or a config file's JSON value into the value the commands read, and its
# flag's help.  PhysicalParams, make_gauge and params_from_ratio check
# their own values, with their own exit codes.  "config" is a flag only.
_SETTINGS = {
    "config": (_text, "JSON settings file; flags override its keys"),
    "out": (_text, "output directory (default $NCLAB_OUT or ./nclab_out)"),
    "m": (_real, "mass"),
    "omega": (_real, "trap frequency"),
    "hbar": (_real, "Planck constant"),
    "theta": (_real, "position-position deformation"),
    "eta": (_real, "momentum-momentum deformation"),
    "ratio": (_real, "target gamma/Omega; takes precedence over theta/eta"),
    "mode": (_one_of(MODES), "how --ratio picks theta and eta: " + ", ".join(MODES)),
    "gauge_ratio": (_real, "lambda/mu of the frame map"),
    "t_max": (_positive, "time span, in Omega*t units"),
    "dt": (_positive, "time step, in Omega*t units"),
    "grid_points": (_count(2, MAX_ROWS), "time samples (wigner: per slice axis)"),
    "method": (_one_of(METHODS), "exact flow, RK4 or both: " + ", ".join(METHODS)),
    "ic": (_initial_state, "initial state Q1,Q2,P1,P2 (default ground mode)"),
    "source": (_one_of(SOURCES), "expression for the series: " + ", ".join(SOURCES)),
    "seed": (_count(0), "seed for sampled phase-space points"),
    "n1": (_count(0), "first quantum number"),
    "n2": (_count(0), "second quantum number"),
    "extent": (_positive, "slice half-width, in Gaussian widths"),
    "residual_points": (_count(1, MAX_ROWS), "number of sampled residual points"),
    # The three normalization rules have nodes - 10, nodes and nodes + 10.
    "nodes": (_count(11, MAX_NODES - 10), "Gauss-Laguerre nodes per mode action"),
    "ratios": (_reals, "comma-separated gamma/Omega grid (sorted ascending)"),
}

# Settings every command reads, with their defaults; each command's own
# are in _COMMANDS.  None means "not set here".
_PHYSICS = {
    "out": None,
    "m": 1.0,
    "omega": 1.0,
    "hbar": 1.0,
    "theta": 0.0,
    "eta": 0.0,
    "ratio": None,
    "mode": "single_theta",
    "gauge_ratio": 1.0,
}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ValueError("config %s must hold a JSON object" % path)
    return cfg


def _resolve(args) -> dict:
    """Merge defaults, config file and flags; flags win, then the file.

    Each value given goes through its setting's parser, and a null is kept
    only where the default is None.  A refusal names the key.
    """
    defaults = dict(_PHYSICS, **_COMMANDS[args.command][2])
    given = _load_config(args.config) if args.config else {}
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(unknown))
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            given[key] = val
    settings = dict(defaults)
    for key, val in given.items():
        if val is None and defaults[key] is None:
            continue
        try:
            settings[key] = _SETTINGS[key][0](val)
        except ValueError as exc:
            raise ValueError("%s %s, got %r" % (key, exc, val)) from None
    if "which" in args:
        settings["which"] = args.which
    return settings


def _physics(s) -> DerivedConstants:
    if s["ratio"] is None:
        params = PhysicalParams(s["m"], s["omega"], s["hbar"], s["theta"], s["eta"])
    else:
        base = PhysicalParams(s["m"], s["omega"], s["hbar"])
        params = params_from_ratio(s["ratio"], s["mode"], base)
    return derived_constants(params, make_gauge(params, s["gauge_ratio"]))


def _cap_rows(what, rows: int) -> None:
    if rows > MAX_ROWS:
        raise ValueError(
            "%s would need %d rows, more than MAX_ROWS = %d" % (what, rows, MAX_ROWS)
        )


def cmd_constants(s, out: RunOutput) -> None:
    dc = _physics(s)
    params = dc.params
    man = RunManifest("constants", s, dc)

    x = params.nc_product
    root = 2.0 * dc.product_lm - 1.0  # = sqrt(1 - a b)
    resid = abs(dc.product_lm * (1.0 - dc.product_lm) - x / 4.0)
    man.check("gauge_product_residual", resid, 1e-14 * max(1.0, abs(x) / 4.0))
    branch = abs(root * root - (1.0 - x)) / (1.0 - x)
    man.check("gauge_branch_identity", branch, 1e-14)

    # Omega/omega from the gauge product and from sqrt(1 - a b + (gamma/omega)**2).
    g = dc.gamma / params.omega
    w_gauge = math.sqrt(root * root + g * g)
    w_plain = math.sqrt(1.0 - x + g * g)
    man.check("omega_identity", abs(w_gauge - w_plain) / w_plain, 1e-12)
    w_built = dc.omega_big / params.omega
    man.check("omega_construction", abs(w_built - w_plain) / w_plain, 1e-12)
    man.check("algebra_residual", algebra_residual(params, dc.gauge), 1e-12)
    if params.theta == 0.0 and params.eta == 0.0:
        comm = abs(dc.omega_big - params.omega) / params.omega
        man.check("commutative_limit", comm, 1e-15)
    if s["ratio"] is not None:
        r_err = abs(dc.gamma / dc.omega_big - s["ratio"])
        man.check("ratio_match", r_err, 1e-12)

    g_theta, g_eta = gamma_components(params)
    man.add_measured("gamma_theta", g_theta)
    man.add_measured("gamma_eta", g_eta)
    man.add_measured("nc_product", x)
    man.add_measured("gamma_over_omega_big", dc.gamma / dc.omega_big)

    rows = [("alpha", dc.alpha), ("beta", dc.beta), ("gamma", dc.gamma),
            ("Omega", dc.omega_big), ("lambda*mu", dc.product_lm),
            ("lambda", dc.gauge.lam), ("mu", dc.gauge.mu),
            ("gamma/Omega", dc.gamma / dc.omega_big)]
    width = max(len(name) for name, _ in rows)
    for name, val in rows:
        print("%-*s  %.6g" % (width, name, val))
    out.finish(man, "constants_manifest.json")


def _invariant_drift(states: np.ndarray, dc) -> tuple[float, float]:
    """Spreads of the two flow invariants over rows (Q1, Q2, P1, P2), over |X(0)|."""
    i1, i2 = invariant_pair(PhaseState(*states.T), dc)
    scale = abs(float(i1[0])) or 1.0
    return float(i1.max() - i1.min()) / scale, float(i2.max() - i2.min()) / scale


def _state_gap(states, exact, trajectory) -> float:
    """sup|states - exact| over max|z| of the exact trajectory (1 if it is 0):
    z scales with the gauge ratio, a relative gap does not."""
    scale = float(np.max(np.abs(trajectory))) or 1.0
    return float(np.max(np.abs(states - exact))) / scale


def cmd_simulate(s, out: RunOutput) -> None:
    method = s["method"]
    dc = _physics(s)
    u, unit = dc.core, dc.state_unit
    check_scales({"1/omega": 1.0 / dc.omega, "l_q": dc.l_q, "l_p": dc.l_p})
    z0 = ground_mode_ic(u) if s["ic"] is None else PhaseState(*(np.array(s["ic"]) / unit))
    t_end = s["t_max"] / u.omega_big
    dt = s["dt"] / u.omega_big
    n_steps = step_count(t_end, dt)
    _cap_rows("t_max / dt", n_steps + 1)
    man = RunManifest("simulate", s, dc)

    def write(name, times, states):
        traj = Trajectory(times=times / dc.omega, states=states * unit, constants=dc)
        out.write(man, name, traj.write_csv)

    analytic_states = None
    if method in ("analytic", "both"):
        times = dt * np.arange(n_steps + 1)
        analytic_states = propagate_analytic(z0, u, times).as_array()
        write("trajectory_analytic.csv", times, analytic_states)
        d1, d2 = _invariant_drift(analytic_states, u)
        man.check("invariant_quadratic_drift", d1, 1e-10)
        man.check("invariant_angular_drift", d2, 1e-10)
        if u.gamma == 0.0:
            periods = s["t_max"] / (2.0 * math.pi)
            if round(periods) >= 1 and abs(periods - round(periods)) < 1e-9:
                gap = _state_gap(analytic_states[-1], analytic_states[0], analytic_states)
                man.check("periodic_return", gap, 1e-8)

    if method in ("rk4", "both"):
        traj_n = integrate_numeric(z0, u, t_end, dt)
        write("trajectory_rk4.csv", traj_n.times, traj_n.states)
        d1, d2 = _invariant_drift(traj_n.states, u)
        man.check("invariant_quadratic_drift_rk4", d1, 1e-8)
        man.check("invariant_angular_drift_rk4", d2, 1e-8)
        if analytic_states is not None:
            # RK4 stores every step, so its times are the analytic run's.
            gap = _state_gap(traj_n.states, analytic_states, analytic_states)
            man.check("rk4_matches_analytic", gap, 1e-8)
    out.finish(man, "simulate_manifest.json")


def _pair_row(series, closed) -> tuple:
    """max |xi_i - closed xi_i| for i = 1, 2, and max |closed xi1 - 1/2|."""
    gaps = np.max(np.abs(series.xi1 - closed.xi1)), np.max(np.abs(series.xi2 - closed.xi2))
    return (*gaps, np.max(np.abs(closed.xi1 - 0.5)))


def _first_order_rel_err(gap1, gap2, dev) -> float:
    """Gap of the first-order series to the closed one, over its beat deviation."""
    return float(max(gap1, gap2) / dev) if dev > 0.0 else 0.0


def _write_series(out, man, name, dc, omega_t, source, stats) -> np.ndarray:
    """Stage file ``name``, the ``source`` series on ``omega_t``, written CSV_BLOCK_VALUES
    rows (three formatter calls) at a time.  Returns a row a block, max |xi1 + xi2 - 1|
    then ``stats(block)``, which the checks reduce again, as over the whole grid."""
    rows = []

    def blocks():
        for i in range(0, len(omega_t), CSV_BLOCK_VALUES):
            b = sector_energy_series(dc, omega_t[i : i + CSV_BLOCK_VALUES], source)
            rows.append((np.max(np.abs(b.xi1 + b.xi2 - 1.0)), *stats(b)))
            yield [b.times, b.xi1, b.xi2, b.source]

    out.write(man, name, write_csv_blocks, CSV_HEADER, blocks())
    return np.array(rows)


def cmd_xi(s, out: RunOutput) -> None:
    source = s["source"]
    dc = _physics(s)
    u = dc.core
    omega_t = np.linspace(0.0, s["t_max"], s["grid_points"])
    man = RunManifest("xi", s, dc)

    def stats(block):  # trajectory and first_order are held to the closed form
        if source in ("trajectory", "first_order"):
            return _pair_row(block, sector_energy_series(u, block.times))
        return ()

    rows = _write_series(out, man, "xi_%s.csv" % source, u, omega_t, source, stats)
    part, *pair = np.max(rows, axis=0)
    man.check("energy_partition", part, 1e-12)
    if source == "trajectory":
        man.check("trajectory_matches_closed", max(pair[:2]), 1e-9)
    if source == "first_order":
        man.add_measured("first_order_rel_err", _first_order_rel_err(*pair))
    out.finish(man, "xi_manifest.json")


def cmd_wigner(s, out: RunOutput) -> None:
    n, nodes, n_points = s["grid_points"], s["nodes"], s["residual_points"]
    _cap_rows("grid_points**2", n * n)
    # The coarsest normalization rule, nodes - 10 Gauss-Laguerre nodes, is
    # exact up to degree 2 (nodes - 10) - 1 in each mode action.
    top = 2 * (nodes - 10) - 1
    for key in ("n1", "n2"):
        if s[key] > top:
            raise ValueError(
                "%s must be at most 2*(nodes - 10) - 1 = %d, got %d" % (key, top, s[key])
            )
    extent = s["extent"]
    qn = QuantumNumbers(s["n1"], s["n2"])
    dc = _physics(s)
    params, hb, u, unit = dc.params, dc.hbar, dc.core, dc.state_unit
    man = RunManifest("wigner", s, dc)
    # The widths in the core's units; the slice's axes, its spans, its
    # density and the residual report's values are multiplied by their units.
    w_q, w_p = math.sqrt(u.beta / u.alpha), math.sqrt(u.alpha / u.beta)
    per_area, per_action = (1.0 / hb) * (1.0 / hb), dc.omega / hb
    check_scales({
        "2*extent*w_q*l_q": 2 * extent * w_q * dc.l_q,
        "2*extent*w_p*l_p": 2 * extent * w_p * dc.l_p,
        "1/hbar**2": per_area, "omega/hbar": per_action, "hbar*omega": hb * dc.omega,
    })

    q_axis = np.linspace(-extent * w_q, extent * w_q, n)
    p_axis = np.linspace(-extent * w_p, extent * w_p, n)
    grid_q, grid_p = np.meshgrid(q_axis, p_axis, indexing="ij")
    rho = wigner_eigenfunction(PhaseState(grid_q, 0.0, grid_p, 0.0), qn, u)
    columns = [grid_q.ravel() * dc.l_q, "0", grid_p.ravel() * dc.l_p, "0",
               rho.ravel() * per_area]
    out.write(man, "wigner_slice.csv", write_csv, WIGNER_SLICE_HEADER, columns)

    energy = energy_level(qn, u)
    z = np.random.default_rng(s["seed"]).uniform(-2.0, 2.0, (n_points, 4))
    z *= np.array([w_q, w_q, w_p, w_p])
    pts = PhaseState(*z.T)
    residuals = np.broadcast_to(stargen_residual(pts, qn, u), n_points)
    rhos = wigner_eigenfunction(pts, qn, u)
    records = [
        {"point": point, "n1": qn.n1, "n2": qn.n2, "rho": rho0 * per_area,
         "residual_re": res.real * per_action, "residual_im": res.imag * per_action,
         "rel": max(abs(res.real), abs(res.imag)) / abs(energy * rho0)}
        for point, res, rho0 in zip((z * unit).tolist(), residuals.tolist(), rhos.tolist())
    ]
    report = {"energy": energy * (hb * dc.omega), "n1": qn.n1, "n2": qn.n2,
              "records": records}
    out.write(man, "wigner_residuals.json", write_json, report)
    # np.max, unlike max(), carries a NaN residual through to the check.
    worst = float(np.max([r["rel"] for r in records]))
    man.check("stargen_residual_bound", worst, 1e-6)

    spread_e = max(
        abs(energy_level(qn, derived_constants(params, make_gauge(params, r)).core)
            - energy) for r in (0.5, 1.0, 2.0)
    )
    man.check("spectrum_gauge_invariance", spread_e, 1e-12 * abs(energy))

    rules = (nodes - 10, nodes, nodes + 10)
    norms = [wigner_normalization(qn, u, n_nodes=k) for k in rules]
    man.add_measured("wigner_normalization", norms[1])
    man.check("normalization_stable", max(norms) - min(norms), 1e-6)
    # Stability alone would pass a prefactor that is off by a constant.
    man.check("normalization_unit", abs(norms[1] - 1.0), 1e-9)
    out.finish(man, "wigner_manifest.json")


def _envelope_row(block, beat) -> tuple:
    """(Omega*t, xi1) at argmax xi1 and (Omega*t, xi2) at argmin xi2 over Omega*t <= beat;
    the rows past it, a suffix of the grid, are masked with -inf and +inf."""
    head = block.times <= beat
    top, bottom = np.where(head, block.xi1, -np.inf), np.where(head, block.xi2, np.inf)
    i, j = np.argmax(top), np.argmin(bottom)
    return block.times[i], top[i], block.times[j], bottom[j]


def _envelopes(rows) -> tuple:
    """_write_series rows of _envelope_row: (top, xi1), (bottom, xi2), partition."""
    i, j = np.argmax(rows[:, 2]), np.argmin(rows[:, 4])
    return rows[i, 1:3], rows[j, 3:5], np.max(rows[:, 0])


def cmd_figure(s, out: RunOutput) -> None:
    if s["ratio"] is None and s["theta"] == 0.0 and s["eta"] == 0.0:
        s["ratio"] = 0.002
    which = s["which"]
    n = s["grid_points"] or (200000 if which == 1 else 4000)
    dc = _physics(s)
    params, u = dc.params, dc.core
    if u.gamma == 0.0:
        raise ValueError("figure data needs gamma != 0; set --ratio or deformations")
    man = RunManifest("figure", s, dc)
    # Each check expects the ground-mode trajectory at the times it reads.

    if which == 1:
        beat = math.pi * u.omega_big / abs(u.gamma)
        full_t = np.linspace(0.0, 3.0 * beat, n)
        rows = _write_series(out, man, "figure1_full.csv", u, full_t, "closed_form",
                             functools.partial(_envelope_row, beat=beat))

        t_max = 40.0 if s["t_max"] is None else s["t_max"]
        zoom_t = np.linspace(0.0, min(t_max, 3.0 * beat), 4000)
        zoom = sector_energy_series(u, zoom_t, "closed_form")
        out.write(man, "figure1_zoom.csv", zoom.write_csv)

        (top, env_max), (bottom, env_min), part = _envelopes(rows)
        traj = sector_energy_series(u, np.array([full_t[0], top, bottom]), "trajectory")
        want_max, want_min = float(traj.xi1[1]), float(traj.xi2[2])
        man.check("envelope_max_xi1", env_max, want_max + 1e-3, want_max - 1e-3)
        man.check("envelope_min_xi2", env_min, want_min + 1e-3, want_min - 1e-3)
        man.check("energy_partition", part, 1e-12)

        start1 = float(zoom.xi1[0])
        start2 = float(zoom.xi2[0])
        man.add_measured("zoom_start_xi1", start1)
        man.add_measured("zoom_start_xi2", start2)
        man.check("zoom_start_xi1_match", abs(start1 - float(traj.xi1[0])), 1e-9)
        man.check("zoom_start_xi2_match", abs(start2 - float(traj.xi2[0])), 1e-9)
    else:
        span = 4.0 * math.pi if s["t_max"] is None else s["t_max"]
        # The rate over hbar*Omega**2, formed on the core, where it is Omega_1**2.
        omega_t = np.linspace(0.0, span, n)
        t = omega_t / u.omega_big
        unit = u.hbar * u.omega_big * u.omega_big
        rate = np.asarray(xi_closed_rate(u, paper_coefficients(u), t)[0] / unit)
        target = abs(u.gamma) / u.omega_big
        out.write(man, "figure2.csv", write_csv, FIG2_HEADER, [omega_t, rate, target])

        amplitude = 0.5 * float(np.max(rate) - np.min(rate))
        extremes = t[[np.argmax(rate), np.argmin(rate)]]
        exact = xi_trajectory_rate(ground_mode_ic(u), u, extremes)[0] / unit
        reference = 0.5 * float(exact[0] - exact[1])
        man.add_measured("rate_amplitude", amplitude)
        man.add_measured("rate_amplitude_target", target)
        man.check("rate_amplitude_match", abs(amplitude - reference) / reference, 1e-3)

        if params.nc_product == 0.0:
            window = np.linspace(0.0, 40.0, 4001)
            half = replace(params, theta=params.theta / 2.0, eta=params.eta / 2.0)
            errs = []
            for d in (u, derived_constants(half, make_gauge(half, dc.gauge.ratio)).core):
                first = sector_energy_series(d, window, "first_order")
                closed = sector_energy_series(d, window, "closed_form")
                errs.append(_first_order_rel_err(*_pair_row(first, closed)))
            man.add_measured("first_order_rel_err", errs[0])
            man.check("first_order_truncation_ratio", errs[0] / errs[1], 4.8, 3.2)
    out.finish(man, "figure%d_manifest.json" % which)


def cmd_sweep(s, out: RunOutput) -> None:
    ratios = s["ratios"] = sorted(s["ratios"])
    physics = [_physics(dict(s, ratio=r)) for r in ratios]
    if ratios[0] == 0.0:
        # Each cell's error is relative to the beat amplitude, zero at ratio 0.
        raise ValueError("sweep ratios must be positive, got 0")
    names = ["r_%s" % format(r, "g") for r in ratios]
    if len(set(names)) < len(names):
        # Two cells would share one directory and be checked against each other.
        raise ValueError("sweep ratios must be distinct cells, got %s" % ", ".join(names))
    omega_t = np.linspace(0.0, s["t_max"], s["grid_points"])

    cells = []
    for r, name, dc in zip(ratios, names, physics):
        cman = RunManifest("sweep-cell", dict(s, ratio=r), dc)
        # The cheap first-order series is each closed block's partner, then its own file.
        first = functools.partial(sector_energy_series, dc.core, source="first_order")
        rows = _write_series(out, cman, name + "/xi_closed_form.csv", dc.core, omega_t,
                             "closed_form", lambda b: _pair_row(first(b.times), b))
        _write_series(out, cman, name + "/xi_first_order.csv", dc.core, omega_t,
                      "first_order", lambda b: ())
        part, *pair = np.max(rows, axis=0)
        cman.check("energy_partition", part, 1e-12)
        err = _first_order_rel_err(*pair)
        cman.add_measured("first_order_rel_err", err)
        cman.add_measured("gamma_over_omega_big", dc.gamma / dc.omega_big)
        out.finish(cman, name + "/manifest.json")
        cells.append({"ratio": r, "dir": name, "manifest": name + "/manifest.json",
                      "first_order_rel_err": err})
        print("cell %s: first_order_rel_err = %.6g" % (name, err))

    man = RunManifest("sweep", s)
    if s["mode"] == "single_theta":
        # Truncation error grows as the square of the ratio; adjacent
        # cells must reproduce that power law.
        for low, high in zip(cells, cells[1:]):
            expected = (high["ratio"] / low["ratio"]) ** 2
            low_err = low["first_order_rel_err"]
            # A lower cell without error (too short a span) shows no power law.
            got = high["first_order_rel_err"] / low_err if low_err else math.inf
            label = "error_scaling_%s_to_%s" % (low["dir"], high["dir"])
            man.check(label, got, 1.2 * expected, 0.8 * expected)
    out.finish(man, "index.json", cells=cells)


# name -> (function, help, the settings it reads beyond _PHYSICS with their
# defaults).  Those settings are the command's flags and config keys.
_COMMANDS = {
    "constants": (cmd_constants, "derived constants and algebra checks", {}),
    "simulate": (cmd_simulate, "trajectory CSV from the exact flow and/or Runge-Kutta",
                 {"t_max": 40.0, "dt": math.pi / 1e3, "method": "analytic", "ic": None}),
    "xi": (cmd_xi, "sector-energy series for a chosen source",
           {"t_max": 40.0, "grid_points": 4000, "source": "closed_form"}),
    "wigner": (cmd_wigner, "stargenfunction slice, residual report, normalization",
               {"seed": 0, "n1": 0, "n2": 0, "grid_points": 81, "extent": 3.0,
                "residual_points": 20, "nodes": 40}),
    # figure 1 defaults to 200 000 grid points, figure 2 to 4000.
    "figure": (cmd_figure, "plot-ready data behind the report figures",
               {"t_max": None, "grid_points": None}),
    "sweep": (cmd_sweep, "gamma/Omega grid with per-cell manifests",
              {"ratios": (0.001, 0.002, 0.004), "t_max": 40.0, "grid_points": 2000}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclab",
        description="Deformed-oscillator simulations: CSV data plus run manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == "figure":
            p.add_argument("which", type=int, choices=(1, 2))
        # Flags collect text; _resolve parses it like a config value.
        for key in ("config", *_PHYSICS, *defaults):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_SETTINGS[key][1])
        p.set_defaults(func=func)
    return parser


# main parses with one parser, built on first use: building it (79 flags)
# costs some thirty parses.  A parse leaves no state on the parser.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        s = _resolve(args)
        # The output location is where the run lands, not what it computes.
        root = s.pop("out") or os.environ.get("NCLAB_OUT") or "nclab_out"
        with RunOutput(root) as out:
            args.func(s, out)
            return out.commit()
    except NCLabError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exit_code_for(exc)
    except (ValueError, OSError) as exc:  # OSError: staging, writing or commit
        print("error:", exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
