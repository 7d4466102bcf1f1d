"""The model at every scale: m, omega and hbar from 1e-100 to 1e100.

The model reads m, omega and hbar only through the dimensionless pair
a = theta*m*omega/hbar, b = eta/(m*omega*hbar) and the gauge ratio, so
every dimensionless output at a scaled point equals the one at
m = omega = hbar = 1 with the same (a, b, gauge ratio).  The commands
compute on that unit model, the core, so what they write at a scaled point
is the unit run's output, bit for bit, times its unit; a reference test
holds the units themselves to the dimensional formulas.  The CLI census
runs the commands themselves over the same scaled strategy.
"""
import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    PhaseState,
    PhysicalParams,
    QuantumNumbers,
    derived_constants,
    energy_level,
    ground_mode_ic,
    invariant_pair,
    make_gauge,
    propagate_analytic,
    sector_energy_series,
    xi_trajectory,
)
from nclab.algebra import J
from nclab.cli import SOURCES, main, params_from_ratio

from conftest import scaled_physics


def unit_scale(dc):
    """The model at m = omega = hbar = 1 with dc's (a, b, gauge ratio)."""
    p = PhysicalParams(1.0, 1.0, 1.0, dc.params.a, dc.params.b)
    return derived_constants(p, make_gauge(p, dc.gauge.ratio))


@settings(max_examples=150, deadline=None)
@given(scaled_physics(), st.integers(0, 6), st.integers(0, 6))
def test_dimensionless_outputs_are_scale_covariant(dc, n1, n2):
    unit = unit_scale(dc)
    assert abs(dc.gamma / dc.omega_big - unit.gamma / unit.omega_big) <= 1e-14
    w = dc.omega_big / dc.params.omega
    assert abs(w - unit.omega_big) <= 1e-14 * unit.omega_big

    # a*b and (theta/hbar)*(eta/hbar) may differ in the last bit, and
    # sqrt(1 - a*b) in the closed form and the frame map magnifies that by
    # 1/sqrt(1 - a*b) near the critical product; 1e-12 holds for |a*b| <= 0.99.
    x = dc.params.nc_product
    bound = 1e-12 + 1e-14 / math.sqrt(1.0 - x)
    omega_t = np.linspace(0.0, 40.0, 401)
    sources = ["closed_form", "trajectory", "first_order"]
    if x == 0.0:
        sources.append("degenerate_form")
    for source in sources:
        got = sector_energy_series(dc, omega_t, source)
        want = sector_energy_series(unit, omega_t, source)
        gap = max(np.max(np.abs(got.xi1 - want.xi1)), np.max(np.abs(got.xi2 - want.xi2)))
        assert gap <= bound, (source, gap)

    qn = QuantumNumbers(n1, n2)
    level = energy_level(qn, dc) / (dc.hbar * dc.omega_big)
    want = energy_level(qn, unit) / unit.omega_big
    assert abs(level - want) <= 1e-14 * abs(want)


def physics_flags(dc):
    p = dc.params
    return [
        "--m=%r" % p.m, "--omega=%r" % p.omega, "--hbar=%r" % p.hbar,
        "--theta=%r" % p.theta, "--eta=%r" % p.eta, "--gauge-ratio=%r" % dc.gauge.ratio,
    ]


# The census's worst margin per (command, check, measure), over every run
# it made this session; conftest's pytest_terminal_summary prints it.
CENSUS_MARGINS = {}


def run_checked(argv, margins=None):
    """Exit status and failed check names of one in-process run.

    Each check's margin is folded into ``margins``, if given, keeping the
    worst per (command, check).  A one-sided check's margin is its value
    over its upper bound, worst at the largest; a two-sided check's is the
    distance to its nearer side over the half-width of its range, 1 at the
    centre, 0 on a side and negative outside, worst at the smallest.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        rc = main(argv + ["--out", str(out)])
        # Every manifest: sweep writes one per cell and an index.json.
        checks = [
            (man["command"], check)
            for man in (json.loads(path.read_text()) for path in out.rglob("*.json"))
            for check in man.get("checks", [])
        ]
    if margins is not None:
        for command, check in checks:
            (lo, hi), value = check["bound"], check["value"]
            if lo is None:
                key = (command, check["name"], "value / upper bound")
                margins[key] = max(margins.get(key, -math.inf), value / hi)
            else:
                key = (command, check["name"], "nearer side / half-width")
                margin = min(value - lo, hi - value) / (0.5 * (hi - lo))
                margins[key] = min(margins.get(key, math.inf), margin)
    return rc, {check["name"] for _, check in checks if not check["passed"]}


SMALL_XI = ["--t-max", "20", "--grid-points", "200"]
SMALL_WIGNER = ["--n1", "2", "--n2", "1", "--grid-points", "11",
                "--residual-points", "5", "--nodes", "20"]


# Derandomized, so that two sessions running the same tests draw the same
# examples and print the same margin table.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(scaled_physics())
def test_cli_census_every_command_exits_zero(dc):
    flags = physics_flags(dc)
    runs = [
        ["constants"],
        ["simulate", "--method", "both", "--t-max", "3"],
        *(["xi", "--source", s] + SMALL_XI for s in ("closed_form", "first_order", "trajectory")),
        ["figure", "1", "--grid-points", "2000"],
        ["figure", "2", "--grid-points", "500"],
        *(["sweep", "--grid-points", "300", "--mode", m] for m in ("single_theta", "symmetric")),
        ["wigner", *SMALL_WIGNER],
    ]
    if dc.params.nc_product == 0.0:
        runs.append(["xi", "--source", "degenerate_form"] + SMALL_XI)
    # gauge_branch_identity's fixed 1e-14 bound fails beyond a*b = 0.99 at
    # every scale, m = omega = hbar = 1 included; the xfail test below pins it.
    known = {"gauge_branch_identity"} if dc.params.nc_product > 0.99 else set()
    # figure 2's first_order_truncation_ratio measures on the fixed window
    # Omega*t <= 40, too long for its (gamma/Omega)**2 law unless |gamma|/Omega
    # is small; test_cli.py pins it with a strict xfail at gamma/Omega = 0.03.
    truncation = {"first_order_truncation_ratio"}
    for argv in runs:
        allowed = known | truncation if argv[:2] == ["figure", "2"] else known
        rc, failed = run_checked(argv + flags, CENSUS_MARGINS)
        assert rc == 0 or (rc == 1 and failed <= allowed), (argv + flags, rc, failed)


@pytest.mark.xfail(
    strict=True,
    reason="gauge_branch_identity compares (2 lambda mu - 1)**2 with 1 - a*b "
    "relative to 1 - a*b under a fixed 1e-14; its roundoff grows like "
    "1/sqrt(1 - a*b), so it reads 1.9e-14 at a*b = 0.999",
)
def test_constants_near_the_critical_product_passes_its_checks():
    assert run_checked(["constants", "--theta", "1", "--eta", "0.999"]) == (0, set())


def test_wigner_at_extreme_hbar_passes_its_checks():
    # stargen_residual computes on the model's core, where hbar = 1, so
    # nothing overflows at a tiny hbar.
    assert run_checked(["wigner", "--hbar", "1e-90"]) == (0, set())


WIDTH_UNDERFLOW = [
    "--m=3.9399337294215484e-126", "--omega=2.850137953727022e-77",
    "--hbar=1.9834205418067467e-125", "--theta=-4.3077826373342953e+77",
]


def test_trajectory_with_an_underflowing_momentum_width_passes_its_checks():
    # The ground mode's momentum width squared, hbar*alpha/beta, underflows
    # to 0 here; the command computes on the model's core, where it is 1/2.
    argv = ["xi", "--source", "trajectory", *WIDTH_UNDERFLOW]
    assert run_checked(argv) == (0, set())


def test_simulate_with_an_underflowing_momentum_width_passes_its_checks():
    # invariant_pair once squared momenta of 2.7e-164 here, and P.P
    # underflowed to 0 (invariant_quadratic_drift read 2); it now squares
    # P/l_p, of order one.
    assert run_checked(["simulate", "--method", "both", *WIDTH_UNDERFLOW]) == (0, set())


def test_wigner_slice_spans_an_underflowing_momentum_width():
    # hbar*alpha/beta underflows to 0 here; cmd_wigner forms the slice on
    # the model's core and multiplies its axes by l_q and l_p, so the
    # momentum axis is not 0.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        main(["wigner", *SMALL_WIGNER, *WIDTH_UNDERFLOW, "--out", str(out)])
        p1 = np.loadtxt(out / "wigner_slice.csv", delimiter=",", skiprows=1, usecols=2)
    assert np.any(p1 != 0.0)


def test_wigner_with_an_underflowing_momentum_width_passes_its_checks():
    # Once stargen_residual_bound read 1.87 here, as P.P underflowed to 0.
    assert run_checked(["wigner", *SMALL_WIGNER, *WIDTH_UNDERFLOW]) == (0, set())


# ---------------------------------------------------------------------------
# scale covariance of what the commands write, and the units themselves

SCALES = (3.0, 0.7, 1.3)  # m, omega, hbar


def csv_files(argv):
    """Exit status and {relative path: bytes} of the CSV files of one run."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        rc = main(argv + ["--out", str(out)])
        return rc, {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*.csv")}


def columns(data):
    """The numeric columns of a CSV file's rows (a text "0" reads 0.0)."""
    rows = data.decode().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[:6]] for row in rows]).T


@pytest.mark.parametrize("a, b", [(0.3, -0.2), (0.004, 0.0)])
def test_written_files_are_the_unit_runs_times_their_units(a, b):
    # At m = 3, omega = 0.7, hbar = 1.3 with the theta, eta of (a, b) against
    # the run at m = omega = hbar = 1, theta = params.a, eta = params.b.
    m, omega, hbar = SCALES
    p = PhysicalParams(m, omega, hbar, a * hbar / (m * omega), b * m * omega * hbar)
    gauge = ["--gauge-ratio=2.5"]
    scaled = ["--m=%r" % m, "--omega=%r" % omega, "--hbar=%r" % hbar] + gauge
    physics = ["--theta=%r" % p.theta, "--eta=%r" % p.eta]
    unit = ["--theta=%r" % p.a, "--eta=%r" % p.b] + gauge
    dimensionless = [["xi", "--source", s] + SMALL_XI for s in SOURCES if b == 0.0
                     or s != "degenerate_form"]
    dimensionless += [["figure", "1", "--grid-points", "2000"],
                      ["figure", "2", "--grid-points", "500"]]
    for argv in dimensionless:
        got, want = csv_files(argv + scaled + physics), csv_files(argv + unit)
        assert got[0] == want[0] == 0 and got[1] == want[1], argv

    # Each sweep cell is the unit xi run at its cell's (a, 0).
    rc, cells = csv_files(["sweep", "--grid-points", "300"] + scaled)
    assert rc == 0 and len(cells) == 6
    for r in (0.001, 0.002, 0.004):
        cell_a = params_from_ratio(r, base=PhysicalParams(*SCALES)).a
        for source in ("closed_form", "first_order"):
            argv = ["xi", "--source", source, "--grid-points", "300", "--theta=%r" % cell_a]
            rc, want = csv_files(argv + gauge)
            assert rc == 0
            assert cells["r_%g/xi_%s.csv" % (r, source)] == want["xi_%s.csv" % source]

    # simulate and wigner: each column is the unit run's times its unit.
    dc = derived_constants(p, make_gauge(p, 2.5))
    l_q, l_p = dc.l_q, dc.l_p
    argv = ["simulate", "--method", "both", "--t-max", "3"]
    got, want = csv_files(argv + scaled + physics), csv_files(argv + unit)
    assert got[0] == want[0] == 0
    for name in ("trajectory_analytic.csv", "trajectory_rk4.csv"):
        (t, omega_t, *z), (t1, omega_t1, *z1) = columns(got[1][name]), columns(want[1][name])
        assert np.array_equal(t, t1 / omega)
        assert np.array_equal(z, np.array(z1) * np.array([[l_q], [l_q], [l_p], [l_p]]))
        # Omega_t is Trajectory.write_csv's Omega*t of the dimensional
        # trajectory, (omega*Omega_1)*(t_1/omega): two roundings from Omega_1*t_1.
        assert np.all(np.abs(omega_t - omega_t1) <= 4 * np.finfo(float).eps * omega_t1)
    argv = ["wigner"] + SMALL_WIGNER
    got, want = csv_files(argv + scaled + physics), csv_files(argv + unit)
    assert got[0] == want[0] == 0
    units = np.array([[l_q], [1.0], [l_p], [1.0], [(1.0 / hbar) * (1.0 / hbar)]])
    slice_name = "wigner_slice.csv"
    assert np.array_equal(columns(got[1][slice_name]), columns(want[1][slice_name]) * units)


def dimensional_model(p, gauge):
    """K, M and the sector forms S_i in dimensional units, written out: the
    Hamiltonian p**2/2m + m omega**2 q**2/2 of the deformed variables
    (q, p) = M z, with M's entries theta/(2 lambda hbar), eta/(2 mu hbar)."""
    lam, mu = gauge.lam, gauge.mu
    c, d = p.theta / (2.0 * lam * p.hbar), p.eta / (2.0 * mu * p.hbar)
    M = np.array([[lam, 0, 0, -c], [0, lam, c, 0], [0, d, mu, 0], [-d, 0, 0, mu]])
    kq, kp = 0.5 * p.m * p.omega**2, 0.5 / p.m
    sectors = [np.diag([kq, 0, kp, 0]), np.diag([0, kq, 0, kp])]
    return M.T @ sum(sectors) @ M, M, sectors


@pytest.mark.parametrize("m, omega, hbar", list(itertools.product((1e-3, 1e3), repeat=3)))
def test_unit_factors_match_the_dimensional_formulas(m, omega, hbar):
    # The covariance test above takes the units from the library; here the
    # library's dimensional results meet formulas in dimensional units, so
    # a wrong unit factor (l_q for l_p, a missing omega) shows.
    a, b = 0.3, -0.2
    p = PhysicalParams(m, omega, hbar, a * hbar / (m * omega), b * m * omega * hbar)
    dc = derived_constants(p, make_gauge(p, 2.5))
    K, M, sectors = dimensional_model(p, dc.gauge)
    alpha, beta = math.sqrt(K[0, 0]), math.sqrt(K[2, 2])
    big_omega = 2.0 * alpha * beta
    eps = np.finfo(float).eps

    # The ground mode: widths sqrt(hbar beta/2 alpha), sqrt(hbar alpha/2 beta).
    s = 1.0 if a <= b else -1.0
    want = [math.sqrt(hbar * beta / (2 * alpha))] * 2 + [s * math.sqrt(hbar * alpha / (2 * beta))] * 2
    z0 = ground_mode_ic(dc)
    assert np.allclose(z0.as_array(), want, rtol=8 * eps, atol=0.0)

    # The flow up to Omega t = 40 against exp(t A), A = 2 J K, at a state
    # off the ground mode.
    z0 = PhaseState(*(np.array(want) * [1.0, -0.3, 0.6, 1.7]))
    times = np.linspace(0.0, 40.0 / big_omega, 41)
    exact = np.array([scipy.linalg.expm(t * 2.0 * J @ K) @ z0.as_array() for t in times])
    flow = propagate_analytic(z0, dc, times).as_array()
    widths = np.abs(want)
    assert np.max(np.abs(flow - exact) / widths) <= 1e-12

    # X = (alpha/beta)|Q|**2 + (beta/alpha)|P|**2 and L = Q1 P2 - Q2 P1, over hbar.
    q1, q2, p1, p2 = exact.T
    x = (alpha / beta * (q1**2 + q2**2) + beta / alpha * (p1**2 + p2**2)) / hbar
    ell = (q1 * p2 - q2 * p1) / hbar
    got = invariant_pair(PhaseState(*exact.T), dc)
    assert np.max(np.abs(got[0] - x)) <= 64 * eps * np.max(x)
    assert np.max(np.abs(got[1] - ell)) <= 64 * eps * np.max(x)

    # The sector energies (z^T M^T S_i M z) along the flow, to hbar*Omega.
    pair = xi_trajectory(z0, dc, times)
    for got, s_i in zip(pair, sectors):
        want = np.einsum("ni,ij,nj->n", exact, M.T @ s_i @ M, exact)
        assert np.max(np.abs(got - want)) <= 1e-12 * hbar * big_omega
