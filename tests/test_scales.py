"""The model at every scale: m, omega and hbar from 1e-100 to 1e100.

The model reads m, omega and hbar only through the dimensionless pair
a = theta*m*omega/hbar, b = eta/(m*omega*hbar) and the gauge ratio, so
every dimensionless output at a scaled point equals the one at
m = omega = hbar = 1 with the same (a, b, gauge ratio).  The CLI census
runs the commands themselves over the same scaled strategy.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    PhysicalParams,
    QuantumNumbers,
    derived_constants,
    energy_level,
    make_gauge,
    sector_energy_series,
)
from nclab.cli import main

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


def run_checked(argv):
    """Exit status and failed check names of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "out"
        rc = main(argv + ["--out", str(out)])
        # Every manifest: sweep writes one per cell and an index.json.
        failed = {
            check["name"]
            for path in out.rglob("*.json")
            for check in json.loads(path.read_text()).get("checks", [])
            if not check["passed"]
        }
    return rc, failed


SMALL_XI = ["--t-max", "20", "--grid-points", "200"]


@settings(max_examples=40, deadline=None)
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
        ["wigner", "--n1", "2", "--n2", "1", "--grid-points", "11",
         "--residual-points", "5", "--nodes", "20"],
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
        rc, failed = run_checked(argv + flags)
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
    # stargen_residual forms no hbar**-1 or hbar**-2 term, so nothing
    # overflows at a tiny hbar.
    assert run_checked(["wigner", "--hbar", "1e-90"]) == (0, set())


WIDTH_UNDERFLOW = [
    "--m=3.9399337294215484e-126", "--omega=2.850137953727022e-77",
    "--hbar=1.9834205418067467e-125", "--theta=-4.3077826373342953e+77",
]


def test_trajectory_with_an_underflowing_momentum_width_passes_its_checks():
    # The ground mode's momentum width squared, hbar*alpha/beta, underflows
    # to 0 here; ground_mode_ic takes sqrt(hbar) apart, so it does not.
    argv = ["xi", "--source", "trajectory", *WIDTH_UNDERFLOW]
    assert run_checked(argv) == (0, set())


@pytest.mark.xfail(
    strict=True,
    reason="invariant_pair squares the momenta, and P.P underflows to 0 at "
    "this point: invariant_quadratic_drift reads 2 against 1e-10",
)
def test_simulate_with_an_underflowing_momentum_width_passes_its_checks():
    assert run_checked(["simulate", "--method", "both", *WIDTH_UNDERFLOW]) == (0, set())
