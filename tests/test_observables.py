"""Mode energies, beating laws, closed forms and the first-order window."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from nclab import (
    DegenerateFormMisuse,
    DomainError,
    InitialConditions,
    PhaseState,
    PhysicalParams,
    degenerate_coefficients,
    derived_constants,
    gamma_components,
    ground_mode_ic,
    make_gauge,
    mode_energy,
    paper_coefficients,
    propagate_analytic,
    sector_energy,
    sector_energy_series,
    signed_coefficients,
    xi_closed,
    xi_closed_rate,
    xi_dot_first_order,
    xi_first_order,
    xi_trajectory,
)
from nclab.observables import CSV_HEADER, SOURCES
from nclab.states import NCState

from conftest import admissible_physics


def params_for(g_theta, g_eta, m=1.0, omega=1.0, hbar=1.0):
    return PhysicalParams(
        m, omega, hbar, 2.0 * hbar * g_theta / (m * omega**2), 2.0 * m * hbar * g_eta
    )


def physics(g_theta, g_eta, ratio=1.0, **kw):
    p = params_for(g_theta, g_eta, **kw)
    gauge = make_gauge(p, ratio=ratio)
    return p, gauge, derived_constants(p, gauge)


def paper_xi(dc, p, t, i):
    return xi_closed(dc, paper_coefficients(dc, p), t, i, p.hbar)


def signed_xi(dc, p, t, i):
    return xi_closed(dc, signed_coefficients(dc, p), t, i, p.hbar)


def degenerate_xi(dc, p, t, i):
    return xi_closed(dc, degenerate_coefficients(dc), t, i, p.hbar)


def on_degenerate_surface(phys):
    """The drawn parameters moved onto theta*eta = 0 with gamma >= 0, twice:
    the position deformation alone, and the momentum deformation alone."""
    p, gauge, _ = phys
    for theta, eta in ((abs(p.theta), 0.0), (0.0, abs(p.eta))):
        q = PhysicalParams(p.m, p.omega, p.hbar, theta, eta)
        g = make_gauge(q, ratio=gauge.ratio)
        yield q, derived_constants(q, g)


# The hand-picked cases of the tests that now take the whole domain.
HAND_PICKED = (
    physics(0.0, 0.02, ratio=0.5, m=1.1, omega=0.9),
    physics(0.03, 0.0, ratio=2.0, m=1.1, omega=0.9),
    physics(0.008, 0.021, m=1.1, omega=0.9),
    physics(0.019, 0.006, ratio=0.5, m=1.1, omega=0.9),
    physics(0.009, 0.016, m=0.9, omega=1.2, hbar=0.8),
    physics(0.006, 0.013, m=1.1, omega=0.7, hbar=1.2),
)


def with_hand_picked(test):
    for phys in HAND_PICKED:
        test = example(phys)(test)
    return test


# ---------------------------------------------------------------------------
# ground-mode initial conditions and mode energies


def test_ground_mode_isotropic():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = ground_mode_ic(dc, 1.0)
    w = math.sqrt(0.5)
    assert abs(ic.x - w) < 1e-15 and abs(ic.y - w) < 1e-15
    assert abs(ic.pi_x - w) < 1e-15 and abs(ic.pi_y - w) < 1e-15


def test_ground_mode_anisotropic_frozen():
    # alpha/beta = 2 with hbar = 1: positions 0.5, momenta 1.0.
    class DC:
        alpha = 2.0
        beta = 1.0

    ic = ground_mode_ic(DC, 1.0)
    assert abs(ic.x - 0.5) < 1e-15 and abs(ic.y - 0.5) < 1e-15
    assert abs(ic.pi_x - 1.0) < 1e-15 and abs(ic.pi_y - 1.0) < 1e-15


def test_mode_energy_initial_split():
    p, gauge, dc = physics(0.004, 0.009)
    ic = ground_mode_ic(dc, p.hbar)
    st = PhaseState(ic.x, ic.y, ic.pi_x, ic.pi_y)
    half = 0.5 * p.hbar * dc.omega_big
    assert abs(mode_energy(st, dc, 1) - half) < 1e-14 * half
    assert abs(mode_energy(st, dc, 2) - half) < 1e-14 * half


def test_mode_energy_beating_law():
    # E_i(t) = (hbar Omega / 2)(1 -+ sin 2 gamma t) along the ground-mode orbit.
    p, gauge, dc = physics(0.012, 0.005, m=1.2, omega=0.9, hbar=1.1)
    ic = ground_mode_ic(dc, p.hbar)
    ts = np.linspace(0.0, math.pi / dc.gamma, 10000)
    out = propagate_analytic(ic, dc, ts)
    scale = p.hbar * dc.omega_big
    s = np.sin(2.0 * dc.gamma * ts)
    e1 = np.asarray(mode_energy(out, dc, 1))
    e2 = np.asarray(mode_energy(out, dc, 2))
    assert np.max(np.abs(e1 - 0.5 * scale * (1.0 + s))) < 1e-10 * scale
    assert np.max(np.abs(e2 - 0.5 * scale * (1.0 - s))) < 1e-10 * scale
    assert np.max(np.abs(e1 + e2 - scale)) < 1e-12 * scale


def test_mode_energy_full_transfer():
    # At 2 gamma t = pi/2 the whole quantum sits in the first mode.
    p, gauge, dc = physics(0.02, 0.0)
    ic = ground_mode_ic(dc, p.hbar)
    t = math.pi / (4.0 * dc.gamma)
    out = propagate_analytic(ic, dc, t)
    scale = p.hbar * dc.omega_big
    assert abs(mode_energy(out, dc, 1) - scale) < 1e-12 * scale
    assert abs(mode_energy(out, dc, 2)) < 1e-12 * scale


def test_mode_energy_validates_index():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        mode_energy(PhaseState(1.0, 0.0, 0.0, 0.0), dc, 3)


# ---------------------------------------------------------------------------
# sector energies of the physical Hamiltonian


def test_sector_energy_zero_state():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.01, 0.02)
    z = NCState(0.0, 0.0, 0.0, 0.0)
    assert sector_energy(z, p, 1) == 0.0
    assert sector_energy(z, p, 2) == 0.0


def test_sector_energy_frozen_unit():
    p = PhysicalParams(1.0, 1.0, 1.0)
    st = NCState(1.0, 0.0, 1.0, 0.0)
    assert abs(sector_energy(st, p, 1) - 1.0) < 1e-15
    assert abs(sector_energy(st, p, 2)) < 1e-15


def test_sector_energies_sum_to_hamiltonian():
    rng = np.random.default_rng(31)
    p = PhysicalParams(1.3, 0.7, 1.2, 0.05, 0.03)
    for _ in range(10):
        st = NCState(*rng.normal(0.0, 1.0, 4))
        h = (st.p1**2 + st.p2**2) / (2.0 * p.m) + 0.5 * p.m * p.omega**2 * (
            st.q1**2 + st.q2**2
        )
        total = sector_energy(st, p, 1) + sector_energy(st, p, 2)
        assert abs(total - h) < 1e-14 * abs(h)


# ---------------------------------------------------------------------------
# closed-form sector energies


def test_xi_closed_initial_values():
    p, gauge, dc = physics(0.015, 0.004)
    s_omega = abs(gamma_components(p)[0] - gamma_components(p)[1]) / dc.omega_big
    scale = p.hbar * dc.omega_big
    want1 = 0.5 * scale * (1.0 + s_omega)
    want2 = 0.5 * scale * (1.0 - s_omega)
    assert abs(paper_xi(dc, p, 0.0, 1) - want1) < 1e-13 * scale
    assert abs(paper_xi(dc, p, 0.0, 2) - want2) < 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@example(physics(0.02, 0.0, m=1.1, omega=0.8, hbar=1.3))
@example(physics(0.0, 0.017, m=1.1, omega=0.8, hbar=1.3))
def test_xi_closed_matches_degenerate_when_one_parameter_vanishes(phys):
    # On theta*eta = 0 with gamma >= 0 the two coefficient pairs agree; the
    # paper's fast coefficient is |gamma|/Omega there, so gamma < 0 is excluded.
    for p, dc in on_degenerate_surface(phys):
        fast_p, slow_p = paper_coefficients(dc, p)
        fast_d, slow_d = degenerate_coefficients(dc)
        assert abs(fast_p - fast_d) <= 1e-15 and abs(slow_p - slow_d) <= 1e-14
        ts = np.linspace(0.0, 30.0 / dc.omega_big, 400)
        scale = p.hbar * dc.omega_big
        for i in (1, 2):
            a = np.asarray(paper_xi(dc, p, ts, i))
            b = np.asarray(degenerate_xi(dc, p, ts, i))
            assert np.max(np.abs(a - b)) < 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_closed_partition(phys):
    p, gauge, dc = phys
    ts = np.linspace(0.0, 50.0 / dc.omega_big, 500)
    scale = p.hbar * dc.omega_big
    for form in (paper_xi, signed_xi):
        total = np.asarray(form(dc, p, ts, 1)) + np.asarray(form(dc, p, ts, 2))
        assert np.max(np.abs(total - scale)) < 1e-12 * scale


def test_xi_closed_commutative_is_constant_half():
    p, gauge, dc = physics(0.0, 0.0, m=1.4, omega=0.6, hbar=1.1)
    ts = np.linspace(0.0, 40.0, 300)
    half = 0.5 * p.hbar * p.omega
    for i in (1, 2):
        vals = np.asarray(paper_xi(dc, p, ts, i))
        assert np.max(np.abs(vals - half)) < 1e-12 * half


def test_xi_degenerate_frozen_start():
    # gamma/Omega = 0.002 exactly by construction: starts at 0.501 / 0.499.
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    p, gauge, dc = physics(g, 0.0)
    scale = p.hbar * dc.omega_big
    assert abs(degenerate_xi(dc, p, 0.0, 1) / scale - 0.501) < 1e-12
    assert abs(degenerate_xi(dc, p, 0.0, 2) / scale - 0.499) < 1e-12


def test_xi_degenerate_commutative_constant():
    p, gauge, dc = physics(0.0, 0.0)
    ts = np.linspace(0.0, 20.0, 50)
    vals = np.asarray(degenerate_xi(dc, p, ts, 1))
    assert np.max(np.abs(vals - 0.5)) < 1e-14


def test_xi_degenerate_rejects_doubly_deformed_algebra():
    p, gauge, dc = physics(0.01, 0.02)
    with pytest.raises(DegenerateFormMisuse):
        degenerate_coefficients(dc)


def test_paper_coefficients_guard_domain():
    p, gauge, dc = physics(0.01, 0.003)

    class BadDC:
        alpha = dc.alpha
        beta = dc.beta
        gamma = dc.gamma
        omega_big = 0.5 * dc.gamma  # impossible: Omega >= |gamma| always
        product_lm = dc.product_lm

    for coefficients in (paper_coefficients, signed_coefficients):
        with pytest.raises(DomainError):
            coefficients(BadDC, p)


# ---------------------------------------------------------------------------
# trajectory composition of the sector energies


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_trajectory_matches_signed_closed_form(phys):
    # Sector energies along the flow follow the closed form whose fast
    # coefficient carries the sign of gamma_eta - gamma_theta.
    p, gauge, dc = phys
    ic = ground_mode_ic(dc, p.hbar)
    ts = np.linspace(0.0, 40.0 / dc.omega_big, 200)
    scale = p.hbar * dc.omega_big
    for i in (1, 2):
        got = np.asarray(xi_trajectory(ic, dc, p, gauge, ts, i))
        want = np.asarray(signed_xi(dc, p, ts, i))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_xi_trajectory_matches_xi_closed_when_eta_dominates():
    p, gauge, dc = physics(0.004, 0.024)
    ic = ground_mode_ic(dc, p.hbar)
    ts = np.linspace(0.0, 40.0 / dc.omega_big, 200)
    scale = p.hbar * dc.omega_big
    for i in (1, 2):
        got = np.asarray(xi_trajectory(ic, dc, p, gauge, ts, i))
        want = np.asarray(paper_xi(dc, p, ts, i))
        assert np.max(np.abs(got - want)) < 1e-9 * scale


def test_xi_trajectory_gap_for_position_deformation():
    # Position-only deformation flips the fast term: at t = 0 the gap to the
    # unsigned closed form equals gamma/Omega, and it is gauge independent.
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    gaps = []
    for ratio in (0.5, 1.0, 2.0):
        p, gauge, dc = physics(g, 0.0, ratio=ratio)
        ic = ground_mode_ic(dc, p.hbar)
        scale = p.hbar * dc.omega_big
        gap = abs(
            float(xi_trajectory(ic, dc, p, gauge, 0.0, 1))
            - float(paper_xi(dc, p, 0.0, 1))
        ) / scale
        gaps.append(gap)
    for gap in gaps:
        assert abs(gap - 0.002) < 1e-12
    assert max(gaps) - min(gaps) < 1e-12


def test_xi_trajectory_partition():
    p, gauge, dc = physics(0.017, 0.003, m=0.8, omega=1.3)
    ic = ground_mode_ic(dc, p.hbar)
    ts = np.linspace(0.0, 60.0 / dc.omega_big, 300)
    scale = p.hbar * dc.omega_big
    total = np.asarray(xi_trajectory(ic, dc, p, gauge, ts, 1)) + np.asarray(
        xi_trajectory(ic, dc, p, gauge, ts, 2)
    )
    assert np.max(np.abs(total - scale)) < 1e-12 * scale


def test_xi_trajectory_beating_envelope():
    # Over one beat the first sector sweeps essentially [0, hbar Omega].
    p, gauge, dc = physics(0.0, 0.01)
    ic = ground_mode_ic(dc, p.hbar)
    ts = np.linspace(0.0, math.pi / dc.gamma, 100001)
    scale = p.hbar * dc.omega_big
    vals = np.asarray(xi_trajectory(ic, dc, p, gauge, ts, 1)) / scale
    assert vals.max() > 1.0 - 1e-5
    assert vals.min() < 1e-5
    assert vals.max() < 1.0 + 1e-9 and vals.min() > -1e-9


# ---------------------------------------------------------------------------
# first-order window and rates


def test_first_order_starts_at_degenerate_value():
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    p, gauge, dc = physics(g, 0.0)
    scale = p.hbar * dc.omega_big
    for i in (1, 2):
        a = xi_first_order(dc, 0.0, i, p.hbar)
        b = degenerate_xi(dc, p, 0.0, i)
        assert abs(a - b) < 1e-13 * scale


def test_first_order_error_scaling():
    # Relative-to-deviation error drops ~4x when gamma halves; absolute ~8x.
    def rel_and_abs(r):
        g = r / math.sqrt(1.0 - r**2)
        p, gauge, dc = physics(g, 0.0)
        ts = np.linspace(0.0, 40.0 / dc.omega_big, 4001)
        scale = p.hbar * dc.omega_big
        exact = np.asarray(degenerate_xi(dc, p, ts, 1))
        approx = np.asarray(xi_first_order(dc, ts, 1, p.hbar))
        dev = np.max(np.abs(exact - 0.5 * scale))
        err = np.max(np.abs(approx - exact))
        return err / dev, err

    rel_hi, abs_hi = rel_and_abs(0.004)
    rel_lo, abs_lo = rel_and_abs(0.002)
    assert 3.2 <= rel_hi / rel_lo <= 4.8
    assert 6.4 <= abs_hi / abs_lo <= 9.6


def test_first_order_rate_frozen_points():
    p, gauge, dc = physics(0.003, 0.0, m=1.2, omega=0.8, hbar=1.1)
    amp = p.hbar * dc.gamma * dc.omega_big
    assert abs(xi_dot_first_order(dc, 0.0, 1, p.hbar) - amp) < 1e-15 * amp
    t_quarter = math.pi / (4.0 * dc.omega_big)
    assert abs(xi_dot_first_order(dc, t_quarter, 1, p.hbar)) < 1e-12 * amp
    assert abs(xi_dot_first_order(dc, 0.0, 2, p.hbar) + amp) < 1e-15 * amp


def test_first_order_rate_amplitude_exact():
    p, gauge, dc = physics(0.0, 0.005)
    ts = np.linspace(0.0, 4.0 * math.pi / dc.omega_big, 20001)
    rate = np.asarray(xi_dot_first_order(dc, ts, 1, p.hbar))
    amp = p.hbar * dc.gamma * dc.omega_big
    assert abs(0.5 * (rate.max() - rate.min()) - amp) < 1e-6 * amp


def test_first_order_rate_is_derivative():
    p, gauge, dc = physics(0.004, 0.0)
    h = 1e-5 / dc.omega_big
    amp = p.hbar * dc.gamma * dc.omega_big
    for t in (0.1, 0.9, 2.7):
        fd = (
            xi_first_order(dc, t + h, 1, p.hbar) - xi_first_order(dc, t - h, 1, p.hbar)
        ) / (2.0 * h)
        assert abs(fd - xi_dot_first_order(dc, t, 1, p.hbar)) < 1e-6 * amp


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_closed_rate_is_derivative_of_closed_form(phys):
    p, gauge, dc = phys
    h = 1e-6 / dc.omega_big
    scale = p.hbar * dc.omega_big**2
    for coeffs in (paper_coefficients(dc, p), signed_coefficients(dc, p)):
        for omega_t in (0.0, 0.4, 1.9, 6.3):
            t = omega_t / dc.omega_big
            for i in (1, 2):
                fd = (
                    xi_closed(dc, coeffs, t + h, i, p.hbar)
                    - xi_closed(dc, coeffs, t - h, i, p.hbar)
                ) / (2.0 * h)
                rate = xi_closed_rate(dc, coeffs, t, i, p.hbar)
                assert abs(fd - rate) < 1e-7 * scale


# ---------------------------------------------------------------------------
# series container


def test_series_sources_and_partition():
    p, gauge, dc = physics(0.005, 0.012)
    omega_t = np.linspace(0.0, 40.0, 101)
    for source in SOURCES:
        if source == "degenerate_form":
            continue
        series = sector_energy_series(p, gauge, omega_t, source)
        assert series.source == source
        total = series.xi1 + series.xi2
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_series_degenerate_source():
    p, gauge, dc = physics(0.01, 0.0)
    series = sector_energy_series(p, gauge, np.linspace(0.0, 10.0, 11), "degenerate_form")
    assert np.max(np.abs(series.xi1 + series.xi2 - 1.0)) < 1e-12


def test_series_rejects_unknown_source():
    p, gauge, dc = physics(0.01, 0.0)
    with pytest.raises(ValueError):
        sector_energy_series(p, gauge, np.linspace(0.0, 1.0, 5), "splines")


def test_series_csv(tmp_path):
    import csv as csv_mod

    p, gauge, dc = physics(0.0, 0.008)
    series = sector_energy_series(p, gauge, np.linspace(0.0, 5.0, 6), "closed_form")
    path = tmp_path / "xi.csv"
    series.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 7
    assert rows[1][3] == "closed_form"
    assert float(rows[1][0]) == 0.0
    assert [float(r[1]) for r in rows[1:]] == list(series.xi1)
