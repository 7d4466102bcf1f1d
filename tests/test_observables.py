"""Mode energies, beating laws, closed forms and the first-order window."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclab import (
    DegenerateFormMisuse,
    DomainError,
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
    sector_energy_series,
    sw_to_commutative,
    sw_to_nc,
    xi_closed,
    xi_closed_rate,
    xi_dot_first_order,
    xi_first_order,
    xi_trajectory,
    xi_trajectory_rate,
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
    return derived_constants(p, make_gauge(p, ratio=ratio))


def paper_xi(dc, t, i):
    return xi_closed(dc, paper_coefficients(dc), t, i)


def degenerate_xi(dc, t, i):
    return xi_closed(dc, degenerate_coefficients(dc), t, i)


def sector_energy(nc, params, i):
    """The oracle of xi_trajectory: sector i's physical energy
    p_i**2/2m + m w**2 q_i**2/2, field by field on the deformed variables."""
    q = nc.q1 if i == 1 else nc.q2
    p = nc.p1 if i == 1 else nc.p2
    return p**2 / (2.0 * params.m) + 0.5 * params.m * params.omega**2 * q**2


def on_degenerate_surface(dc):
    """The drawn parameters moved onto theta*eta = 0, four times: the
    position deformation alone and the momentum deformation alone, each
    with either sign, so gamma takes both signs."""
    p = dc.params
    for theta, eta in ((p.theta, 0.0), (-p.theta, 0.0), (0.0, p.eta), (0.0, -p.eta)):
        q = PhysicalParams(p.m, p.omega, p.hbar, theta, eta)
        yield derived_constants(q, make_gauge(q, ratio=dc.gauge.ratio))


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
    ic = ground_mode_ic(dc)
    w = math.sqrt(0.5)
    assert abs(ic.Q1 - w) < 1e-15 and abs(ic.Q2 - w) < 1e-15
    assert abs(ic.P1 - w) < 1e-15 and abs(ic.P2 - w) < 1e-15


def test_ground_mode_anisotropic_frozen():
    # alpha/beta = 2 with hbar = 1: positions 0.5, momenta 1.0, times
    # sign(g_eta - g_theta), which is +1 at equality and -1 where the
    # position deformation dominates.
    class DC:
        alpha = 2.0
        beta = 1.0
        hbar = 1.0

    for theta, sign in ((0.0, 1.0), (0.1, -1.0)):
        DC.params = PhysicalParams(1.0, 1.0, 1.0, theta)
        ic = ground_mode_ic(DC)
        assert abs(ic.Q1 - 0.5) < 1e-15 and abs(ic.Q2 - 0.5) < 1e-15
        assert abs(ic.P1 - sign) < 1e-15 and abs(ic.P2 - sign) < 1e-15


def test_mode_energy_initial_split():
    dc = physics(0.004, 0.009)
    st = ground_mode_ic(dc)
    half = 0.5 * dc.hbar * dc.omega_big
    assert abs(mode_energy(st, dc, 1) - half) < 1e-14 * half
    assert abs(mode_energy(st, dc, 2) - half) < 1e-14 * half


def test_mode_energy_beating_law():
    # E_i(t) = (hbar Omega / 2)(1 -+ sin 2 gamma t) along the ground-mode orbit.
    dc = physics(0.012, 0.005, m=1.2, omega=0.9, hbar=1.1)
    ic = ground_mode_ic(dc)
    ts = np.linspace(0.0, math.pi / dc.gamma, 10000)
    out = propagate_analytic(ic, dc, ts)
    scale = dc.hbar * dc.omega_big
    s = np.sin(2.0 * dc.gamma * ts)
    e1 = np.asarray(mode_energy(out, dc, 1))
    e2 = np.asarray(mode_energy(out, dc, 2))
    assert np.max(np.abs(e1 - 0.5 * scale * (1.0 + s))) < 1e-10 * scale
    assert np.max(np.abs(e2 - 0.5 * scale * (1.0 - s))) < 1e-10 * scale
    assert np.max(np.abs(e1 + e2 - scale)) < 1e-12 * scale


def test_mode_energy_full_transfer():
    # At 2 gamma t = pi/2 the whole quantum sits in the first mode.
    dc = physics(0.02, 0.0)
    ic = ground_mode_ic(dc)
    t = math.pi / (4.0 * dc.gamma)
    out = propagate_analytic(ic, dc, t)
    scale = dc.hbar * dc.omega_big
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
    dc = derived_constants(p)
    zero = PhaseState(0.0, 0.0, 0.0, 0.0)
    assert xi_trajectory(zero, dc, 0.0, 1) == 0.0
    assert xi_trajectory(zero, dc, 0.0, 2) == 0.0


def test_sector_energy_frozen_unit():
    # Undeformed, the frame map is the identity: (q1, p1) = (1, 1).
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(1.0, 0.0, 1.0, 0.0)
    assert abs(xi_trajectory(ic, dc, 0.0, 1) - 1.0) < 1e-15
    assert abs(xi_trajectory(ic, dc, 0.0, 2)) < 1e-15


def test_sector_energies_sum_to_hamiltonian():
    # G_1 + G_2 is the physical Hamiltonian of the deformed variables.
    rng = np.random.default_rng(31)
    p = PhysicalParams(1.3, 0.7, 1.2, 0.05, 0.03)
    dc = derived_constants(p, make_gauge(p, 1.7))
    for _ in range(10):
        st = NCState(*rng.normal(0.0, 1.0, 4))
        h = (st.p1**2 + st.p2**2) / (2.0 * p.m) + 0.5 * p.m * p.omega**2 * (
            st.q1**2 + st.q2**2
        )
        z = sw_to_commutative(st, dc)
        total = xi_trajectory(z, dc, 0.0, 1) + xi_trajectory(z, dc, 0.0, 2)
        assert abs(total - h) < 1e-14 * abs(h)


# ---------------------------------------------------------------------------
# closed-form sector energies


def test_xi_closed_initial_values():
    dc = physics(0.015, 0.004)
    g_theta, g_eta = gamma_components(dc.params)
    s_omega = abs(g_theta - g_eta) / dc.omega_big
    scale = dc.hbar * dc.omega_big
    want1 = 0.5 * scale * (1.0 + s_omega)
    want2 = 0.5 * scale * (1.0 - s_omega)
    assert abs(paper_xi(dc, 0.0, 1) - want1) < 1e-13 * scale
    assert abs(paper_xi(dc, 0.0, 2) - want2) < 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@example(physics(0.02, 0.0, m=1.1, omega=0.8, hbar=1.3))
@example(physics(0.0, 0.017, m=1.1, omega=0.8, hbar=1.3))
def test_xi_closed_matches_degenerate_when_one_parameter_vanishes(dc):
    # On theta*eta = 0, for either sign of gamma, the two coefficient pairs
    # agree: both fast coefficients are |gamma|/Omega there.
    for dc in on_degenerate_surface(dc):
        fast_p, slow_p = paper_coefficients(dc)
        fast_d, slow_d = degenerate_coefficients(dc)
        assert abs(fast_p - fast_d) <= 1e-15 and abs(slow_p - slow_d) <= 1e-14
        ts = np.linspace(0.0, 30.0 / dc.omega_big, 400)
        scale = dc.hbar * dc.omega_big
        for i in (1, 2):
            a = np.asarray(paper_xi(dc, ts, i))
            b = np.asarray(degenerate_xi(dc, ts, i))
            assert np.max(np.abs(a - b)) < 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_closed_partition(dc):
    ts = np.linspace(0.0, 50.0 / dc.omega_big, 500)
    scale = dc.hbar * dc.omega_big
    total = np.asarray(paper_xi(dc, ts, 1)) + np.asarray(paper_xi(dc, ts, 2))
    assert np.max(np.abs(total - scale)) < 1e-12 * scale


def test_xi_closed_commutative_is_constant_half():
    dc = physics(0.0, 0.0, m=1.4, omega=0.6, hbar=1.1)
    ts = np.linspace(0.0, 40.0, 300)
    half = 0.5 * dc.hbar * dc.params.omega
    for i in (1, 2):
        vals = np.asarray(paper_xi(dc, ts, i))
        assert np.max(np.abs(vals - half)) < 1e-12 * half


def test_xi_degenerate_frozen_start():
    # gamma/Omega = 0.002 exactly by construction: starts at 0.501 / 0.499.
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    dc = physics(g, 0.0)
    scale = dc.hbar * dc.omega_big
    assert abs(degenerate_xi(dc, 0.0, 1) / scale - 0.501) < 1e-12
    assert abs(degenerate_xi(dc, 0.0, 2) / scale - 0.499) < 1e-12


def test_xi_degenerate_commutative_constant():
    dc = physics(0.0, 0.0)
    ts = np.linspace(0.0, 20.0, 50)
    vals = np.asarray(degenerate_xi(dc, ts, 1))
    assert np.max(np.abs(vals - 0.5)) < 1e-14


def test_xi_degenerate_rejects_doubly_deformed_algebra():
    dc = physics(0.01, 0.02)
    with pytest.raises(DegenerateFormMisuse):
        degenerate_coefficients(dc)


def test_paper_coefficients_guard_domain():
    dc = physics(0.01, 0.003)

    class BadDC:
        alpha = dc.alpha
        beta = dc.beta
        gamma = dc.gamma
        omega_big = 0.5 * dc.gamma  # impossible: Omega >= |gamma| always
        product_lm = dc.product_lm
        params = dc.params

    with pytest.raises(DomainError):
        paper_coefficients(BadDC)


# ---------------------------------------------------------------------------
# trajectory composition of the sector energies


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_trajectory_matches_paper_closed_form(dc):
    # From ground_mode_ic, which starts in the paper's phase, the sector
    # energies along the flow follow the paper's kernel to roundoff.
    ic = ground_mode_ic(dc)
    ts = np.linspace(0.0, 40.0 / dc.omega_big, 200)
    scale = dc.hbar * dc.omega_big
    for i in (1, 2):
        got = np.asarray(xi_trajectory(ic, dc, ts, i))
        want = np.asarray(paper_xi(dc, ts, i))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_trajectory_rate_is_the_closed_rate(dc):
    # The exact rate 2 (G_i z).(A z) along the flow against the paper's
    # closed rate, and against a central difference of xi_trajectory.
    ic = ground_mode_ic(dc)
    ts = np.array([0.0, 0.4, 1.9, 6.3, 40.0]) / dc.omega_big
    h = 1e-6 / dc.omega_big
    scale = dc.hbar * dc.omega_big**2
    for i in (1, 2):
        got = xi_trajectory_rate(ic, dc, ts, i)
        want = xi_closed_rate(dc, paper_coefficients(dc), ts, i)
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        fd = (xi_trajectory(ic, dc, ts + h, i) - xi_trajectory(ic, dc, ts - h, i)) / (2.0 * h)
        assert np.max(np.abs(got - fd)) < 1e-7 * scale


def test_xi_trajectory_matches_xi_closed_when_eta_dominates():
    dc = physics(0.004, 0.024)
    ic = ground_mode_ic(dc)
    ts = np.linspace(0.0, 40.0 / dc.omega_big, 200)
    scale = dc.hbar * dc.omega_big
    for i in (1, 2):
        got = np.asarray(xi_trajectory(ic, dc, ts, i))
        want = np.asarray(paper_xi(dc, ts, i))
        assert np.max(np.abs(got - want)) < 1e-9 * scale


def test_xi_trajectory_starts_in_paper_phase_for_position_deformation():
    # Position-only deformation, where g_theta > g_eta: the ground mode's
    # flipped momenta start the trajectory at the paper's 0.5 (1 + gamma/Omega),
    # at every gauge ratio.
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    for ratio in (0.5, 1.0, 2.0):
        dc = physics(g, 0.0, ratio=ratio)
        ic = ground_mode_ic(dc)
        assert ic.P1 < 0.0 and ic.P2 < 0.0
        scale = dc.hbar * dc.omega_big
        start = float(xi_trajectory(ic, dc, 0.0, 1)) / scale
        assert abs(start - float(paper_xi(dc, 0.0, 1)) / scale) < 1e-12
        assert abs(start - 0.501) < 1e-12


def test_xi_trajectory_partition():
    dc = physics(0.017, 0.003, m=0.8, omega=1.3)
    ic = ground_mode_ic(dc)
    ts = np.linspace(0.0, 60.0 / dc.omega_big, 300)
    scale = dc.hbar * dc.omega_big
    total = np.asarray(xi_trajectory(ic, dc, ts, 1)) + np.asarray(
        xi_trajectory(ic, dc, ts, 2)
    )
    assert np.max(np.abs(total - scale)) < 1e-12 * scale


def test_xi_trajectory_beating_envelope():
    # Over one beat the first sector sweeps essentially [0, hbar Omega].
    dc = physics(0.0, 0.01)
    ic = ground_mode_ic(dc)
    ts = np.linspace(0.0, math.pi / dc.gamma, 100001)
    scale = dc.hbar * dc.omega_big
    vals = np.asarray(xi_trajectory(ic, dc, ts, 1)) / scale
    assert vals.max() > 1.0 - 1e-5
    assert vals.min() < 1e-5
    assert vals.max() < 1.0 + 1e-9 and vals.min() > -1e-9


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_sector_forms_match_the_field_by_field_oracle(dc):
    # z^T G_i z along the ground-mode flow against the physical energy of the
    # mapped fields; the series' trajectory branch holds the same values.
    ic = ground_mode_ic(dc)
    omega_t = np.linspace(0.0, 40.0, 201)
    ts = omega_t / dc.omega_big
    scale = dc.hbar * dc.omega_big
    nc = sw_to_nc(propagate_analytic(ic, dc, ts), dc)
    series = sector_energy_series(dc, omega_t, "trajectory")
    for i, xi in ((1, series.xi1), (2, series.xi2)):
        got = xi_trajectory(ic, dc, ts, i)
        assert np.max(np.abs(got - sector_energy(nc, dc.params, i))) <= 1e-14 * scale
        assert np.array_equal(got / scale, xi)


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_xi_trajectory_does_not_depend_on_the_gauge_ratio(dc):
    # The drawn gauge against ratio 1: the frame, K, M and the initial
    # conditions all change, the sector and mode energies do not.
    unit = derived_constants(dc.params)
    ts = np.linspace(0.0, 40.0 / dc.omega_big, 201)
    scale = dc.hbar * dc.omega_big
    for i in (1, 2):
        got = xi_trajectory(ground_mode_ic(dc), dc, ts, i)
        want = xi_trajectory(ground_mode_ic(unit), unit, ts, i)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    state = propagate_analytic(ground_mode_ic(dc), dc, ts)
    total = mode_energy(state, dc, 1) + mode_energy(state, dc, 2)
    assert np.max(np.abs(total - scale)) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_closed_and_first_order_series_do_not_depend_on_the_gauge_ratio(dc):
    # In units of hbar*Omega, against the ratio-1 constants of the same params.
    unit = derived_constants(dc.params)
    omega_t = np.linspace(0.0, 40.0, 201)
    for source in ("closed_form", "first_order"):
        got = sector_energy_series(dc, omega_t, source)
        want = sector_energy_series(unit, omega_t, source)
        assert np.max(np.abs(got.xi1 - want.xi1)) <= 1e-12, source
        assert np.max(np.abs(got.xi2 - want.xi2)) <= 1e-12, source


@settings(max_examples=150, deadline=None)
@given(admissible_physics(), st.sampled_from(["theta", "eta"]))
def test_degenerate_series_does_not_depend_on_the_gauge_ratio(dc, zeroed):
    # The drawn point moved onto the theta*eta = 0 surface, drawn gauge kept.
    p = replace(dc.params, **{zeroed: 0.0})
    on_surface = derived_constants(p, make_gauge(p, dc.gauge.ratio))
    omega_t = np.linspace(0.0, 40.0, 201)
    got = sector_energy_series(on_surface, omega_t, "degenerate_form")
    want = sector_energy_series(derived_constants(p), omega_t, "degenerate_form")
    assert np.max(np.abs(got.xi1 - want.xi1)) <= 1e-12
    assert np.max(np.abs(got.xi2 - want.xi2)) <= 1e-12


# ---------------------------------------------------------------------------
# first-order window and rates


def test_first_order_starts_at_degenerate_value():
    g = 0.002 / math.sqrt(1.0 - 0.002**2)
    dc = physics(g, 0.0)
    scale = dc.hbar * dc.omega_big
    for i in (1, 2):
        a = xi_first_order(dc, 0.0, i)
        b = degenerate_xi(dc, 0.0, i)
        assert abs(a - b) < 1e-13 * scale


def test_first_order_error_scaling():
    # Relative-to-deviation error drops ~4x when gamma halves; absolute ~8x.
    def rel_and_abs(r):
        g = r / math.sqrt(1.0 - r**2)
        dc = physics(g, 0.0)
        ts = np.linspace(0.0, 40.0 / dc.omega_big, 4001)
        scale = dc.hbar * dc.omega_big
        exact = np.asarray(degenerate_xi(dc, ts, 1))
        approx = np.asarray(xi_first_order(dc, ts, 1))
        dev = np.max(np.abs(exact - 0.5 * scale))
        err = np.max(np.abs(approx - exact))
        return err / dev, err

    rel_hi, abs_hi = rel_and_abs(0.004)
    rel_lo, abs_lo = rel_and_abs(0.002)
    assert 3.2 <= rel_hi / rel_lo <= 4.8
    assert 6.4 <= abs_hi / abs_lo <= 9.6


def test_first_order_rate_frozen_points():
    dc = physics(0.003, 0.0, m=1.2, omega=0.8, hbar=1.1)
    amp = dc.hbar * dc.gamma * dc.omega_big
    assert abs(xi_dot_first_order(dc, 0.0, 1) - amp) < 1e-15 * amp
    t_quarter = math.pi / (4.0 * dc.omega_big)
    assert abs(xi_dot_first_order(dc, t_quarter, 1)) < 1e-12 * amp
    assert abs(xi_dot_first_order(dc, 0.0, 2) + amp) < 1e-15 * amp


def test_first_order_rate_amplitude_exact():
    dc = physics(0.0, 0.005)
    ts = np.linspace(0.0, 4.0 * math.pi / dc.omega_big, 20001)
    rate = np.asarray(xi_dot_first_order(dc, ts, 1))
    amp = dc.hbar * dc.gamma * dc.omega_big
    assert abs(0.5 * (rate.max() - rate.min()) - amp) < 1e-6 * amp


def test_first_order_rate_is_derivative():
    for dc in (physics(0.004, 0.0), physics(-0.004, 0.0)):
        h = 1e-5 / dc.omega_big
        amp = dc.hbar * abs(dc.gamma) * dc.omega_big
        for t in (0.1, 0.9, 2.7):
            fd = (
                xi_first_order(dc, t + h, 1) - xi_first_order(dc, t - h, 1)
            ) / (2.0 * h)
            assert abs(fd - xi_dot_first_order(dc, t, 1)) < 1e-6 * amp


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
@with_hand_picked
def test_closed_rate_is_derivative_of_closed_form(dc):
    h = 1e-6 / dc.omega_big
    scale = dc.hbar * dc.omega_big**2
    coeffs = paper_coefficients(dc)
    for omega_t in (0.0, 0.4, 1.9, 6.3):
        t = omega_t / dc.omega_big
        for i in (1, 2):
            fd = (
                xi_closed(dc, coeffs, t + h, i)
                - xi_closed(dc, coeffs, t - h, i)
            ) / (2.0 * h)
            rate = xi_closed_rate(dc, coeffs, t, i)
            assert abs(fd - rate) < 1e-7 * scale


# ---------------------------------------------------------------------------
# series container


def test_series_sources_and_partition():
    dc = physics(0.005, 0.012)
    omega_t = np.linspace(0.0, 40.0, 101)
    for source in SOURCES:
        if source == "degenerate_form":
            continue
        series = sector_energy_series(dc, omega_t, source)
        assert series.source == source
        total = series.xi1 + series.xi2
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_series_degenerate_source():
    dc = physics(0.01, 0.0)
    series = sector_energy_series(dc, np.linspace(0.0, 10.0, 11), "degenerate_form")
    assert np.max(np.abs(series.xi1 + series.xi2 - 1.0)) < 1e-12


def test_series_rejects_unknown_source():
    dc = physics(0.01, 0.0)
    with pytest.raises(ValueError):
        sector_energy_series(dc, np.linspace(0.0, 1.0, 5), "splines")


def test_series_csv(tmp_path):
    import csv as csv_mod

    dc = physics(0.0, 0.008)
    series = sector_energy_series(dc, np.linspace(0.0, 5.0, 6), "closed_form")
    path = tmp_path / "xi.csv"
    series.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 7
    assert rows[1][3] == "closed_form"
    assert float(rows[1][0]) == 0.0
    assert [float(r[1]) for r in rows[1:]] == list(series.xi1)
