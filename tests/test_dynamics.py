"""Exact propagator, Runge-Kutta oracle and conserved quantities."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    NonFiniteState,
    PhaseState,
    PhysicalParams,
    derived_constants,
    eom_rhs,
    ground_mode_ic,
    integrate_numeric,
    invariant_pair,
    make_gauge,
    propagate_analytic,
)
from nclab.dynamics import CSV_HEADER, step_count

from conftest import admissible_physics


def params_for(g_theta, g_eta, m=1.0, omega=1.0, hbar=1.0):
    """Parameter set with prescribed deformation frequency components."""
    return PhysicalParams(
        m, omega, hbar, 2.0 * hbar * g_theta / (m * omega**2), 2.0 * m * hbar * g_eta
    )


def test_rhs_zero_state():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    out = eom_rhs(PhaseState(0.0, 0.0, 0.0, 0.0), dc)
    assert (out.Q1, out.Q2, out.P1, out.P2) == (0.0, 0.0, 0.0, 0.0)


def test_rhs_commutative_frozen():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    out = eom_rhs(PhaseState(1.0, 0.0, 0.0, 0.0), dc)
    assert out.Q1 == 0.0 and out.Q2 == 0.0 and out.P2 == -0.0
    assert abs(out.P1 - (-1.0)) < 1e-15


def test_rhs_at_extreme_scales_is_the_unit_scale_rhs():
    # a = 1e-3, b = 990 at m = omega = 1e100 and gauge ratio 1e3, where the
    # dimensional alpha**2 overflows: eom_rhs computes on the core, so it
    # is the unit-scale model's vector field, to the rounding of the units.
    p = PhysicalParams(1e100, 1e100, 1.0, 1e-203, 9.9e202)
    dc = derived_constants(p, make_gauge(p, 1e3))
    unit = PhysicalParams(1.0, 1.0, 1.0, p.a, p.b)
    z = np.array([[0.3, -0.7, 1.1, 0.4], [-1.2, 0.5, 0.0, 2.0]])
    got = eom_rhs(PhaseState(*(z * dc.state_unit).T), dc).as_array()
    want = eom_rhs(PhaseState(*z.T), derived_constants(unit, make_gauge(unit, 1e3)))
    want = want.as_array()
    assert np.all(np.isfinite(got))
    scaled = got / (dc.omega * dc.state_unit)
    assert np.all(np.abs(scaled - want) <= 4e-16 * np.abs(want)), scaled - want


def test_propagator_consistent_with_rhs():
    # Central difference of the flow is the vector field, at random times.
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = params_for(*rng.uniform(0.0, 0.05, 2), *rng.uniform(0.5, 2.0, 3))
        dc = derived_constants(p)
        ic = PhaseState(*rng.normal(0.0, 1.0, 4))
        t = rng.uniform(0.0, 20.0) / dc.omega_big
        h = 1e-5 / dc.omega_big
        fd = (
            propagate_analytic(ic, dc, t + h).as_array()
            - propagate_analytic(ic, dc, t - h).as_array()
        ) / (2.0 * h)
        rhs = eom_rhs(propagate_analytic(ic, dc, t), dc).as_array()
        assert np.max(np.abs(fd - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_propagator_returns_initial_state_at_zero():
    dc = derived_constants(PhysicalParams(1.3, 0.8, 1.1, 0.02, 0.01))
    ic = PhaseState(0.3, -0.4, 0.5, -0.6)
    out = propagate_analytic(ic, dc, 0.0)
    assert (out.Q1, out.Q2, out.P1, out.P2) == (0.3, -0.4, 0.5, -0.6)


def test_propagator_commutative_is_plain_oscillator():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(0.7, 0.0, 0.2, 0.0)
    ts = np.linspace(0.0, 10.0, 101)
    out = propagate_analytic(ic, dc, ts)
    assert np.max(np.abs(out.Q1 - (0.7 * np.cos(ts) + 0.2 * np.sin(ts)))) < 1e-14


def test_commutative_planes_decouple_exactly():
    # With gamma = 0 the first plane has zero sensitivity to the second.
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ts = np.linspace(0.0, 7.0, 23)
    a = propagate_analytic(PhaseState(0.3, 5.0, 0.4, -2.0), dc, ts)
    b = propagate_analytic(PhaseState(0.3, -1.0, 0.4, 8.0), dc, ts)
    assert np.array_equal(np.asarray(a.Q1), np.asarray(b.Q1))
    assert np.array_equal(np.asarray(a.P1), np.asarray(b.P1))


def test_rk4_matches_analytic():
    rng = np.random.default_rng(22)
    p = params_for(0.011, 0.004, 1.2, 0.9, 1.3)
    dc = derived_constants(p)
    ic = PhaseState(*rng.normal(0.0, 1.0, 4))
    period = 2.0 * math.pi / dc.omega_big
    traj = integrate_numeric(ic, dc, 20.0 * period, period / 2000.0)
    ref = propagate_analytic(ic, dc, traj.times).as_array()
    assert np.max(np.abs(traj.states - ref)) < 1e-8


@settings(max_examples=150, deadline=None)
@given(admissible_physics(), st.integers(0, 2**32 - 1))
def test_rk4_matches_analytic_over_the_whole_domain(dc, seed):
    # Criterion 04's step and bound: dt = period/2000 over two periods, the
    # sup error within 1e-8 of the largest |z| the flow reaches.
    ic = PhaseState(*np.random.default_rng(seed).normal(0.0, 1.0, 4))
    period = 2.0 * math.pi / dc.omega_big
    traj = integrate_numeric(ic, dc, 2.0 * period, period / 2000.0)
    ref = propagate_analytic(ic, dc, traj.times).as_array()
    assert np.max(np.abs(traj.states - ref)) <= 1e-8 * np.max(np.abs(ref))


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(), st.integers(0, 2**32 - 1),
    st.floats(0.0, 40.0), st.floats(0.0, 40.0),
)
def test_flow_composes_from_its_own_output(dc, seed, omega_t1, omega_t):
    # The flow returns the state type it takes: running it from its state at
    # t1 for t more lands where one run for t1 + t does.
    z0 = PhaseState(*np.random.default_rng(seed).normal(0.0, 1.0, 4))
    t1, t = omega_t1 / dc.omega_big, omega_t / dc.omega_big
    mid = propagate_analytic(z0, dc, t1)
    two = propagate_analytic(mid, dc, t).as_array()
    one = propagate_analytic(z0, dc, t1 + t).as_array()
    scale = max(np.max(np.abs(z)) for z in (z0.as_array(), mid.as_array(), one))
    assert np.max(np.abs(two - one)) <= 1e-12 * scale

    period = 2.0 * math.pi / dc.omega_big
    traj = integrate_numeric(mid, dc, 0.25 * period, period / 2000.0)
    assert np.array_equal(traj.states[0], mid.as_array())
    ref = propagate_analytic(mid, dc, traj.times).as_array()
    assert np.max(np.abs(traj.states - ref)) <= 1e-8 * np.max(np.abs(ref))


@settings(max_examples=100, deadline=None)
@given(
    admissible_physics(),
    st.sampled_from([(40.0, math.pi / 1000.0), (40.0, 0.01), (3.0, 0.01), (20.0, 0.05),
                     (2.0 * math.pi, 0.001), (1.0, 0.3)]),
)
def test_rk4_stores_every_step_at_the_analytic_times(dc, omega_pair):
    # simulate --method both compares RK4 with the exact flow it ran on
    # dt * arange(n_steps + 1), so the RK4 times must be those, bit for bit.
    t_end, dt = (x / dc.omega_big for x in omega_pair)
    traj = integrate_numeric(ground_mode_ic(dc), dc, t_end, dt)
    assert np.array_equal(traj.times, dt * np.arange(step_count(t_end, dt) + 1))


def classical_rk4(ic, dc, dt, n_steps):
    """Reference: the four-stage Runge-Kutta loop on eom_rhs, every state kept."""

    def rhs(z):
        return eom_rhs(PhaseState(*z), dc).as_array()

    z = ic.as_array()
    states = [z]
    for _ in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
    return np.array(states)


def test_step_matrix_is_the_classical_rk4_step():
    # One step of R against one four-stage step, at admissible parameters
    # of mixed sign, a large step and a skewed gauge.
    ic = PhaseState(0.3, -0.7, 1.1, 0.4)
    for theta, eta in ((0.3, -0.5), (-0.2, 0.4), (-0.6, -0.9)):
        p = PhysicalParams(1.3, 0.8, 1.1, theta, eta)
        dc = derived_constants(p, make_gauge(p, 2.5))
        dt = 0.3 / dc.omega_big
        one = integrate_numeric(ic, dc, dt, dt).states[1]
        ref = classical_rk4(ic, dc, dt, 1)[1]
        assert np.max(np.abs(one - ref)) <= 1e-14 * np.max(np.abs(ref))
    # The pinned `simulate --theta 0.04 --eta 0.01 --method both --t-max 4`
    # run: default m, omega, hbar and gauge, ground-mode start, dt = pi/1000
    # in Omega*t units.
    p = PhysicalParams(1.0, 1.0, 1.0, 0.04, 0.01)
    dc = derived_constants(p)
    ic = ground_mode_ic(dc)
    dt = math.pi / 1000.0 / dc.omega_big
    traj = integrate_numeric(ic, dc, 4.0 / dc.omega_big, dt)
    assert len(traj.times) == 1274
    ref = classical_rk4(ic, dc, dt, len(traj.times) - 1)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(23)
    p = params_for(0.02, 0.007, 0.8, 1.1, 0.9)
    dc = derived_constants(p)
    ic = PhaseState(*rng.normal(0.0, 1.0, 4))
    period = 2.0 * math.pi / dc.omega_big
    t_end = 10.0 * period

    def sup_err(dt):
        traj = integrate_numeric(ic, dc, t_end, dt)
        ref = propagate_analytic(ic, dc, traj.times).as_array()
        return np.max(np.abs(traj.states - ref))

    ratio = sup_err(period / 1000.0) / sup_err(period / 2000.0)
    assert 12.0 <= ratio <= 20.0


def test_rk4_periodic_return_commutative():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(1.0, 0.0, 0.0, 0.5)
    period = 2.0 * math.pi
    traj = integrate_numeric(ic, dc, period, period / 2000.0)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-8


def test_rk4_invariant_drift():
    p = params_for(0.01, 0.002)
    dc = derived_constants(p)
    ic = PhaseState(0.5, -0.2, 0.3, 0.8)
    period = 2.0 * math.pi / dc.omega_big
    traj = integrate_numeric(ic, dc, 20.0 * period, period / 2000.0, stride=10)
    i1 = (
        dc.alpha / dc.beta * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
        + dc.beta / dc.alpha * (traj.states[:, 2] ** 2 + traj.states[:, 3] ** 2)
    )
    assert (i1.max() - i1.min()) < 1e-8 * i1[0]


def test_invariants_zero_state():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    assert invariant_pair(PhaseState(0.0, 0.0, 0.0, 0.0), dc) == (0.0, 0.0)


def test_invariants_initial_values():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0, 0.03, 0.01))
    x, y, px, py = 0.4, -0.7, 0.2, 0.9
    i1, i2 = invariant_pair(PhaseState(x, y, px, py), dc)
    r = dc.alpha / dc.beta
    assert abs(i1 - (r * (x**2 + y**2) + (px**2 + py**2) / r)) < 1e-15
    assert abs(i2 - (x * py - y * px)) < 1e-15


def test_invariants_constant_over_beats():
    for g_theta, g_eta in ((0.02, 0.0), (0.0, 0.013), (0.008, 0.011)):
        p = params_for(g_theta, g_eta, 1.1, 0.9, 1.2)
        dc = derived_constants(p)
        ic = PhaseState(0.6, 0.1, -0.4, 0.8)
        ts = np.linspace(0.0, 3.0 * math.pi / dc.gamma, 5000)
        out = propagate_analytic(ic, dc, ts)
        i1, i2 = invariant_pair(out, dc)
        i1 = np.asarray(i1)
        i2 = np.asarray(i2)
        assert (i1.max() - i1.min()) <= 1e-10 * abs(i1[0])
        assert (i2.max() - i2.min()) <= 1e-10 * max(abs(i2[0]), abs(i1[0]))


def test_integrate_validates_arguments():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrate_numeric(ic, dc, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_numeric(ic, dc, -1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_numeric(ic, dc, 1.0, 0.1, stride=0)
    # An infinite span has no whole step count (once an OverflowError).
    with pytest.raises(ValueError):
        integrate_numeric(ic, dc, math.inf, 0.1)


def test_integrate_blowup_raises():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(1.0, 0.0, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            integrate_numeric(ic, dc, 8000.0, 200.0)


def test_stride_keeps_every_nth_row():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    ic = PhaseState(1.0, 0.0, 0.0, 0.0)
    full = integrate_numeric(ic, dc, 1.0, 0.01)
    thin = integrate_numeric(ic, dc, 1.0, 0.01, stride=10)
    assert thin.states.shape == (11, 4)
    assert np.array_equal(thin.states, full.states[::10])
    assert np.array_equal(thin.times, full.times[::10])


def test_trajectory_csv_round_trips(tmp_path):
    p = params_for(0.01, 0.005)
    dc = derived_constants(p)
    traj = integrate_numeric(PhaseState(0.3, 0.1, -0.2, 0.4), dc, 1.0, 0.05)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + len(traj.times)
    for k, row in enumerate(rows[1:]):
        assert float(row[0]) == traj.times[k]
        assert float(row[1]) == dc.omega_big * traj.times[k]
        assert [float(v) for v in row[2:]] == list(traj.states[k])
