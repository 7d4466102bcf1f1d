"""Gauge constraint, frame maps and algebra preservation."""
import math

import numpy as np
import pytest

from nclab import (
    GaugeChoice,
    InvalidGauge,
    MapNotInvertible,
    NCState,
    PhaseState,
    PhysicalParams,
    algebra_residual,
    derived_constants,
    gamma_components,
    make_gauge,
    solve_gauge_product,
    sw_to_commutative,
    sw_to_nc,
)


def random_params(rng, x_low=-0.9, x_high=0.95):
    """Random parameter set with theta*eta/hbar**2 drawn in (x_low, x_high)."""
    m, omega, hbar = rng.uniform(0.5, 2.0, 3)
    x = rng.uniform(x_low, x_high)
    theta = rng.uniform(0.2, 1.5)
    eta = x * hbar**2 / theta
    return PhysicalParams(m, omega, hbar, theta, eta)


def test_gauge_product_commutative_is_exactly_one():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.0, 0.0)
    assert solve_gauge_product(p) == 1.0


def test_gauge_product_frozen_value():
    # theta*eta/hbar**2 = 0.75 gives (1 + sqrt(0.25))/2 = 0.75 on the nose.
    p = PhysicalParams(1.0, 1.0, 1.0, 0.75, 1.0)
    assert solve_gauge_product(p) == 0.75


def test_gauge_product_solves_constraint():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_params(rng, -0.99, 0.99)
        x = p.nc_product
        prod = solve_gauge_product(p)
        resid = abs(prod * (1.0 - prod) - x / 4.0)
        assert resid <= 1e-14 * max(1.0, abs(x) / 4.0)
        # Same constraint, rearranged so it stays conditioned at small x.
        branch = abs((2.0 * prod - 1.0) ** 2 - (1.0 - x))
        assert branch <= 1e-14 * (1.0 - x)


def test_branch_consistency_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        prod = solve_gauge_product(random_params(rng))
        assert abs((2.0 * prod - 1.0) ** 2 + 4.0 * prod * (1.0 - prod) - 1.0) < 1e-15


def test_critical_product_rejected():
    with pytest.raises(MapNotInvertible):
        PhysicalParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(MapNotInvertible):
        PhysicalParams(1.0, 1.0, 1.0, 2.0, 0.7)


def test_nonpositive_scales_rejected():
    for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            PhysicalParams(*bad)


@pytest.mark.parametrize("field", ["m", "omega", "hbar", "theta", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_fields_rejected(field, value):
    kwargs = dict(m=1.0, omega=1.0, hbar=1.0, theta=0.0, eta=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        PhysicalParams(**kwargs)


def test_make_gauge_commutative_ratio_one():
    g = make_gauge(PhysicalParams(1.0, 1.0, 1.0))
    assert g.lam == 1.0 and g.mu == 1.0


def test_make_gauge_frozen_values():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.75, 1.0)
    g1 = make_gauge(p, ratio=1.0)
    assert abs(g1.lam - math.sqrt(0.75)) < 1e-15
    assert abs(g1.mu - math.sqrt(0.75)) < 1e-15
    # ratio 4 with product 0.75: lam = sqrt(3), mu = sqrt(3)/4.
    g4 = make_gauge(p, ratio=4.0)
    assert abs(g4.lam - 1.7320508075688772) < 1e-15
    assert abs(g4.mu - 0.4330127018922193) < 1e-15
    assert abs(g4.lam * g4.mu - 0.75) < 1e-15
    assert abs(g4.ratio - 4.0) < 1e-14


def test_make_gauge_rejects_bad_ratio():
    p = PhysicalParams(1.0, 1.0, 1.0)
    # 1e-320 is positive and finite, but mu = sqrt(product / ratio) overflows.
    for ratio in (0.0, -1.0, float("nan"), float("inf"), 1e-320):
        with pytest.raises(InvalidGauge, match="gauge ratio"):
            make_gauge(p, ratio)


def test_gauge_choice_rejects_nonpositive_entries():
    with pytest.raises(InvalidGauge):
        GaugeChoice(-1.0, 1.0)
    with pytest.raises(InvalidGauge):
        GaugeChoice(1.0, 0.0)


def test_derived_constants_rejects_off_shell_gauge():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.3, 0.3)
    with pytest.raises(InvalidGauge):
        derived_constants(p, GaugeChoice(1.0, 1.0))


def test_derived_constants_commutative():
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    assert abs(dc.alpha**2 - 0.5) < 1e-15
    assert abs(dc.beta**2 - 0.5) < 1e-15
    assert dc.gamma == 0.0
    assert abs(dc.omega_big - 1.0) < 1e-15


def test_derived_constants_single_theta_frozen():
    # m = omega = hbar = 1, theta = 0.004, eta = 0: gamma = theta/2 and
    # Omega**2 = omega**2 + gamma**2.
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0, 0.004, 0.0))
    assert abs(dc.gamma - 0.002) < 1e-18
    assert abs(dc.omega_big - math.sqrt(1.0 + 0.002**2)) < 1e-15


def test_derived_constants_symmetric_frozen():
    # theta = eta = 0.002: gamma = 0.002 and Omega = omega exactly, the
    # gamma**2 and theta*eta contributions cancelling.
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0, 0.002, 0.002))
    assert abs(dc.gamma - 0.002) < 1e-18
    assert abs(dc.omega_big - 1.0) < 1e-15


def test_gamma_components_frozen():
    p = PhysicalParams(1.2, 0.9, 1.3, 0.03, 0.02)
    g_theta, g_eta = gamma_components(p)
    assert abs(g_theta - 1.2 * 0.81 * 0.03 / 2.6) < 1e-17
    assert abs(g_eta - 0.02 / 3.12) < 1e-17
    dc = derived_constants(p)
    assert abs(dc.gamma - (g_theta + g_eta)) < 1e-17


def test_omega_gauge_invariant():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_params(rng)
        vals = [
            derived_constants(p, make_gauge(p, r)).omega_big for r in (0.5, 1.0, 2.0)
        ]
        spread = max(vals) - min(vals)
        assert spread <= 1e-12 * vals[1]


def test_alpha_beta_scale_with_ratio():
    # alpha**2 grows linearly with the gauge ratio, beta**2 shrinks, and
    # the product alpha*beta stays put.
    p = PhysicalParams(1.1, 0.7, 1.2, 0.4, 0.3)
    base = derived_constants(p, make_gauge(p, 1.0))
    for r in (0.5, 2.0, 4.0):
        dc = derived_constants(p, make_gauge(p, r))
        assert abs(dc.alpha**2 - r * base.alpha**2) < 1e-13 * base.alpha**2
        assert abs(dc.beta**2 - base.beta**2 / r) < 1e-13 * base.beta**2
        assert abs(dc.alpha * dc.beta - base.alpha * base.beta) < 1e-13


def test_forward_map_identity_at_commutative():
    p = PhysicalParams(1.0, 1.0, 1.0)
    g = make_gauge(p)
    nc = sw_to_nc(PhaseState(Q1=0.3, Q2=-0.4, P1=0.5, P2=-0.6), p, g)
    assert (nc.q1, nc.q2, nc.p1, nc.p2) == (0.3, -0.4, 0.5, -0.6)


def test_forward_map_frozen_example():
    # theta = 0.004 alone, unit gauge: q1 = Q1 - 0.002*P2 = 0.998.
    p = PhysicalParams(1.0, 1.0, 1.0, 0.004, 0.0)
    nc = sw_to_nc(PhaseState(Q1=1.0, Q2=0.0, P1=0.0, P2=1.0), p, make_gauge(p))
    assert nc.q1 == 0.998
    # General gauge: q1 = lam - (theta/2/hbar)/lam.
    g4 = make_gauge(p, ratio=4.0)
    nc4 = sw_to_nc(PhaseState(Q1=1.0, Q2=0.0, P1=0.0, P2=1.0), p, g4)
    assert abs(nc4.q1 - (g4.lam - 0.002 / g4.lam)) < 1e-15


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_forward_map_non_finite_component_poisons_the_point(bad):
    # Every output sums all four inputs (zero weights too), so one
    # non-finite component leaves no mapped coordinate finite; other
    # points of an array state are unaffected.
    p = PhysicalParams(1.0, 1.0, 1.0, 0.2, 0.1)
    g = make_gauge(p)
    for k in range(4):
        fields = [np.array([0.3, -0.4]) for _ in range(4)]
        fields[k] = np.array([bad, -0.4])
        nc = sw_to_nc(PhaseState(*fields), p, g)
        for v in (nc.q1, nc.q2, nc.p1, nc.p2):
            assert not np.isfinite(v[0])
            assert np.isfinite(v[1])


def test_round_trip_inverse():
    rng = np.random.default_rng(14)
    for k in range(100):
        p = random_params(rng)
        g = make_gauge(p, (0.5, 1.0, 2.0)[k % 3])
        state = PhaseState(*rng.normal(0.0, 1.0, 4))
        back = sw_to_commutative(sw_to_nc(state, p, g), p, g)
        scale = max(1.0, *(abs(v) for v in (state.Q1, state.Q2, state.P1, state.P2)))
        for a, b in (
            (back.Q1, state.Q1),
            (back.Q2, state.Q2),
            (back.P1, state.P1),
            (back.P2, state.P2),
        ):
            assert abs(a - b) <= 1e-13 * scale
        nc = NCState(*rng.normal(0.0, 1.0, 4))
        fwd = sw_to_nc(sw_to_commutative(nc, p, g), p, g)
        for a, b in ((fwd.q1, nc.q1), (fwd.q2, nc.q2), (fwd.p1, nc.p1), (fwd.p2, nc.p2)):
            assert abs(a - b) <= 1e-12


def test_inverse_map_finite_near_critical():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.99, 1.0)
    assert abs(p.nc_product - 0.99) < 1e-15
    g = make_gauge(p)
    out = sw_to_commutative(NCState(1.0, 1.0, 1.0, 1.0), p, g)
    for v in (out.Q1, out.Q2, out.P1, out.P2):
        assert math.isfinite(v)


def test_inverse_map_works_elementwise():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.2, 0.1)
    g = make_gauge(p, 2.0)
    qs = np.linspace(-1.0, 1.0, 7)
    nc = sw_to_nc(PhaseState(Q1=qs, Q2=0.0 * qs, P1=qs, P2=1.0 + qs), p, g)
    back = sw_to_commutative(nc, p, g)
    assert np.max(np.abs(back.Q1 - qs)) < 1e-13


def test_algebra_residual_on_shell():
    rng = np.random.default_rng(15)
    for k in range(100):
        p = random_params(rng)
        g = make_gauge(p, (0.5, 1.0, 2.0)[k % 3])
        assert algebra_residual(p, g) < 1e-12


def test_algebra_residual_detects_off_shell_product():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.3, 0.4)
    g = make_gauge(p)
    bad = GaugeChoice(g.lam * 1.1, g.mu)
    assert algebra_residual(p, bad) > 1e-3


def test_commutative_residual_is_zero():
    p = PhysicalParams(1.0, 1.0, 1.0)
    assert algebra_residual(p, make_gauge(p)) == 0.0
