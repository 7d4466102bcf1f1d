"""Gauge constraint, frame maps and algebra preservation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import (
    DomainError,
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

from conftest import admissible_physics


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


@pytest.mark.parametrize("omega", [1e-300, 1e300])
def test_derived_constants_scales_the_core_at_extreme_omega(omega):
    # The model is built at m = omega = hbar = 1 and only its recorded
    # constants carry omega, so no omega**2 is formed.
    dc = derived_constants(PhysicalParams(1.0, omega, 1.0))
    assert dc.core == derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    assert (dc.alpha, dc.beta) == (omega * dc.core.alpha, dc.core.beta)
    assert (dc.gamma, dc.omega_big) == (0.0, omega * dc.core.omega_big)


@pytest.mark.parametrize(
    "args",
    [(1e-300, 1e-300, 1.0), (1.0, 1.0, 1e-300, 1e10), (1e-308, 1e308, 1.0, 5.0, -5.0)],
    ids=["m-omega", "a", "Omega"],
)
def test_scales_out_of_range_raise_domain_error(args):
    # m*omega (1e-600), a = theta*m*omega/hbar (1e310) and the recorded
    # Omega = omega*sqrt(1 - a*b) (5.1e308).
    with pytest.raises(DomainError):
        derived_constants(PhysicalParams(*args))


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
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0))
    nc = sw_to_nc(PhaseState(Q1=0.3, Q2=-0.4, P1=0.5, P2=-0.6), dc)
    assert (nc.q1, nc.q2, nc.p1, nc.p2) == (0.3, -0.4, 0.5, -0.6)


def test_forward_map_frozen_example():
    # theta = 0.004 alone, unit gauge: q1 = Q1 - 0.002*P2 = 0.998.
    p = PhysicalParams(1.0, 1.0, 1.0, 0.004, 0.0)
    nc = sw_to_nc(PhaseState(Q1=1.0, Q2=0.0, P1=0.0, P2=1.0), derived_constants(p))
    assert nc.q1 == 0.998
    # General gauge: q1 = lam - (theta/2/hbar)/lam.
    g4 = make_gauge(p, ratio=4.0)
    nc4 = sw_to_nc(PhaseState(Q1=1.0, Q2=0.0, P1=0.0, P2=1.0), derived_constants(p, g4))
    assert abs(nc4.q1 - (g4.lam - 0.002 / g4.lam)) < 1e-15


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_forward_map_non_finite_component_poisons_the_point(bad):
    # Every output of either map sums all four inputs (zero weights too), so
    # one non-finite component leaves no mapped coordinate finite; other
    # points of an array state are unaffected.
    dc = derived_constants(PhysicalParams(1.0, 1.0, 1.0, 0.2, 0.1))
    for k in range(4):
        fields = [np.array([0.3, -0.4]) for _ in range(4)]
        fields[k] = np.array([bad, -0.4])
        nc = sw_to_nc(PhaseState(*fields), dc)
        back = sw_to_commutative(NCState(*fields), dc)
        for v in (nc.q1, nc.q2, nc.p1, nc.p2, back.Q1, back.Q2, back.P1, back.P2):
            assert not np.isfinite(v[0])
            assert np.isfinite(v[1])


def test_round_trip_inverse():
    rng = np.random.default_rng(14)
    for k in range(100):
        p = random_params(rng)
        dc = derived_constants(p, make_gauge(p, (0.5, 1.0, 2.0)[k % 3]))
        state = PhaseState(*rng.normal(0.0, 1.0, 4))
        back = sw_to_commutative(sw_to_nc(state, dc), dc)
        scale = max(1.0, *(abs(v) for v in (state.Q1, state.Q2, state.P1, state.P2)))
        for a, b in (
            (back.Q1, state.Q1),
            (back.Q2, state.Q2),
            (back.P1, state.P1),
            (back.P2, state.P2),
        ):
            assert abs(a - b) <= 1e-13 * scale
        nc = NCState(*rng.normal(0.0, 1.0, 4))
        fwd = sw_to_nc(sw_to_commutative(nc, dc), dc)
        for a, b in ((fwd.q1, nc.q1), (fwd.q2, nc.q2), (fwd.p1, nc.p1), (fwd.p2, nc.p2)):
            assert abs(a - b) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(admissible_physics(), st.integers(0, 2**32 - 1))
def test_round_trip_over_the_admissible_domain(dc, seed):
    # Points on the frame's own scale, the oscillator widths of the drawn
    # gauge: M**-1 M z gives z back to roundoff, amplified by the prefactor
    # (1 - theta*eta/hbar**2)**(-1/2) of M**-1.
    w_q = math.sqrt(dc.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(dc.hbar * dc.alpha / dc.beta)
    widths = np.array([w_q, w_q, w_p, w_p])
    z = np.random.default_rng(seed).normal(0.0, 1.0, (16, 4)) * widths
    back = sw_to_commutative(sw_to_nc(PhaseState(*z.T), dc), dc).as_array()
    bound = 1e-14 / math.sqrt(1.0 - dc.params.nc_product)
    assert np.max(np.abs(back - z) / widths) <= bound * np.max(np.abs(z) / widths)


def test_derived_constants_carry_their_inputs():
    p = PhysicalParams(1.1, 0.7, 1.2, 0.4, -0.3)
    g = make_gauge(p, 2.5)
    dc = derived_constants(p, g)
    assert dc.params is p and dc.gauge is g and dc.hbar == 1.2
    # M z is the deformed point: its (q1, p2) and (q2, p1) blocks.
    c, d = 0.4 / (2.0 * g.lam * 1.2), -0.3 / (2.0 * g.mu * 1.2)
    assert np.array_equal(dc.M[np.ix_([0, 3], [0, 3])], [[g.lam, -c], [-d, g.mu]])
    assert np.array_equal(dc.M[np.ix_([1, 2], [1, 2])], [[g.lam, c], [d, g.mu]])
    assert not dc.M[np.ix_([0, 3], [1, 2])].any() and not dc.M[np.ix_([1, 2], [0, 3])].any()


def test_inverse_map_finite_near_critical():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.99, 1.0)
    assert abs(p.nc_product - 0.99) < 1e-15
    out = sw_to_commutative(NCState(1.0, 1.0, 1.0, 1.0), derived_constants(p))
    for v in (out.Q1, out.Q2, out.P1, out.P2):
        assert math.isfinite(v)


def test_inverse_map_works_elementwise():
    p = PhysicalParams(1.0, 1.0, 1.0, 0.2, 0.1)
    dc = derived_constants(p, make_gauge(p, 2.0))
    qs = np.linspace(-1.0, 1.0, 7)
    nc = sw_to_nc(PhaseState(Q1=qs, Q2=0.0 * qs, P1=qs, P2=1.0 + qs), dc)
    back = sw_to_commutative(nc, dc)
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


def test_algebra_residual_detects_off_shell_product_at_any_scale():
    # A product off by 1e-9 once read 9.7e-110 at hbar = 1e-100 and passed.
    for hbar in (1e-100, 1.0, 1e6):
        p = PhysicalParams(1.0, 1.0, hbar, 0.3 * hbar, 0.2 * hbar)
        g = make_gauge(p)
        assert algebra_residual(p, g) < 1e-15
        residual = algebra_residual(p, GaugeChoice(g.lam * (1.0 + 1e-9), g.mu))
        assert 5e-10 < residual < 2e-9, hbar


def test_commutative_residual_is_zero():
    p = PhysicalParams(1.0, 1.0, 1.0)
    assert algebra_residual(p, make_gauge(p)) == 0.0
