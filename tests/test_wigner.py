"""Stargenfunctions: closed forms, spectra, residuals and quadrature."""
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import nclab
from nclab import (
    PhysicalParams,
    QuantumNumbers,
    derived_constants,
    energy_level,
    hamiltonian_weyl,
    laguerre0,
    make_gauge,
    omega_pm,
    phase_space_integral,
    stargen_residual,
    sw_to_nc,
    wigner_eigenfunction,
    wigner_from_invariants,
    wigner_normalization,
)
from nclab.algebra import J, invariant_pair
from nclab.states import PhaseState
from nclab import wigner
from nclab.wigner import MAX_NODES

from conftest import admissible_physics


def physics(theta, eta, ratio=1.0, m=1.0, omega=1.0, hbar=1.0):
    p = PhysicalParams(m, omega, hbar, theta, eta)
    return derived_constants(p, make_gauge(p, ratio=ratio))


def test_laguerre_low_orders_exact():
    assert laguerre0(0, 0.7) == 1.0
    assert laguerre0(1, 0.7) == 1.0 - 0.7
    assert laguerre0(2, 2.0) == -1.0


def test_laguerre_matches_scipy():
    xs = np.linspace(0.0, 30.0, 61)
    for n in range(7):
        got = np.asarray([laguerre0(n, x) for x in xs])
        want = scipy.special.eval_laguerre(n, xs)
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_quantum_numbers_validate():
    QuantumNumbers(0, 3)
    with pytest.raises(ValueError):
        QuantumNumbers(-1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(0.5, 0)
    # bool is an int subclass; numpy integers are counts too.
    for bad in ((True, False), (0, True), (2.0, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            QuantumNumbers(*bad)
    assert QuantumNumbers(np.int64(2), np.uint8(1)).n1 == 2


def test_omega_pm_origin_and_frozen():
    dc = physics(0.0, 0.0)
    assert omega_pm(PhaseState(0.0, 0.0, 0.0, 0.0), dc) == (0.0, 0.0)
    # alpha = beta: X = |Q|^2 + |P|^2 = 2, L = Q1 P2 - Q2 P1 = 1.
    lo, hi = omega_pm(PhaseState(1.0, 0.0, 0.0, 1.0), dc)
    assert abs(lo - 0.0) < 1e-14 and abs(hi - 4.0) < 1e-14


def test_omega_pm_sum_and_difference():
    rng = np.random.default_rng(41)
    dc = physics(0.07, 0.02, m=1.2, omega=0.8, hbar=1.1)
    for _ in range(20):
        pt = PhaseState(*rng.normal(0.0, 1.0, 4))
        lo, hi = omega_pm(pt, dc)
        x_form = dc.alpha / dc.beta * (pt.Q1**2 + pt.Q2**2) + dc.beta / dc.alpha * (
            pt.P1**2 + pt.P2**2
        )
        l_form = pt.Q1 * pt.P2 - pt.Q2 * pt.P1
        assert abs((lo + hi) - 2.0 * x_form) < 1e-12 * max(1.0, x_form)
        assert abs((hi - lo) - 4.0 * l_form) < 1e-12 * max(1.0, abs(l_form))


def test_ground_state_peak_value():
    dc = physics(0.0, 0.0)
    rho = wigner_eigenfunction(PhaseState(0.0, 0.0, 0.0, 0.0), QuantumNumbers(0, 0), dc)
    assert abs(rho - 1.0 / math.pi**2) < 1e-15


def test_origin_parity():
    dc = physics(0.04, 0.01, hbar=1.3)
    origin = PhaseState(0.0, 0.0, 0.0, 0.0)
    for n1 in range(3):
        for n2 in range(3):
            rho = wigner_eigenfunction(origin, QuantumNumbers(n1, n2), dc)
            want = (-1.0) ** (n1 + n2) / (math.pi**2 * dc.hbar**2)
            assert abs(rho - want) < 1e-14 * abs(want)


def test_energy_levels_frozen():
    dc = physics(0.05, 0.02)
    g, w = dc.gamma, dc.omega_big
    assert abs(energy_level(QuantumNumbers(0, 0), dc) - w) < 1e-15 * w
    assert abs(energy_level(QuantumNumbers(1, 0), dc) - (2.0 * w + g)) < 1e-14 * w
    assert abs(energy_level(QuantumNumbers(0, 1), dc) - (2.0 * w - g)) < 1e-14 * w


def test_energy_levels_commutative():
    dc = physics(0.0, 0.0, omega=0.7, hbar=1.2)
    for n1 in range(3):
        for n2 in range(3):
            want = dc.hbar * dc.params.omega * (n1 + n2 + 1)
            got = energy_level(QuantumNumbers(n1, n2), dc)
            assert abs(got - want) < 1e-13 * want


def test_energy_level_swap_additivity():
    dc = physics(0.06, 0.03, m=1.1, omega=1.3, hbar=0.9)
    for n1, n2 in ((0, 0), (2, 1), (3, 0)):
        total = energy_level(QuantumNumbers(n1, n2), dc) + energy_level(
            QuantumNumbers(n2, n1), dc
        )
        want = 2.0 * dc.hbar * dc.omega_big * (n1 + n2 + 1)
        assert abs(total - want) < 1e-14 * want


def test_energy_levels_gauge_invariant():
    p = PhysicalParams(1.2, 0.9, 1.1, 0.05, 0.03)
    levels = []
    for ratio in (0.5, 1.0, 2.0):
        dc = derived_constants(p, make_gauge(p, ratio=ratio))
        levels.append(
            [energy_level(QuantumNumbers(n1, n2), dc) for n1 in range(3) for n2 in range(3)]
        )
    a = np.asarray(levels)
    assert np.max(np.abs(a - a[0])) < 1e-12 * np.max(np.abs(a))


@settings(max_examples=150, deadline=None)
@given(admissible_physics())
def test_spectrum_does_not_depend_on_the_gauge_ratio(dc):
    # Every level up to (6, 6), in units of hbar*Omega, against ratio 1.
    unit = derived_constants(dc.params)
    scale = dc.hbar * dc.omega_big
    for n1 in range(7):
        for n2 in range(7):
            qn = QuantumNumbers(n1, n2)
            gap = abs(energy_level(qn, dc) - energy_level(qn, unit))
            assert gap <= 1e-12 * scale, (n1, n2)


def test_hamiltonian_weyl_frozen():
    dc = physics(0.0, 0.0)
    assert hamiltonian_weyl(PhaseState(0.0, 0.0, 0.0, 0.0), dc) == 0.0
    got = hamiltonian_weyl(PhaseState(1.0, 0.0, 1.0, 0.0), dc)
    assert abs(got - 1.0) < 1e-14


def test_hamiltonian_weyl_is_physical_energy():
    # Composing with the canonical map recovers the isotropic oscillator
    # energy of the deformed variables, identically in the gauge ratio.
    rng = np.random.default_rng(42)
    p = PhysicalParams(1.3, 0.8, 1.1, 0.06, 0.02)
    for ratio in (0.5, 1.0, 2.0):
        dc = derived_constants(p, make_gauge(p, ratio=ratio))
        for _ in range(10):
            pt = PhaseState(*rng.normal(0.0, 1.0, 4))
            nc = sw_to_nc(pt, dc)
            want = (nc.p1**2 + nc.p2**2) / (2.0 * p.m) + 0.5 * p.m * p.omega**2 * (
                nc.q1**2 + nc.q2**2
            )
            got = hamiltonian_weyl(pt, dc)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_stargen_residual_small():
    rng = np.random.default_rng(43)
    dc = physics(0.05, 0.03, m=1.1, omega=0.9, hbar=1.2)
    widths = (
        math.sqrt(dc.hbar * dc.beta / dc.alpha),
        math.sqrt(dc.hbar * dc.alpha / dc.beta),
    )
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(1, 0), QuantumNumbers(1, 2)):
        energy = energy_level(qn, dc)
        for _ in range(6):
            pt = PhaseState(
                rng.uniform(-1.5, 1.5) * widths[0],
                rng.uniform(-1.5, 1.5) * widths[0],
                rng.uniform(-1.5, 1.5) * widths[1],
                rng.uniform(-1.5, 1.5) * widths[1],
            )
            rho = wigner_eigenfunction(pt, qn, dc)
            res = stargen_residual(pt, qn, dc)
            bound = 1e-6 * abs(energy) * max(abs(rho), 1e-3 / dc.hbar**2)
            assert abs(res.real) < bound
            assert abs(res.imag) < bound


def test_stargen_residual_commutative():
    dc = physics(0.0, 0.0)
    qn = QuantumNumbers(0, 1)
    pt = PhaseState(0.4, -0.3, 0.8, 0.2)
    rho = wigner_eigenfunction(pt, qn, dc)
    res = stargen_residual(pt, qn, dc)
    bound = 1e-6 * energy_level(qn, dc) * max(abs(rho), 1e-3)
    assert abs(res.real) < bound and abs(res.imag) < bound


HBAR_ENTRY_POINTS = {
    name: getattr(nclab, name)
    for name in (
        "wigner_eigenfunction",
        "wigner_from_invariants",
        "energy_level",
        "stargen_residual",
        "phase_space_integral",
    )
}


@pytest.mark.parametrize("hbar", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(HBAR_ENTRY_POINTS))
def test_wigner_entry_points_reject_bad_hbar(entry, hbar):
    # When these took hbar, -1 gave a value (and a nan norm), 0 a bare
    # ZeroDivisionError and nan a nan.  Now hbar reaches them only through a
    # DerivedConstants, and a bad one cannot get into its params.
    parameters = inspect.signature(HBAR_ENTRY_POINTS[entry]).parameters
    assert "dc" in parameters and "hbar" not in parameters
    dc = physics(0.02, 0.01)
    with pytest.raises(ValueError, match="hbar"):
        replace(dc.params, hbar=hbar)
    with pytest.raises(ValueError, match="hbar"):
        physics(0.02, 0.01, hbar=hbar)


def test_normalization_unit_and_stable():
    dc = physics(0.0, 0.0, hbar=1.1)
    norms = [wigner_normalization(QuantumNumbers(1, 1), dc, n_nodes=n) for n in (30, 40, 50)]
    for norm in norms:
        assert abs(norm - 1.0) < 1e-12
    assert max(norms) - min(norms) < 1e-6


def test_orthogonality_of_distinct_levels():
    dc = physics(0.0, 0.0)

    def overlap(x, ell):
        return wigner_from_invariants(x, ell, QuantumNumbers(0, 0), dc) * (
            wigner_from_invariants(x, ell, QuantumNumbers(1, 0), dc)
        )

    val = phase_space_integral(overlap, dc, n_nodes=40, decay=2.0)
    assert abs(val) < 1e-12


def test_purity_value():
    dc = physics(0.0, 0.0, hbar=1.3)

    def square(x, ell):
        return wigner_from_invariants(x, ell, QuantumNumbers(0, 0), dc) ** 2

    val = phase_space_integral(square, dc, n_nodes=40, decay=2.0)
    want = 1.0 / (2.0 * math.pi * dc.hbar) ** 2
    assert abs(val - want) < 1e-12 * want


def test_quadrature_rejects_no_nodes():
    dc = physics(0.0, 0.0)
    for n in (0, -1, 40.0, True, False):
        with pytest.raises(ValueError, match="n_nodes"):
            phase_space_integral(lambda x, ell: 1.0, dc, n_nodes=n)
    with pytest.raises(ValueError, match="n_nodes"):
        wigner_normalization(QuantumNumbers(0, 0), dc, n_nodes=40.0)
    assert wigner_normalization(QuantumNumbers(0, 0), dc, n_nodes=np.int64(11)) == (
        wigner_normalization(QuantumNumbers(0, 0), dc, n_nodes=11)
    )


def test_node_bound_is_the_last_finite_weight():
    # The weights w exp(t) are finite and positive up to MAX_NODES nodes;
    # one node more and exp(t) of the largest node overflows.
    t, w = np.polynomial.laguerre.laggauss(MAX_NODES)
    assert np.all(np.isfinite(w * np.exp(t)) & (w * np.exp(t) > 0.0))
    t, w = np.polynomial.laguerre.laggauss(MAX_NODES + 1)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(w * np.exp(t)))
    dc = physics(0.0, 0.0, hbar=0.7)
    for pair in ((0, 0), (6, 6)):
        norm = wigner_normalization(QuantumNumbers(*pair), dc, n_nodes=MAX_NODES)
        assert abs(norm - 1.0) < 1e-9, pair
    with pytest.raises(ValueError, match="n_nodes"):
        phase_space_integral(lambda x, ell: 1.0, dc, n_nodes=MAX_NODES + 1)
    with pytest.raises(ValueError, match="n_nodes"):
        wigner_normalization(QuantumNumbers(0, 0), dc, n_nodes=MAX_NODES + 1)


def test_quadrature_rejects_bad_decay():
    dc = physics(0.0, 0.0)
    for decay in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="decay"):
            phase_space_integral(lambda x, ell: 1.0, dc, n_nodes=11, decay=decay)


def fresh_rule_integral(func, dc, n_nodes, decay=1.0):
    """phase_space_integral's rule, built from a fresh laggauss call."""
    t, w = np.polynomial.laguerre.laggauss(n_nodes)
    wt = w * np.exp(t)
    a = (2.0 / decay) * t
    a, b = a[:, None], a[None, :]
    vals = func(0.5 * (a + b), 0.25 * (b - a))
    return np.pi**2 * (dc.hbar / decay) ** 2 * float(np.sum(wt[:, None] * wt[None, :] * vals))


@pytest.mark.parametrize("n_nodes", [1, 11, 30, 40, 50, MAX_NODES])
def test_cached_rule_gives_the_bits_of_a_fresh_rule(n_nodes):
    dc = physics(0.03, -0.02, ratio=1.7, hbar=0.8)
    qn, other = QuantumNumbers(2, 1), QuantumNumbers(0, 3)

    def rho(x, ell):
        return wigner_from_invariants(x, ell, qn, dc)

    def product(x, ell):
        return rho(x, ell) * wigner_from_invariants(x, ell, other, dc)

    for _ in range(2):  # the first call may build the rule, the second reuses it
        norm = wigner_normalization(qn, dc, n_nodes=n_nodes)
        assert norm.hex() == fresh_rule_integral(rho, dc, n_nodes).hex()
        overlap = phase_space_integral(product, dc, n_nodes=n_nodes, decay=2.0)
        assert overlap.hex() == fresh_rule_integral(product, dc, n_nodes, 2.0).hex()


def test_cached_rule_is_shared_and_read_only():
    t, wt = wigner._laguerre_rule(11)
    assert wigner._laguerre_rule(11)[0] is t
    for arr in (t, wt):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_bad_arguments_raise_before_a_rule_is_built():
    dc = physics(0.0, 0.0)
    before = wigner._laguerre_rule.cache_info()
    for n in (0, MAX_NODES + 1, 40.0, True):
        with pytest.raises(ValueError, match="n_nodes"):
            phase_space_integral(lambda x, ell: 1.0, dc, n_nodes=n)
    for decay in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="decay"):
            phase_space_integral(lambda x, ell: 1.0, dc, n_nodes=97, decay=decay)
    after = wigner._laguerre_rule.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# ---------------------------------------------------------------------------
# the four-dimensional Gauss-Hermite rule (the oracle) and the first
# form of the eigenfunction


def reference_integral(func, dc, n_nodes, decay):
    """Gauss-Hermite integral of func(Q1, Q2, P1, P2) over the four phase-space
    axes, one whole (Q2, P1, P2) slice per Q1 node; the nodes are scaled by
    the Gaussian widths over sqrt(decay)."""
    hbar = dc.hbar
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    wfac = weights * np.exp(nodes**2)
    w_q = np.sqrt(hbar * dc.beta / dc.alpha / decay)
    w_p = np.sqrt(hbar * dc.alpha / dc.beta / decay)
    q2 = (w_q * nodes)[:, None, None]
    p1 = (w_p * nodes)[None, :, None]
    p2 = (w_p * nodes)[None, None, :]
    wsub = wfac[:, None, None] * wfac[None, :, None] * wfac[None, None, :]
    total = 0.0
    for i in range(n_nodes):
        vals = func(w_q * nodes[i], q2, p1, p2)
        total += wfac[i] * float(np.sum(wsub * vals))
    return (hbar / decay) ** 2 * total


def reference_eigenfunction(pt, qn, dc):
    """The eigenfunction as first written: X/hbar from the point in units,
    (Q/l_q, P/l_p), and both Laguerre factors of Omega_pm/hbar."""
    hbar, u = dc.hbar, dc.core
    r = u.alpha / u.beta
    q1, q2, p1, p2 = pt.Q1 / dc.l_q, pt.Q2 / dc.l_q, pt.P1 / dc.l_p, pt.P2 / dc.l_p
    x = r * (q1 * q1 + q2 * q2) + (p1 * p1 + p2 * p2) / r
    ell = q1 * p2 - q2 * p1
    sign = -1.0 if (qn.n1 + qn.n2) % 2 else 1.0
    return (
        sign
        / (np.pi**2 * hbar**2)
        * np.exp(-x)
        * laguerre0(qn.n1, x - 2.0 * ell)
        * laguerre0(qn.n2, x + 2.0 * ell)
    )


def _richardson_first(f, z, axis, h):
    def central(step):
        zp = z.copy()
        zp[axis] += step
        zm = z.copy()
        zm[axis] -= step
        return (f(zp) - f(zm)) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _richardson_second(f, z, axis, h, f0):
    def central(step):
        zp = z.copy()
        zp[axis] += step
        zm = z.copy()
        zm[axis] -= step
        return (f(zp) - 2.0 * f0 + f(zm)) / step**2

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _richardson_cross(f, z, ax1, ax2, h1, h2):
    def central(s1, s2):
        out = 0.0
        for sig1 in (+1.0, -1.0):
            for sig2 in (+1.0, -1.0):
                zz = z.copy()
                zz[ax1] += sig1 * s1
                zz[ax2] += sig2 * s2
                out += sig1 * sig2 * f(zz)
        return out / (4.0 * s1 * s2)

    return (4.0 * central(0.5 * h1, 0.5 * h2) - central(h1, h2)) / 3.0


def reference_residual(pt, qn, dc, base_step_scale=1e-3):
    """The stargen residual at one scalar point by Richardson-extrapolated
    central differences, the oracle of the exact residual: one eigenfunction
    call per stencil point (49 in all), each on the point as a one-element
    array."""
    hbar = dc.hbar
    w_q = np.sqrt(hbar * dc.beta / dc.alpha)
    w_p = np.sqrt(hbar * dc.alpha / dc.beta)
    steps = np.array([w_q, w_q, w_p, w_p]) * base_step_scale

    def rho(z):
        return wigner_eigenfunction(PhaseState(*z[:, None]), qn, dc)[0]

    z0 = pt.as_array()
    rho0 = rho(z0)
    grad = np.array(
        [_richardson_first(rho, z0, a, steps[a]) for a in range(4)]
    )
    hess = 2.0 * dc.K
    bracket = np.einsum("ij,j,ik,k->", hess, z0, J, grad)
    weight = np.einsum("ji,jk,kl->il", J, hess, J)
    quad = 0.0
    for a in range(4):
        quad += weight[a, a] * _richardson_second(rho, z0, a, steps[a], rho0)
        for b in range(a + 1, 4):
            if weight[a, b]:
                quad += 2.0 * weight[a, b] * _richardson_cross(
                    rho, z0, a, b, steps[a], steps[b]
                )
    star = (
        hamiltonian_weyl(pt, dc) * rho0
        - hbar**2 / 8.0 * quad
        + 1j * (hbar / 2.0) * bracket
    )
    return complex(star - energy_level(qn, dc) * rho0)


def neg(z):
    return [-x for x in z]


def t_reflect(z):
    """T: (Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2), which keeps X and L sign-exact."""
    return [z[0], -z[1], -z[2], z[3]]


def assert_odd_term_refused_and_null(term, reflect, n):
    # rho of (1, 2) times 1 + 0.1 * term, with term odd under reflect.
    dc = physics(0.3, -0.5, ratio=0.6, hbar=0.9)
    qn = QuantumNumbers(1, 2)

    def rho(q1, q2, p1, p2):
        return wigner_eigenfunction(PhaseState(q1, q2, p1, p2), qn, dc)

    def tilted(q1, q2, p1, p2):
        return rho(q1, q2, p1, p2) * (1.0 + 0.1 * term(q1, q2, p1, p2))

    # reflect keeps (X, L) bit for bit and flips the term, so no function of
    # (X, L) is tilted; half the points lie on the Q1 = 0 slice.
    z = np.random.default_rng(n).normal(0.0, 1.0, (4, 64))
    z[0, :32] = 0.0
    here = invariant_pair(PhaseState(*z), dc)
    there = invariant_pair(PhaseState(*reflect(z)), dc)
    for u, v in zip(here, there):
        assert u.tobytes() == v.tobytes()
    assert np.any(term(*z) != 0.0)
    assert np.array_equal(term(*reflect(z)), -term(*z))
    # The rule hands its integrand (X, L) alone: a phase-space integrand is refused.
    with pytest.raises(TypeError, match="required positional"):
        phase_space_integral(tilted, dc, n_nodes=n)
    # The term integrates to zero over phase space (the 4-D oracle at n
    # nodes), so what the rule leaves out is worth nothing; from 11 nodes the
    # oracle is exact for (1, 2) and equals the rule's normalization.
    got = reference_integral(tilted, dc, n, 1.0)
    assert abs(got - reference_integral(rho, dc, n, 1.0)) <= 1e-13
    if n >= 11:
        assert abs(got - wigner_normalization(qn, dc, n_nodes=n)) <= 1e-11


@pytest.mark.parametrize(
    "tilt",
    [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)],
    ids=["Q1", "P2", "Q1+Q2", "Q1-Q2", "P1+P2"],
)
@pytest.mark.parametrize("n", [2, 3, 11, 40])
def test_quadrature_rejects_integrand_that_is_not_even(tilt, n):
    # A term linear in z is odd under z -> -z.
    def term(*z):
        return sum(c * x for c, x in zip(tilt, z))

    assert_odd_term_refused_and_null(term, neg, n)


@pytest.mark.parametrize(
    "pair", [(0, 1), (0, 2), (1, 3), (2, 3)], ids=["Q1*Q2", "Q1*P1", "Q2*P2", "P1*P2"]
)
@pytest.mark.parametrize("n", [2, 3, 11, 40])
def test_quadrature_rejects_integrand_that_is_not_even_under_t(pair, n):
    # Each product is even under z -> -z but odd under T.
    def term(*z):
        return z[pair[0]] * z[pair[1]]

    assert_odd_term_refused_and_null(term, t_reflect, n)


@pytest.mark.parametrize("n", [3, 11, 41])
def test_quadrature_checks_t_on_the_unmirrored_middle_slice(n):
    # A term odd under T that lives on the Q1 = 0 slice alone, which is the
    # middle slice of the oracle at an odd node count.
    def term(q1, q2, p1, p2):
        return np.where(q1 == 0.0, p1 * p2, 0.0)

    assert_odd_term_refused_and_null(term, t_reflect, n)


def test_eigenfunction_bits_match_first_form():
    rng = np.random.default_rng(44)
    dc = physics(0.6, -0.8, ratio=2.5, m=0.7, omega=1.4, hbar=1.2)
    pt = PhaseState(*rng.normal(0.0, 1.5, (4, 2000)))
    for n1 in range(4):
        for n2 in range(4):
            qn = QuantumNumbers(n1, n2)
            want = reference_eigenfunction(pt, qn, dc)
            got = wigner_eigenfunction(pt, qn, dc)
            assert np.array_equal(got, want), qn
            scalar = PhaseState(0.3, -0.2, 0.5, 0.1)
            assert wigner_eigenfunction(scalar, qn, dc) == (
                reference_eigenfunction(scalar, qn, dc)
            )


# ---------------------------------------------------------------------------
# properties over the admissible domain


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_eigenfunction_is_even_bit_for_bit(dc, n1, n2, seed):
    w_q = math.sqrt(dc.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(dc.hbar * dc.alpha / dc.beta)
    widths = np.array([w_q, w_q, w_p, w_p])[:, None]
    # Out to about 12 widths, where the Gaussian factor nears underflow.
    z = np.random.default_rng(seed).normal(0.0, 3.0, (4, 64)) * widths
    qn = QuantumNumbers(n1, n2)
    plus = wigner_eigenfunction(PhaseState(*z), qn, dc)
    minus = wigner_eigenfunction(PhaseState(*-z), qn, dc)
    assert minus.tobytes() == plus.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_eigenfunction_is_even_under_t_bit_for_bit(dc, n1, n2, seed):
    # T: (Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2) keeps X and L sign-exact.
    w_q = math.sqrt(dc.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(dc.hbar * dc.alpha / dc.beta)
    widths = np.array([w_q, w_q, w_p, w_p])[:, None]
    z = np.random.default_rng(seed).normal(0.0, 3.0, (4, 64)) * widths
    qn = QuantumNumbers(n1, n2)
    plus = wigner_eigenfunction(PhaseState(*z), qn, dc)
    reflected = wigner_eigenfunction(PhaseState(z[0], -z[1], -z[2], z[3]), qn, dc)
    assert reflected.tobytes() == plus.tobytes()


@settings(max_examples=40, deadline=None)
@given(admissible_physics(), st.integers(0, 6), st.integers(0, 6))
def test_action_rule_matches_four_dimensional_oracle(dc, n1, n2):
    # The normalization (decay 1) and the overlap with the ground state
    # (decay 2, scaled by (2 pi hbar)**2 to order one), by the n**2 rule
    # over the two mode actions and by the n**4 Gauss-Hermite rule over
    # phase space, which is exact for them at 24 nodes.
    qn, ground = QuantumNumbers(n1, n2), QuantumNumbers(0, 0)

    def rho(x, ell):
        return wigner_from_invariants(x, ell, qn, dc)

    def overlap(x, ell):
        return rho(x, ell) * wigner_from_invariants(x, ell, ground, dc)

    for func, decay, scale in ((rho, 1.0, 1.0), (overlap, 2.0, (2.0 * math.pi * dc.hbar) ** 2)):
        want = reference_integral(
            lambda *z: func(*invariant_pair(PhaseState(*z), dc)), dc, 24, decay
        )
        got = phase_space_integral(func, dc, decay=decay)
        assert abs(scale * (got - want)) <= 1e-11, (decay, got, want)


def residual_points(dc, seed, n):
    """n points out to two Gaussian widths per axis, as the wigner command draws them."""
    w_q = math.sqrt(dc.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(dc.hbar * dc.alpha / dc.beta)
    return np.random.default_rng(seed).uniform(-2.0, 2.0, (n, 4)) * np.array(
        [w_q, w_q, w_p, w_p]
    )


@settings(max_examples=100, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_eigenfunction_at_a_scalar_point_matches_the_array_bit_for_bit(dc, n1, n2, seed):
    # Python and NumPy scalar fields alike: a scalar square must not go
    # through pow, which rounds differently from the array square.
    qn = QuantumNumbers(n1, n2)
    z = residual_points(dc, seed, 64)
    batch = wigner_eigenfunction(PhaseState(*z.T), qn, dc)
    for k, row in enumerate(z):
        for fields in (row.tolist(), list(row)):
            alone = wigner_eigenfunction(PhaseState(*fields), qn, dc)
            assert np.float64(alone).tobytes() == batch[k].tobytes(), (k, fields)


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_stargen_residual_is_exact_and_agrees_with_the_stencil_oracle(
    dc, n1, n2, seed
):
    qn = QuantumNumbers(n1, n2)
    z = residual_points(dc, seed, 5)
    pts = PhaseState(*z.T)
    got = stargen_residual(pts, qn, dc)
    want = np.array([reference_residual(PhaseState(*row), qn, dc) for row in z])
    # The size of the terms that cancel: |E| times rho with each Laguerre
    # factor replaced by 1 + |L_n|, so a nodal surface of rho does not
    # shrink it.
    x, _ = invariant_pair(pts, dc)  # X/hbar
    omega_plus, omega_minus = omega_pm(pts, dc)
    scale = (
        abs(energy_level(qn, dc))
        * np.exp(-x)
        * (1.0 + np.abs(laguerre0(n1, omega_plus / dc.hbar)))
        * (1.0 + np.abs(laguerre0(n2, omega_minus / dc.hbar)))
        / (np.pi**2 * dc.hbar**2)
    )
    assert np.all(np.abs(got) <= 1e-12 * scale)
    assert np.all(np.abs(got - want) <= 1e-6 * scale)


@settings(max_examples=150, deadline=None)
@given(admissible_physics(), st.integers(0, 2**32 - 1))
def test_bracket_term_vanishes_for_every_function_of_the_invariants(dc, seed):
    # Both Omega_pm are conserved by the flow of H, so the first-order Moyal
    # term (2 K z) . J (2 M_pm z) is zero at every point: the imaginary part of
    # stargen_residual checks K against invariant_pair, and does not test rho.
    z = residual_points(dc, seed, 64)
    r = dc.alpha / dc.beta
    diag = np.diag([r, r, 1.0 / r, 1.0 / r])
    s = np.array(
        [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
         [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    x, _ = invariant_pair(PhaseState(*z.T), dc)
    for m_pm, omega in zip((diag - s, diag + s), omega_pm(PhaseState(*z.T), dc)):
        assert np.all(np.abs(np.einsum("ni,ij,nj->n", z, m_pm, z) - omega) <= 1e-14 * x)
        bracket = np.einsum("ni,ij,nj->n", 2.0 * z @ dc.K, J, 2.0 * z @ m_pm)
        scale = np.einsum(
            "ni,ij,nj->n", np.abs(z) @ np.abs(2.0 * dc.K), np.abs(J), np.abs(z) @ np.abs(2.0 * m_pm)
        )
        assert np.all(np.abs(bracket) <= 1e-14 * scale)


@settings(max_examples=60, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
)
def test_stargen_residual_does_not_depend_on_the_batch(dc, n1, n2, seed, n):
    qn = QuantumNumbers(n1, n2)
    z = residual_points(dc, seed, n)
    batch = stargen_residual(PhaseState(*z.T), qn, dc)
    assert batch.shape == (n,) and batch.dtype == complex
    reversed_batch = stargen_residual(PhaseState(*z[::-1].T), qn, dc)
    assert reversed_batch[::-1].tobytes() == batch.tobytes()
    for k, row in enumerate(z):
        alone = stargen_residual(PhaseState(*row.tolist()), qn, dc)
        assert type(alone) is complex
        assert np.complex128(alone).tobytes() == batch[k].tobytes()
