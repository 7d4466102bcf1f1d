"""Stargenfunctions: closed forms, spectra, residuals and quadrature."""
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import nclab.wigner
from nclab import (
    PhysicalParams,
    QuantumNumbers,
    StepUnderflow,
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
    wigner_normalization,
)
from nclab.states import PhaseState


def physics(theta, eta, ratio=1.0, m=1.0, omega=1.0, hbar=1.0):
    p = PhysicalParams(m, omega, hbar, theta, eta)
    gauge = make_gauge(p, ratio=ratio)
    return p, gauge, derived_constants(p, gauge)


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
    p, gauge, dc = physics(0.0, 0.0)
    assert omega_pm(PhaseState(0.0, 0.0, 0.0, 0.0), dc) == (0.0, 0.0)
    # alpha = beta: X = |Q|^2 + |P|^2 = 2, L = Q1 P2 - Q2 P1 = 1.
    lo, hi = omega_pm(PhaseState(1.0, 0.0, 0.0, 1.0), dc)
    assert abs(lo - 0.0) < 1e-14 and abs(hi - 4.0) < 1e-14


def test_omega_pm_sum_and_difference():
    rng = np.random.default_rng(41)
    p, gauge, dc = physics(0.07, 0.02, m=1.2, omega=0.8, hbar=1.1)
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
    p, gauge, dc = physics(0.0, 0.0)
    rho = wigner_eigenfunction(PhaseState(0.0, 0.0, 0.0, 0.0), QuantumNumbers(0, 0), dc, 1.0)
    assert abs(rho - 1.0 / math.pi**2) < 1e-15


def test_origin_parity():
    p, gauge, dc = physics(0.04, 0.01, hbar=1.3)
    origin = PhaseState(0.0, 0.0, 0.0, 0.0)
    for n1 in range(3):
        for n2 in range(3):
            rho = wigner_eigenfunction(origin, QuantumNumbers(n1, n2), dc, p.hbar)
            want = (-1.0) ** (n1 + n2) / (math.pi**2 * p.hbar**2)
            assert abs(rho - want) < 1e-14 * abs(want)


def test_energy_levels_frozen():
    p, gauge, dc = physics(0.05, 0.02)
    g, w = dc.gamma, dc.omega_big
    assert abs(energy_level(QuantumNumbers(0, 0), dc, 1.0) - w) < 1e-15 * w
    assert abs(energy_level(QuantumNumbers(1, 0), dc, 1.0) - (2.0 * w + g)) < 1e-14 * w
    assert abs(energy_level(QuantumNumbers(0, 1), dc, 1.0) - (2.0 * w - g)) < 1e-14 * w


def test_energy_levels_commutative():
    p, gauge, dc = physics(0.0, 0.0, omega=0.7, hbar=1.2)
    for n1 in range(3):
        for n2 in range(3):
            want = p.hbar * p.omega * (n1 + n2 + 1)
            got = energy_level(QuantumNumbers(n1, n2), dc, p.hbar)
            assert abs(got - want) < 1e-13 * want


def test_energy_level_swap_additivity():
    p, gauge, dc = physics(0.06, 0.03, m=1.1, omega=1.3, hbar=0.9)
    for n1, n2 in ((0, 0), (2, 1), (3, 0)):
        total = energy_level(QuantumNumbers(n1, n2), dc, p.hbar) + energy_level(
            QuantumNumbers(n2, n1), dc, p.hbar
        )
        want = 2.0 * p.hbar * dc.omega_big * (n1 + n2 + 1)
        assert abs(total - want) < 1e-14 * want


def test_energy_levels_gauge_invariant():
    p = PhysicalParams(1.2, 0.9, 1.1, 0.05, 0.03)
    levels = []
    for ratio in (0.5, 1.0, 2.0):
        dc = derived_constants(p, make_gauge(p, ratio=ratio))
        levels.append(
            [energy_level(QuantumNumbers(n1, n2), dc, p.hbar) for n1 in range(3) for n2 in range(3)]
        )
    a = np.asarray(levels)
    assert np.max(np.abs(a - a[0])) < 1e-12 * np.max(np.abs(a))


def test_hamiltonian_weyl_frozen():
    p, gauge, dc = physics(0.0, 0.0)
    assert hamiltonian_weyl(PhaseState(0.0, 0.0, 0.0, 0.0), dc) == 0.0
    got = hamiltonian_weyl(PhaseState(1.0, 0.0, 1.0, 0.0), dc)
    assert abs(got - 1.0) < 1e-14


def test_hamiltonian_weyl_is_physical_energy():
    # Composing with the canonical map recovers the isotropic oscillator
    # energy of the deformed variables, identically in the gauge ratio.
    rng = np.random.default_rng(42)
    p = PhysicalParams(1.3, 0.8, 1.1, 0.06, 0.02)
    for ratio in (0.5, 1.0, 2.0):
        gauge = make_gauge(p, ratio=ratio)
        dc = derived_constants(p, gauge)
        for _ in range(10):
            pt = PhaseState(*rng.normal(0.0, 1.0, 4))
            nc = sw_to_nc(pt, p, gauge)
            want = (nc.p1**2 + nc.p2**2) / (2.0 * p.m) + 0.5 * p.m * p.omega**2 * (
                nc.q1**2 + nc.q2**2
            )
            got = hamiltonian_weyl(pt, dc)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_stargen_residual_small():
    rng = np.random.default_rng(43)
    p, gauge, dc = physics(0.05, 0.03, m=1.1, omega=0.9, hbar=1.2)
    widths = (
        math.sqrt(p.hbar * dc.beta / dc.alpha),
        math.sqrt(p.hbar * dc.alpha / dc.beta),
    )
    for qn in (QuantumNumbers(0, 0), QuantumNumbers(1, 0), QuantumNumbers(1, 2)):
        energy = energy_level(qn, dc, p.hbar)
        for _ in range(6):
            pt = PhaseState(
                rng.uniform(-1.5, 1.5) * widths[0],
                rng.uniform(-1.5, 1.5) * widths[0],
                rng.uniform(-1.5, 1.5) * widths[1],
                rng.uniform(-1.5, 1.5) * widths[1],
            )
            rho = wigner_eigenfunction(pt, qn, dc, p.hbar)
            res = stargen_residual(pt, qn, dc, p.hbar)
            bound = 1e-6 * abs(energy) * max(abs(rho), 1e-3 / p.hbar**2)
            assert abs(res.real) < bound
            assert abs(res.imag) < bound


def test_stargen_residual_commutative():
    p, gauge, dc = physics(0.0, 0.0)
    qn = QuantumNumbers(0, 1)
    pt = PhaseState(0.4, -0.3, 0.8, 0.2)
    rho = wigner_eigenfunction(pt, qn, dc, 1.0)
    res = stargen_residual(pt, qn, dc, 1.0)
    bound = 1e-6 * energy_level(qn, dc, 1.0) * max(abs(rho), 1e-3)
    assert abs(res.real) < bound and abs(res.imag) < bound


def test_stargen_residual_step_guard():
    p, gauge, dc = physics(0.02, 0.01)
    pt, qn = PhaseState(0.1, 0.0, 0.0, 0.0), QuantumNumbers(0, 0)
    for scale in (1e-11, 0.0, -1.0):
        with pytest.raises(StepUnderflow):
            stargen_residual(pt, qn, dc, 1.0, base_step_scale=scale)
    # NaN compares False with 1e-10 and would give nan+nanj unnoticed.
    for scale in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            stargen_residual(pt, qn, dc, 1.0, base_step_scale=scale)


HBAR_ENTRY_POINTS = {
    "wigner_eigenfunction": lambda pt, qn, dc, hb: wigner_eigenfunction(pt, qn, dc, hb),
    "energy_level": lambda pt, qn, dc, hb: energy_level(qn, dc, hb),
    "stargen_residual": lambda pt, qn, dc, hb: stargen_residual(pt, qn, dc, hb),
    "phase_space_integral": lambda pt, qn, dc, hb: phase_space_integral(
        lambda q1, q2, p1, p2: wigner_eigenfunction(PhaseState(q1, q2, p1, p2), qn, dc, 1.0),
        dc,
        hb,
        n_nodes=4,
    ),
}


@pytest.mark.parametrize("hbar", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(HBAR_ENTRY_POINTS))
def test_wigner_entry_points_reject_bad_hbar(entry, hbar):
    # -1 gave a value (and a nan norm), 0 a bare ZeroDivisionError, nan a nan.
    p, gauge, dc = physics(0.02, 0.01)
    pt, qn = PhaseState(0.1, 0.2, -0.3, 0.4), QuantumNumbers(1, 0)
    with pytest.raises(ValueError, match="hbar"):
        HBAR_ENTRY_POINTS[entry](pt, qn, dc, hbar)


def test_normalization_unit_and_stable():
    p, gauge, dc = physics(0.05, 0.02, m=1.2, omega=0.9, hbar=1.1)
    norms = [
        wigner_normalization(QuantumNumbers(1, 1), dc, p.hbar, n_nodes=n) for n in (30, 40, 50)
    ]
    for norm in norms:
        assert abs(norm - 1.0) < 1e-12
    assert max(norms) - min(norms) < 1e-6


def test_orthogonality_of_distinct_levels():
    p, gauge, dc = physics(0.03, 0.01)
    a = QuantumNumbers(0, 0)
    b = QuantumNumbers(1, 0)

    def overlap(q1, q2, p1, p2):
        pt = PhaseState(q1, q2, p1, p2)
        return wigner_eigenfunction(pt, a, dc, p.hbar) * wigner_eigenfunction(
            pt, b, dc, p.hbar
        )

    val = phase_space_integral(overlap, dc, p.hbar, n_nodes=40, decay=2.0)
    assert abs(val) < 1e-12


def test_purity_value():
    p, gauge, dc = physics(0.04, 0.02, hbar=1.3)
    qn = QuantumNumbers(0, 0)

    def square(q1, q2, p1, p2):
        return wigner_eigenfunction(PhaseState(q1, q2, p1, p2), qn, dc, p.hbar) ** 2

    val = phase_space_integral(square, dc, p.hbar, n_nodes=40, decay=2.0)
    want = 1.0 / (2.0 * math.pi * p.hbar) ** 2
    assert abs(val - want) < 1e-12 * want


# ---------------------------------------------------------------------------
# bit-exact pins of the blocked quadrature and the eigenfunction


def reference_integral(func, dc, hbar, n_nodes, decay):
    """The quadrature evaluated one whole (Q2, P1, P2) slice per Q1 node."""
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


def reference_eigenfunction(pt, qn, dc, hbar):
    """The eigenfunction as first written: omega_pm and both Laguerre factors."""
    r = dc.alpha / dc.beta
    x = r * (pt.Q1**2 + pt.Q2**2) + (pt.P1**2 + pt.P2**2) / r
    op, om = omega_pm(pt, dc)
    sign = -1.0 if (qn.n1 + qn.n2) % 2 else 1.0
    return (
        sign
        / (np.pi**2 * hbar**2)
        * np.exp(-x / hbar)
        * laguerre0(qn.n1, op / hbar)
        * laguerre0(qn.n2, om / hbar)
    )


PIN_PAIRS = [(0, 0), (3, 0), (2, 2), (1, 3)]


def pin_integrands(qn, hbar, dc):
    """The normalization integrand (decay 1) and the overlap with the ground state (decay 2)."""
    ground = QuantumNumbers(0, 0)

    def rho(q1, q2, p1, p2):
        return wigner_eigenfunction(PhaseState(q1, q2, p1, p2), qn, dc, hbar)

    def overlap(q1, q2, p1, p2):
        pt = PhaseState(q1, q2, p1, p2)
        return wigner_eigenfunction(pt, qn, dc, hbar) * wigner_eigenfunction(
            pt, ground, dc, hbar
        )

    return rho, overlap


@pytest.mark.parametrize("pair", PIN_PAIRS, ids=str)
def test_blocked_quadrature_bits_match_slice_loop(pair):
    # 30, 31, 40 and 50 nodes all end on a short block at the default size;
    # odd counts have a middle Q1 node with no mirror.
    p, gauge, dc = physics(-0.7, 0.4, ratio=1.7, m=1.3, omega=0.8, hbar=1.1)
    rho, overlap = pin_integrands(QuantumNumbers(*pair), p.hbar, dc)
    cases = [(rho, 1.0, n) for n in (1, 11, 30, 31, 40, 50)]
    cases += [(overlap, 2.0, 31), (overlap, 2.0, 40)]
    for func, decay, n in cases:
        want = reference_integral(func, dc, p.hbar, n, decay)
        got = phase_space_integral(func, dc, p.hbar, n_nodes=n, decay=decay)
        assert got == want, (decay, n)


@pytest.mark.parametrize("rows", [1, 7], ids=["one_row", "seven_rows"])
def test_quadrature_bits_independent_of_block_size(monkeypatch, rows):
    # Blocks of one Q2 row, and of seven, which divides no node count.
    p, gauge, dc = physics(0.3, -0.5, ratio=0.6, hbar=0.9)
    for n in (1, 11, 12, 30, 31):
        monkeypatch.setattr(nclab.wigner, "QUAD_BLOCK_POINTS", rows * n * n)
        for pair in PIN_PAIRS:
            rho, overlap = pin_integrands(QuantumNumbers(*pair), p.hbar, dc)
            for func, decay in ((rho, 1.0), (overlap, 2.0)):
                want = reference_integral(func, dc, p.hbar, n, decay)
                got = phase_space_integral(func, dc, p.hbar, n_nodes=n, decay=decay)
                assert got == want, (pair, decay, n)


def test_quadrature_rejects_no_nodes():
    p, gauge, dc = physics(0.0, 0.0)
    for n in (0, -1, 40.0, True, False):
        with pytest.raises(ValueError, match="n_nodes"):
            phase_space_integral(lambda *z: 1.0, dc, 1.0, n_nodes=n)
    with pytest.raises(ValueError, match="n_nodes"):
        wigner_normalization(QuantumNumbers(0, 0), dc, 1.0, n_nodes=40.0)
    assert wigner_normalization(QuantumNumbers(0, 0), dc, 1.0, n_nodes=np.int64(11)) == (
        wigner_normalization(QuantumNumbers(0, 0), dc, 1.0, n_nodes=11)
    )


def test_quadrature_rejects_bad_decay():
    p, gauge, dc = physics(0.0, 0.0)
    rho, overlap = pin_integrands(QuantumNumbers(0, 0), p.hbar, dc)
    for decay in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="decay"):
            phase_space_integral(rho, dc, p.hbar, n_nodes=11, decay=decay)


@pytest.mark.parametrize(
    "tilt",
    [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)],
    ids=["Q1", "P2", "Q1+Q2", "Q1-Q2", "P1+P2"],
)
@pytest.mark.parametrize("n", [2, 3, 11, 40])
def test_quadrature_rejects_integrand_that_is_not_even(tilt, n):
    # A term linear in z breaks z -> -z symmetry; reusing the mirrored
    # slices would silently drop it, so the quadrature must refuse.  Q1+Q2
    # vanishes wherever Q1 = -Q2, so it needs a probe off that line.
    p, gauge, dc = physics(0.3, -0.5, ratio=0.6, hbar=0.9)
    rho, overlap = pin_integrands(QuantumNumbers(1, 2), p.hbar, dc)

    def tilted(*z):
        return rho(*z) * (1.0 + 0.1 * sum(c * x for c, x in zip(tilt, z)))

    with pytest.raises(ValueError, match="not even"):
        phase_space_integral(tilted, dc, p.hbar, n_nodes=n)


@pytest.mark.parametrize(
    "pair", [(0, 1), (0, 2), (1, 3), (2, 3)], ids=["Q1*Q2", "Q1*P1", "Q2*P2", "P1*P2"]
)
@pytest.mark.parametrize("n", [2, 3, 11, 40])
def test_quadrature_rejects_integrand_that_is_not_even_under_t(pair, n):
    # Each product is even under z -> -z but odd under (Q1, Q2, P1, P2) ->
    # (Q1, -Q2, -P1, P2); filling rows by that reflection would silently
    # give a wrong number, so the quadrature must refuse.
    p, gauge, dc = physics(0.3, -0.5, ratio=0.6, hbar=0.9)
    rho, overlap = pin_integrands(QuantumNumbers(1, 2), p.hbar, dc)

    def tilted(*z):
        return rho(*z) * (1.0 + 0.1 * z[pair[0]] * z[pair[1]])

    with pytest.raises(ValueError, match="not even"):
        phase_space_integral(tilted, dc, p.hbar, n_nodes=n)


@pytest.mark.parametrize("n", [3, 11, 41])
def test_quadrature_checks_t_on_the_unmirrored_middle_slice(n):
    # The z -> -z probe also compares against T-filled rows, but the middle
    # Q1 node of an odd count (Q1 = 0 exactly) has no mirror.  A term odd
    # under T that lives on that slice alone is seen only by the probe of
    # its reflected Q2 row.
    p, gauge, dc = physics(0.3, -0.5, ratio=0.6, hbar=0.9)
    rho, overlap = pin_integrands(QuantumNumbers(1, 2), p.hbar, dc)

    def tilted(q1, q2, p1, p2):
        return rho(q1, q2, p1, p2) * (1.0 + 0.1 * np.where(q1 == 0.0, p1 * p2, 0.0))

    with pytest.raises(ValueError, match="not even"):
        phase_space_integral(tilted, dc, p.hbar, n_nodes=n)


def test_eigenfunction_bits_match_first_form():
    rng = np.random.default_rng(44)
    p, gauge, dc = physics(0.6, -0.8, ratio=2.5, m=0.7, omega=1.4, hbar=1.2)
    pt = PhaseState(*rng.normal(0.0, 1.5, (4, 2000)))
    for n1 in range(4):
        for n2 in range(4):
            qn = QuantumNumbers(n1, n2)
            want = reference_eigenfunction(pt, qn, dc, p.hbar)
            got = wigner_eigenfunction(pt, qn, dc, p.hbar)
            assert np.array_equal(got, want), qn
            scalar = PhaseState(0.3, -0.2, 0.5, 0.1)
            assert wigner_eigenfunction(scalar, qn, dc, p.hbar) == (
                reference_eigenfunction(scalar, qn, dc, p.hbar)
            )


# ---------------------------------------------------------------------------
# exact reflections, on which the quartered quadrature rests


@st.composite
def admissible_physics(draw):
    """Parameters over the admissible domain: either sign of theta and eta,
    theta*eta up to just below hbar**2, gauge ratios 1e-3 to 1e3."""
    hbar = draw(st.floats(0.2, 3.0))
    theta = draw(st.floats(1e-4, 5.0)) * draw(st.sampled_from([1.0, -1.0]))
    # Fraction of hbar**2 reached by |theta*eta|, including 1 - 1e-12.
    frac = draw(
        st.one_of(
            st.floats(0.0, 0.999),
            st.integers(3, 12).map(lambda k: 1.0 - 10.0**-k),
        )
    )
    eta = frac * hbar**2 / theta * draw(st.sampled_from([1.0, -1.0]))
    ratio = 10.0 ** draw(st.floats(-3.0, 3.0))
    m = draw(st.floats(0.2, 5.0))
    omega = draw(st.floats(0.2, 5.0))
    return physics(theta, eta, ratio=ratio, m=m, omega=omega, hbar=hbar)


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_eigenfunction_is_even_bit_for_bit(phys, n1, n2, seed):
    p, gauge, dc = phys
    w_q = math.sqrt(p.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(p.hbar * dc.alpha / dc.beta)
    widths = np.array([w_q, w_q, w_p, w_p])[:, None]
    # Out to about 12 widths, where the Gaussian factor nears underflow.
    z = np.random.default_rng(seed).normal(0.0, 3.0, (4, 64)) * widths
    qn = QuantumNumbers(n1, n2)
    plus = wigner_eigenfunction(PhaseState(*z), qn, dc, p.hbar)
    minus = wigner_eigenfunction(PhaseState(*-z), qn, dc, p.hbar)
    assert minus.tobytes() == plus.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    admissible_physics(),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_eigenfunction_is_even_under_t_bit_for_bit(phys, n1, n2, seed):
    # T: (Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2) keeps X and L sign-exact.
    p, gauge, dc = phys
    w_q = math.sqrt(p.hbar * dc.beta / dc.alpha)
    w_p = math.sqrt(p.hbar * dc.alpha / dc.beta)
    widths = np.array([w_q, w_q, w_p, w_p])[:, None]
    z = np.random.default_rng(seed).normal(0.0, 3.0, (4, 64)) * widths
    qn = QuantumNumbers(n1, n2)
    plus = wigner_eigenfunction(PhaseState(*z), qn, dc, p.hbar)
    reflected = wigner_eigenfunction(PhaseState(z[0], -z[1], -z[2], z[3]), qn, dc, p.hbar)
    assert reflected.tobytes() == plus.tobytes()
