"""Phase-space eigenfunctions and the star-product eigen-equation.

The stationary Wigner functions of the model factorise over the two
circular normal modes.  Each factor is a Gaussian times a Laguerre
polynomial whose argument is four times the mode action; in the original
coordinates the two actions are (X -+ 2 L)/4 with X the width-scaled
quadratic form and L the angular momentum.  The functions solve the
star-product eigen-equation H * rho = E rho, where the Moyal series of a
quadratic Hamiltonian terminates at second order; the residual of that
equation is the module's self-test.  It takes the exact gradient and
Hessian of rho, which depends on the point only through the two quadratic
forms Omega_pm, so both follow by the chain rule from derivatives of the
Laguerre factors.  Only its real part tests rho: the bracket term, its
imaginary part, vanishes for every function of Omega_pm ({H, Omega_pm} = 0).
Points are PhaseState values of the commutative frame, with scalar or array
fields; hbar comes from the DerivedConstants every function takes.

Every stationary function depends on the point only through X and L
(invariant_pair): wigner_eigenfunction is invariant_pair followed by
wigner_from_invariants.  So phase-space integrals of them reduce to two
dimensions, one per mode action, and phase_space_integral takes its
integrand as a function of (X, L) and integrates it with an n**2
Gauss-Laguerre rule over the two actions.  The module builds that rule
itself from the Laguerre recurrence (_laguerre_rule), in plain NumPy, so
that a run makes no LAPACK call.

The layer computes in the units of the model's core: invariant_pair hands
it X/hbar and L/hbar of the point in units (DerivedConstants.state_unit).
hbar is left only in the units of what a function returns: 1/hbar**2 of a
density, hbar**2 of a phase-space volume, hbar of Omega_pm and an energy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants, J, invariant_pair, quadratic_form
from .states import PhaseState

__all__ = [
    "QuantumNumbers",
    "laguerre0",
    "omega_pm",
    "wigner_eigenfunction",
    "wigner_from_invariants",
    "energy_level",
    "hamiltonian_weyl",
    "stargen_residual",
    "phase_space_integral",
    "wigner_normalization",
    "MAX_NODES",
]

# Largest node count of phase_space_integral, whose weights are w exp(t): the
# largest Gauss-Laguerre node t is 708.7 at 185 nodes and 712.6 at 186, past
# log(float max) = 709.8, where exp(t) overflows.
MAX_NODES = 185


@functools.cache
def _laguerre_rule(n: int):
    """Gauss-Laguerre nodes t and weights wt = w exp(t) of an n-node rule,
    both read-only; built once per node count, at most MAX_NODES of them.

    The n roots of L_n lie in (0, 4n + 2).  Sign changes of L_n on a grid
    uniform in sqrt(t) bracket them one by one, and Newton steps with
    L_n' = n (L_n - L_{n-1}) / t refine all at once, bisecting where a
    step leaves its bracket, until every step is below 1e-9 t, then once
    more.  The weights are 1 / (L_{n-1} L_n') at the roots, each factor
    scaled by its largest value so nothing overflows, normalized to sum 1.
    For every n up to MAX_NODES, t is within 6e-13 of numpy's rule and
    3e-13 of scipy's roots_laguerre, wt within 1.1e-10 and 8e-11
    (relative), about as close as numpy's rule is to scipy's.  numpy's
    rule is not used: it finds the roots with a LAPACK eigensolver, and
    a first LAPACK call costs the process about 1 MiB.
    """
    grid = np.linspace(0.0, math.sqrt(4.0 * n + 2.0), 4 * n + 2)[1:] ** 2
    neg = np.signbit(_laguerre_pair(n, 0, grid)[1])
    k = np.flatnonzero(neg[:-1] != neg[1:])
    lo, hi, neg_lo = grid[k], grid[k + 1], neg[k]
    t, last = 0.5 * (lo + hi), False
    while True:
        prev, f = _laguerre_pair(n, 0, t)
        below = np.signbit(f) == neg_lo
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        new = t - f * t / (n * (f - prev))
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        t, step = new, np.abs(new - t)
        if last:
            break
        last = bool(np.all(step <= 1e-9 * t))
    prev, f = _laguerre_pair(n, 0, t)
    deriv = n * (f - prev) / t
    w = 1.0 / (prev / np.abs(prev).max() * (deriv / np.abs(deriv).max()))
    wt = w / w.sum() * np.exp(t)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _is_count(n) -> bool:
    """True for a Python or numpy integer; bool is refused although it is an int."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class QuantumNumbers:
    """Occupation pair (n1, n2) of the two circular modes.

    Nonnegative integers; n1 counts the mode that gains energy with gamma,
    n2 the one that loses it.  Values up to 6 are validated by the test
    suite; larger ones work but are unverified.  A Gauss-Laguerre rule of
    k nodes integrates the normalization exactly only while n1 and n2 are
    at most 2k - 1, so ``nclab wigner``, whose coarsest rule has
    ``nodes - 10`` nodes, refuses either above 2 (nodes - 10) - 1 (59 at
    the default 40 nodes).
    """

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if not _is_count(n) or n < 0:
                raise ValueError(
                    "quantum numbers must be nonnegative integers, got %r" % (n,)
                )


def _laguerre_pair(n: int, k: int, x):
    """(L_{n-1}^(k)(x), L_n^(k)(x)) for n >= 1 and an array x.

    (j+1) L_{j+1}(x) = (2j+1+k-x) L_j(x) - (j+k) L_{j-1}(x), which is stable
    in the forward direction for the arguments used here.
    """
    prev, cur = np.ones_like(x), 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2.0 * j + 1.0 + k - x) * cur - (j + k) * prev) / (j + 1.0)
    return prev, cur


def _laguerre(n: int, k: int, x):
    """Generalised Laguerre polynomial L_n^(k)(x); zero for n < 0.
    Vectorised in x."""
    x = np.asarray(x, dtype=float)
    if n <= 0:
        lag = np.ones_like(x) if n == 0 else np.zeros_like(x)
    else:
        lag = _laguerre_pair(n, k, x)[1]
    return lag if lag.ndim else float(lag)


def laguerre0(n: int, x):
    """Laguerre polynomial L_n(x), computed by the three-term recurrence.

    (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x), which is stable in
    the forward direction for the arguments used here.  Vectorised in x.
    """
    if not _is_count(n) or n < 0:
        raise ValueError("degree must be a nonnegative integer")
    return _laguerre(n, 0, x)


def omega_pm(pt: PhaseState, dc: DerivedConstants):
    """Quadratic mode arguments (Omega_plus, Omega_minus) at a point.

    Omega_pm = (alpha/beta)|Q|**2 + (beta/alpha)|P|**2 -+ 2(Q1 P2 - Q2 P1),
    four times the actions of the two circular modes: hbar (x -+ 2 ell) of
    invariant_pair's (x, ell).  Both are nonnegative: each is a sum of two
    squares of width-scaled coordinates.
    """
    x, ell = invariant_pair(pt, dc)
    return dc.hbar * (x - 2.0 * ell), dc.hbar * (x + 2.0 * ell)


def wigner_eigenfunction(pt: PhaseState, qn: QuantumNumbers, dc: DerivedConstants):
    """Stationary phase-space eigenfunction at a point (vectorised).

    wigner_from_invariants of the point's invariant_pair.
    """
    x, ell = invariant_pair(pt, dc)
    return wigner_from_invariants(x, ell, qn, dc)


def _gaussian(x, qn: QuantumNumbers, hbar: float):
    """rho without its Laguerre factors: (-1)**(n1+n2) exp(-x) / (pi hbar)**2."""
    sign = -1.0 if (qn.n1 + qn.n2) % 2 else 1.0
    return sign / (np.pi**2 * hbar**2) * np.exp(-x)


def wigner_from_invariants(x, ell, qn: QuantumNumbers, dc: DerivedConstants):
    """Stationary eigenfunction as a function of x = X/hbar and ell = L/hbar.

    rho = (-1)**(n1+n2) / (pi**2 hbar**2) * exp(-x)
          * L_n1(x - 2 ell) * L_n2(x + 2 ell)
    with X the width-scaled quadratic form and L the angular momentum of
    invariant_pair, so x -+ 2 ell is Omega_pm/hbar.  The prefactor
    normalises the distribution: its phase-space integral is 1 (for every
    n1, n2).  Vectorised in x and ell.  Of ``dc`` only hbar is used, so the
    value does not depend on the gauge.
    """
    rho = _gaussian(x, qn, dc.hbar)
    # L_0 = 1, so a zero quantum number skips an exact multiply by one.
    if qn.n1:
        rho = rho * laguerre0(qn.n1, x - 2.0 * ell)
    if qn.n2:
        rho = rho * laguerre0(qn.n2, x + 2.0 * ell)
    return rho


def energy_level(qn: QuantumNumbers, dc: DerivedConstants) -> float:
    """Spectrum: hbar * (Omega (n1 + n2 + 1) + gamma (n1 - n2)).

    Depends only on Omega and gamma, so it is gauge-ratio invariant; the
    gamma term splits the circular modes like a uniform magnetic field.
    """
    return dc.hbar * (
        dc.omega_big * (qn.n1 + qn.n2 + 1) + dc.gamma * (qn.n1 - qn.n2)
    )


def hamiltonian_weyl(pt: PhaseState, dc: DerivedConstants):
    """Phase-space symbol of the Hamiltonian in the commutative frame.

    The quadratic form z^T K z of DerivedConstants.K, evaluated as hbar*omega
    times the core's form of the point in units.  Composed with the inverse
    frame map it reproduces the physical two-sector oscillator energy,
    independent of the gauge ratio.
    """
    return dc.hbar * dc.omega * quadratic_form(pt.as_array() / dc.state_unit, dc.core.K)


def _mode_factor(n: int, u):
    """One mode factor exp(-u/2) L_n(u) at u = Omega/hbar.

    Returns the factor and its first and second derivatives in u, each
    divided by exp(-u/2), from L_n' = -L_{n-1}^(1) and L_n'' = L_{n-2}^(2).
    """
    f, d1, d2 = _laguerre(n, 0, u), _laguerre(n - 1, 1, u), _laguerre(n - 2, 2, u)
    return f, -0.5 * f - d1, 0.25 * f + d1 + d2


def stargen_residual(pt: PhaseState, qn: QuantumNumbers, dc: DerivedConstants):
    """Residual H * rho - E rho of the star-product eigen-equation.

    For a quadratic Hamiltonian the Moyal series terminates exactly:

        H * rho = H rho + (i hbar / 2)(dH/dQ . drho/dP - dH/dP . drho/dQ)
                  - (hbar**2 / 8)(H_QQ : rho_PP - 2 H_QP : rho_PQ
                                  + H_PP : rho_QQ)

    Both sets of derivatives are exact.  rho = c f1(Omega_plus) f2(Omega_minus)
    (omega_pm) with Omega_pm = z^T M_pm z, so grad Omega_pm = 2 M_pm z and the
    gradient and Hessian of rho follow by the chain rule from the mode
    factors' derivatives.  The imaginary part is the bracket term
    grad H . J grad rho.  It vanishes for every function of (X, L), not only
    for a stationary one, because {H, Omega_pm} = 0; so it checks that K and
    invariant_pair agree, and only the real part tests rho.

    Vectorised over points: a PhaseState with array fields of shape (N,)
    gives a complex array of shape (N,), a scalar one a Python complex.  A
    point's residual does not depend on the batch, bit for bit.  It is
    formed in the core's units, where hbar = 1, and multiplied by
    omega/hbar, the unit of H rho.
    """
    core, k = dc.core, dc.omega / dc.hbar
    x, ell = invariant_pair(pt, dc)
    f1, d1, dd1 = _mode_factor(qn.n1, x - 2.0 * ell)
    f2, d2, dd2 = _mode_factor(qn.n2, x + 2.0 * ell)
    pre = _gaussian(x, qn, 1.0)
    rho0 = pre * f1 * f2
    # X = z^T diag(r, r, 1/r, 1/r) z and L = z^T S z / 2, Omega_pm = X -+ 2 L.
    r = core.alpha / core.beta
    diag = np.diag([r, r, 1.0 / r, 1.0 / r])
    s = np.array(
        [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
         [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    m_plus, m_minus = diag - s, diag + s
    z0 = pt.as_array() / dc.state_unit
    g_plus = 2.0 * np.einsum("ij,...j->...i", m_plus, z0)
    g_minus = 2.0 * np.einsum("ij,...j->...i", m_minus, z0)
    # H = z^T K z has gradient 2 K z and Hessian 2 K.  The bracket term is
    # grad H . J grad rho; the second-order term contracts the Hessian of
    # rho with J^T (2 K) J.  einsum rather than BLAS: these 4x4 products are
    # too small to gain, and a first BLAS call costs the process about
    # 0.4 MiB of memory.
    hess = 2.0 * core.K
    weight = np.einsum("ji,jk,kl->il", J, hess, J)

    def form(u, v):
        return np.einsum("...i,ij,...j->...", u, weight, v)

    # d rho / d Omega_plus and d rho / d Omega_minus.
    dp, dm = pre * d1 * f2, pre * f1 * d2
    grad = dp[..., None] * g_plus + dm[..., None] * g_minus
    bracket = np.einsum("ij,...j,ik,...k->...", hess, z0, J, grad)
    # The Hessian's cross term, d1 d2 (g_plus g_minus^T + transpose), drops
    # out: M_plus J^T K J M_minus = 0, because H does not couple the modes.
    quad = pre / 8.0 * (
        dd1 * f2 * form(g_plus, g_plus) + f1 * dd2 * form(g_minus, g_minus)
    ) + 0.25 * (
        dp * np.einsum("ij,ij->", weight, m_plus)
        + dm * np.einsum("ij,ij->", weight, m_minus)
    )
    star = k * (quadratic_form(z0, core.K) * rho0 - quad)
    res = star + 0.5j * (k * bracket) - k * energy_level(qn, core) * rho0
    return complex(res) if res.ndim == 0 else res


def phase_space_integral(
    func, dc: DerivedConstants, n_nodes: int = 40, decay: float = 1.0
) -> float:
    """Integral over phase space of a function of the two invariants X and L.

    ``func(x, ell)`` receives (n_nodes, n_nodes) arrays of x = X/hbar and
    ell = L/hbar (invariant_pair) and must decay at least like
    exp(-decay * x); the integral is over the dimensional phase space.
    In the width-scaled coordinates q = sqrt(alpha/beta) Q and
    p = sqrt(beta/alpha) P (Jacobian 1),
    Omega_pm = X -+ 2 L = (q1 -+ p2)**2 + (q2 +- p1)**2, so the orthogonal
    change to ((q1 -+ p2)/sqrt2, (q2 +- p1)/sqrt2) makes Omega_plus and
    Omega_minus each twice a squared radius in a plane of its own.
    Integrating out the two polar angles gives

        integral g d^4z = (pi**2 hbar**2 / 4) int_0^inf int_0^inf g da db

    in (a, b) = (Omega_plus, Omega_minus)/hbar, that is at x = (a + b)/2 and
    ell = (b - a)/4.  Gauss-Laguerre nodes t and weights w with
    a = 2 t / decay turn it into the n_nodes**2 point rule

        pi**2 (hbar/decay)**2 sum_ij wt_i wt_j g(a_i, b_j),  wt = w exp(t),

    exact when g exp(decay x) is a polynomial of degree below
    2 n_nodes in each of a and b: degrees n1 and n2 for the eigenfunction
    of (n1, n2) at decay 1, the sums of two such for a product at decay 2.
    No node depends on the gauge: of ``dc`` only hbar is used.  The rule
    of each node count is built on first use, in plain NumPy without a
    LAPACK call (_laguerre_rule: within 6e-13 of numpy's rule in t and
    1.1e-10 in wt), once per process, and shared, read-only, by every
    later call (at most MAX_NODES rules are kept).  Raises ValueError if
    ``n_nodes`` is not an integer from 1 to MAX_NODES (a bool is refused),
    or ``decay`` is not a positive finite number.
    """
    if not _is_count(n_nodes) or not 1 <= n_nodes <= MAX_NODES:
        raise ValueError(
            "n_nodes must be an integer from 1 to %d, got %r" % (MAX_NODES, n_nodes)
        )
    if not (decay > 0.0 and math.isfinite(decay)):
        raise ValueError("decay must be positive and finite, got %r" % (decay,))
    t, wt = _laguerre_rule(int(n_nodes))
    a = (2.0 / decay) * t
    a, b = a[:, None], a[None, :]
    vals = func(0.5 * (a + b), 0.25 * (b - a))
    total = float(np.sum(wt[:, None] * wt[None, :] * vals))
    return np.pi**2 * (dc.hbar / decay) ** 2 * total


def wigner_normalization(
    qn: QuantumNumbers, dc: DerivedConstants, n_nodes: int = 40
) -> float:
    """Measured phase-space integral of the eigenfunction (expected: 1)."""

    def f(x, ell):
        return wigner_from_invariants(x, ell, qn, dc)

    return phase_space_integral(f, dc, n_nodes=n_nodes, decay=1.0)
