"""Phase-space eigenfunctions and the star-product eigen-equation.

The stationary Wigner functions of the model factorise over the two
circular normal modes.  Each factor is a Gaussian times a Laguerre
polynomial whose argument is four times the mode action; in the original
coordinates the two actions are (X -+ 2 L)/4 with X the width-scaled
quadratic form and L the angular momentum.  The functions solve the
star-product eigen-equation H * rho = E rho, where the Moyal series of a
quadratic Hamiltonian terminates at second order; the residual of that
equation is the module's self-test, by Richardson-extrapolated central
differences on a 33-point stencil per point, every point of a batch in
one eigenfunction call.  Points are PhaseState values of the commutative
frame, with scalar or array fields.

Every stationary function depends on the point only through X and L
(invariant_pair): wigner_eigenfunction is invariant_pair followed by
wigner_from_invariants.  So phase-space integrals of them reduce to two
dimensions, one per mode action, and phase_space_integral takes its
integrand as a function of (X, L) and integrates it with an n**2
Gauss-Laguerre rule over the two actions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants, J, invariant_pair
from .errors import StepUnderflow
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


def _is_count(n) -> bool:
    """True for a Python or numpy integer; bool is refused although it is an int."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


@dataclass(frozen=True)
class QuantumNumbers:
    """Occupation pair (n1, n2) of the two circular modes.

    Nonnegative integers; n1 counts the mode that gains energy with gamma,
    n2 the one that loses it.  Values up to 6 are validated by the test
    suite; larger ones work but are unverified.
    """

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if not _is_count(n) or n < 0:
                raise ValueError(
                    "quantum numbers must be nonnegative integers, got %r" % (n,)
                )


def laguerre0(n: int, x):
    """Laguerre polynomial L_n(x), computed by the three-term recurrence.

    (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x), which is stable in
    the forward direction for the arguments used here.  Vectorised in x.
    """
    if not _is_count(n) or n < 0:
        raise ValueError("degree must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 - x) * cur - k * prev) / (k + 1.0)
    return cur if cur.ndim else float(cur)


def _check_hbar(hbar) -> None:
    if not (hbar > 0.0 and math.isfinite(hbar)):
        raise ValueError("hbar must be positive and finite, got %r" % (hbar,))


def omega_pm(pt: PhaseState, dc: DerivedConstants):
    """Quadratic mode arguments (Omega_plus, Omega_minus) at a point.

    Omega_pm = (alpha/beta)|Q|**2 + (beta/alpha)|P|**2 -+ 2(Q1 P2 - Q2 P1),
    four times the actions of the two circular modes.  Both are
    nonnegative: each is a sum of two squares of width-scaled coordinates.
    """
    x, ell = invariant_pair(pt, dc)
    return x - 2.0 * ell, x + 2.0 * ell


def wigner_eigenfunction(
    pt: PhaseState, qn: QuantumNumbers, dc: DerivedConstants, hbar: float
):
    """Stationary phase-space eigenfunction at a point (vectorised).

    wigner_from_invariants of the point's invariant_pair.  Raises ValueError
    unless hbar is positive and finite, as do energy_level, stargen_residual
    and phase_space_integral.
    """
    x, ell = invariant_pair(pt, dc)
    return wigner_from_invariants(x, ell, qn, hbar)


def wigner_from_invariants(x, ell, qn: QuantumNumbers, hbar: float):
    """Stationary eigenfunction as a function of the invariants X and L.

    rho = (-1)**(n1+n2) / (pi**2 hbar**2) * exp(-X/hbar)
          * L_n1(Omega_plus/hbar) * L_n2(Omega_minus/hbar)
    with Omega_pm = X -+ 2 L, X the width-scaled quadratic form and L the
    angular momentum.  The prefactor normalises the distribution: its
    phase-space integral is 1 (for every n1, n2).  Vectorised in x and ell.
    """
    _check_hbar(hbar)
    sign = -1.0 if (qn.n1 + qn.n2) % 2 else 1.0
    rho = sign / (np.pi**2 * hbar**2) * np.exp(-x / hbar)
    # L_0 = 1, so a zero quantum number skips an exact multiply by one.
    if qn.n1:
        rho = rho * laguerre0(qn.n1, (x - 2.0 * ell) / hbar)
    if qn.n2:
        rho = rho * laguerre0(qn.n2, (x + 2.0 * ell) / hbar)
    return rho


def energy_level(qn: QuantumNumbers, dc: DerivedConstants, hbar: float) -> float:
    """Spectrum: hbar * (Omega (n1 + n2 + 1) + gamma (n1 - n2)).

    Depends only on Omega and gamma, so it is gauge-ratio invariant; the
    gamma term splits the circular modes like a uniform magnetic field.
    """
    _check_hbar(hbar)
    return hbar * (
        dc.omega_big * (qn.n1 + qn.n2 + 1) + dc.gamma * (qn.n1 - qn.n2)
    )


def hamiltonian_weyl(pt: PhaseState, dc: DerivedConstants):
    """Phase-space symbol of the Hamiltonian in the commutative frame.

    The quadratic form z^T K z of DerivedConstants.K.  Composed with the
    inverse frame map it reproduces the physical two-sector oscillator
    energy, independent of the gauge ratio.
    """
    z = pt.as_array()
    return np.einsum("...i,ij,...j->...", z, dc.K, z)


def stargen_residual(
    pt: PhaseState,
    qn: QuantumNumbers,
    dc: DerivedConstants,
    hbar: float,
    base_step_scale: float = 1e-3,
):
    """Residual H * rho - E rho of the star-product eigen-equation.

    For a quadratic Hamiltonian the Moyal series terminates exactly:

        H * rho = H rho + (i hbar / 2)(dH/dQ . drho/dP - dH/dP . drho/dQ)
                  - (hbar**2 / 8)(H_QQ : rho_PP - 2 H_QP : rho_PQ
                                  + H_PP : rho_QQ)

    The Hamiltonian derivatives are exact; the rho derivatives use central
    differences with Richardson extrapolation (steps h and h/2), h being
    base_step_scale times the Gaussian width of each direction.  The
    imaginary part isolates the bracket term, which must vanish for a
    stationary function.

    Vectorised over points: a PhaseState with array fields of shape (N,)
    gives a complex array of shape (N,), a scalar one a Python complex.
    One wigner_eigenfunction call evaluates the 33-point stencils of all
    points: the point, +-h/2 and +-h on each axis, and the four corners
    at both steps for each coupled pair (Q1-P2, Q2-P1).  A point's residual
    does not depend on the batch, bit for bit.  Raises ValueError if the
    step scale is not finite, and StepUnderflow if it drops below 1e-10 of
    the width.
    """
    _check_hbar(hbar)
    if not math.isfinite(base_step_scale):
        raise ValueError(
            "finite-difference step scale must be finite, got %r" % (base_step_scale,)
        )
    if base_step_scale < 1e-10:
        raise StepUnderflow(
            "finite-difference step %g of the Gaussian width is below 1e-10"
            % base_step_scale
        )
    w_q = np.sqrt(hbar * dc.beta / dc.alpha)
    w_p = np.sqrt(hbar * dc.alpha / dc.beta)
    hs = np.array([w_q, w_q, w_p, w_p]) * base_step_scale * np.array([[0.5], [1.0]])
    # H = z^T K z has gradient 2 K z and Hessian 2 K.  The bracket term is
    # grad H . J grad rho; the second-order term contracts the Hessian of
    # rho with J^T (2 K) J, so only the rho entries under a nonzero weight
    # are differenced (here the diagonal and the pairs Q1-P2, Q2-P1).
    # einsum rather than BLAS: these 4x4 products are too small to gain,
    # and a first BLAS call costs the process about 0.4 MiB of memory.
    hess = 2.0 * dc.K
    weight = np.einsum("ji,jk,kl->il", J, hess, J)
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4) if weight[a, b]]
    signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    # The stencil, at the steps hs[0] = h/2 and hs[1] = h: the point itself,
    # then +-h/2 and +-h along each axis, then the corners of each pair.
    eye = np.eye(4)
    offsets = [0.0 * eye[0]]
    offsets += [
        sig * h[a] * eye[a] for a in range(4) for h in hs for sig in (1.0, -1.0)
    ]
    offsets += [
        s1 * h[a] * eye[a] + s2 * h[b] * eye[b]
        for a, b in pairs for h in hs for s1, s2 in signs
    ]
    z0 = pt.as_array()
    zs = np.moveaxis(z0[..., None, :] + np.array(offsets), -1, 0)
    vals = wigner_eigenfunction(PhaseState(*zs), qn, dc, hbar)
    rho0 = vals[..., 0]
    # Last axes [axis, step, sign] and [pair, step, signs].
    axial = vals[..., 1:17].reshape(rho0.shape + (4, 2, 2))
    corner = vals[..., 17:].reshape(rho0.shape + (len(pairs), 2, 4))

    def richardson(central):
        # (4 c(h/2) - c(h)) / 3 for the central difference c(k, hs[k]).
        return (4.0 * central(0, hs[0]) - central(1, hs[1])) / 3.0

    def cross(p, a, b):
        def central(k, h):
            out = 0.0
            for i, (sig1, sig2) in enumerate(signs):
                out += sig1 * sig2 * corner[..., p, k, i]
            return out / (4.0 * h[a] * h[b])

        return richardson(central)

    grad = richardson(lambda k, h: (axial[..., k, 0] - axial[..., k, 1]) / (2.0 * h))
    bracket = np.einsum("ij,...j,ik,...k->...", hess, z0, J, grad)
    quad = 0.0
    for a in range(4):
        quad += weight[a, a] * richardson(
            lambda k, h: (axial[..., a, k, 0] - 2.0 * rho0 + axial[..., a, k, 1])
            / h[a] ** 2
        )
        for p, (a1, b) in enumerate(pairs):
            if a1 == a:
                quad += 2.0 * weight[a, b] * cross(p, a, b)
    star = hamiltonian_weyl(pt, dc) * rho0 - hbar**2 / 8.0 * quad
    res = star + 1j * (hbar / 2.0) * bracket - energy_level(qn, dc, hbar) * rho0
    return complex(res) if res.ndim == 0 else res


def phase_space_integral(
    func, hbar: float, n_nodes: int = 40, decay: float = 1.0
) -> float:
    """Integral over phase space of a function of the two invariants X and L.

    ``func(x, ell)`` receives (n_nodes, n_nodes) arrays of X and L
    (invariant_pair) and must decay at least like exp(-decay * X / hbar).
    In the width-scaled coordinates q = sqrt(alpha/beta) Q and
    p = sqrt(beta/alpha) P (Jacobian 1),
    Omega_pm = X -+ 2 L = (q1 -+ p2)**2 + (q2 +- p1)**2, so the orthogonal
    change to ((q1 -+ p2)/sqrt2, (q2 +- p1)/sqrt2) makes Omega_plus and
    Omega_minus each twice a squared radius in a plane of its own.
    Integrating out the two polar angles gives

        integral g d^4z = (pi**2 / 4) int_0^inf int_0^inf g da db

    in (a, b) = (Omega_plus, Omega_minus), that is at X = (a + b)/2 and
    L = (b - a)/4.  Gauss-Laguerre nodes t and weights w with
    a = 2 hbar t / decay turn it into the n_nodes**2 point rule

        pi**2 (hbar/decay)**2 sum_ij wt_i wt_j g(a_i, b_j),  wt = w exp(t),

    exact when g exp(decay X / hbar) is a polynomial of degree below
    2 n_nodes in each of a and b: degrees n1 and n2 for the eigenfunction
    of (n1, n2) at decay 1, the sums of two such for a product at decay 2.
    No node depends on the gauge.  Raises ValueError if ``n_nodes`` is not
    an integer from 1 to MAX_NODES (a bool is refused), or ``hbar`` or
    ``decay`` is not a positive finite number.
    """
    _check_hbar(hbar)
    if not _is_count(n_nodes) or not 1 <= n_nodes <= MAX_NODES:
        raise ValueError(
            "n_nodes must be an integer from 1 to %d, got %r" % (MAX_NODES, n_nodes)
        )
    if not (decay > 0.0 and math.isfinite(decay)):
        raise ValueError("decay must be positive and finite, got %r" % (decay,))
    t, w = np.polynomial.laguerre.laggauss(n_nodes)
    wt = w * np.exp(t)
    a = (2.0 * hbar / decay) * t
    a, b = a[:, None], a[None, :]
    vals = func(0.5 * (a + b), 0.25 * (b - a))
    total = float(np.sum(wt[:, None] * wt[None, :] * vals))
    return np.pi**2 * (hbar / decay) ** 2 * total


def wigner_normalization(qn: QuantumNumbers, hbar: float, n_nodes: int = 40) -> float:
    """Measured phase-space integral of the eigenfunction (expected: 1)."""

    def f(x, ell):
        return wigner_from_invariants(x, ell, qn, hbar)

    return phase_space_integral(f, hbar, n_nodes=n_nodes, decay=1.0)
