"""Phase-space eigenfunctions and the star-product eigen-equation.

The stationary Wigner functions of the model factorise over the two
circular normal modes.  Each factor is a Gaussian times a Laguerre
polynomial whose argument is four times the mode action; in the original
coordinates the two actions are (X -+ 2 L)/4 with X the width-scaled
quadratic form and L the angular momentum.  The functions solve the
star-product eigen-equation H * rho = E rho, where the Moyal series of a
quadratic Hamiltonian terminates at second order; the residual of that
equation, evaluated with Richardson-extrapolated central differences, is
the module's self-test.  Points are PhaseState values of the commutative
frame, with scalar or array fields.

Every stationary function depends on the point only through X and L, so it
is even under z -> -z and under T: (Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2),
and exactly so in floating point.  The Gauss-Hermite quadrature
(phase_space_integral) relies on both: it evaluates half of the Q2 rows of
half of the Q1 nodes, a quarter of the grid, and fills the rest by the two
reflections.  It evaluates one reflected Q2 row of every evaluated node and
two rows of every mirrored node directly, so an integrand with a term odd
under T (such as Q1 Q2 or P1 P2) or an odd linear term raises ValueError.
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
    "energy_level",
    "hamiltonian_weyl",
    "stargen_residual",
    "phase_space_integral",
    "wigner_normalization",
]

# Integrand points per call of ``func`` in phase_space_integral: whole Q2
# rows of an n**2 (P1, P2) plane, as many as fit (at least one).  Blocks of
# 5k to 20k points keep each temporary in L2 and measured alike.
QUAD_BLOCK_POINTS = 10_000


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

    rho = (-1)**(n1+n2) / (pi**2 hbar**2) * exp(-X/hbar)
          * L_n1(Omega_plus/hbar) * L_n2(Omega_minus/hbar)
    with X the width-scaled quadratic form.  The prefactor normalises the
    distribution: its phase-space integral is 1 (for every n1, n2).
    X and L are the two invariants of the flow (invariant_pair).  Raises
    ValueError unless hbar is positive and finite, as do energy_level,
    stargen_residual and phase_space_integral.
    """
    _check_hbar(hbar)
    x, ell = invariant_pair(pt, dc)
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


def stargen_residual(
    pt: PhaseState,
    qn: QuantumNumbers,
    dc: DerivedConstants,
    hbar: float,
    base_step_scale: float = 1e-3,
) -> complex:
    """Residual H * rho - E rho of the star-product eigen-equation.

    For a quadratic Hamiltonian the Moyal series terminates exactly:

        H * rho = H rho + (i hbar / 2)(dH/dQ . drho/dP - dH/dP . drho/dQ)
                  - (hbar**2 / 8)(H_QQ : rho_PP - 2 H_QP : rho_PQ
                                  + H_PP : rho_QQ)

    The Hamiltonian derivatives are exact; the rho derivatives use central
    differences with Richardson extrapolation (steps h and h/2), h being
    base_step_scale times the Gaussian width of each direction.  The
    imaginary part isolates the bracket term, which must vanish for a
    stationary function.  Raises ValueError if the step scale is not
    finite, and StepUnderflow if it drops below 1e-10 of the width.
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
    steps = np.array([w_q, w_q, w_p, w_p]) * base_step_scale

    def rho(z):
        return wigner_eigenfunction(PhaseState(*z), qn, dc, hbar)

    z0 = pt.as_array()
    rho0 = rho(z0)
    grad = np.array(
        [_richardson_first(rho, z0, a, steps[a]) for a in range(4)]
    )
    # H = z^T K z has gradient 2 K z and Hessian 2 K.  The bracket term is
    # grad H . J grad rho; the second-order term contracts the Hessian of
    # rho with J^T (2 K) J, so only the rho entries under a nonzero weight
    # are differenced (here the diagonal and the pairs Q1-P2, Q2-P1).
    # einsum rather than BLAS: these 4x4 products are too small to gain,
    # and a first BLAS call costs the process about 0.4 MiB of memory.
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
    return complex(star - energy_level(qn, dc, hbar) * rho0)


def phase_space_integral(
    func,
    dc: DerivedConstants,
    hbar: float,
    n_nodes: int = 40,
    decay: float = 1.0,
) -> float:
    """Gauss-Hermite integral of ``func`` over the four phase-space axes.

    ``func`` must accept four broadcastable arrays (Q1, Q2, P1, P2) and
    decay at least like exp(-decay * X / hbar) with X the width-scaled
    quadratic form; the nodes are rescaled by the Gaussian widths over
    sqrt(decay), which makes the rule exact for Gaussian-times-polynomial
    integrands.

    ``func`` must also be even, bit for bit, under two reflections: z -> -z
    and T: (Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2).  Every function of X and
    the angular momentum L = Q1 P2 - Q2 P1 (the eigenfunctions, their
    products and powers) is, because squares and the products in L are
    sign-exact.  The Gauss-Hermite nodes are exactly antisymmetric, so in
    the (Q2, P1, P2) slice of a Q1 node, Q2 row n_nodes-1-j is row j
    reversed along P1 (T), and the slice at the mirror Q1 node n_nodes-1-i
    is the slice at node i reversed on all three axes (z -> -z).  ``func``
    therefore runs only on the first ceil(n_nodes/2) Q2 rows of the first
    ceil(n_nodes/2) Q1 nodes, about a quarter of the n_nodes**4 points.

    Two probes evaluate more rows directly and raise ValueError unless they
    equal the filled rows.  At every evaluated Q1 node, the first reflected
    Q2 row (row ceil(n_nodes/2), at a nonzero Q2 and every (P1, P2) node)
    is checked against T, so an integrand with a term odd under T, such as
    Q1 Q2, Q1 P1, Q2 P2 or P1 P2 times an even function, fails.  Each
    mirror node n_nodes-1-i evaluates the Q2 rows i and i+1 and checks them
    against z -> -z; their (Q1, Q2) points lie on two different lines
    through the origin and every (P1, P2) node is probed, so an integrand
    with any odd term linear in z fails.  As rows i and i+1 of node
    n_nodes-1-i are compared with rows that T filled, this probe sees most
    T-odd terms too, but not on the middle Q1 node of an odd n_nodes, which
    has no mirror.  An odd part that vanishes on every probed row is not
    seen.

    For each evaluated Q1 node, ``func`` fills the first ceil(n_nodes/2) Q2
    rows of one reused (Q2, P1, P2) buffer in blocks of whole rows (see
    QUAD_BLOCK_POINTS), so its temporaries stay cache-sized; the weighted
    sum then runs over the whole buffer and the node sums are added in node
    order, so the result does not depend on the block size and has the bits
    of evaluating every node.  Raises ValueError if ``n_nodes`` is not an
    integer of at least 1 (a bool is refused), or ``hbar`` or ``decay`` is
    not a positive finite number.
    """
    _check_hbar(hbar)
    if not _is_count(n_nodes) or n_nodes < 1:
        raise ValueError("n_nodes must be an integer of at least 1, got %r" % (n_nodes,))
    if not (decay > 0.0 and math.isfinite(decay)):
        raise ValueError("decay must be positive and finite, got %r" % (decay,))
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    wfac = weights * np.exp(nodes**2)
    w_q = np.sqrt(hbar * dc.beta / dc.alpha / decay)
    w_p = np.sqrt(hbar * dc.alpha / dc.beta / decay)
    jac = (hbar / decay) ** 2
    q2 = (w_q * nodes)[:, None, None]
    p1 = (w_p * nodes)[None, :, None]
    p2 = (w_p * nodes)[None, None, :]
    wsub = (
        wfac[:, None, None] * wfac[None, :, None] * wfac[None, None, :]
    )
    jb = max(1, QUAD_BLOCK_POINTS // n_nodes**2)
    h = (n_nodes + 1) // 2
    vals = np.empty((n_nodes,) * 3)
    prod = np.empty_like(vals)
    sums = [0.0] * n_nodes

    def probe(k, lo, rows, symmetry):
        # Evaluate Q2 rows lo.. of Q1 node k directly; they must be ``rows``.
        got = func(w_q * nodes[k], q2[lo : lo + len(rows)], p1, p2)
        # NaN matches NaN, so a NaN integrand still integrates to NaN.
        if not np.array_equal(np.broadcast_to(got, rows.shape), rows, equal_nan=True):
            raise ValueError(
                "integrand is not even under %s (Q1 node %d, Q2 rows %d-%d)"
                % (symmetry, k, lo, lo + len(rows) - 1)
            )

    for i in range(h):
        for j in range(0, h, jb):
            hi = min(j + jb, h)
            vals[j:hi] = func(w_q * nodes[i], q2[j:hi], p1, p2)
        # Row n_nodes-1-j is row j at (-Q2, -P1): reversed along P1.
        vals[h:] = vals[: n_nodes - h][::-1, ::-1]
        if h < n_nodes:
            probe(i, h, vals[h : h + 1], "(Q1, Q2, P1, P2) -> (Q1, -Q2, -P1, P2)")
        sums[i] = float(np.sum(np.multiply(wsub, vals, out=prod)))
        m = n_nodes - 1 - i
        if m == i:
            continue
        mirror = vals[::-1, ::-1, ::-1]
        # Row i alone puts every probe on Q1 + Q2 = 0; row i + 1 (< n_nodes,
        # since i < m) leaves that line.
        probe(m, i, mirror[i : i + 2], "z -> -z")
        sums[m] = float(np.sum(np.multiply(wsub, mirror, out=prod)))
    total = 0.0
    for i in range(n_nodes):
        total += wfac[i] * sums[i]
    return jac * total


def wigner_normalization(
    qn: QuantumNumbers, dc: DerivedConstants, hbar: float, n_nodes: int = 40
) -> float:
    """Measured phase-space integral of the eigenfunction (expected: 1)."""

    def f(q1, q2, p1, p2):
        return wigner_eigenfunction(PhaseState(q1, q2, p1, p2), qn, dc, hbar)

    return phase_space_integral(f, dc, hbar, n_nodes=n_nodes, decay=1.0)
