"""Deformed phase-space algebra and the linear maps that untangle it.

The model lives on a four-dimensional phase space whose coordinates close a
deformed Heisenberg algebra: the two positions fail to commute by a constant
theta, the two momenta by a constant eta, and cross pairs stay canonical.
A Seiberg-Witten-type linear map rewrites the deformed variables in terms of
an auxiliary commutative frame (Q1, Q2, P1, P2).  The map carries a gauge
pair (lambda, mu) whose product is pinned by the algebra; the ratio is free
and must drop out of every physical statement.

Sign conventions: the antisymmetric symbol is fixed to eps_12 = +1
throughout the package, and the gauge product takes the branch that joins
continuously to the commutative limit theta = eta = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGauge, MapNotInvertible
from .states import NCState, PhaseState

__all__ = [
    "PhysicalParams",
    "GaugeChoice",
    "DerivedConstants",
    "gamma_components",
    "solve_gauge_product",
    "make_gauge",
    "derived_constants",
    "sw_to_nc",
    "sw_to_commutative",
    "algebra_residual",
    "invariant_pair",
    "J",
]

# Canonical bracket matrix of (Q1, Q2, P1, P2) in units of i*hbar, which is
# also the symplectic form of Hamilton's equations dz/dt = J grad H.
J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs of the deformed oscillator.

    Parameters
    ----------
    m, omega, hbar : float
        Mass, trap frequency and Planck constant; all strictly positive.
    theta : float
        Position-position deformation (area units).  Either sign.
    eta : float
        Momentum-momentum deformation (action**2 over area).  Either sign.

    Every field must be finite; NaN and infinities raise ValueError.

    The linear maps exist only while theta*eta < hbar**2, so that product
    is rejected at construction time.
    """

    m: float
    omega: float
    hbar: float
    theta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "theta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    "%s must be finite, got %r" % (name, getattr(self, name))
                )
        if self.m <= 0.0 or self.omega <= 0.0 or self.hbar <= 0.0:
            raise ValueError("m, omega and hbar must all be positive")
        if self.theta * self.eta >= self.hbar**2:
            raise MapNotInvertible(
                "theta*eta = %g >= hbar**2 = %g: the frame map degenerates"
                % (self.theta * self.eta, self.hbar**2)
            )

    @property
    def nc_product(self) -> float:
        """Dimensionless deformation strength theta*eta/hbar**2."""
        return self.theta * self.eta / self.hbar**2


@dataclass(frozen=True)
class GaugeChoice:
    """Gauge pair (lam, mu) of the frame map; both entries positive."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.lam <= 0.0 or self.mu <= 0.0:
            raise InvalidGauge("gauge entries must be positive")

    @property
    def ratio(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the commutative-frame Hamiltonian.

    alpha**2 and beta**2 weight the squared positions and momenta, gamma is
    the rotational (beat) frequency, omega_big = 2*alpha*beta the fast
    rotation frequency, and product_lm the gauge product lambda*mu actually
    used.  gamma is nonnegative whenever theta, eta >= 0 but may involve
    cancellation for mixed signs.
    """

    alpha: float
    beta: float
    gamma: float
    omega_big: float
    product_lm: float

    @property
    def K(self) -> np.ndarray:
        """Symmetric 4x4 matrix of the Hamiltonian H = z^T K z.

        z = (Q1, Q2, P1, P2) and H = alpha**2 |Q|**2 + beta**2 |P|**2 +
        gamma (P1 Q2 - P2 Q1); the equations of motion, the Weyl symbol and
        the Moyal terms of the eigen-equation are all derived from K.
        """
        a2, b2, h = self.alpha**2, self.beta**2, 0.5 * self.gamma
        return np.array(
            [
                [a2, 0.0, 0.0, -h],
                [0.0, a2, h, 0.0],
                [0.0, h, b2, 0.0],
                [-h, 0.0, 0.0, b2],
            ]
        )

    @property
    def A(self) -> np.ndarray:
        """Generator of the flow: Hamilton's equations read dz/dt = A z, A = 2 J K."""
        return (2.0 * J) @ self.K


def gamma_components(params: PhysicalParams) -> tuple[float, float]:
    """Frequency contributions of the two deformations.

    Returns the pair (position part, momentum part); their sum is the beat
    frequency gamma and their difference controls which of the two carries
    the fast oscillation of the sector energies.
    """
    g_theta = params.m * params.omega**2 * params.theta / (2.0 * params.hbar)
    g_eta = params.eta / (2.0 * params.m * params.hbar)
    return g_theta, g_eta


def solve_gauge_product(params: PhysicalParams) -> float:
    """Product lambda*mu solving the gauge constraint.

    The constraint is quadratic; of its two roots we return
    (1 + sqrt(1 - theta*eta/hbar**2)) / 2, the branch that tends to 1 in
    the commutative limit.  Raises MapNotInvertible when theta*eta >=
    hbar**2, where the square root would leave the real axis.
    """
    x = params.theta * params.eta / params.hbar**2
    if x >= 1.0:
        raise MapNotInvertible(
            "theta*eta/hbar**2 = %g >= 1: no real gauge product" % x
        )
    return 0.5 * (1.0 + math.sqrt(1.0 - x))


def make_gauge(params: PhysicalParams, ratio: float = 1.0) -> GaugeChoice:
    """Build a gauge pair with the constrained product and a chosen ratio.

    ``ratio`` is lambda/mu; it rescales the commutative frame but cancels
    from every observable.  Raises InvalidGauge, naming the ratio, for a
    ratio that is not positive, or one (infinity included) so extreme that
    lambda or mu underflows to zero or overflows to infinity.
    """
    if not ratio > 0.0:
        raise InvalidGauge("gauge ratio must be positive, got %r" % (ratio,))
    product = solve_gauge_product(params)
    lam = math.sqrt(product * ratio)
    mu = math.sqrt(product / ratio)
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        raise InvalidGauge(
            "gauge ratio %r gives lambda = %r, mu = %r; both must be positive "
            "and finite" % (ratio, lam, mu)
        )
    return GaugeChoice(lam=lam, mu=mu)


def derived_constants(
    params: PhysicalParams, gauge: GaugeChoice | None = None
) -> DerivedConstants:
    """Hamiltonian constants for a parameter set and gauge.

    With ``gauge=None`` the ratio-1 gauge is used.  A gauge whose product
    disagrees with the constraint is rejected: observables computed from an
    off-shell gauge would silently depend on the frame.
    """
    if gauge is None:
        gauge = make_gauge(params)
    expected = solve_gauge_product(params)
    product = gauge.lam * gauge.mu
    if abs(product - expected) > 1e-10 * expected:
        raise InvalidGauge(
            "gauge product %.17g violates the constraint (expected %.17g)"
            % (product, expected)
        )
    m, w, hb = params.m, params.omega, params.hbar
    lam, mu = gauge.lam, gauge.mu
    alpha = math.sqrt(
        0.5 * m * w**2 * lam**2 + params.eta**2 / (8.0 * m * hb**2 * mu**2)
    )
    beta = math.sqrt(
        mu**2 / (2.0 * m) + m * w**2 * params.theta**2 / (8.0 * hb**2 * lam**2)
    )
    g_theta, g_eta = gamma_components(params)
    return DerivedConstants(
        alpha=alpha,
        beta=beta,
        gamma=g_theta + g_eta,
        omega_big=2.0 * alpha * beta,
        product_lm=product,
    )


def _forward_matrix(params: PhysicalParams, gauge: GaugeChoice) -> np.ndarray:
    lam, mu = gauge.lam, gauge.mu
    # Off-diagonal weights of the forward map; eps_12 = +1.
    c = params.theta / (2.0 * lam * params.hbar)
    d = params.eta / (2.0 * mu * params.hbar)
    # Rows: (q1, q2, p1, p2) in the ordered basis (Q1, Q2, P1, P2).
    return np.array(
        [
            [lam, 0.0, 0.0, -c],
            [0.0, lam, c, 0.0],
            [0.0, d, mu, 0.0],
            [-d, 0.0, 0.0, mu],
        ]
    )


def sw_to_nc(state: PhaseState, params: PhysicalParams, gauge: GaugeChoice) -> NCState:
    """Forward frame map: commutative state -> deformed variables.

    Positions mix with the opposite momentum through theta, momenta with
    the opposite position through eta.  Works elementwise on array fields.
    Every output is summed over all four inputs, zero weights included, so
    one non-finite component makes the whole mapped point non-finite
    (0 * inf is NaN).
    """
    # einsum sums each row in column order, so the result has the bits of
    # the written-out products; BLAS (z @ M.T) would not.
    z = np.einsum("ij,...j->i...", _forward_matrix(params, gauge), state.as_array())
    return NCState(*z)


def sw_to_commutative(
    nc: NCState, params: PhysicalParams, gauge: GaugeChoice
) -> PhaseState:
    """Inverse frame map: deformed variables -> commutative state.

    The overall prefactor (1 - theta*eta/hbar**2)**(-1/2) diverges as the
    deformation product approaches hbar**2; the map raises
    MapNotInvertible at and beyond that point but stays finite anywhere
    inside the domain (even at theta*eta/hbar**2 = 0.99).
    """
    x = params.theta * params.eta / params.hbar**2
    if x >= 1.0:
        raise MapNotInvertible(
            "theta*eta/hbar**2 = %g >= 1: inverse map undefined" % x
        )
    pref = 1.0 / math.sqrt(1.0 - x)
    lam, mu = gauge.lam, gauge.mu
    a = params.theta / (2.0 * lam * mu * params.hbar)
    b = params.eta / (2.0 * lam * mu * params.hbar)
    return PhaseState(
        Q1=mu * pref * (nc.q1 + a * nc.p2),
        Q2=mu * pref * (nc.q2 - a * nc.p1),
        P1=lam * pref * (nc.p1 - b * nc.q2),
        P2=lam * pref * (nc.p2 + b * nc.q1),
    )


def algebra_residual(params: PhysicalParams, gauge: GaugeChoice) -> float:
    """Worst-case bracket defect of the frame map.

    Pushes the canonical brackets of the commutative frame through the map
    and compares against the target deformed algebra; returns the max-norm
    of the difference.  Zero (to roundoff) certifies the gauge product; a
    perturbed product shows up as a strictly positive residual, so this
    function deliberately accepts off-shell gauges.
    """
    M = _forward_matrix(params, gauge)
    hb, th, et = params.hbar, params.theta, params.eta
    target = np.array(
        [
            [0.0, th, hb, 0.0],
            [-th, 0.0, 0.0, hb],
            [-hb, 0.0, 0.0, et],
            [0.0, -hb, -et, 0.0],
        ]
    )
    return float(np.max(np.abs(hb * (M @ J @ M.T) - target)))


def invariant_pair(state: PhaseState, dc: DerivedConstants):
    """The two conserved quantities of the flow of H = z^T K z.

    The first is the weighted quadratic form alpha/beta * |Q|**2 +
    beta/alpha * |P|**2 (fast-rotation action), the second the angular
    momentum Q1*P2 - Q2*P1 (slow-rotation generator).  Both are exactly
    constant along the analytic flow.  They are the X and L of the Wigner
    functions and of the simulate command's drift checks.
    """
    r = dc.alpha / dc.beta
    i1 = r * (state.Q1**2 + state.Q2**2) + (state.P1**2 + state.P2**2) / r
    i2 = state.Q1 * state.P2 - state.Q2 * state.P1
    return i1, i2
