"""Deformed phase-space algebra and the linear maps that untangle it.

The model lives on a four-dimensional phase space whose coordinates close a
deformed Heisenberg algebra: the two positions fail to commute by a constant
theta, the two momenta by a constant eta, and cross pairs stay canonical.
A Seiberg-Witten-type linear map rewrites the deformed variables in terms of
an auxiliary commutative frame (Q1, Q2, P1, P2).  The map carries a gauge
pair (lambda, mu) whose product is pinned by the algebra; the ratio is free
and must drop out of every physical statement.

derived_constants validates a gauge against a parameter set and returns
the one model object, DerivedConstants, that the other layers take: it
holds the inputs, hbar, the Hamiltonian form K and the frame matrix M.
The model itself is built once, at m = omega = hbar = 1 from the
dimensionless pair (a, b) and the gauge (DerivedConstants.core); m, omega
and hbar enter only as the oscillator units omega, hbar, l_q and l_p.

Sign conventions: the antisymmetric symbol is fixed to eps_12 = +1
throughout the package, and the gauge product takes the branch that joins
continuously to the commutative limit theta = eta = 0.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InvalidGauge, MapNotInvertible
from .states import NCState, PhaseState

__all__ = [
    "PhysicalParams",
    "GaugeChoice",
    "DerivedConstants",
    "gamma_components",
    "solve_gauge_product",
    "make_gauge",
    "derived_constants",
    "check_scales",
    "sw_to_nc",
    "sw_to_commutative",
    "algebra_residual",
    "invariant_pair",
    "quadratic_form",
    "J",
]

# Canonical bracket matrix of (Q1, Q2, P1, P2) in units of i*hbar, which is
# also the symplectic form of Hamilton's equations dz/dt = J grad H.
J = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
              [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])


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

    Every field must be finite; NaN and infinities raise ValueError.  The
    model reads m, omega and hbar only through the dimensionless pair (a, b)
    and the units of DerivedConstants.  m*omega, which a, b and the units
    are formed from, must be a normal float and a and b finite, else
    DomainError.  The linear maps exist only while nc_product = a*b =
    theta*eta/hbar**2 < 1, so a larger product raises MapNotInvertible at
    construction time.
    """

    m: float
    omega: float
    hbar: float
    theta: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "theta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.m <= 0.0 or self.omega <= 0.0 or self.hbar <= 0.0:
            raise ValueError("m, omega and hbar must all be positive")
        check_scales({"m*omega": self.m * self.omega})
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("a = %r, b = %r: a deformation leaves float range"
                              % (self.a, self.b))
        if self.nc_product >= 1.0:
            raise MapNotInvertible("theta*eta/hbar**2 = %g >= 1: the frame map degenerates"
                                   % self.nc_product)

    @property
    def a(self) -> float:
        """Dimensionless position deformation theta*m*omega/hbar."""
        return self.theta * (self.m * self.omega) / self.hbar

    @property
    def b(self) -> float:
        """Dimensionless momentum deformation eta/(m*omega*hbar)."""
        return self.eta / (self.m * self.omega) / self.hbar

    @property
    def nc_product(self) -> float:
        """a*b = theta*eta/hbar**2, formed from a and b, so that a point and
        its unit point (m = omega = hbar = 1, theta = a, eta = b) share it."""
        return self.a * self.b


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
    """The model: constants of the commutative-frame Hamiltonian and the
    validated inputs they came from.

    alpha**2 and beta**2 weight the squared positions and momenta, gamma is
    the rotational (beat) frequency, omega_big = 2*alpha*beta the fast
    rotation frequency, and product_lm the gauge product lambda*mu actually
    used.  gamma is nonnegative whenever theta, eta >= 0 but may involve
    cancellation for mixed signs.  ``params`` and ``gauge`` are the inputs,
    so hbar, the frame matrix M and the Hamiltonian form K all come from
    this one object.  These are dimensional.  ``core`` is the model at
    m = omega = hbar = 1 with the same (a, b) and gauge, its own core, in
    which the other layers compute: states in units of (l_q, l_q, l_p, l_p)
    (``state_unit``), times in units of 1/omega and energies of hbar*omega.
    """

    alpha: float
    beta: float
    gamma: float
    omega_big: float
    product_lm: float
    params: PhysicalParams
    gauge: GaugeChoice
    core: DerivedConstants | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.core is None:
            object.__setattr__(self, "core", self)

    @property
    def hbar(self) -> float:
        return self.params.hbar

    @property
    def omega(self) -> float:
        return self.params.omega

    @property
    def l_q(self) -> float:
        """Position unit sqrt(hbar)/sqrt(m*omega)."""
        return math.sqrt(self.hbar) / math.sqrt(self.params.m * self.omega)

    @property
    def l_p(self) -> float:
        """Momentum unit sqrt(hbar)*sqrt(m*omega)."""
        return math.sqrt(self.hbar) * math.sqrt(self.params.m * self.omega)

    @property
    def state_unit(self) -> np.ndarray:
        """The unit of a state (Q1, Q2, P1, P2): (l_q, l_q, l_p, l_p)."""
        return np.array([self.l_q, self.l_q, self.l_p, self.l_p])

    @property
    def K(self) -> np.ndarray:
        """Symmetric 4x4 matrix of the Hamiltonian H = z^T K z.

        z = (Q1, Q2, P1, P2) and H = alpha**2 |Q|**2 + beta**2 |P|**2 +
        gamma (P1 Q2 - P2 Q1); the equations of motion, the Weyl symbol and
        the Moyal terms of the eigen-equation are all derived from K.
        """
        a2, b2, h = self.alpha**2, self.beta**2, 0.5 * self.gamma
        return np.array([[a2, 0.0, 0.0, -h], [0.0, a2, h, 0.0],
                         [0.0, h, b2, 0.0], [-h, 0.0, 0.0, b2]])

    @property
    def A(self) -> np.ndarray:
        """Generator of the flow: Hamilton's equations read dz/dt = A z, A = 2 J K."""
        return (2.0 * J) @ self.K

    @property
    def M(self) -> np.ndarray:
        """Forward frame matrix: (q1, q2, p1, p2) = M (Q1, Q2, P1, P2).

        Positions mix with the opposite momentum through theta, momenta with
        the opposite position through eta; eps_12 = +1.
        """
        p, lam, mu = self.params, self.gauge.lam, self.gauge.mu
        c = p.theta / (2.0 * lam * p.hbar)
        d = p.eta / (2.0 * mu * p.hbar)
        return np.array([[lam, 0.0, 0.0, -c], [0.0, lam, c, 0.0],
                         [0.0, d, mu, 0.0], [-d, 0.0, 0.0, mu]])


def gamma_components(params: PhysicalParams) -> tuple[float, float]:
    """Frequency contributions of the two deformations.

    Returns the pair (position part, momentum part), omega*a/2 and
    omega*b/2; their sum is the beat frequency gamma and their difference
    controls which of the two carries the fast oscillation of the sector
    energies.
    """
    return 0.5 * params.omega * params.a, 0.5 * params.omega * params.b


def solve_gauge_product(params: PhysicalParams) -> float:
    """Product lambda*mu solving the gauge constraint.

    The constraint is quadratic; of its two roots we return
    (1 + sqrt(1 - a*b)) / 2, the branch that tends to 1 in the commutative
    limit.  It is real because PhysicalParams refuses a*b >= 1.
    """
    return 0.5 * (1.0 + math.sqrt(1.0 - params.nc_product))


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
    off-shell gauge would silently depend on the frame.  The model is built
    once, as ``core``, at m = omega = hbar = 1 from (a, b) and the gauge:
    alpha_1 = sqrt(1/2) sqrt(lambda**2 + (b/2mu)**2), beta_1 = sqrt(1/2)
    sqrt(mu**2 + (a/2lambda)**2), Omega_1 = 2 alpha_1 beta_1 and gamma_1 =
    (a + b)/2.  The dimensional fields follow from it: alpha = omega sqrt(m)
    alpha_1, beta = beta_1/sqrt(m), Omega = omega Omega_1, gamma = omega
    gamma_1.  They are printed and recorded in manifests, so check_scales
    refuses (DomainError) an alpha, beta or Omega that is not a normal float.
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
    unit = PhysicalParams(1.0, 1.0, 1.0, params.a, params.b)
    lam, mu = gauge.lam, gauge.mu
    u, v = params.b / (2.0 * mu), params.a / (2.0 * lam)
    alpha = math.sqrt(0.5) * math.sqrt(lam * lam + u * u)
    beta = math.sqrt(0.5) * math.sqrt(mu * mu + v * v)
    g_theta, g_eta = gamma_components(unit)
    core = DerivedConstants(alpha, beta, g_theta + g_eta, 2.0 * alpha * beta, product,
                            unit, gauge)
    w, root_m = params.omega, math.sqrt(params.m)
    dc = DerivedConstants(w * root_m * alpha, beta / root_m, w * core.gamma,
                          w * core.omega_big, product, params, gauge, core)
    check_scales({"alpha": dc.alpha, "beta": dc.beta, "Omega": dc.omega_big})
    return dc


def check_scales(scales: dict) -> None:
    """The one scale rule: DomainError unless each named scale is a normal float.

    Callers name the values a command writes, prints or records, and the
    units it multiplies them by; the model itself computes at unit scales.
    """
    for name, value in scales.items():
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise DomainError("%s = %r is out of normal float range" % (name, value))


def sw_to_nc(state: PhaseState, dc: DerivedConstants) -> NCState:
    """Forward frame map: commutative state -> deformed variables, M z.

    Works elementwise on array fields.  Every output is summed over all four
    inputs, zero weights included, so one non-finite component makes the
    whole mapped point non-finite (0 * inf is NaN).
    """
    # einsum sums each row in column order, so the result has the bits of
    # the written-out products; BLAS (z @ M.T) would not.
    return NCState(*np.einsum("ij,...j->i...", dc.M, state.as_array()))


def sw_to_commutative(nc: NCState, dc: DerivedConstants) -> PhaseState:
    """Inverse frame map: deformed variables -> commutative state, M**-1 z.

    M is block diagonal on (Q1, P2) and (Q2, P1), and each 2x2 block has
    determinant lambda*mu - theta*eta/(4 lambda mu hbar**2) = 2 lambda mu - 1
    = sqrt(1 - theta*eta/hbar**2).  So M**-1 is M with its diagonal
    entries swapped within each block and its off-diagonal ones negated,
    over that determinant.  The prefactor (1 - theta*eta/hbar**2)**(-1/2)
    diverges as the deformation product approaches hbar**2, which
    PhysicalParams refuses, but stays finite anywhere inside the domain
    (even at theta*eta/hbar**2 = 0.99).  As in sw_to_nc, one non-finite
    component makes the whole mapped point non-finite.
    """
    x = dc.params.nc_product
    lam, mu = dc.gauge.lam, dc.gauge.mu
    inverse = -dc.M
    inverse[np.diag_indices(4)] = (mu, mu, lam, lam)
    nc_z = np.array(np.broadcast_arrays(nc.q1, nc.q2, nc.p1, nc.p2), dtype=float)
    return PhaseState(*np.einsum("ij,j...->i...", inverse / math.sqrt(1.0 - x), nc_z))


def algebra_residual(params: PhysicalParams, gauge: GaugeChoice) -> float:
    """Worst-case bracket defect of the frame map, relative to its scale.

    Pushes the canonical brackets of the commutative frame through the map
    and compares against the target deformed algebra; returns the max-norm
    of the difference over max(hbar, |theta|, |eta|), the largest target
    entry, so that the same relative defect reads the same at any scale.
    Zero (to roundoff) certifies the gauge product; a perturbed product
    shows up as a strictly positive residual, so this function deliberately
    accepts off-shell gauges.
    """
    # derived_constants refuses an off-shell gauge, so swap it in afterwards;
    # M depends on nothing else.
    M = replace(derived_constants(params), gauge=gauge).M
    hb, th, et = params.hbar, params.theta, params.eta
    target = np.array([[0.0, th, hb, 0.0], [-th, 0.0, 0.0, hb],
                       [-hb, 0.0, 0.0, et], [0.0, -hb, -et, 0.0]])
    scale = max(hb, abs(th), abs(et))
    return float(np.max(np.abs(hb * (M @ J @ M.T) - target))) / scale


def invariant_pair(state: PhaseState, dc: DerivedConstants):
    """The two conserved quantities of the flow of H = z^T K z, over hbar.

    X, the weighted quadratic form alpha/beta * |Q|**2 + beta/alpha * |P|**2
    (fast-rotation action), and L, the angular momentum Q1*P2 - Q2*P1
    (slow-rotation generator), are exactly constant along the analytic
    flow.  Returned as (X/hbar, L/hbar), formed from the state in units,
    Q/l_q and P/l_p, of order one near the ground mode, so no square leaves
    float range.  They are the invariants of the Wigner functions and of
    the simulate command's drift checks.
    """
    u, l_q, l_p = dc.core, dc.l_q, dc.l_p
    r = u.alpha / u.beta
    # x * x, not x**2: on a scalar, ** is libm pow, which is not correctly
    # rounded, so a scalar point would differ in the last bit from an array.
    q1, q2, p1, p2 = state.Q1 / l_q, state.Q2 / l_q, state.P1 / l_p, state.P2 / l_p
    i1 = r * (q1 * q1 + q2 * q2) + (p1 * p1 + p2 * p2) / r
    i2 = q1 * p2 - q2 * p1
    return i1, i2


def quadratic_form(z, form: np.ndarray):
    """z^T G z for a 4x4 form G, at each point of an (..., 4) array z."""
    return np.einsum("...i,ij,...j->...", z, form, z)
