"""Energy observables of the beating oscillator.

Two families live here, both 4x4 quadratic forms of the commutative
state z = (Q1, Q2, P1, P2).  Mode energies beat exactly at twice the slow
frequency.  Sector energies xi_i are the physical per-axis oscillator
energies of the deformed variables M z, that is z^T G_i z with
G_i = M^T S_i M and S_i the sector's form.  The oracle route,
xi_trajectory (and its rate), evaluates them along the exact flow.  The
closed forms are one kernel, xi_closed, and its exact time derivative,
xi_closed_rate, whose bracket takes a (fast, slow) coefficient pair: the
paper's (paper_coefficients) or the pair of the degenerate surface
theta*eta = 0 (degenerate_coefficients).  A first-order form, whose
linear-in-t growth is the time-crystal signature, completes the set.
Every energy and rate kernel, mode_energy included, returns the pair
(sector 1, sector 2), since the signature is energy moving between the
two.  Every function takes the model as one DerivedConstants, dc.  One phase
convention holds: ground_mode_ic multiplies both momenta by
s = sign(g_eta - g_theta), +1 at equality, so the trajectory is the
paper's form to roundoff.

All energies are gauge-ratio invariant even though the intermediate
quantities (alpha/beta, the frame coordinates) are not.  The quadratic
forms are evaluated in the units of the model's core (states over
DerivedConstants.state_unit, times times omega) and the energies multiplied
by hbar*omega.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants, gamma_components, quadratic_form
from .dynamics import propagate_analytic
from .errors import DegenerateFormMisuse
from .manifest import write_csv
from .states import PhaseState

__all__ = [
    "SectorEnergySeries",
    "ground_mode_ic",
    "mode_energy",
    "paper_coefficients",
    "degenerate_coefficients",
    "xi_closed",
    "xi_closed_rate",
    "xi_first_order",
    "xi_dot_first_order",
    "xi_trajectory",
    "xi_trajectory_rate",
    "sector_energy_series",
]

CSV_HEADER = ("Omega_t", "xi1_over_hOmega", "xi2_over_hOmega", "source")

SOURCES = ("closed_form", "degenerate_form", "first_order", "trajectory")


def ground_mode_ic(dc: DerivedConstants) -> PhaseState:
    """Initial state whose mode energies start at hbar*Omega/2 each.

    Positions are set to the width sqrt(beta*hbar/(2*alpha)) and momenta to
    s*sqrt(alpha*hbar/(2*beta)), equally in both planes, so the total energy
    equals the ground level hbar*Omega and the beating between the two
    modes is maximal.  s = sign(g_eta - g_theta), +1 at equality, is the
    paper's phase, in which xi_1(0) >= xi_2(0).  The widths are formed in
    the core's units and multiplied by l_q and l_p.
    """
    u = dc.core
    g_theta, g_eta = gamma_components(u.params)
    s = 1.0 if g_theta <= g_eta else -1.0
    x = dc.l_q * np.sqrt(u.beta / (2.0 * u.alpha))
    p = s * dc.l_p * np.sqrt(u.alpha / (2.0 * u.beta))
    return PhaseState(Q1=x, Q2=x, P1=p, P2=p)


def mode_energy(state: PhaseState, dc: DerivedConstants):
    """Energies (E_1, E_2) stored in the two commutative-frame modes.

    E_i = alpha**2 Q_i**2 + beta**2 P_i**2, the isotropic part of K in
    plane i; the two sum to a constant while individually exchanging
    energy at frequency 2*gamma.
    """
    u, z = dc.core, state.as_array() / dc.state_unit
    return tuple(
        dc.hbar * dc.omega * quadratic_form(z, _plane_form(i, u.alpha**2, u.beta**2))
        for i in (1, 2)
    )


def _plane_form(i: int, q_weight: float, p_weight: float) -> np.ndarray:
    """Diagonal form q_weight * Q_i**2 + p_weight * P_i**2 of plane i."""
    diag = np.zeros(4)
    diag[[i - 1, i + 1]] = q_weight, p_weight
    return np.diag(diag)


def _sector_form(dc: DerivedConstants, i: int) -> np.ndarray:
    """G_i = M^T S_i M in the core's units, with S_i sector i's energy
    p_i**2/2m + m w**2 q_i**2/2, that is (p_i**2 + q_i**2)/2."""
    m = dc.core.M
    # einsum, not BLAS: a first BLAS call costs the process about 0.4 MiB.
    return np.einsum("ki,kl,lj->ij", m, _plane_form(i, 0.5, 0.5), m)


def paper_coefficients(dc: DerivedConstants):
    """(fast, slow) of the paper's form: sqrt(1 - omega**2/Omega**2) and
    (omega/Omega) sqrt(1 - gamma**2/Omega**2).

    The radicands are evaluated without cancellation:
    sqrt(1 - omega**2/Omega**2) equals |g_theta - g_eta|/Omega and
    sqrt(1 - gamma**2/Omega**2) equals omega*(2*lambda*mu - 1)/Omega;
    both identities avoid subtracting nearly equal squares.
    """
    params, W = dc.params, dc.omega_big
    g_theta, g_eta = gamma_components(params)
    s_omega = abs(g_theta - g_eta) / W
    root_lm = 2.0 * dc.product_lm - 1.0  # = sqrt(1 - theta*eta/hbar**2)
    s_gamma = params.omega * root_lm / W
    return s_omega, (params.omega / W) * s_gamma


def degenerate_coefficients(dc: DerivedConstants):
    """(fast, slow) on the degenerate surface theta*eta = 0.

    There sqrt(1 - omega**2/Omega**2) collapses to |gamma|/Omega and the slow
    coefficient to 1 - gamma**2/Omega**2.  Calling it off the surface is an
    error (DegenerateFormMisuse), detected through the gauge product, which
    equals 1 exactly when theta*eta = 0.
    """
    if abs(dc.product_lm - 1.0) > 1e-12:
        raise DegenerateFormMisuse(
            "degenerate closed form requires theta*eta = 0 "
            "(gauge product %.17g != 1)" % dc.product_lm
        )
    e = abs(dc.gamma) / dc.omega_big
    return e, 1.0 - e**2


def xi_closed(dc: DerivedConstants, coeffs, t):
    """Closed-form sector energies (xi_1, xi_2) for ground-mode initial
    conditions.

    (hbar*Omega/2) * (1 + B) and (hbar*Omega/2) * (1 - B) with the bracket
    B = fast * (cos 2 gamma t cos 2 Omega t - (gamma/Omega) sin 2 gamma t
    sin 2 Omega t) + slow * sin 2 gamma t, where ``coeffs`` = (fast, slow)
    comes from paper_coefficients or degenerate_coefficients.
    """
    fast, slow = coeffs
    W, g = dc.omega_big, dc.gamma
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    bracket = fast * (cs * cf - (g / W) * ss * sf) + slow * ss
    # Dropped before the pair is formed, so that a caller's whole-grid series
    # holds four fewer grid-length arrays at its peak (the CLI streams blocks).
    del cs, ss, cf, sf
    return _from_bracket(dc, bracket)


def _from_bracket(dc: DerivedConstants, bracket):
    """The sector pair (hbar*Omega/2) (1 + bracket), (hbar*Omega/2) (1 - bracket)."""
    h = 0.5 * dc.hbar * dc.omega_big
    return h * (1.0 + bracket), h * (1.0 - bracket)


def xi_closed_rate(dc: DerivedConstants, coeffs, t):
    """Exact time derivatives (xi_1', xi_2') of xi_closed with the same
    coefficients; xi_2' = -xi_1'."""
    fast, slow = coeffs
    W, g = dc.omega_big, dc.gamma
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    dbracket = fast * (
        -2.0 * g * ss * cf
        - 2.0 * W * cs * sf
        - (g / W) * (2.0 * g * cs * sf + 2.0 * W * ss * cf)
    ) + slow * 2.0 * g * cs
    rate = 0.5 * dc.hbar * W * dbracket
    return rate, -rate


def xi_first_order(dc: DerivedConstants, t):
    """First order in gamma: (hbar*Omega/2)(1 + B1) and (hbar*Omega/2)(1 - B1).

    B1 = 2 gamma t + (|gamma|/Omega) cos 2 Omega t, with the fast coefficient
    of paper_coefficients.  The secular 2 gamma t term is the linear energy
    transfer between the sectors; valid while gamma*t stays small.
    """
    W, g = dc.omega_big, dc.gamma
    c = np.cos(2.0 * W * t)
    bracket = (g / W) * (2.0 * W * t + (c if g >= 0.0 else -c))
    return _from_bracket(dc, bracket)


def xi_dot_first_order(dc: DerivedConstants, t):
    """Rates of xi_first_order: +-hbar Omega (gamma - |gamma| sin 2 Omega t).

    Sector 1's rate oscillates with amplitude exactly hbar*|gamma|*Omega and
    never changes sign, so one sector monotonically gains what the other,
    whose rate is its negation, loses.
    """
    W, g = dc.omega_big, dc.gamma
    s = np.sin(2.0 * W * t)
    rate = dc.hbar * g * W * (1.0 - (s if g >= 0.0 else -s))
    return rate, -rate


def xi_trajectory(z0: PhaseState, dc: DerivedConstants, t):
    """Sector energies (xi_1, xi_2) along the exact flow, z^T G_i z.

    This is the oracle route: propagate the commutative state once and
    evaluate the physical sector energy of its deformed variables as the
    quadratic form G_i = M^T S_i M.
    """
    z = propagate_analytic(z0, dc, t).as_array() / dc.state_unit
    unit = dc.hbar * dc.omega
    return tuple(unit * quadratic_form(z, _sector_form(dc, i)) for i in (1, 2))


def xi_trajectory_rate(z0: PhaseState, dc: DerivedConstants, t):
    """Exact time derivatives of xi_trajectory, 2 (G_i z).(A z) in units of
    hbar*omega**2: formed from the vectors G_i z and A z, as the entries of
    A^T G_i + G_i A can leave float range where the rate does not."""
    z = propagate_analytic(z0, dc, t).as_array() / dc.state_unit
    az = np.einsum("ij,...j->...i", dc.core.A, z)
    unit = 2.0 * dc.hbar * dc.omega * dc.omega
    rates = []
    for i in (1, 2):
        gz = np.einsum("ij,...j->...i", _sector_form(dc, i), z)
        rates.append(unit * np.einsum("...i,...i->...", gz, az))
    return tuple(rates)


@dataclass(frozen=True)
class SectorEnergySeries:
    """Sector-energy time series in units of hbar*Omega.

    times holds the dimensionless grid Omega*t; xi1 and xi2 are the two
    sector energies divided by hbar*Omega, so xi1 + xi2 == 1 pointwise for
    energy-partition sources.  ``source`` names the generating expression.
    """

    times: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    source: str

    def write_csv(self, path) -> None:
        write_csv(path, CSV_HEADER, [self.times, self.xi1, self.xi2, self.source])


def sector_energy_series(
    dc: DerivedConstants,
    omega_t: np.ndarray,
    source: str = "closed_form",
) -> SectorEnergySeries:
    """Build a SectorEnergySeries on a dimensionless Omega*t grid.

    Sources: closed_form, degenerate_form, first_order, trajectory (the
    last uses ground-mode initial conditions).  The series is dimensionless:
    on ``dc.core`` it is the same at every m, omega and hbar, bit for bit.
    """
    if source not in SOURCES:
        raise ValueError("unknown source %r (choose from %s)" % (source, SOURCES))
    omega_t = np.asarray(omega_t, dtype=float)
    t = omega_t / dc.omega_big
    if source == "closed_form":
        xi1, xi2 = xi_closed(dc, paper_coefficients(dc), t)
    elif source == "degenerate_form":
        xi1, xi2 = xi_closed(dc, degenerate_coefficients(dc), t)
    elif source == "first_order":
        xi1, xi2 = xi_first_order(dc, t)
    else:
        xi1, xi2 = xi_trajectory(ground_mode_ic(dc), dc, t)
    scale = dc.hbar * dc.omega_big
    return SectorEnergySeries(
        times=omega_t, xi1=xi1 / scale, xi2=xi2 / scale, source=source
    )
