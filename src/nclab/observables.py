"""Energy observables of the beating oscillator.

Two families live here.  Mode energies are quadratic forms of the
commutative frame and beat exactly at twice the slow frequency.  Sector
energies xi_i are the physical per-axis oscillator energies of the
deformed variables; they are obtained either by composing the exact flow
with the frame map (the oracle route) or from closed-form expressions,
including a degenerate form for theta*eta = 0 and a first-order form whose
linear-in-t growth is the time-crystal signature.

All energies are gauge-ratio invariant even though the intermediate
quantities (alpha/beta, the frame coordinates) are not.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DerivedConstants,
    GaugeChoice,
    PhysicalParams,
    gamma_components,
    derived_constants,
    sw_to_nc,
)
from .dynamics import propagate_analytic
from .errors import DegenerateFormMisuse, DomainError
from .manifest import write_csv
from .states import InitialConditions, NCState, PhaseState

__all__ = [
    "NCState",
    "SectorEnergySeries",
    "ground_mode_ic",
    "mode_energy",
    "sector_energy",
    "xi_closed",
    "xi_trajectory_closed",
    "xi_closed_degenerate",
    "xi_first_order",
    "xi_dot_first_order",
    "xi_closed_rate",
    "xi_trajectory",
    "sector_energy_series",
]

CSV_HEADER = ("Omega_t", "xi1_over_hOmega", "xi2_over_hOmega", "source")

SOURCES = ("closed_form", "degenerate_form", "first_order", "trajectory")


def _check_mode(i: int) -> None:
    if i not in (1, 2):
        raise ValueError("mode index must be 1 or 2, got %r" % (i,))


def ground_mode_ic(dc: DerivedConstants, hbar: float) -> InitialConditions:
    """Initial conditions whose mode energies start at hbar*Omega/2 each.

    Positions are set to the width sqrt(beta*hbar/(2*alpha)) and momenta to
    sqrt(alpha*hbar/(2*beta)), equally in both planes, so the total energy
    equals the ground level hbar*Omega and the beating between the two
    modes is maximal.
    """
    x = np.sqrt(hbar * dc.beta / (2.0 * dc.alpha))
    p = np.sqrt(hbar * dc.alpha / (2.0 * dc.beta))
    return InitialConditions(x=x, y=x, pi_x=p, pi_y=p)


def mode_energy(state: PhaseState, dc: DerivedConstants, i: int):
    """Energy stored in commutative-frame mode i (1 or 2).

    E_i = alpha*beta*((alpha/beta) Q_i**2 + (beta/alpha) P_i**2); the two
    sum to a constant while individually exchanging energy at frequency
    2*gamma.
    """
    _check_mode(i)
    q = state.Q1 if i == 1 else state.Q2
    p = state.P1 if i == 1 else state.P2
    r = dc.alpha / dc.beta
    return dc.alpha * dc.beta * (r * q**2 + p**2 / r)


def sector_energy(nc: NCState, params: PhysicalParams, i: int):
    """Physical oscillator energy of deformed sector i: p**2/2m + m w**2 q**2/2."""
    _check_mode(i)
    q = nc.q1 if i == 1 else nc.q2
    p = nc.p1 if i == 1 else nc.p2
    return p**2 / (2.0 * params.m) + 0.5 * params.m * params.omega**2 * q**2


def _stable_roots(dc: DerivedConstants, params: PhysicalParams):
    """Radicands of the closed forms, evaluated without cancellation.

    sqrt(1 - omega**2/Omega**2) equals |g_theta - g_eta|/Omega and
    sqrt(1 - gamma**2/Omega**2) equals omega*(2*lambda*mu - 1)/Omega;
    both identities avoid subtracting nearly equal squares.  Genuinely
    negative radicands (inconsistent inputs) raise DomainError.
    """
    W = dc.omega_big
    if params.omega > W * (1.0 + 1e-12):
        raise DomainError("omega exceeds Omega: 1 - omega**2/Omega**2 < 0")
    if abs(dc.gamma) > W * (1.0 + 1e-12):
        raise DomainError("|gamma| exceeds Omega: 1 - gamma**2/Omega**2 < 0")
    g_theta, g_eta = gamma_components(params)
    s_omega = abs(g_theta - g_eta) / W
    root_lm = 2.0 * dc.product_lm - 1.0  # = sqrt(1 - theta*eta/hbar**2)
    s_gamma = params.omega * root_lm / W
    return s_omega, s_gamma


def xi_closed(dc: DerivedConstants, params: PhysicalParams, t, i: int):
    """Closed-form sector energy for ground-mode initial conditions.

    (hbar*Omega/2) * (1 - (-1)**i * [sqrt(1 - omega**2/Omega**2) *
    (cos 2 gamma t cos 2 Omega t - (gamma/Omega) sin 2 gamma t sin 2 Omega t)
    + (omega/Omega) sqrt(1 - gamma**2/Omega**2) sin 2 gamma t]).
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    s_omega, s_gamma = _stable_roots(dc, params)
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    bracket = s_omega * (cs * cf - (g / W) * ss * sf) + (
        params.omega / W
    ) * s_gamma * ss
    return 0.5 * params.hbar * W * (1.0 - (-1) ** i * bracket)


def xi_trajectory_closed(dc: DerivedConstants, params: PhysicalParams, t, i: int):
    """Closed form of the map-composed trajectory energy.

    Identical to xi_closed except that the fast-oscillation coefficient
    carries the sign of (g_eta - g_theta)/Omega rather than the positive
    root: composing the exact flow with the frame map flips the
    Omega-frequency terms whenever the position deformation dominates the
    momentum one.  Matches xi_trajectory with ground-mode initial
    conditions to roundoff in every regime.
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    _, s_gamma = _stable_roots(dc, params)
    g_theta, g_eta = gamma_components(params)
    coeff = (g_eta - g_theta) / W
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    bracket = coeff * (cs * cf - (g / W) * ss * sf) + (
        params.omega / W
    ) * s_gamma * ss
    return 0.5 * params.hbar * W * (1.0 - (-1) ** i * bracket)


def xi_closed_degenerate(dc: DerivedConstants, t, i: int, hbar: float):
    """Sector energy closed form on the degenerate surface theta*eta = 0.

    There sqrt(1 - omega**2/Omega**2) collapses to gamma/Omega and the slow
    coefficient to 1 - gamma**2/Omega**2.  Calling it off the surface is an
    error (DegenerateFormMisuse), detected through the gauge product, which
    equals 1 exactly when theta*eta = 0.
    """
    _check_mode(i)
    if abs(dc.product_lm - 1.0) > 1e-12:
        raise DegenerateFormMisuse(
            "degenerate closed form requires theta*eta = 0 "
            "(gauge product %.17g != 1)" % dc.product_lm
        )
    W, g = dc.omega_big, dc.gamma
    e = g / W
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    bracket = e * (cs * cf - e * ss * sf) + (1.0 - e**2) * ss
    return 0.5 * hbar * W * (1.0 - (-1) ** i * bracket)


def xi_first_order(dc: DerivedConstants, t, i: int, hbar: float):
    """First order in gamma: (hbar*Omega/2)(1 - (-1)**i (gamma/Omega)(2 Omega t + cos 2 Omega t)).

    The secular 2*Omega*t term is the linear energy transfer between the
    sectors; valid while gamma*t stays small.
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    bracket = (g / W) * (2.0 * W * t + np.cos(2.0 * W * t))
    return 0.5 * hbar * W * (1.0 - (-1) ** i * bracket)


def xi_dot_first_order(dc: DerivedConstants, t, i: int, hbar: float):
    """Rate form of xi_first_order: (-1)**(i+1) hbar gamma Omega (1 - sin 2 Omega t).

    Oscillates with amplitude exactly hbar*gamma*Omega and never changes
    sign, so sector 1 monotonically gains what sector 2 loses.
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    return (-1) ** (i + 1) * hbar * g * W * (1.0 - np.sin(2.0 * W * t))


def xi_closed_rate(dc: DerivedConstants, params: PhysicalParams, t, i: int):
    """Exact time derivative of xi_closed (plumbing for rate reports)."""
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    s_omega, s_gamma = _stable_roots(dc, params)
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    dbracket = s_omega * (
        -2.0 * g * ss * cf
        - 2.0 * W * cs * sf
        - (g / W) * (2.0 * g * cs * sf + 2.0 * W * ss * cf)
    ) + (params.omega / W) * s_gamma * 2.0 * g * cs
    return -0.5 * params.hbar * W * (-1) ** i * dbracket


def xi_trajectory(
    ic: InitialConditions,
    dc: DerivedConstants,
    params: PhysicalParams,
    gauge: GaugeChoice,
    t,
    i: int,
):
    """Sector energy along the exact flow, through the frame map.

    This is the oracle route: propagate the commutative state, map it to
    the deformed frame, and evaluate the physical sector energy there.
    """
    _check_mode(i)
    nc = sw_to_nc(propagate_analytic(ic, dc, t), params, gauge)
    return sector_energy(nc, params, i)


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
    params: PhysicalParams,
    gauge: GaugeChoice,
    omega_t: np.ndarray,
    source: str = "closed_form",
) -> SectorEnergySeries:
    """Build a SectorEnergySeries on a dimensionless Omega*t grid.

    Sources: closed_form, degenerate_form, first_order, trajectory (the
    last uses ground-mode initial conditions).
    """
    if source not in SOURCES:
        raise ValueError("unknown source %r (choose from %s)" % (source, SOURCES))
    dc = derived_constants(params, gauge)
    omega_t = np.asarray(omega_t, dtype=float)
    t = omega_t / dc.omega_big
    scale = params.hbar * dc.omega_big
    if source == "closed_form":
        xi = [xi_closed(dc, params, t, i) for i in (1, 2)]
    elif source == "degenerate_form":
        xi = [xi_closed_degenerate(dc, t, i, params.hbar) for i in (1, 2)]
    elif source == "first_order":
        xi = [xi_first_order(dc, t, i, params.hbar) for i in (1, 2)]
    else:
        # One flow and one frame map serve both sectors.
        state = propagate_analytic(ground_mode_ic(dc, params.hbar), dc, t)
        nc = sw_to_nc(state, params, gauge)
        xi = [sector_energy(nc, params, i) for i in (1, 2)]
    return SectorEnergySeries(
        times=omega_t, xi1=xi[0] / scale, xi2=xi[1] / scale, source=source
    )
