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
Every function takes the model as one DerivedConstants, dc.  One phase
convention holds: ground_mode_ic multiplies both momenta by
s = sign(g_eta - g_theta), +1 at equality, so the trajectory is the
paper's form to roundoff.

All energies are gauge-ratio invariant even though the intermediate
quantities (alpha/beta, the frame coordinates) are not.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants, gamma_components, quadratic_form
from .dynamics import propagate_analytic
from .errors import DegenerateFormMisuse, DomainError
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


def _check_mode(i: int) -> None:
    if i not in (1, 2):
        raise ValueError("mode index must be 1 or 2, got %r" % (i,))


def ground_mode_ic(dc: DerivedConstants) -> PhaseState:
    """Initial state whose mode energies start at hbar*Omega/2 each.

    Positions are set to the width sqrt(beta*hbar/(2*alpha)) and momenta to
    s*sqrt(alpha*hbar/(2*beta)), equally in both planes, so the total energy
    equals the ground level hbar*Omega and the beating between the two
    modes is maximal.  s = sign(g_eta - g_theta), +1 at equality, is the
    paper's phase, in which xi_1(0) >= xi_2(0).  sqrt(hbar) is taken
    apart from the width ratio, so a tiny hbar times a tiny ratio does not
    underflow before the square root.
    """
    g_theta, g_eta = gamma_components(dc.params)
    s = 1.0 if g_theta <= g_eta else -1.0
    x = np.sqrt(dc.hbar) * np.sqrt(dc.beta / (2.0 * dc.alpha))
    p = s * np.sqrt(dc.hbar) * np.sqrt(dc.alpha / (2.0 * dc.beta))
    return PhaseState(Q1=x, Q2=x, P1=p, P2=p)


def mode_energy(state: PhaseState, dc: DerivedConstants, i: int):
    """Energy stored in commutative-frame mode i (1 or 2).

    E_i = alpha**2 Q_i**2 + beta**2 P_i**2, the isotropic part of K in
    plane i; the two sum to a constant while individually exchanging
    energy at frequency 2*gamma.
    """
    return quadratic_form(state.as_array(), _plane_form(i, dc.alpha**2, dc.beta**2))


def _plane_form(i: int, q_weight: float, p_weight: float) -> np.ndarray:
    """Diagonal form q_weight * Q_i**2 + p_weight * P_i**2 of plane i."""
    _check_mode(i)
    diag = np.zeros(4)
    diag[[i - 1, i + 1]] = q_weight, p_weight
    return np.diag(diag)


def _sector_form(dc: DerivedConstants, i: int) -> np.ndarray:
    """G_i = M^T S_i M, with S_i sector i's energy p_i**2/2m + m w**2 q_i**2/2."""
    p = dc.params
    s = _plane_form(i, 0.5 * p.m * p.omega * p.omega, 0.5 / p.m)
    # einsum, not BLAS: a first BLAS call costs the process about 0.4 MiB.
    return np.einsum("ki,kl,lj->ij", dc.M, s, dc.M)


def paper_coefficients(dc: DerivedConstants):
    """(fast, slow) of the paper's form: sqrt(1 - omega**2/Omega**2) and
    (omega/Omega) sqrt(1 - gamma**2/Omega**2).

    The radicands are evaluated without cancellation:
    sqrt(1 - omega**2/Omega**2) equals |g_theta - g_eta|/Omega and
    sqrt(1 - gamma**2/Omega**2) equals omega*(2*lambda*mu - 1)/Omega;
    both identities avoid subtracting nearly equal squares.  Genuinely
    negative radicands (inconsistent inputs) raise DomainError.
    """
    params, W = dc.params, dc.omega_big
    if params.omega > W * (1.0 + 1e-12):
        raise DomainError("omega exceeds Omega: 1 - omega**2/Omega**2 < 0")
    if abs(dc.gamma) > W * (1.0 + 1e-12):
        raise DomainError("|gamma| exceeds Omega: 1 - gamma**2/Omega**2 < 0")
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


def xi_closed(dc: DerivedConstants, coeffs, t, i: int):
    """Closed-form sector energy for ground-mode initial conditions.

    (hbar*Omega/2) * (1 - (-1)**i * B) with the bracket
    B = fast * (cos 2 gamma t cos 2 Omega t - (gamma/Omega) sin 2 gamma t
    sin 2 Omega t) + slow * sin 2 gamma t, where ``coeffs`` = (fast, slow)
    comes from paper_coefficients or degenerate_coefficients.
    """
    _check_mode(i)
    return _from_bracket(dc, _closed_bracket(dc, coeffs, t), i)


def _closed_bracket(dc: DerivedConstants, coeffs, t):
    """The bracket B of xi_closed, which both sectors share."""
    fast, slow = coeffs
    W, g = dc.omega_big, dc.gamma
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    return fast * (cs * cf - (g / W) * ss * sf) + slow * ss


def _from_bracket(dc: DerivedConstants, bracket, i: int):
    """Sector i's energy (hbar*Omega/2) * (1 - (-1)**i * bracket)."""
    return 0.5 * dc.hbar * dc.omega_big * (1.0 - (-1) ** i * bracket)


def xi_closed_rate(dc: DerivedConstants, coeffs, t, i: int):
    """Exact time derivative of xi_closed with the same coefficients."""
    _check_mode(i)
    fast, slow = coeffs
    W, g = dc.omega_big, dc.gamma
    cs, ss = np.cos(2.0 * g * t), np.sin(2.0 * g * t)
    cf, sf = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    dbracket = fast * (
        -2.0 * g * ss * cf
        - 2.0 * W * cs * sf
        - (g / W) * (2.0 * g * cs * sf + 2.0 * W * ss * cf)
    ) + slow * 2.0 * g * cs
    return -0.5 * dc.hbar * W * (-1) ** i * dbracket


def xi_first_order(dc: DerivedConstants, t, i: int):
    """First order in gamma: (hbar*Omega/2)(1 - (-1)**i B1).

    B1 = 2 gamma t + (|gamma|/Omega) cos 2 Omega t, with the fast coefficient
    of paper_coefficients.  The secular 2 gamma t term is the linear energy
    transfer between the sectors; valid while gamma*t stays small.
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    c = np.cos(2.0 * W * t)
    bracket = (g / W) * (2.0 * W * t + (c if g >= 0.0 else -c))
    return _from_bracket(dc, bracket, i)


def xi_dot_first_order(dc: DerivedConstants, t, i: int):
    """Rate of xi_first_order: (-1)**(i+1) hbar Omega (gamma - |gamma| sin 2 Omega t).

    Oscillates with amplitude exactly hbar*|gamma|*Omega and never changes
    sign, so one sector monotonically gains what the other loses.
    """
    _check_mode(i)
    W, g = dc.omega_big, dc.gamma
    s = np.sin(2.0 * W * t)
    return (-1) ** (i + 1) * dc.hbar * g * W * (1.0 - (s if g >= 0.0 else -s))


def xi_trajectory(z0: PhaseState, dc: DerivedConstants, t, i: int):
    """Sector energy along the exact flow, z^T G_i z.

    This is the oracle route: propagate the commutative state and evaluate
    the physical sector energy of its deformed variables as the quadratic
    form G_i = M^T S_i M.
    """
    form = _sector_form(dc, i)
    return quadratic_form(propagate_analytic(z0, dc, t).as_array(), form)


def xi_trajectory_rate(z0: PhaseState, dc: DerivedConstants, t, i: int):
    """Exact time derivative of xi_trajectory, 2 (G_i z).(A z): formed from
    the vectors G_i z and A z, as the entries of A^T G_i + G_i A can leave
    float range where the rate does not."""
    z = propagate_analytic(z0, dc, t).as_array()
    gz = np.einsum("ij,...j->...i", _sector_form(dc, i), z)
    az = np.einsum("ij,...j->...i", dc.A, z)
    return 2.0 * np.einsum("...i,...i->...", gz, az)


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
    last uses ground-mode initial conditions).
    """
    if source not in SOURCES:
        raise ValueError("unknown source %r (choose from %s)" % (source, SOURCES))
    omega_t = np.asarray(omega_t, dtype=float)
    t = omega_t / dc.omega_big
    scale = dc.hbar * dc.omega_big
    if source == "first_order":
        xi = [xi_first_order(dc, t, i) for i in (1, 2)]
    elif source == "trajectory":
        # One flow serves both sectors.
        z = propagate_analytic(ground_mode_ic(dc), dc, t).as_array()
        xi = [quadratic_form(z, _sector_form(dc, i)) for i in (1, 2)]
    else:
        if source == "closed_form":
            coeffs = paper_coefficients(dc)
        else:
            coeffs = degenerate_coefficients(dc)
        bracket = _closed_bracket(dc, coeffs, t)
        xi = [_from_bracket(dc, bracket, i) for i in (1, 2)]
    return SectorEnergySeries(
        times=omega_t, xi1=xi[0] / scale, xi2=xi[1] / scale, source=source
    )
