"""Time evolution in the commutative frame.

The Hamiltonian is an isotropic oscillator plus a rotation generator, so
the flow is a fast elliptic rotation at frequency Omega = 2*alpha*beta in
each (Q_i, P_i) plane composed with a slow rotation at frequency gamma
mixing the two planes.  Both an exact propagator and a fixed-step
Runge-Kutta integrator are provided; the integrator exists to cross-check
the closed form, not to replace it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants
from .errors import NonFiniteState
from .manifest import write_csv
from .states import InitialConditions, PhaseState

__all__ = [
    "PhaseState",
    "InitialConditions",
    "Trajectory",
    "eom_rhs",
    "propagate_analytic",
    "integrate_numeric",
    "invariant_pair",
]

CSV_HEADER = ("t", "Omega_t", "Q1", "Q2", "P1", "P2")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled numerical trajectory.

    times has shape (n,), states shape (n, 4) with columns (Q1, Q2, P1,
    P2), step is the uniform sampling increment, and constants records the
    DerivedConstants the run used.
    """

    times: np.ndarray
    states: np.ndarray
    step: float
    constants: DerivedConstants

    def write_csv(self, path) -> None:
        """Write rows t, Omega_t, Q1, Q2, P1, P2 with full precision."""
        write_csv(
            path,
            CSV_HEADER,
            [self.times, self.constants.omega_big * self.times, *self.states.T],
        )


def eom_rhs(state: PhaseState, dc: DerivedConstants) -> PhaseState:
    """Right-hand side of the equations of motion.

    Hamilton's equations of the commutative-frame Hamiltonian: the
    momentum gradient drives the positions, the position gradient (with a
    sign) drives the momenta, and gamma couples each coordinate to its
    partner plane.  Returned as a PhaseState holding the derivatives.
    """
    a2 = dc.alpha**2
    b2 = dc.beta**2
    g = dc.gamma
    return PhaseState(
        Q1=2.0 * b2 * state.P1 + g * state.Q2,
        Q2=2.0 * b2 * state.P2 - g * state.Q1,
        P1=-2.0 * a2 * state.Q1 + g * state.P2,
        P2=-2.0 * a2 * state.Q2 - g * state.P1,
    )


def propagate_analytic(
    ic: InitialConditions, dc: DerivedConstants, t
) -> PhaseState:
    """Exact flow of the equations of motion from initial data ``ic``.

    ``t`` may be a scalar or an array; the returned PhaseState holds
    matching scalars or arrays.  The expressions are the closed-form
    solution: a rotation at omega_big inside each plane, with amplitude
    ratio beta/alpha between positions and momenta, modulated by a rotation
    at gamma between the planes.
    """
    alpha, beta = dc.alpha, dc.beta
    x, y, pix, piy = ic.x, ic.y, ic.pi_x, ic.pi_y
    cO = np.cos(dc.omega_big * t)
    sO = np.sin(dc.omega_big * t)
    cg = np.cos(dc.gamma * t)
    sg = np.sin(dc.gamma * t)
    ba = beta / alpha
    ab = alpha / beta
    return PhaseState(
        Q1=x * cO * cg + y * cO * sg + ba * (piy * sO * sg + pix * sO * cg),
        Q2=y * cO * cg - x * cO * sg - ba * (pix * sO * sg - piy * sO * cg),
        P1=pix * cO * cg + piy * cO * sg - ab * (y * sO * sg + x * sO * cg),
        P2=piy * cO * cg - pix * cO * sg + ab * (x * sO * sg - y * sO * cg),
        t=t,
    )


def integrate_numeric(
    ic: InitialConditions,
    dc: DerivedConstants,
    t_end: float,
    dt: float,
    stride: int = 1,
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    Integrates from t = 0 to t_end in uniform steps dt (t_end is rounded
    to a whole number of steps) and stores every ``stride``-th state.
    Raises NonFiniteState if the run produced NaN or infinity, which for
    this linear system only happens when dt is grossly too large.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = max(1, int(round(t_end / dt)))
    a2 = dc.alpha**2
    b2 = dc.beta**2
    g = dc.gamma

    def rhs(z):
        return np.array(
            [
                2.0 * b2 * z[2] + g * z[1],
                2.0 * b2 * z[3] - g * z[0],
                -2.0 * a2 * z[0] + g * z[3],
                -2.0 * a2 * z[1] - g * z[2],
            ]
        )

    z = np.array([ic.x, ic.y, ic.pi_x, ic.pi_y], dtype=float)
    kept_idx = list(range(0, n_steps + 1, stride))
    states = np.empty((len(kept_idx), 4))
    states[0] = z
    keep = 1
    # Divergence is detected after the loop; silence the benign overflow
    # warnings it produces on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * dt * k1)
            k3 = rhs(z + 0.5 * dt * k2)
            k4 = rhs(z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if i % stride == 0:
                states[keep] = z
                keep += 1
    times = dt * np.asarray(kept_idx, dtype=float)
    if not np.isfinite(states).all():
        bad = np.argwhere(~np.isfinite(states))[0]
        raise NonFiniteState(
            "non-finite state at t = %g (component %d)"
            % (times[bad[0]], bad[1])
        )
    return Trajectory(times=times, states=states, step=dt * stride, constants=dc)


def invariant_pair(state: PhaseState, dc: DerivedConstants):
    """The two conserved quantities of the flow.

    The first is the weighted quadratic form alpha/beta * |Q|**2 +
    beta/alpha * |P|**2 (fast-rotation action), the second the angular
    momentum Q1*P2 - Q2*P1 (slow-rotation generator).  Both are exactly
    constant along the analytic flow.
    """
    r = dc.alpha / dc.beta
    i1 = r * (state.Q1**2 + state.Q2**2) + (state.P1**2 + state.P2**2) / r
    i2 = state.Q1 * state.P2 - state.Q2 * state.P1
    return i1, i2
