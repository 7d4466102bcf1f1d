"""Time evolution in the commutative frame.

The Hamiltonian H = z^T K z is an isotropic oscillator plus a rotation
generator, so the flow dz/dt = A z (A = 2 J K, both from DerivedConstants)
is a fast elliptic rotation at frequency Omega = 2*alpha*beta in each
(Q_i, P_i) plane composed with a slow rotation at frequency gamma mixing
the two planes.  Two propagators are provided: the exact closed form,
written out by hand, and the classical fourth-order Runge-Kutta method,
which for this linear flow is exactly the step matrix
R = sum_{k<=4} (dt A)**k / k!.  The Runge-Kutta one is a fourth-order
oracle built from K alone; it exists to cross-check the closed form, not to
replace it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DerivedConstants
from .errors import NonFiniteState
from .manifest import write_csv
from .states import PhaseState

__all__ = [
    "Trajectory",
    "eom_rhs",
    "propagate_analytic",
    "integrate_numeric",
    "step_count",
]

CSV_HEADER = ("t", "Omega_t", "Q1", "Q2", "P1", "P2")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled numerical trajectory.

    times has shape (n,), states shape (n, 4) with columns (Q1, Q2, P1,
    P2), and constants records the DerivedConstants the run used.
    """

    times: np.ndarray
    states: np.ndarray
    constants: DerivedConstants

    def write_csv(self, path) -> None:
        """Write rows t, Omega_t, Q1, Q2, P1, P2 with full precision."""
        write_csv(
            path,
            CSV_HEADER,
            [self.times, self.constants.omega_big * self.times, *self.states.T],
        )


def eom_rhs(state: PhaseState, dc: DerivedConstants) -> PhaseState:
    """Right-hand side of the equations of motion, A z.

    Hamilton's equations of the commutative-frame Hamiltonian: the
    momentum gradient drives the positions, the position gradient (with a
    sign) drives the momenta, and gamma couples each coordinate to its
    partner plane.  Returned as a PhaseState holding the derivatives.
    """
    return PhaseState(*np.einsum("ij,...j->i...", dc.A, state.as_array()))


def propagate_analytic(z0: PhaseState, dc: DerivedConstants, t) -> PhaseState:
    """Exact flow of the equations of motion from the state ``z0`` at t = 0.

    ``t`` may be a scalar or an array; the returned PhaseState holds
    matching scalars or arrays, and at a scalar t it is a ``z0`` again, so
    flows compose.  The expressions are the closed-form solution: a
    rotation at omega_big inside each plane, with amplitude ratio
    beta/alpha between positions and momenta, modulated by a rotation at
    gamma between the planes.
    """
    alpha, beta = dc.alpha, dc.beta
    x, y, pix, piy = z0.Q1, z0.Q2, z0.P1, z0.P2
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
    )


def step_count(t_end: float, dt: float) -> int:
    """Whole steps of size dt spanning t_end: t_end / dt rounded, at least one."""
    steps = t_end / dt
    if not np.isfinite(steps):
        raise ValueError("t_end / dt = %r is not a finite step count" % steps)
    return max(1, int(round(steps)))


def integrate_numeric(
    z0: PhaseState,
    dc: DerivedConstants,
    t_end: float,
    dt: float,
    stride: int = 1,
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration.

    Integrates z0 from t = 0 to t_end in uniform steps dt (t_end is rounded
    to a whole number of steps) and stores every ``stride``-th state.  For
    the linear flow dz/dt = A z the four Runge-Kutta stages compose to the
    exact step matrix R = I + dt A + (dt A)**2/2 + (dt A)**3/6 +
    (dt A)**4/24, so the state after n steps is R**n z0.  It is applied as
    one factor R**(2**j) per binary digit of n, each kept as
    R**(2**j) - I (from R - I by repeated squaring, never rounding a matrix
    next to the identity), so rounding does not build up step by step and
    a stored state does not depend on the stride.
    Raises NonFiniteState if the run produced NaN or infinity, which for
    this linear system only happens when dt is grossly too large.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = step_count(t_end, dt)
    h = dt * dc.A
    # R - I in Horner form: h (I + h/2 (I + h/3 (I + h/4))).
    step = np.eye(4)
    for k in (4, 3, 2):
        step = np.eye(4) + (h / k) @ step
    times = dt * np.arange(0, n_steps + 1, stride, dtype=float)
    digits = np.arange(0, n_steps + 1, stride)
    states = np.empty((len(times), 4))
    states[:] = z0.as_array()
    # Divergence is detected afterwards; silence the benign overflow
    # warnings it produces on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        d = h @ step
        while digits.any():
            rows = (digits & 1).astype(bool)
            z = states[rows]
            # z + z d^T written out column by column: unlike BLAS, the bits
            # of a row do not depend on how many rows are multiplied.
            states[rows] = z + (
                z[:, :1] * d[:, 0] + z[:, 1:2] * d[:, 1]
                + z[:, 2:3] * d[:, 2] + z[:, 3:] * d[:, 3]
            )
            d = 2.0 * d + d @ d
            digits >>= 1
    if not np.isfinite(states).all():
        bad = np.argwhere(~np.isfinite(states))[0]
        raise NonFiniteState(
            "non-finite state at t = %g (component %d)"
            % (times[bad[0]], bad[1])
        )
    return Trajectory(times=times, states=states, constants=dc)
