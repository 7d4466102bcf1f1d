"""Integrate the canonical flow and watch the two planes trade energy.

In canonical variables the Hamiltonian is two identical oscillators at
the fast frequency Omega coupled by an angular-momentum term at the slow
frequency gamma.  The exact flow is a pair of rotations, so the closed
propagator is available next to a fixed-step RK4 oracle.  Starting from
the ground-mode initial conditions, the mode energies beat sinusoidally
at 2*gamma while two quadratic invariants stay pinned.
"""
import math

import numpy as np

from nclab import (
    PhysicalParams,
    derived_constants,
    ground_mode_ic,
    integrate_numeric,
    invariant_pair,
    mode_energy,
    propagate_analytic,
)

params = PhysicalParams(m=1.0, omega=1.0, hbar=1.0, theta=0.0, eta=0.04)
dc = derived_constants(params)
ic = ground_mode_ic(dc, params.hbar)
print("Omega = %.9f, gamma = %.9f, beat period = %.3f" % (dc.omega_big, dc.gamma, math.pi / dc.gamma))

# One beat period on a dense grid, exactly.
ts = np.linspace(0.0, math.pi / dc.gamma, 2001)
orbit = propagate_analytic(ic, dc, ts)

e1 = np.asarray(mode_energy(orbit, dc, 1))
e2 = np.asarray(mode_energy(orbit, dc, 2))
quantum = params.hbar * dc.omega_big
print("initial split E1, E2:", e1[0], e2[0])
print("max E1 over the beat:", e1.max(), " (full quantum =", quantum, ")")
print("energy sum drift:", np.max(np.abs(e1 + e2 - quantum)))

i1, i2 = invariant_pair(orbit, dc)
i1 = np.asarray(i1)
i2 = np.asarray(i2)
print("invariant drift: quadratic %.2e, angular %.2e" % (i1.max() - i1.min(), i2.max() - i2.min()))

# The RK4 oracle lands on the same orbit to its truncation error.
period = 2.0 * math.pi / dc.omega_big
traj = integrate_numeric(ic, dc, 10.0 * period, period / 2000.0, stride=10)
ref = propagate_analytic(ic, dc, traj.times).as_array()
print("RK4 vs exact propagator, sup norm over 10 fast periods:", np.max(np.abs(traj.states - ref)))

traj.write_csv("demo_trajectory.csv")
print("wrote demo_trajectory.csv with", len(traj.times), "rows")
