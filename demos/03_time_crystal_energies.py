"""Sector energies: the beating law seen from the deformed variables.

Splitting the physical Hamiltonian into its two planar sectors and
following them along the flow gives energies that never settle: they
oscillate forever with a slow envelope at gamma and a fast ripple at
Omega, while their sum stays exactly one quantum hbar*Omega.  This
script compares the closed forms against the trajectory composition.
The ground mode starts in the paper's phase (momenta times
sign(g_eta - g_theta), +1 at equality), so the trajectory follows the
paper's closed form whichever deformation dominates, at every gauge ratio.
"""
import numpy as np

from nclab import (
    PhysicalParams,
    derived_constants,
    ground_mode_ic,
    make_gauge,
    paper_coefficients,
    params_from_ratio,
    sector_energy_series,
    xi_closed,
    xi_first_order,
    xi_trajectory,
)

# Symmetric deformation (theta = eta): trajectory and closed form agree.
dc = derived_constants(params_from_ratio(0.01, "symmetric"))
omega_t = np.linspace(0.0, 60.0, 1200)
series = sector_energy_series(dc, omega_t, "trajectory")
closed = sector_energy_series(dc, omega_t, "closed_form")
print("symmetric deformation, gamma/Omega =", dc.gamma / dc.omega_big)
print("  max |trajectory - closed| / (hbar*Omega):", np.max(np.abs(series.xi1 - closed.xi1)))
print("  partition drift:", np.max(np.abs(series.xi1 + series.xi2 - 1.0)))
series.write_csv("demo_xi_trajectory.csv")
print("  wrote demo_xi_trajectory.csv")

# One deformation alone, position (g_theta > g_eta, momenta flipped) or
# momentum (g_eta > g_theta): the gap to the paper's form is roundoff at
# every gauge ratio.
ts_omega = np.linspace(0.0, 40.0, 400)
for label, (theta, eta) in (("position", (0.004, 0.0)), ("momentum", (0.0, 0.004))):
    params = PhysicalParams(1.0, 1.0, 1.0, theta, eta)
    d = derived_constants(params)
    print("%s deformation only, gamma/Omega = %.6f" % (label, d.gamma / d.omega_big))
    for ratio in (0.5, 1.0, 2.0):
        d = derived_constants(params, make_gauge(params, ratio=ratio))
        ts = ts_omega / d.omega_big
        scale = d.hbar * d.omega_big
        traj = xi_trajectory(ground_mode_ic(d), d, ts)[0] / scale
        paper = xi_closed(d, paper_coefficients(d), ts)[0] / scale
        print("  gauge ratio %.1f: gap to the paper's form %.2e" % (ratio, np.max(np.abs(traj - paper))))

# Near the commutative point the first-order window is accurate until
# the secular term grows; its error scales like (gamma/Omega)^2.
print("first-order window, position deformation only:")
for r in (0.004, 0.002, 0.001):
    d = derived_constants(params_from_ratio(r, "single_theta"))
    tw = np.linspace(0.0, 40.0 / d.omega_big, 2001)
    scale = d.hbar * d.omega_big
    exact = xi_closed(d, paper_coefficients(d), tw)[0] / scale
    approx = xi_first_order(d, tw)[0] / scale
    dev = np.max(np.abs(exact - 0.5))
    print("  ratio %.3f: first-order error / beat deviation = %.5f" % (r, np.max(np.abs(approx - exact)) / dev))
