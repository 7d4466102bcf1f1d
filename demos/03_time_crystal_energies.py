"""Sector energies: the beating law seen from the deformed variables.

Splitting the physical Hamiltonian into its two planar sectors and
following them along the flow gives energies that never settle: they
oscillate forever with a slow envelope at gamma and a fast ripple at
Omega, while their sum stays exactly one quantum hbar*Omega.  This
script compares the closed forms against the trajectory composition and
demonstrates the one systematic discrepancy the library documents: for
position-dominant deformations the fast ripple flips sign relative to
the unsigned closed form, identically in the gauge ratio.
"""
import numpy as np

from nclab import (
    RatioSpec,
    derived_constants,
    ground_mode_ic,
    make_gauge,
    paper_coefficients,
    params_from_ratio,
    sector_energy_series,
    signed_coefficients,
    xi_closed,
    xi_first_order,
    xi_trajectory,
)

# Momentum-dominant deformation: trajectory and closed form agree.
dc = derived_constants(params_from_ratio(RatioSpec(0.01, "symmetric")))
omega_t = np.linspace(0.0, 60.0, 1200)
series = sector_energy_series(dc, omega_t, "trajectory")
closed = sector_energy_series(dc, omega_t, "closed_form")
print("symmetric deformation, gamma/Omega =", dc.gamma / dc.omega_big)
print("  max |trajectory - closed| / (hbar*Omega):", np.max(np.abs(series.xi1 - closed.xi1)))
print("  partition drift:", np.max(np.abs(series.xi1 + series.xi2 - 1.0)))
series.write_csv("demo_xi_trajectory.csv")
print("  wrote demo_xi_trajectory.csv")

# Position-only deformation: the fast term comes out with the opposite
# sign.  The gap is stable under the free gauge ratio and is reproduced
# exactly by the signed closed form.
params = params_from_ratio(RatioSpec(0.002, "single_theta"))
dc0 = derived_constants(params)
ts = np.linspace(0.0, 40.0 / dc0.omega_big, 400)
print("single_theta deformation, gamma/Omega =", dc0.gamma / dc0.omega_big)
for ratio in (0.5, 1.0, 2.0):
    d = derived_constants(params, make_gauge(params, ratio=ratio))
    scale = d.hbar * d.omega_big
    traj = np.asarray(xi_trajectory(ground_mode_ic(d), d, ts, 1)) / scale
    unsigned = np.asarray(xi_closed(d, paper_coefficients(d), ts, 1)) / scale
    signed = np.asarray(xi_closed(d, signed_coefficients(d), ts, 1)) / scale
    print(
        "  ratio %.1f: gap to unsigned form %.6f, gap to signed form %.2e"
        % (ratio, np.max(np.abs(traj - unsigned)), np.max(np.abs(traj - signed)))
    )

# Near the commutative point the first-order window is accurate until
# the secular term grows; its error scales like (gamma/Omega)^2.
for r in (0.004, 0.002, 0.001):
    d = derived_constants(params_from_ratio(RatioSpec(r, "single_theta")))
    tw = np.linspace(0.0, 40.0 / d.omega_big, 2001)
    scale = d.hbar * d.omega_big
    exact = np.asarray(xi_closed(d, paper_coefficients(d), tw, 1)) / scale
    approx = np.asarray(xi_first_order(d, tw, 1)) / scale
    dev = np.max(np.abs(exact - 0.5))
    print("  ratio %.3f: first-order error / beat deviation = %.5f" % (r, np.max(np.abs(approx - exact)) / dev))
