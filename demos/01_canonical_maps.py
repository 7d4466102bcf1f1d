"""Walk through the deformed algebra and its canonical (Bopp-type) maps.

The model couples two oscillator planes through a deformed bracket set:
positions fail to commute by theta, momenta by eta.  A linear map turns
the deformed variables into ordinary canonical ones at the price of a
gauge choice: the product lambda*mu is fixed by an algebraic constraint,
the ratio lambda/mu is free.  This script builds the map, checks that it
really preserves the brackets, and shows that everything physical is
independent of the free ratio.
"""
import numpy as np

from nclab import (
    GaugeChoice,
    PhysicalParams,
    algebra_residual,
    derived_constants,
    gamma_components,
    make_gauge,
    solve_gauge_product,
    sw_to_commutative,
    sw_to_nc,
)
from nclab.states import NCState

params = PhysicalParams(m=1.0, omega=1.0, hbar=1.0, theta=0.05, eta=0.02)
print("deformation product theta*eta/hbar^2 =", params.nc_product)

# The constraint lambda*mu*(1 - lambda*mu) = theta*eta/(4*hbar^2) has two
# roots; the branch >= 1/2 is the one that reaches the commutative limit.
product = solve_gauge_product(params)
print("gauge product lambda*mu =", product)

for ratio in (0.5, 1.0, 2.0):
    gauge = make_gauge(params, ratio=ratio)
    dc = derived_constants(params, gauge)
    res = algebra_residual(params, gauge)
    print(
        "ratio %.1f: lambda=%.6f mu=%.6f  Omega=%.12f  bracket residual=%.2e"
        % (ratio, gauge.lam, gauge.mu, dc.omega_big, res)
    )

# Omega and gamma are gauge invariants; alpha and beta are not.  The
# DerivedConstants carries params and gauge, and the frame maps take it alone.
dc = derived_constants(params, make_gauge(params, ratio=1.0))
print("forward frame matrix M:\n", dc.M)
g_theta, g_eta = gamma_components(params)
print("gamma components: from theta %.6f, from eta %.6f" % (g_theta, g_eta))
print("effective frequency Omega =", dc.omega_big, " slow frequency gamma =", dc.gamma)

# Round trip: deformed -> canonical -> deformed reproduces the input.
rng = np.random.default_rng(0)
nc_in = NCState(*rng.normal(0.0, 1.0, 4))
canonical = sw_to_commutative(nc_in, dc)
nc_back = sw_to_nc(canonical, dc)
err = max(
    abs(nc_back.q1 - nc_in.q1),
    abs(nc_back.q2 - nc_in.q2),
    abs(nc_back.p1 - nc_in.p1),
    abs(nc_back.p2 - nc_in.p2),
)
print("round-trip error through both maps:", err)

# A gauge pair that ignores the constraint is rejected.
try:
    derived_constants(params, GaugeChoice(lam=1.0, mu=1.0))
except Exception as exc:
    print("off-shell gauge rejected:", type(exc).__name__)
