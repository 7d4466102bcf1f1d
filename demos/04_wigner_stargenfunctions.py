"""Phase-space eigenfunctions of the deformed oscillator.

The stationary states live directly on phase space: products of an
isotropic Gaussian with Laguerre polynomials in two rotation-invariant
combinations.  They solve a stargenvalue problem, i.e. the star product
of the Hamiltonian with the state reproduces the state times its energy.
The star product truncates after the second derivative order for a
quadratic Hamiltonian, and each state depends on the point only through
two quadratic forms, so the residual is measured with exact derivatives.  The two-frequency spectrum splits each level n1+n2
by the slow frequency gamma.
"""
import math

import numpy as np

from nclab import (
    PhysicalParams,
    QuantumNumbers,
    derived_constants,
    energy_level,
    phase_space_integral,
    stargen_residual,
    wigner_eigenfunction,
    wigner_from_invariants,
    wigner_normalization,
)
from nclab.states import PhaseState

params = PhysicalParams(m=1.0, omega=1.0, hbar=1.0, theta=0.05, eta=0.02)
dc = derived_constants(params)

print("spectrum hbar*(Omega*(n1+n2+1) + gamma*(n1-n2)):")
for n1 in range(3):
    row = [energy_level(QuantumNumbers(n1, n2), dc) for n2 in range(3)]
    print("  n1=%d:" % n1, "  ".join("%.9f" % e for e in row))

# Ground state peaks at 1/(pi*hbar)^2 at the origin; excited states
# alternate sign there.
origin = PhaseState(0.0, 0.0, 0.0, 0.0)
for qn in (QuantumNumbers(0, 0), QuantumNumbers(1, 0), QuantumNumbers(1, 1)):
    rho = wigner_eigenfunction(origin, qn, dc)
    print("rho(origin) for (%d,%d) = %.9f" % (qn.n1, qn.n2, rho))

# Stargenvalue residual at a few generic points.
rng = np.random.default_rng(7)
qn = QuantumNumbers(1, 0)
energy = energy_level(qn, dc)
w_q = math.sqrt(dc.hbar * dc.beta / dc.alpha)
w_p = math.sqrt(dc.hbar * dc.alpha / dc.beta)
print("stargenvalue residual for (1,0), energy %.9f:" % energy)
# One call evaluates the residuals of all four points.
z = rng.uniform(-1.5, 1.5, (4, 4)) * np.array([w_q, w_q, w_p, w_p])
pts = PhaseState(*z.T)
rhos = wigner_eigenfunction(pts, qn, dc)
residuals = stargen_residual(pts, qn, dc)
for point, rho, res in zip(z, rhos, residuals):
    print(
        "  point (%+.3f,%+.3f,%+.3f,%+.3f): |Re|=%.1e |Im|=%.1e  (bound %.1e)"
        % (*point, abs(res.real), abs(res.imag), 1e-6 * energy * abs(rho))
    )

# Quadrature over the two mode actions: the integrands are functions of the
# invariants X and L.  Unit normalization, pure-state purity, orthogonality.
norm = wigner_normalization(QuantumNumbers(0, 0), dc)
print("normalization integral of the ground state:", norm)


def square(x, ell):
    return wigner_from_invariants(x, ell, QuantumNumbers(0, 0), dc) ** 2


purity = phase_space_integral(square, dc, decay=2.0)
print("purity integral:", purity, " expected:", 1.0 / (2.0 * math.pi * dc.hbar) ** 2)


def overlap(x, ell):
    a = wigner_from_invariants(x, ell, QuantumNumbers(0, 0), dc)
    b = wigner_from_invariants(x, ell, QuantumNumbers(0, 1), dc)
    return a * b


print("overlap of distinct levels:", phase_space_integral(overlap, dc, decay=2.0))
