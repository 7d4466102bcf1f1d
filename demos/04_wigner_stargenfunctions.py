"""Phase-space eigenfunctions of the deformed oscillator.

The stationary states live directly on phase space: products of an
isotropic Gaussian with Laguerre polynomials in two rotation-invariant
combinations.  They solve a stargenvalue problem, i.e. the star product
of the Hamiltonian with the state reproduces the state times its energy.
The star product truncates after the second derivative order for a
quadratic Hamiltonian, so the residual can be measured with Richardson
finite differences.  The two-frequency spectrum splits each level n1+n2
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
    wigner_normalization,
)
from nclab.states import PhaseState

params = PhysicalParams(m=1.0, omega=1.0, hbar=1.0, theta=0.05, eta=0.02)
dc = derived_constants(params)

print("spectrum hbar*(Omega*(n1+n2+1) + gamma*(n1-n2)):")
for n1 in range(3):
    row = [energy_level(QuantumNumbers(n1, n2), dc, params.hbar) for n2 in range(3)]
    print("  n1=%d:" % n1, "  ".join("%.9f" % e for e in row))

# Ground state peaks at 1/(pi*hbar)^2 at the origin; excited states
# alternate sign there.
origin = PhaseState(0.0, 0.0, 0.0, 0.0)
for qn in (QuantumNumbers(0, 0), QuantumNumbers(1, 0), QuantumNumbers(1, 1)):
    rho = wigner_eigenfunction(origin, qn, dc, params.hbar)
    print("rho(origin) for (%d,%d) = %.9f" % (qn.n1, qn.n2, rho))

# Stargenvalue residual at a few generic points.
rng = np.random.default_rng(7)
qn = QuantumNumbers(1, 0)
energy = energy_level(qn, dc, params.hbar)
w_q = math.sqrt(params.hbar * dc.beta / dc.alpha)
w_p = math.sqrt(params.hbar * dc.alpha / dc.beta)
print("stargenvalue residual for (1,0), energy %.9f:" % energy)
for _ in range(4):
    pt = PhaseState(
        rng.uniform(-1.5, 1.5) * w_q,
        rng.uniform(-1.5, 1.5) * w_q,
        rng.uniform(-1.5, 1.5) * w_p,
        rng.uniform(-1.5, 1.5) * w_p,
    )
    rho = wigner_eigenfunction(pt, qn, dc, params.hbar)
    res = stargen_residual(pt, qn, dc, params.hbar)
    print(
        "  point (%+.3f,%+.3f,%+.3f,%+.3f): |Re|=%.1e |Im|=%.1e  (bound %.1e)"
        % (pt.Q1, pt.Q2, pt.P1, pt.P2, abs(res.real), abs(res.imag), 1e-6 * energy * abs(rho))
    )

# Quadrature: unit normalization, pure-state purity, orthogonality.
norm = wigner_normalization(QuantumNumbers(0, 0), dc, params.hbar)
print("normalization integral of the ground state:", norm)


def square(q1, q2, p1, p2):
    return wigner_eigenfunction(PhaseState(q1, q2, p1, p2), QuantumNumbers(0, 0), dc, params.hbar) ** 2


purity = phase_space_integral(square, dc, params.hbar, decay=2.0)
print("purity integral:", purity, " expected:", 1.0 / (2.0 * math.pi * params.hbar) ** 2)


def overlap(q1, q2, p1, p2):
    pt = PhaseState(q1, q2, p1, p2)
    a = wigner_eigenfunction(pt, QuantumNumbers(0, 0), dc, params.hbar)
    b = wigner_eigenfunction(pt, QuantumNumbers(0, 1), dc, params.hbar)
    return a * b


print("overlap of distinct levels:", phase_space_integral(overlap, dc, params.hbar, decay=2.0))
