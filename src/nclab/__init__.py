"""nclab: phase-space toolkit for the noncommutative 2-D harmonic oscillator.

Layers, bottom up: ``algebra`` (deformed brackets, gauge, frame maps, and
``DerivedConstants``, the one model object the other layers take),
``dynamics`` (exact and Runge-Kutta evolution), ``observables`` (beating
mode and sector energies), ``wigner`` (stationary phase-space
eigenfunctions and the star-product eigen-equation), ``cli`` (reporting
commands with run manifests).
"""

from .algebra import (
    DerivedConstants,
    GaugeChoice,
    PhysicalParams,
    algebra_residual,
    derived_constants,
    gamma_components,
    invariant_pair,
    make_gauge,
    solve_gauge_product,
    sw_to_commutative,
    sw_to_nc,
)
from .cli import main, params_from_ratio
from .dynamics import (
    Trajectory,
    eom_rhs,
    integrate_numeric,
    propagate_analytic,
)
from .errors import (
    DegenerateFormMisuse,
    DomainError,
    InvalidGauge,
    MapNotInvertible,
    NCLabError,
    NonFiniteState,
    UnreachableRatio,
)
from .manifest import TOOL_VERSION, RunManifest, file_sha256
from .observables import (
    SectorEnergySeries,
    degenerate_coefficients,
    ground_mode_ic,
    mode_energy,
    paper_coefficients,
    sector_energy_series,
    xi_closed,
    xi_closed_rate,
    xi_dot_first_order,
    xi_first_order,
    xi_trajectory,
    xi_trajectory_rate,
)
from .states import NCState, PhaseState
from .wigner import (
    QuantumNumbers,
    energy_level,
    hamiltonian_weyl,
    laguerre0,
    omega_pm,
    phase_space_integral,
    stargen_residual,
    wigner_eigenfunction,
    wigner_from_invariants,
    wigner_normalization,
)

__version__ = TOOL_VERSION
