"""Unfolding the three-dimensional Kepler problem into a family of
four-dimensional harmonic oscillators.

The package implements the quadratic phase-space map that squares a
4-vector down to 3-space, its tangent lift, the circle action along whose
orbits the map is constant, and the reduction machinery that turns the
completed oscillator flow at fixed energy back into Kepler motion with a
reparametrized clock.  Conservation laws, bracket tables, and the
commutative reduction diagram are all checked numerically rather than
assumed.
"""

from .errors import (
    ConfigError,
    DegenerateStructureError,
    DomainError,
    HorizonError,
    IntegrationError,
    KSUnfoldError,
    LiftError,
)
from .phase_geometry import (
    fiber_act,
    fiber_matrix,
    fiber_momentum,
    ks_lift,
    ks_project,
    ks_tangent,
    ks_tangent_velocity,
    lift_frame,
    to_oscillator_chart,
)
from .systems import (
    CONSERVED,
    OBSERVABLES,
    DynamicalSystem,
    EnergyScaling,
    Observable,
    calogero_moser_field,
    completed_oscillator_field,
    conformal_kepler_field,
    free3d_field,
    kepler_field,
    observables,
    oscillator_invariant,
    radial_reduced_field,
    reparametrized_field,
    scaling_preset,
)
from .symplectic import (
    SUITES,
    SymplecticStructure,
    chart_structure,
    commutant_basis,
    kepler_structure,
    lagrangian_structure,
    poisson_bracket,
    pullback_chart_structure,
    quadratic_from_matrix,
    run_suite,
    verify_structure_constants,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    find_return_time,
    integrate,
)
from .reduction import (
    ReductionSetup,
    UnfoldResult,
    check_equivariance,
    kepler_period_from_unfold,
    kepler_setup,
    radial_setup,
    reduce_calogero,
    unfold_kepler,
    unfold_sweep,
)

__version__ = "0.1.0"
