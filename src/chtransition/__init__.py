"""Phase-transition analysis and spectral simulation of a conserved-order
binary mixture with concentration-dependent mobility on a rectangular box."""

from .classifier import (
    CensusCheck,
    MarginalTransitionError,
    Side,
    TransitionReport,
    TransitionType,
    bifurcated_amplitude,
    census_check,
    classify_transition,
)
from .linstab import (
    CriticalSet,
    DegeneracyAmbiguityError,
    PESReport,
    critical_set,
    critical_temperature_bisect,
    growth_rate,
    verify_pes,
)
from .manifold import (
    DegenerateCubicError,
    Equilibrium,
    EquilibriumKind,
    ManifoldCoeffs,
    ReducedState,
    ReducedTrajectory,
    cm_coefficients,
    critical_vector_field,
    cubic_coefficients,
    enumerate_equilibria,
    integrate_reduced,
    reduced_potential,
    reduced_vector_field,
    straight_line_orbits,
)
from .params import (
    Coefficients,
    Discriminants,
    DomainCase,
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    NoSupercriticalRegimeError,
    PhysicalParams,
    critical_temperature,
    derive_coefficients,
    transition_discriminants,
)
from .simulator import (
    SimResult,
    SimState,
    StepConfig,
    StepRejectedError,
    Stepper,
    chemical_potential,
    dissipation,
    field_from_modes,
    free_energy,
    random_initial_field,
    simulate,
)
from .spectral import (
    Mode,
    SpectralField,
    eval_mode,
    forward_transform,
    grad_triple_product,
    inverse_transform,
    laplacian_eigenvalue,
    mode_l2_norm_sq,
    triple_product,
)

__version__ = "0.1.0"
