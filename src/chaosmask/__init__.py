"""Chaotic masking for secure remote state estimation.

Mask sensor outputs with a chaotic signal, recover the state with an extended
Lipschitz observer whose gain carries a quadratic feasibility certificate, and
evaluate eavesdropping, replay, and false-data-injection attacks in
deterministic closed-loop simulation.
"""

from .errors import (
    ChaosmaskError,
    DivergedRunError,
    GainNotCertifiedError,
    InfeasibleSynthesisError,
    NoStabilizingSolutionError,
    NotBoundedError,
    NotHurwitzError,
    RiccatiFailureError,
    ScenarioFormatError,
)
from .numerics import (
    is_hurwitz,
    is_negative_definite,
    min_singular_value_freq,
    min_singular_values_freq,
    solve_lyapunov,
    solve_riccati_grid,
    solve_riccati_stabilizing,
)
from .models import (
    ChaoticMask,
    ExtendedSystem,
    LtiPlant,
    PolynomialMap,
    build_extended,
    estimate_invariant_box,
    estimate_lipschitz,
    extended_pair,
    rossler_p4,
    scale_mask,
)
from .synthesis import (
    ObserverGain,
    UnobservabilityReport,
    check_sufficiency,
    distance_to_unobservability,
    frequency_profile,
    synthesize_gain,
    verify_gain,
    verify_lmi,
)
from .attacks import (
    EavesdropAttack,
    FdiAttack,
    NoAttack,
    ReplayAttack,
    eavesdrop_error_bound,
    stealthiness_metric,
)
from .sim import (
    Scenario,
    SimTrace,
    calibrate_threshold,
    clean_twin,
    detect,
    equilibrium_for,
    run_scenario,
)
from .scenario_file import (
    build_mask,
    build_plant,
    calibrate_mask,
    load_scenario_file,
    mask_xi0,
)

__version__ = "0.1.0"

__all__ = [
    "ChaosmaskError", "DivergedRunError", "GainNotCertifiedError",
    "InfeasibleSynthesisError", "NoStabilizingSolutionError",
    "NotBoundedError", "NotHurwitzError", "RiccatiFailureError",
    "ScenarioFormatError",
    "is_hurwitz", "is_negative_definite", "min_singular_value_freq",
    "min_singular_values_freq", "solve_lyapunov", "solve_riccati_grid",
    "solve_riccati_stabilizing",
    "ChaoticMask", "ExtendedSystem", "LtiPlant", "PolynomialMap",
    "build_extended", "estimate_invariant_box", "estimate_lipschitz",
    "extended_pair", "rossler_p4", "scale_mask",
    "ObserverGain", "UnobservabilityReport", "check_sufficiency",
    "distance_to_unobservability", "frequency_profile", "synthesize_gain",
    "verify_gain", "verify_lmi",
    "EavesdropAttack", "FdiAttack", "NoAttack", "ReplayAttack",
    "eavesdrop_error_bound", "stealthiness_metric",
    "Scenario", "SimTrace", "calibrate_threshold", "clean_twin", "detect",
    "equilibrium_for", "run_scenario",
    "build_mask", "build_plant", "calibrate_mask", "load_scenario_file",
    "mask_xi0",
]
