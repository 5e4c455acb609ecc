"""Pulsed magnon-optics-mechanics network simulator.

A yttrium-iron-garnet sphere converts magnons to itinerant optical pulses
(anti-Stokes swap) or entangles with them (Stokes squeeze); the pulse
crosses a lossy fiber and an optomechanical cavity swaps it onto a
mechanical mode.  This package evolves the full protocol on truncated
Fock spaces, checks every stage against closed-form oracles, and
validates the adiabatic conversion rates by quantum-Langevin moment
integration.

Layout:

* :mod:`magnomech.fock` truncated multi-mode states and exact two-mode
  exponentials
* :mod:`magnomech.propagators` pulse conversion efficiency and squeezing
* :mod:`magnomech.channels` fiber photon loss, two realizations + oracle
* :mod:`magnomech.metrics` fidelity and logarithmic negativity
* :mod:`magnomech.moments` quantum-Langevin first/second-moment integration
* :mod:`magnomech.protocol` end-to-end transfer and entanglement pipelines
* :mod:`magnomech.cli` reproducible CSV runs (``magnomech`` console script)
"""

from .fock import (
    FockDensityMatrix,
    FockKet,
    ModeDims,
    TruncationLeakError,
    apply_phase_rotation,
    apply_two_mode_exponential,
    condition_on_vacuum,
    number_ket,
    partial_trace,
    partial_transpose,
    tensor,
    truncation_leak,
    vacuum,
)
from .propagators import (
    PulseSpec,
    SqueezeResult,
    SwapResult,
    apply_antistokes_swap,
    apply_stokes_squeeze,
    conversion_efficiency,
    squeezing_parameter,
)
from .channels import (
    FiberSpec,
    apply_loss,
    loss_kraus_operators,
    post_loss_pulse_state,
    transmittance,
)
from .metrics import (
    Fidelity,
    LogNegativity,
    closed_form_log_negativity,
    effective_squeezing,
    fidelity_pure_target,
    log_negativity_fock,
    log_negativity_gaussian,
    log_negativity_pure,
)
from .moments import (
    CovarianceState,
    DriftDiffusion,
    TemporalMode,
    build_drift,
    compare_optomech_rwa,
    integrate,
    validate_adiabatic,
)
from .protocol import (
    CurvePoint,
    EntangleReport,
    InitialState,
    MagnonicNodeSpec,
    MechanicalNodeSpec,
    ScenarioConfig,
    ScenarioError,
    TransferReport,
    ValidationCheck,
    closed_form_transfer,
    default_entanglement_scenario,
    default_transfer_scenario,
    entanglement_curves,
    run_entanglement,
    run_transfer,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fock
    "ModeDims", "FockKet", "FockDensityMatrix", "TruncationLeakError",
    "vacuum", "number_ket", "tensor", "partial_trace",
    "partial_transpose", "condition_on_vacuum", "truncation_leak",
    "apply_two_mode_exponential", "apply_phase_rotation",
    # propagators
    "PulseSpec", "SwapResult", "SqueezeResult", "conversion_efficiency",
    "squeezing_parameter", "apply_antistokes_swap", "apply_stokes_squeeze",
    # channels
    "FiberSpec", "transmittance", "loss_kraus_operators", "apply_loss",
    "post_loss_pulse_state",
    # metrics
    "Fidelity", "LogNegativity", "fidelity_pure_target",
    "log_negativity_fock", "log_negativity_pure", "log_negativity_gaussian",
    "effective_squeezing", "closed_form_log_negativity",
    # moments
    "CovarianceState", "DriftDiffusion", "TemporalMode", "build_drift",
    "integrate", "validate_adiabatic", "compare_optomech_rwa",
    # protocol
    "ScenarioError", "MagnonicNodeSpec", "MechanicalNodeSpec", "InitialState",
    "ScenarioConfig", "ValidationCheck", "validate_scenario", "TransferReport",
    "run_transfer", "closed_form_transfer", "EntangleReport",
    "run_entanglement", "CurvePoint", "entanglement_curves",
    "default_transfer_scenario", "default_entanglement_scenario",
]
