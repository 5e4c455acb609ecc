"""The public surface of each module, pinned name by name.

A public name is a module-level def, class or assignment whose name does
not start with an underscore, read from the source with ``ast``.  Adding
or removing one fails here, so every change to the surface shows in the
diff of this file.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "magnomech"

SURFACE = {
    "channels": {
        "FiberSpec", "LOSS_METHODS", "apply_loss", "loss_kraus_operators",
        "transmittance",
    },
    "cli": {
        "CONFIG_KEYS", "ConfigError", "DEFAULT_QLE_RATIOS",
        "FIG5_EFFICIENCIES", "FIG5_SQUEEZINGS", "QLE_PROCESSES",
        "build_scenario", "main", "parse_state_token", "read_config",
    },
    "fock": {
        "FockDensityMatrix", "FockKet", "GENERATOR_KINDS", "HERMITICITY_TOL",
        "KET_NORM_TOL", "ModeDims", "apply_phase_rotation",
        "apply_two_mode_exponential", "condition_on_vacuum", "number_ket",
        "pair_generator_eigensystem", "partial_trace", "partial_transpose",
        "tensor", "two_mode_unitary", "vacuum",
    },
    "metrics": {
        "LogNegativity", "PHYSICAL_TOL", "closed_form_log_negativity",
        "effective_squeezing", "fidelity_pure_target", "log_negativity_fock",
        "log_negativity_gaussian", "log_negativity_pure",
        "log_negativity_sectors", "symplectic_eigenvalues", "symplectic_form",
    },
    "moments": {
        "AdiabaticRow", "CovarianceState", "DRIFT_KINDS", "DT_SAFETY",
        "DriftDiffusion", "RwaComparison", "build_drift",
        "compare_optomech_rwa", "default_timestep", "integrate",
        "propagate_static", "stokes_capture_drift",
        "stokes_temporal_mode_covariance", "validate_adiabatic",
    },
    "propagators": {
        "PulseSpec", "WEAK_COUPLING_BOUND", "apply_antistokes_swap",
        "apply_stokes_squeeze", "conversion_efficiency", "squeezing_parameter",
    },
    "protocol": {
        "ClosedFormTransfer", "CurvePoint", "DEFAULT_SQUEEZE_TRUNCATION",
        "DEFAULT_TRANSFER_TRUNCATION", "DETUNING_RTOL", "EntangleReport",
        "InitialState", "MagnonicNodeSpec", "MechanicalNodeSpec",
        "OPTICAL_HIERARCHY_BOUND", "PULSE_LIFETIME_FRACTION", "SIDEBAND_BOUND",
        "SQUEEZE_LEAK_BUDGET", "ScenarioConfig", "ScenarioError",
        "TRIPLE_RESONANCE_RTOL", "TWO_PI", "TransferReport",
        "TruncationLeakError", "ValidationCheck", "closed_form_transfer",
        "default_entanglement_scenario", "default_magnonic_node",
        "default_mechanical_node", "default_transfer_scenario",
        "entanglement_curves", "run_entanglement", "run_transfer",
        "validate_scenario",
    },
}


def public_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_every_module_is_pinned():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(SURFACE)


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_names(module):
    got = public_names(SRC / f"{module}.py")
    added = sorted(got - SURFACE[module])
    removed = sorted(SURFACE[module] - got)
    assert not (added or removed), \
        f"{module}: names added {added}, names removed {removed}"
