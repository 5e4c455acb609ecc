"""The public surface of each module, pinned name by name.

A public name is a module-level def, class or assignment whose name does
not start with an underscore, read from the source with ``ast``.  Adding
or removing one fails here, so every change to the surface shows in the
diff of this file.  So do the settable values: the fields of each
scenario spec and the config keys.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from magnomech import cli

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
        "default_entanglement_scenario", "default_transfer_scenario",
        "entanglement_curves", "run_entanglement", "run_transfer",
        "validate_scenario",
    },
}

# the settable values: the fields of each scenario spec, and the config keys
FIELDS = {
    "protocol.MagnonicNodeSpec": (
        "te_mode_freq", "tm_mode_freq", "magnon_freq", "magnon_linewidth"),
    "protocol.MechanicalNodeSpec": (
        "mech_freq", "mech_damping", "drive_detuning"),
    "propagators.PulseSpec": ("coupling", "cavity_linewidth", "duration"),
    "channels.FiberSpec": (
        "length_km", "attenuation_db_per_km", "extra_loss_db"),
    "protocol.ScenarioConfig": (
        "magnonic", "mechanical", "magnon_pulse", "mech_pulse", "fiber",
        "truncation", "initial_states", "include_loss_in_entanglement",
        "phonon_thermal_occupation"),
}
CONFIG_KEYS = {
    "te_mode_freq_over_2pi_hz", "tm_mode_freq_over_2pi_hz",
    "magnon_freq_over_2pi_hz", "magnon_linewidth_over_2pi_hz",
    "tm_linewidth_over_2pi_hz",
    "mech_freq_over_2pi_hz", "mech_damping_over_2pi_hz",
    "mech_detuning_over_2pi_hz", "cavity_linewidth_over_2pi_hz",
    "magnon_pulse_coupling_over_2pi_hz", "magnon_pulse_duration_s",
    "mech_pulse_coupling_over_2pi_hz", "mech_pulse_duration_s",
    "fiber_length_km", "fiber_attenuation_db_per_km", "fiber_extra_loss_db",
    "truncation", "initial_states", "include_loss_in_entanglement",
    "phonon_thermal_occupation", "qle_process", "qle_coupling_ratios",
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


@pytest.mark.parametrize("spec", sorted(FIELDS))
def test_spec_fields(spec):
    module, name = spec.split(".")
    cls = getattr(importlib.import_module(f"magnomech.{module}"), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[spec]


def test_config_keys():
    assert set(cli.CONFIG_KEYS) == CONFIG_KEYS
