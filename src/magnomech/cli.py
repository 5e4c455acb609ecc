"""Command-line front end: reproducible CSV runs of the pipelines.

Subcommands:

* ``transfer``  magnon -> phonon state transfer, one CSV row per initial state
* ``entangle``  magnon-phonon entanglement distribution, one CSV row
* ``fig5``      E_N sweep over squeezing x conversion efficiency
* ``validate``  physical-regime checks of a scenario, human-readable table
* ``qle``       quantum-Langevin moment integration against the closed forms

Configs are flat ``key = value`` text files; frequency-like keys end in
``_over_2pi_hz`` and are multiplied by 2*pi internally.  Physical values
must be finite and > 0; the magnon linewidth, mechanical damping, fiber
length and losses and thermal occupation may be 0, and the drive detuning
need only be finite; each pulse's area 2 G^2 tau / kappa must be finite.
Every command with a config checks every scenario key; ``qle`` reads the
magnonic pulse and the magnon linewidth (0 unless set: its closed forms
assume lossless matter).  One writer, ``_write``, makes every CSV, to
stdout or ``--out`` alike: ``#`` manifest lines (tool version, command,
config path and hash, output path, warnings, ``qle``'s note), a header
line, then data rows with 12 significant digits and LF line endings.
Identical config and version give byte-identical output; there is
deliberately no seed flag, nothing here is stochastic.

Exit codes: 0 success, 2 config or validation error (a ``qle`` run whose
moments blow up or turn unphysical included, and a state token whose
amplitudes are NaN, named by its token), 3 numerical truncation budget
exceeded.  A rejected value is named by its config key, as configured:
``error: mech_pulse_coupling_over_2pi_hz must be finite and > 0, got 0``
(a magnonic pulse area outside the map its command reads, by the coupling
key; a ``qle`` rung with no finite duration, by ``qle_coupling_ratios``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys

from . import __version__, fock, moments, protocol

FIG5_SQUEEZINGS = tuple(0.05 * i for i in range(31))   # r = 0 .. 1.5
FIG5_EFFICIENCIES = (1.0, 0.8, 0.5, 0.2)               # upper to lower curve

QLE_PROCESSES = ("antistokes", "stokes")
DEFAULT_QLE_RATIOS = (0.005, 0.02, 0.1)


class ConfigError(Exception):
    """Unreadable, malformed, or physically invalid configuration."""


def _angular(raw: str) -> float:
    return protocol.TWO_PI * float(raw)


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ValueError("empty list")
    return values


# config key of each settable field, by scenario part
_PART_KEYS = {
    "magnonic": {
        "te_mode_freq": "te_mode_freq_over_2pi_hz",
        "tm_mode_freq": "tm_mode_freq_over_2pi_hz",
        "magnon_freq": "magnon_freq_over_2pi_hz",
        "magnon_linewidth": "magnon_linewidth_over_2pi_hz",
    },
    "mechanical": {
        "mech_freq": "mech_freq_over_2pi_hz",
        "mech_damping": "mech_damping_over_2pi_hz",
        "drive_detuning": "mech_detuning_over_2pi_hz",
    },
    "magnon_pulse": {
        "coupling": "magnon_pulse_coupling_over_2pi_hz",
        "cavity_linewidth": "tm_linewidth_over_2pi_hz",
        "duration": "magnon_pulse_duration_s",
    },
    "mech_pulse": {
        "coupling": "mech_pulse_coupling_over_2pi_hz",
        "cavity_linewidth": "cavity_linewidth_over_2pi_hz",
        "duration": "mech_pulse_duration_s",
    },
    "fiber": {
        "length_km": "fiber_length_km",
        "attenuation_db_per_km": "fiber_attenuation_db_per_km",
        "extra_loss_db": "fiber_extra_loss_db",
    },
}
# scenario options whose config key is the field name
_OPTION_KEYS = ("truncation", "include_loss_in_entanglement",
                "phonon_thermal_occupation")

# every recognized config key with its parser; anything else is rejected.
# A spec field's key is angular when it ends in _over_2pi_hz, else a float.
CONFIG_KEYS = {
    **{key: _angular if key.endswith("_over_2pi_hz") else float
       for keys in _PART_KEYS.values() for key in keys.values()},
    "truncation": int,
    "initial_states": str,
    "include_loss_in_entanglement": _boolean,
    "phonon_thermal_occupation": float,
    "qle_process": str,
    "qle_coupling_ratios": _float_list,
}


def read_config(path: str | None) -> tuple[dict, str | None]:
    """Parse a flat key=value file; returns (values, sha256 of the bytes)."""
    if path is None:
        return {}, None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    values: dict = {}
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith(("#", ";")):
            continue
        if text.startswith("[") and text.endswith("]"):
            continue  # section headers are allowed but carry no meaning
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, raw_value = text.partition("=")
        key = key.strip()
        value = raw_value.strip().strip("\"'")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") \
                from exc
    return values, digest


def parse_state_token(token: str) -> protocol.InitialState:
    """Descriptor -> InitialState: fock:n | superposition[:c0:c1]."""
    tok = token.strip()
    if tok.startswith("fock:"):
        try:
            n = int(tok[len("fock:"):])
        except ValueError as exc:
            raise ConfigError(f"bad state token {tok!r}") from exc
        if n < 0:
            raise ConfigError(f"bad state token {tok!r}")
        return protocol.InitialState.fock(n)
    if tok == "superposition":
        return protocol.InitialState.superposition()
    if tok.startswith("superposition:"):
        parts = tok.split(":")[1:]
        if len(parts) != 2:
            raise ConfigError(f"bad state token {tok!r}: need two amplitudes")
        try:
            c0, c1 = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad state token {tok!r}") from exc
        norm = math.hypot(c0, c1)
        if not abs(norm - 1.0) <= 1e-6:   # NaN fails it too
            raise ConfigError(
                f"state token {tok!r} not normalized (norm {norm:.8f})")
        return protocol.InitialState(tok, ket=[c0 / norm, c1 / norm])
    raise ConfigError(f"unknown state token {token!r}")


def _config_error(exc: fock._DomainError, key: str) -> ConfigError:
    """``exc`` named by config ``key``, with the value as configured: in Hz
    for an ``_over_2pi_hz`` key."""
    value = exc.value / protocol.TWO_PI if key.endswith("_over_2pi_hz") \
        else exc.value
    return ConfigError(f"{key} must be {exc.rule}, got {_fmt(value)}")


def _area_error(exc: fock._DomainError, pulse) -> ConfigError:
    """The magnon ``pulse``'s area out of ``exc.rule``, by the coupling key."""
    return _config_error(fock._DomainError("coupling", pulse.coupling, exc.rule),
                         _PART_KEYS["magnon_pulse"]["coupling"])


def build_scenario(cfg: dict, *, entangling: bool = False,
                   truncation: int | None = None) -> protocol.ScenarioConfig:
    """Scenario from config values over the reference operating point;
    a field out of its domain is reported under its config key."""
    base = protocol.default_entanglement_scenario() if entangling \
        else protocol.default_transfer_scenario()
    # an unset detuning keeps the drive on the configured red sideband
    cfg = {"mech_detuning_over_2pi_hz": cfg.get(
        "mech_freq_over_2pi_hz", base.mechanical.mech_freq), **cfg}
    fields = {}
    for part, keys in _PART_KEYS.items():
        overrides = {f: cfg[k] for f, k in keys.items() if k in cfg}
        try:
            fields[part] = dataclasses.replace(getattr(base, part), **overrides)
        except fock._DomainError as exc:
            raise _config_error(exc, keys[exc.field]) from exc
    if "initial_states" in cfg:
        tokens = [tok for tok in cfg["initial_states"].split(",") if tok.strip()]
        if not tokens:
            raise ConfigError("initial_states is empty")
        fields["initial_states"] = tuple(parse_state_token(t) for t in tokens)
    fields.update((k, cfg[k]) for k in _OPTION_KEYS if k in cfg)
    if truncation is not None:
        fields["truncation"] = truncation
    try:
        return dataclasses.replace(base, **fields)
    except fock._DomainError as exc:   # an option, keyed by its field name
        raise _config_error(exc, exc.field) from exc
    except protocol.ScenarioError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _write(args, digest: str | None, header: str, rows, warnings=(),
           notes=()) -> None:
    """The one CSV writer: manifest, ``# warning:`` and ``# note:`` lines,
    header, then one line per row of cells, a str cell as given and any
    other at 12 significant digits; to ``args.out``, else stdout."""
    config = getattr(args, "config", None)   # fig5 takes no config
    lines = [
        f"# tool: magnomech {__version__}",
        f"# command: {args.command}",
        f"# config: {config or '-'}",
        f"# config_sha256: {digest or '-'}",
        f"# output: {args.out or '-'}",
        *(f"# warning: {w}" for w in warnings),
        *(f"# note: {n}" for n in notes),
        header,
        *(",".join(c if isinstance(c, str) else _fmt(c) for c in row)
          for row in rows),
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if args.out:
        with open(args.out, "wb") as fh:  # binary keeps LF endings everywhere
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_transfer(args) -> int:
    cfg, digest = read_config(args.config)
    scenario = build_scenario(cfg, truncation=args.truncation)
    reports = [protocol.run_transfer(scenario, state)
               for state in scenario.initial_states]
    _write(args, digest, "state,S,W,T,F_engine,F_closed,abs_diff",
           [(rep.state_label, rep.swap_in, rep.swap_out, rep.transmittance,
             rep.fidelity_engine, rep.fidelity_closed_form, rep.fidelity_gap)
            for rep in reports],
           warnings=reports[-1].warnings)
    return 0


def _cmd_entangle(args) -> int:
    cfg, digest = read_config(args.config)
    scenario = build_scenario(cfg, entangling=True, truncation=args.truncation)
    try:
        rep = protocol.run_entanglement(scenario)
    except fock._DomainError as exc:
        if exc.field != "pulse_area":
            raise
        raise _area_error(exc, scenario.magnon_pulse) from exc
    _write(args, digest, "r,W,EN_closed,EN_fock,truncation,leak",
           [(rep.squeezing, rep.efficiency, rep.en_closed.value,
             rep.en_fock.value, str(rep.truncation), rep.leak)],
           warnings=rep.warnings)
    return 0


def _cmd_fig5(args) -> int:
    truncation = args.truncation if args.truncation is not None \
        else protocol.DEFAULT_SQUEEZE_TRUNCATION
    points = protocol.entanglement_curves(FIG5_SQUEEZINGS, FIG5_EFFICIENCIES,
                                          truncation=truncation)
    _write(args, None, "r,W,EN_closed,EN_fock",
           [(p.squeezing, p.efficiency, p.en_closed, p.en_fock)
            for p in points])
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = read_config(args.config)
    scenario = build_scenario(cfg)
    checks = protocol.validate_scenario(scenario)
    width = max(len(c.name) for c in checks)
    print(f"{'check'.ljust(width)}  {'value':>12}  {'bound':>12}  status")
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{c.name.ljust(width)}  {c.value:>12.4e}  {c.bound:>12.4e}  {status}")
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed")
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


def _cmd_qle(args) -> int:
    cfg, digest = read_config(args.config)
    process = cfg.get("qle_process", "antistokes")
    if process not in QLE_PROCESSES:
        raise ConfigError(f"qle_process must be one of {QLE_PROCESSES}, "
                          f"got {process!r}")
    scenario = build_scenario(cfg, entangling=process == "stokes")
    pulse = scenario.magnon_pulse
    # the closed forms assume lossless matter, the default here
    linewidth = scenario.magnonic.magnon_linewidth \
        if "magnon_linewidth_over_2pi_hz" in cfg else 0.0
    try:
        rows = moments.validate_adiabatic(
            pulse, cfg.get("qle_coupling_ratios", DEFAULT_QLE_RATIOS),
            process=process, matter_linewidth=linewidth)
    except fock._DomainError as exc:
        if exc.field == "pulse_area":   # else a rung's "coupling_ratios"
            raise _area_error(exc, pulse) from exc
        raise _config_error(exc, "qle_coupling_ratios") from exc
    except RuntimeError as exc:
        raise ConfigError(f"qle process {process}: {exc}") from exc
    _write(args, digest, "G_over_kappa,eta_integrated,eta_closed,rel_err",
           [(row.coupling_ratio, row.value_integrated, row.value_closed_form,
             row.rel_error) for row in rows],
           notes=[f"process {process}, pulse area {_fmt(pulse.pulse_area)}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnomech",
        description="Pulsed magnon-phonon network pipelines, CSV in, CSV out.")
    parser.add_argument("--version", action="version",
                        version=f"magnomech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, config=True, out=True, truncation=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("config", nargs="?", default=None,
                           help="flat key=value config file (defaults apply)")
        if out:
            p.add_argument("--out", default=None, metavar="PATH",
                           help="CSV output path (default: stdout)")
        if truncation:
            p.add_argument("--truncation", type=int, default=None, metavar="N",
                           help="Fock levels per mode (overrides config)")
        p.set_defaults(func=func)
        return p

    add("transfer", _cmd_transfer, "magnon to phonon state transfer")
    add("entangle", _cmd_entangle, "magnon-phonon entanglement distribution")
    add("fig5", _cmd_fig5, "E_N sweep over squeezing and conversion efficiency",
        config=False)
    add("validate", _cmd_validate, "physical-regime checks of a scenario",
        out=False, truncation=False)
    add("qle", _cmd_qle, "moment-equation check of the adiabatic closed forms",
        truncation=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except protocol.TruncationLeakError as exc:
        print(f"error: truncation budget exceeded: leak {exc.leak:.3e} over "
              f"budget {exc.budget:.3e}; raise --truncation", file=sys.stderr)
        return 3
    except ValueError as exc:   # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
