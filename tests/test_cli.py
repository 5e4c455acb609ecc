"""Config parsing, scenario assembly, and the CSV contract of the CLI."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings

import pytest

import magnomech
from magnomech import cli, metrics, protocol
from magnomech.cli import ConfigError
from test_metrics import dense_entangle_states

TWO_PI = 2.0 * math.pi
# the config keys whose values are floats (the qle ratios a list of them)
FLOAT_KEYS = sorted(key for key, parse in cli.CONFIG_KEYS.items()
                    if isinstance(parse("1"), (float, tuple)))
# fiber loss in the entanglement pipeline: its branch takes the mixed route
LOSSY_10KM = "fiber_length_km = 10.0\ninclude_loss_in_entanglement = true\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    """Split an output file into (manifest lines, header, data rows)."""
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return meta, body[0], body[1:]


class TestReadConfig:
    def test_parses_values_with_units(self, tmp_path):
        path = write_config(tmp_path, """
            # a comment
            ; another comment
            [fiber]
            fiber_length_km = 2.5
            magnon_freq_over_2pi_hz = 7.0e9
            truncation = "14"
            include_loss_in_entanglement = yes
            qle_coupling_ratios = 0.01, 0.05
        """)
        values, digest = cli.read_config(path)
        assert values["fiber_length_km"] == 2.5
        assert values["magnon_freq_over_2pi_hz"] == pytest.approx(TWO_PI * 7.0e9)
        assert values["truncation"] == 14
        assert values["include_loss_in_entanglement"] is True
        assert values["qle_coupling_ratios"] == (0.01, 0.05)
        assert digest == hashlib.sha256((tmp_path / "run.cfg").read_bytes()
                                        ).hexdigest()

    def test_no_path_gives_empty(self):
        assert cli.read_config(None) == ({}, None)

    def test_unknown_key_names_the_line(self, tmp_path):
        path = write_config(tmp_path, "fiber_length_km = 1\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus_key'"):
            cli.read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "truncation = 10\ntruncation = 12\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            cli.read_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, "truncation 12\n")
        with pytest.raises(ConfigError, match="expected key = value"):
            cli.read_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "truncation = twelve\n")
        with pytest.raises(ConfigError, match="bad value for 'truncation'"):
            cli.read_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            cli.read_config(str(tmp_path / "missing.cfg"))


class TestParseStateToken:
    def test_fock(self):
        state = cli.parse_state_token(" fock:2 ")
        assert state.label == "fock:2"
        assert state.min_dim == 3

    def test_balanced_superposition(self):
        assert cli.parse_state_token("superposition").label == "superposition"

    def test_explicit_superposition_is_renormalized(self):
        state = cli.parse_state_token("superposition:0.6:0.8")
        assert state.label == "superposition:0.6:0.8"
        assert abs(state.ket[0]) == pytest.approx(0.6)
        assert float(abs(state.ket[0]) ** 2 + abs(state.ket[1]) ** 2) == \
            pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("token", [
        "fock:-1", "fock:two", "superposition:1.0",
        "superposition:a:b", "thermal:0.5", "",
    ])
    def test_malformed_tokens(self, token):
        with pytest.raises(ConfigError):
            cli.parse_state_token(token)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ConfigError, match="not normalized"):
            cli.parse_state_token("superposition:0.6:0.9")

    def test_nan_amplitude_named_by_its_token(self, tmp_path, capsys):
        # a NaN norm fails the normalization check, so the token is named
        # instead of a Hermiticity check deep in the engine
        path = write_config(tmp_path, "initial_states = superposition:nan:0\n")
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: state token 'superposition:nan:0' not normalized "
            "(norm nan)"]
        assert not out.exists()


class TestBuildScenario:
    def test_defaults(self):
        sc = cli.build_scenario({})
        assert sc.truncation == 12
        assert sc.magnon_pulse.duration == 40e-9
        assert sc.fiber.length_km == 1.0
        assert [s.label for s in sc.initial_states] == ["fock:1"]

    def test_entangling_defaults(self):
        sc = cli.build_scenario({}, entangling=True)
        assert sc.truncation == 30
        assert sc.magnon_pulse.duration == 30e-9

    @pytest.mark.parametrize("entangling, reference", [
        (False, protocol.default_transfer_scenario),
        (True, protocol.default_entanglement_scenario),
    ])
    def test_empty_config_is_the_protocol_default(self, entangling, reference):
        sc, ref = cli.build_scenario({}, entangling=entangling), reference()
        for f in dataclasses.fields(sc):
            if f.name != "initial_states":  # InitialState compares by identity
                assert getattr(sc, f.name) == getattr(ref, f.name), f.name
        assert [s.label for s in sc.initial_states] == \
            [s.label for s in ref.initial_states]

    # a node's optical linewidth is held once, as the kappa of the pulse
    # its cavity carries; an unset detuning follows the mechanical frequency
    def test_pulse_linewidths_and_detuning_follow_the_nodes(self):
        sc = cli.build_scenario({"tm_linewidth_over_2pi_hz": TWO_PI * 400e6,
                                 "cavity_linewidth_over_2pi_hz": TWO_PI * 1e9,
                                 "mech_freq_over_2pi_hz": TWO_PI * 5e9})
        assert sc.magnon_pulse.cavity_linewidth == TWO_PI * 400e6
        assert sc.mech_pulse.cavity_linewidth == TWO_PI * 1e9
        assert sc.mechanical.drive_detuning == sc.mechanical.mech_freq \
            == TWO_PI * 5e9

    def test_truncation_argument_beats_config(self):
        sc = cli.build_scenario({"truncation": 20}, truncation=16)
        assert sc.truncation == 16

    def test_config_overrides_flow_through(self):
        cfg, _ = cli.read_config(None)
        cfg = {"mech_pulse_duration_s": 80e-9,
               "fiber_length_km": 10.0,
               "initial_states": "fock:0, superposition"}
        sc = cli.build_scenario(cfg)
        assert sc.mech_pulse.duration == 80e-9
        assert sc.fiber.length_km == 10.0
        assert [s.label for s in sc.initial_states] == \
            ["fock:0", "superposition"]

    def test_scenario_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="truncation"):
            cli.build_scenario({"truncation": 1})


class TestTransferCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert meta[0] == "# tool: magnomech 0.1.0"
        assert meta[1] == "# command: transfer"
        assert meta[2] == "# config: -"
        assert meta[3] == "# config_sha256: -"
        assert meta[4] == f"# output: {out}"
        assert header == "state,S,W,T,F_engine,F_closed,abs_diff"
        assert len(rows) == 1
        cells = rows[0].split(",")
        assert cells[0] == "fock:1"
        assert float(cells[4]) == pytest.approx(0.161752752409, rel=1e-9)
        assert float(cells[6]) < 1e-12

    def test_config_and_multiple_states(self, tmp_path):
        path = write_config(tmp_path, """
            fiber_length_km = 10.0
            initial_states = fock:1, superposition
        """)
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", path, "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert meta[2] == f"# config: {path}"
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert meta[3] == f"# config_sha256: {digest}"
        assert [r.split(",")[0] for r in rows] == ["fock:1", "superposition"]
        t = float(rows[0].split(",")[3])
        assert t == pytest.approx(0.630957344480, rel=1e-9)

    def test_zero_length_fiber_is_transparent(self, tmp_path):
        path = write_config(tmp_path, "fiber_length_km = 0\n")
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0].split(",")[3]) == 1.0

    def test_opaque_fiber_transfers_only_vacuum(self, tmp_path):
        # 20000 km: T underflows to 0.0, so every photon is lost in the fiber
        path = write_config(tmp_path, "fiber_length_km = 20000\n"
                            "initial_states = fock:0, fock:1, superposition\n")
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        cells = [r.split(",") for r in rows]
        assert [c[3:6] for c in cells] == [
            ["0", "1", "1"], ["0", "0", "0"],
            ["0", "0.295534555014", "0.295534555014"]]
        assert all(float(c[6]) < 1e-15 for c in cells)
        # a thermal phonon keeps its own excitations: F is its vacuum
        # weight, 1/(1 + nbar) renormalized over the 12 levels
        path = write_config(tmp_path, "fiber_length_km = 20000\n"
                            "phonon_thermal_occupation = 0.2\n"
                            "initial_states = fock:0\n")
        assert cli.main(["transfer", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[0].split(",")[3:5] == ["0", "0.833333333716"]

    def test_huge_thermal_occupation_gives_uniform_phonon(self, tmp_path):
        # q = nbar / (1 + nbar) rounds to 1: the truncated thermal phonon
        # is uniform over the basis, not 0/0
        cells = []
        for nbar in (0.0, 1e17):
            path = write_config(tmp_path, f"phonon_thermal_occupation = {nbar!r}\n")
            out = tmp_path / "t.csv"
            assert cli.main(["transfer", path, "--out", str(out)]) == 0
            _, _, rows = read_csv(out)
            cells.append(float(rows[0].split(",")[4]))
        cold, hot = cells
        assert math.isfinite(hot)
        assert 0.0 < hot < cold
        assert hot == pytest.approx(0.0135, abs=5e-5)

    def test_stdout_payload(self, capsysbinary):
        assert cli.main(["transfer"]) == 0
        data = capsysbinary.readouterr().out
        assert data.startswith(b"# tool: magnomech")
        assert b"state,S,W,T,F_engine,F_closed,abs_diff\n" in data

    def test_determinism(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.main(["transfer", "--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli.main(["transfer", "--out", str(out)]) == 0
        assert out.read_bytes() == first


class TestEntangleCommand:
    def test_default_row(self, tmp_path):
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == "r,W,EN_closed,EN_fock,truncation,leak"
        cells = rows[0].split(",")
        assert float(cells[0]) == pytest.approx(0.393222919812, rel=1e-9)
        assert float(cells[1]) == pytest.approx(0.929930712628, rel=1e-9)
        assert float(cells[2]) == pytest.approx(0.755586787984, rel=1e-9)
        assert float(cells[3]) == pytest.approx(float(cells[2]), abs=1e-9)
        assert cells[4] == "30"
        assert float(cells[5]) < 1e-12

    def test_loss_toggle_adds_warning(self, tmp_path):
        path = write_config(tmp_path, "include_loss_in_entanglement = true\n")
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert any("# warning:" in ln and "closed form" in ln for ln in meta)
        assert float(rows[0].split(",")[3]) == pytest.approx(0.72961397578,
                                                             rel=1e-9)

    @pytest.mark.parametrize("value", ["false", "no", "off", "0"])
    def test_loss_toggle_off_gives_the_default_body(self, tmp_path, value):
        path = write_config(tmp_path,
                            f"include_loss_in_entanglement = {value}\n")
        out, default = tmp_path / "e.csv", tmp_path / "default.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        assert cli.main(["entangle", "--out", str(default)]) == 0
        meta, header, rows = read_csv(out)
        assert not any(ln.startswith("# warning:") for ln in meta)
        assert (header, rows) == read_csv(default)[1:]

    @pytest.fixture
    def reports(self, monkeypatch):
        """The protocol.EntangleReport of every run_entanglement call, in
        order."""
        reports = []
        run = protocol.run_entanglement

        def recording(scenario):
            reports.append(run(scenario))
            return reports[-1]

        monkeypatch.setattr(protocol, "run_entanglement", recording)
        return reports

    def test_zero_length_fiber_matches_lossless_run(self, tmp_path, reports):
        # loss switched on over 0 km (T = 1) must reproduce the lossless run
        path = write_config(tmp_path, "include_loss_in_entanglement = true\n"
                                      "fiber_length_km = 0\n")
        assert cli.main(["entangle", path, "--out",
                         str(tmp_path / "lossy.csv")]) == 0
        assert cli.main(["entangle", "--out",
                         str(tmp_path / "lossless.csv")]) == 0
        assert read_csv(tmp_path / "lossy.csv")[1:] == \
            read_csv(tmp_path / "lossless.csv")[1:]
        lossy, lossless = reports
        assert lossy.transmittance == 1.0
        assert lossless.transmittance == 1.0
        for field in ("branch_probability", "en_fock", "en_traced"):
            a, b = getattr(lossy, field), getattr(lossless, field)
            if field != "branch_probability":
                assert a.method == b.method
                a, b = a.value, b.value
            assert abs(a - b) <= 1e-12, field

    def test_opaque_fiber_leaves_no_entanglement(self, tmp_path, reports):
        # 2000 km at 0.2 dB/km: T = 1e-40, so the pulse never arrives
        path = write_config(tmp_path, "include_loss_in_entanglement = true\n"
                                      "fiber_length_km = 2000\n")
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0].split(",")[3]) == 0.0
        rep, = reports
        assert rep.transmittance == pytest.approx(1e-40, rel=1e-12)
        assert rep.en_fock.value == 0.0
        assert rep.en_traced.value <= 1e-12
        assert abs(rep.branch_probability - 1.0) <= 1e-12

    def test_underflowed_transmittance_leaves_no_entanglement(self, tmp_path,
                                                               reports):
        # 20000 km at 0.2 dB/km: T = 1e-400 underflows to exactly 0.0
        path = write_config(tmp_path, "include_loss_in_entanglement = true\n"
                                      "fiber_length_km = 20000\n")
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0].split(",")[3]) == 0.0
        rep, = reports
        assert rep.transmittance == 0.0
        assert rep.en_fock.value == 0.0
        assert abs(rep.branch_probability - 1.0) <= 1e-12

    def test_full_conversion_matches_dense_chain(self, tmp_path, reports):
        # a 2 us conversion pulse gives W = 1 exactly: no photon stays in
        # the pulse, and the lossy chain must still match its dense form
        path = write_config(tmp_path, "include_loss_in_entanglement = true\n"
                                      "fiber_length_km = 10\n"
                                      "mech_pulse_duration_s = 2e-6\n")
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows == ["0.393222919812,1,0.612860900431,0.559076732833,30,"
                        "1.91663446774e-25"]
        rep, = reports
        assert rep.efficiency == 1.0
        branch, traced, prob = dense_entangle_states(
            rep.truncation, rep.squeezing, rep.efficiency, rep.transmittance)
        assert abs(rep.en_fock.value
                   - metrics.log_negativity_fock(branch).value) <= 1e-12
        assert abs(rep.en_traced.value
                   - metrics.log_negativity_fock(traced).value) <= 1e-12
        assert abs(rep.branch_probability - prob) <= 1e-12

    def test_truncation_leak_exit_code(self, tmp_path, capsys):
        # r = 1.2 pulse cannot fit in 8 levels per mode
        path = write_config(tmp_path, "magnon_pulse_duration_s = 236.2e-9\n")
        code = cli.main(["entangle", path, "--truncation", "8",
                         "--out", str(tmp_path / "e.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "truncation budget exceeded" in err
        assert "raise --truncation" in err

    @pytest.mark.parametrize("loss", ["", LOSSY_10KM],
                             ids=["lossless", "lossy_10km"])
    def test_no_squeezing_edge(self, tmp_path, loss):
        # r = 0 (a pulse area that underflows to 0): no entanglement, and
        # the leak is the squeeze's roundoff; the lossy branch reads
        # 2.2e-16, not 0, because the pair keeps that roundoff off |0, 0>
        # (leak 2.3e-33), so it gets a band
        path = write_config(tmp_path,
                            "magnon_pulse_coupling_over_2pi_hz = 1e-200\n"
                            + loss)
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        r, _, en_closed, en_fock, _, leak = read_csv(out)[2][0].split(",")
        assert float(r) == 0.0
        assert float(en_closed) == 0.0
        assert 0.0 <= float(en_fock) <= 1e-12
        assert float(leak) <= 1e-30

    # both routes read exactly 0: the mixed route measures the separable
    # branch's trace norm over its own trace, both sums of the same
    # nonnegative eigenvalues
    @pytest.mark.parametrize("loss", ["", LOSSY_10KM],
                             ids=["lossless", "lossy_10km"])
    def test_no_conversion_edge(self, tmp_path, loss):
        # W = 0: no excitation reaches the phonon, so nothing is entangled
        path = write_config(tmp_path,
                            "mech_pulse_coupling_over_2pi_hz = 1e-200\n"
                            + loss)
        out = tmp_path / "e.csv"
        assert cli.main(["entangle", path, "--out", str(out)]) == 0
        _, w, en_closed, en_fock, _, _ = read_csv(out)[2][0].split(",")
        assert float(w) == 0.0
        assert float(en_closed) == 0.0
        assert float(en_fock) == 0.0

    def test_leak_budget_is_not_a_config_key(self, tmp_path, capsys):
        # the squeeze leak budget is protocol.SQUEEZE_LEAK_BUDGET, not an option
        path = write_config(tmp_path, "truncation = 30\nleak_budget = 1e-3\n")
        code = cli.main(["entangle", path, "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert ":2: unknown key 'leak_budget'" in capsys.readouterr().err


class TestFig5Command:
    def test_truncation_leak_exit_code(self, tmp_path, capsys):
        # the sweep reaches r = 1.5, which cannot fit in 8 levels per mode
        out = tmp_path / "f.csv"
        code = cli.main(["fig5", "--truncation", "8", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "truncation budget exceeded" in err
        assert "raise --truncation" in err
        assert not out.exists()


class TestValidateCommand:
    def test_defaults_pass(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "all 8 checks passed" in out
        assert "sideband_resolved" in out

    def test_bad_scenario_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, "mech_detuning_over_2pi_hz = 4.0e9\n")
        assert cli.main(["validate", path]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "red_detuning" in out


# one writer serves both sinks: stdout and the --out file differ only in
# the manifest's output line (warnings from the thermal phonon and the
# lossy entangle run, the qle note included)
@pytest.mark.parametrize("command, config", [
    ("transfer", "phonon_thermal_occupation = 0.2\n"),
    ("entangle", LOSSY_10KM),
    ("fig5", None),
    ("qle", "qle_process = stokes\n"),
])
def test_stdout_matches_out_file(tmp_path, capsysbinary, command, config):
    argv = [command] if config is None \
        else [command, write_config(tmp_path, config)]
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert cli.main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout.count(b"\n# output: -\n") == 1
    assert stdout.replace(b"\n# output: -\n",
                          f"\n# output: {out}\n".encode()) == out.read_bytes()


# zero matter loss: nothing divides by the magnon linewidth or the
# mechanical damping, so either may be 0 under every command
@pytest.mark.parametrize("key", ["magnon_linewidth_over_2pi_hz",
                                 "mech_damping_over_2pi_hz"])
@pytest.mark.parametrize("command", ["transfer", "entangle", "validate", "qle"])
def test_zero_matter_loss_runs(tmp_path, capsys, command, key):
    path = write_config(tmp_path, f"{key} = 0\n")
    if command == "validate":
        assert cli.main([command, path]) == 0
        return
    out, default = tmp_path / "x.csv", tmp_path / "default.csv"
    assert cli.main([command, path, "--out", str(out)]) == 0
    assert cli.main([command, "--out", str(default)]) == 0
    assert read_csv(out)[1:] == read_csv(default)[1:]


# the exit contract over every float key at the float extremes, under each
# command that reads the key: exit 0 with every CSV cell finite, or exit 2
# with one "error:" line naming a config key, and never an exception or a
# numpy warning.  validate prints a table instead of a CSV and exits 2 when
# a check fails; a failed check may read inf (a ratio past the float
# range), never nan.  The one error line that names no key is transfer's
# empty vacuum branch, a swap-in so weak that S underflows to 0
EXTREMES = ("0", "-0.0", "5e-324", "1e-300", "1e-200", "1e-30", "1e30",
            "1e200", "1e308", "inf", "-1")
CONTRACT_RUNS = {   # name -> (command, config the key's line is added to)
    "transfer": ("transfer", ""),
    "entangle_lossy": ("entangle", LOSSY_10KM),
    "validate": ("validate", ""),
    "qle": ("qle", ""),
    "qle_stokes": ("qle", "qle_process = stokes\n"),
}
EMPTY_BRANCH = "error: vacuum branch of fock:1 has zero probability"


def contract_breaches(command, code, stdout, stderr, out):
    """How one run broke the exit contract, as messages (none if it kept it)."""
    err = stderr.splitlines()
    if code == 2 and len(err) == 1 and err[0].startswith("error: "):
        named = any(key in err[0] for key in cli.CONFIG_KEYS)
        return [] if named or err[0] == EMPTY_BRANCH else [f"no key: {err[0]}"]
    failed = command == "validate" and stdout.endswith("checks failed\n")
    if err or code != (2 if failed else 0):
        return [f"exit {code}, stderr {err}"]
    if command == "validate":   # check, value, bound, status
        rows = [ln.split() for ln in stdout.splitlines()[1:-1]]
        bad = [r for r in rows if "nan" in r[1:3]
               or (r[3] != "FAIL" and any("inf" in c for c in r[1:3]))]
    else:
        bad = [c for ln in read_csv(out)[2] for c in ln.split(",")
               if c.lower().lstrip("+-") in ("nan", "inf")]
    return [f"non-finite cells {bad}"] if bad else []


@pytest.mark.parametrize("run, key", [
    (run, key) for run, (command, _) in CONTRACT_RUNS.items()
    for key in FLOAT_KEYS if command == "qle" or not key.startswith("qle_")])
def test_exit_contract_at_float_extremes(tmp_path, capsys, run, key):
    command, base = CONTRACT_RUNS[run]
    kept = "".join(ln + "\n" for ln in base.splitlines()
                   if not ln.startswith(key + " "))
    out = tmp_path / "x.csv"
    breaches = []
    for value in EXTREMES:
        path = write_config(tmp_path, f"{kept}{key} = {value}\n")
        out.unlink(missing_ok=True)
        argv = [command, path] + ([] if command == "validate"
                                  else ["--out", str(out)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a numpy warning fails it
                code = cli.main(argv)
        except Exception as exc:   # in-process, a traceback is an exception
            capsys.readouterr()
            breaches.append(f"{value}: {type(exc).__name__}: {exc}")
            continue
        captured = capsys.readouterr()
        if code != 0 and out.exists():
            breaches.append(f"{value}: exit {code} left {out.name}")
        breaches += [f"{value}: {b}" for b in contract_breaches(
            command, code, captured.out, captured.err, out)]
    assert not breaches


class TestQleCommand:
    def test_single_ratio_antistokes(self, tmp_path):
        path = write_config(tmp_path, "qle_coupling_ratios = 0.02\n")
        out = tmp_path / "q.csv"
        assert cli.main(["qle", path, "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert any(ln.startswith("# note: process antistokes, pulse area ")
                   for ln in meta)
        assert header == "G_over_kappa,eta_integrated,eta_closed,rel_err"
        cells = rows[0].split(",")
        assert float(cells[0]) == 0.02
        assert float(cells[2]) == pytest.approx(0.182138220055, rel=1e-9)
        assert float(cells[3]) == pytest.approx(0.0129964157285, rel=1e-6)

    def test_stokes_process(self, tmp_path):
        path = write_config(tmp_path, """
            qle_process = stokes
            qle_coupling_ratios = 0.005
        """)
        out = tmp_path / "q.csv"
        assert cli.main(["qle", path, "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert any("process stokes" in ln for ln in meta)
        cells = rows[0].split(",")
        assert float(cells[2]) == pytest.approx(0.162759951148, rel=1e-9)
        assert float(cells[3]) == pytest.approx(0.00153598897973, rel=1e-6)

    # areas 7.5e-22 and 7.5e-16, where arccosh(exp(area)) cancels to r = 0
    # and to 12% low: sinh^2 r is exp(2 area) - 1 to every printed digit
    @pytest.mark.parametrize("coupling", ["1e-3", "1"])
    def test_stokes_closed_form_at_small_area(self, tmp_path, coupling):
        path = write_config(tmp_path, "qle_process = stokes\n"
                            f"magnon_pulse_coupling_over_2pi_hz = {coupling}\n")
        out = tmp_path / "q.csv"
        assert cli.main(["qle", path, "--out", str(out)]) == 0
        area = 2.0 * (TWO_PI * float(coupling)) ** 2 * 30e-9 / (TWO_PI * 500e6)
        for row in read_csv(out)[2]:
            assert row.split(",")[2] == cli._fmt(math.expm1(2.0 * area))

    def test_empty_ratio_list_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "qle_coupling_ratios = ,\n")
        out = tmp_path / "q.csv"
        assert cli.main(["qle", path, "--out", str(out)]) == 2
        assert "qle_coupling_ratios" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_process_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "qle_process = raman\n")
        assert cli.main(["qle", path]) == 2
        assert capsys.readouterr().err == (
            "error: qle_process must be one of ('antistokes', 'stokes'), "
            "got 'raman'\n")

    # eta_integrated reads the magnon, so with a magnon linewidth its decay
    # into the magnon's own bath counts as conversion: one manifest line
    # warns of it while the rows carry the lossy moments as before; at zero
    # linewidth the run is the default one, with no warning
    @pytest.mark.parametrize("process", ["antistokes", "stokes"])
    def test_matter_loss_warning(self, tmp_path, process):
        runs = {}
        for linewidth in (None, "0", "1e6"):
            text = f"qle_process = {process}\n" + (
                "" if linewidth is None
                else f"magnon_linewidth_over_2pi_hz = {linewidth}\n")
            out = tmp_path / f"q{linewidth}.csv"
            assert cli.main(["qle", write_config(tmp_path, text),
                             "--out", str(out)]) == 0
            runs[linewidth] = read_csv(out)
        warned = [[ln for ln in meta if ln.startswith("# warning:")]
                  for meta, _, _ in runs.values()]
        assert warned[:2] == [[], []]
        assert len(warned[2]) == 1
        assert "eta_integrated reads the magnon occupation" in warned[2][0]
        assert "eta_closed assumes lossless matter" in warned[2][0]
        assert runs["0"][1:] == runs[None][1:]
        assert runs["1e6"][1] == runs[None][1]
        assert runs["1e6"][2] != runs[None][2]


class TestErrorPaths:
    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "nonsense = 1\n")
        assert cli.main(["transfer", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # no route reads the TE linewidth or the mechanical cavity frequency,
    # so neither is a key
    @pytest.mark.parametrize("key", ["te_linewidth_over_2pi_hz",
                                     "cavity_freq_over_2pi_hz"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        path = write_config(tmp_path, f"{key} = 500e6\n")
        out = tmp_path / "x.csv"
        assert cli.main(["transfer", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:1: unknown key {key!r}\n"
        assert not out.exists()

    def test_non_boolean_toggle_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "include_loss_in_entanglement = maybe\n")
        assert cli.main(["entangle", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: bad value for 'include_loss_in_entanglement': "
            "not a boolean: 'maybe'\n")

    def test_empty_initial_states_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "initial_states = ,\n")
        assert cli.main(["transfer", path]) == 2
        assert capsys.readouterr().err == "error: initial_states is empty\n"

    @pytest.mark.parametrize("key, value", [
        ("fiber_length_km", "nan"),
        ("fiber_attenuation_db_per_km", "inf"),
        ("fiber_extra_loss_db", "nan"),
    ])
    def test_non_finite_fiber_exit_code(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, f"{key} = {value}\n")
        out = str(tmp_path / "x.csv")
        for argv in (["validate", path], ["entangle", path, "--out", out],
                     ["transfer", path, "--out", out]):
            assert cli.main(argv) == 2
            assert f"{key[len('fiber_'):]} must be finite" in \
                capsys.readouterr().err

    # the CLI edge values of a pulse field: both pulses share the field
    # names, so each error names the config key, which names the part
    @pytest.mark.parametrize("key, part, field", [
        ("magnon_pulse_coupling_over_2pi_hz", "magnon_pulse", "coupling"),
        ("mech_pulse_coupling_over_2pi_hz", "mech_pulse", "coupling"),
        ("magnon_pulse_duration_s", "magnon_pulse", "duration"),
        ("mech_pulse_duration_s", "mech_pulse", "duration"),
    ])
    @pytest.mark.parametrize("command", ["transfer", "entangle", "validate"])
    def test_zero_part_field_names_the_part(self, tmp_path, capsys, command,
                                            key, part, field):
        assert cli._PART_KEYS[part][field] == key
        path = write_config(tmp_path, f"{key} = 0\n")
        out = tmp_path / "x.csv"
        argv = [command, path] + ([] if command == "validate"
                                  else ["--out", str(out)])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: {key} must be finite and > 0, got 0\n"
        assert not out.exists()

    # every float-valued key, under every command that reads it: the
    # scenario keys are read by every command with a config, the qle_
    # keys by qle only
    @pytest.mark.parametrize("command, key", [
        (command, key) for key in FLOAT_KEYS
        for command in (("qle",) if key.startswith("qle_")
                        else ("transfer", "entangle", "validate", "qle"))])
    def test_nan_is_rejected_under_its_key(self, tmp_path, capsys, command,
                                           key):
        path = write_config(tmp_path, f"{key} = nan\n")
        out = tmp_path / "x.csv"
        argv = [command, path] + ([] if command == "validate"
                                  else ["--out", str(out)])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} ")
        assert "Traceback" not in captured.err
        assert "np.float64" not in captured.err
        assert not out.exists()

    # qle once built its pulse and read its ratios outside build_scenario,
    # and named a library field in angular units
    @pytest.mark.parametrize("text, line", [
        ("tm_linewidth_over_2pi_hz = -1",
         "error: tm_linewidth_over_2pi_hz must be finite and > 0, got -1"),
        ("magnon_pulse_coupling_over_2pi_hz = 0",
         "error: magnon_pulse_coupling_over_2pi_hz must be finite and > 0, "
         "got 0"),
        ("qle_coupling_ratios = nan",
         "error: qle_coupling_ratios must be finite and > 0, got nan"),
    ])
    def test_qle_names_the_config_key(self, tmp_path, capsys, text, line):
        path = write_config(tmp_path, text + "\n")
        assert cli.main(["qle", path]) == 2
        assert capsys.readouterr().err == line + "\n"

    # inputs that once crashed or gave a cryptic message: a Stokes pulse
    # whose moments blow up, a negative magnon linewidth in qle, and a
    # swap-in so weak (S underflows to 0) that the vacuum branch is empty
    @pytest.mark.parametrize("command, text, message", [
        ("qle", "qle_process = stokes\nmagnon_pulse_duration_s = 1e-5\n",
         "qle process stokes: covariance blew up after exact propagation"),
        ("qle", "magnon_linewidth_over_2pi_hz = -1e6\n",
         "magnon_linewidth_over_2pi_hz must be finite and >= 0, got -1000000"),
        ("transfer", "magnon_pulse_coupling_over_2pi_hz = 1e-200\n",
         "vacuum branch of fock:1 has zero probability"),
    ], ids=["stokes_blowup", "negative_linewidth", "empty_branch"])
    def test_numerical_failure_is_one_error_line(self, tmp_path, capsys,
                                                 command, text, message):
        path = write_config(tmp_path, text)
        out = tmp_path / "x.csv"
        assert cli.main([command, path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert "Traceback" not in captured.err
        assert "np.float64" not in captured.err
        assert not out.exists()

    # finite values whose pulse area 2 G^2 tau / kappa leaves the float
    # range: a coupling whose square overflows (once an OverflowError
    # traceback) under every command, a duration that overflows the area,
    # and, under qle only, a coupling whose area underflows to 0 (once named
    # by the library argument pulse_area); transfer reports that same input
    # as an empty vacuum branch and entangle runs it at r = 0
    @pytest.mark.parametrize("command, key, value", [
        *((command, key, "1e200")
          for key in ("magnon_pulse_coupling_over_2pi_hz",
                      "mech_pulse_coupling_over_2pi_hz")
          for command in ("transfer", "entangle", "qle", "validate")),
        ("transfer", "magnon_pulse_duration_s", "1e305"),
        ("qle", "magnon_pulse_coupling_over_2pi_hz", "1e-200"),
    ])
    def test_pulse_area_out_of_range_names_the_key(self, tmp_path, capsys,
                                                   command, key, value):
        path = write_config(tmp_path, f"{key} = {value}\n")
        out = tmp_path / "x.csv"
        argv = [command, path] + ([] if command == "validate"
                                  else ["--out", str(out)])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} ")
        assert "pulse area 2 G^2 tau / kappa" in lines[0]
        assert lines[0].endswith(f"got {float(value):g}")
        assert "Traceback" not in captured.err
        assert not out.exists()

    # finite configs that the pulse map cannot take.  A qle rung
    # G = ratio * kappa whose G^2 underflows (kappa 1e-200 Hz, once a
    # ZeroDivisionError) or overflows (1e200 Hz, once an OverflowError) has
    # no finite duration; an entangle area whose cosh r = exp(area)
    # overflows once named the derived squeezing after a numpy warning.  A
    # Stokes qle closed form needs a finite sinh^2 r (duration 160 us)
    @pytest.mark.parametrize("command, text, key, rule", [
        ("qle", "tm_linewidth_over_2pi_hz = 1e-200", "qle_coupling_ratios",
         "such that G = ratio * kappa keeps the area in a finite duration"),
        ("qle", "tm_linewidth_over_2pi_hz = 1e200", "qle_coupling_ratios",
         "such that G = ratio * kappa keeps the area in a finite duration"),
        ("entangle", "tm_linewidth_over_2pi_hz = 1e-200",
         "magnon_pulse_coupling_over_2pi_hz",
         "small enough that cosh r = exp(area) is finite"),
        ("qle", "qle_process = stokes\nmagnon_pulse_duration_s = 1.6e-4",
         "magnon_pulse_coupling_over_2pi_hz",
         "small enough that sinh^2 r is finite"),
    ], ids=["qle_rate_underflow", "qle_rate_overflow", "entangle_cosh_overflow",
            "qle_stokes_sinh_overflow"])
    def test_pulse_map_out_of_range_names_a_key(self, tmp_path, capsys,
                                                command, text, key, rule):
        path = write_config(tmp_path, text + "\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy warning fails the run
            assert cli.main([command, path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {key} must be {rule}")
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_qle_rejects_non_finite_linewidth(self, tmp_path, capsys, value):
        path = write_config(tmp_path, f"magnon_linewidth_over_2pi_hz = {value}\n")
        assert cli.main(["qle", path]) == 2
        assert capsys.readouterr().err == (
            f"error: magnon_linewidth_over_2pi_hz must be finite and >= 0, "
            f"got {value}\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "magnomech 0.1.0"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(magnomech.__file__))
    code = ("import sys, magnomech; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
