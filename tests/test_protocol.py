"""Scenario plumbing and the two pipeline drivers.

The load-bearing checks here are dual-route: every engine state produced
by run_transfer is compared matrix-by-matrix against the scalar closed
form, and run_entanglement against the two-mode squeezed-vacuum algebra.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from magnomech import channels, fock, metrics, propagators, protocol
from magnomech.protocol import InitialState, ScenarioError, TruncationLeakError

TWO_PI = 2.0 * math.pi


def transfer_scenario(**kw):
    return protocol.default_transfer_scenario(**kw)


class TestNodeSpecs:
    def test_default_magnonic_bridges_magnon_freq(self):
        node = transfer_scenario().magnonic
        assert node.mode_splitting == pytest.approx(node.magnon_freq)

    def test_positive_rate_enforcement(self):
        with pytest.raises(fock._DomainError,
                           match="^te_mode_freq must be finite and > 0, got 0.0$"):
            protocol.MagnonicNodeSpec(
                te_mode_freq=0.0, tm_mode_freq=1.0, magnon_freq=1.0,
                magnon_linewidth=1.0)
        with pytest.raises(fock._DomainError,
                           match="^mech_damping must be finite and >= 0, got -1.0$"):
            protocol.MechanicalNodeSpec(
                mech_freq=1.0, mech_damping=-1.0, drive_detuning=1.0)

    def test_drive_detuning_must_be_finite(self):
        with pytest.raises(fock._DomainError,
                           match="^drive_detuning must be finite, got nan$"):
            protocol.MechanicalNodeSpec(
                mech_freq=1.0, mech_damping=1.0, drive_detuning=float("nan"))


class TestInitialState:
    def test_fock_family(self):
        s = InitialState.fock(3)
        assert s.label == "fock:3"
        assert s.min_dim == 4
        np.testing.assert_array_equal(s.ket, [0, 0, 0, 1])

    def test_fock_rejects_negative(self):
        with pytest.raises(ValueError, match="occupation"):
            InitialState.fock(-1)

    def test_balanced_superposition(self):
        s = InitialState.superposition()
        assert s.label == "superposition"
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(s.ket, [inv, inv])

    def test_pure_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            InitialState("x", ket=[1.0, 1.0])
        with pytest.raises(ValueError, match="normalized"):
            InitialState("x", ket=[math.nan, 0.0])

    def test_density_embedding(self):
        s = InitialState.superposition()
        rho = s.density(5)
        assert rho.dims.dims == (5,)
        np.testing.assert_allclose(rho.matrix[:2, :2],
                                   0.5 * np.ones((2, 2)), atol=1e-15)
        assert float(np.abs(rho.matrix[2:, :]).max()) == 0.0

    def test_density_rejects_small_truncation(self):
        with pytest.raises(ScenarioError, match="needs at least"):
            InitialState.fock(5).density(4)

    def test_trailing_zeros_fit_min_dim(self):
        s = InitialState("x", ket=[1, 0, 0, 0, 0])
        assert s.min_dim == 2
        np.testing.assert_array_equal(s.ket, [1])
        vac = InitialState.fock(0)
        np.testing.assert_array_equal(s.density(3).matrix,
                                      vac.density(3).matrix)
        np.testing.assert_array_equal(s.target_ket(3).amplitudes,
                                      vac.target_ket(3).amplitudes)
        closed = protocol.closed_form_transfer(s, 0.5, 0.5, 0.5, dim=3)
        assert closed.fidelity == 1.0
        scenario = dataclasses.replace(transfer_scenario(truncation=3),
                                       initial_states=(s,))
        assert protocol.run_transfer(scenario).fidelity_engine == 1.0

    def test_coefficient_table_is_outer_product(self):
        s = InitialState("probe", ket=[0.6, 0.8j])
        np.testing.assert_array_equal(s.density(2).matrix,
                                      np.outer(s.ket, s.ket.conj()))


class TestScenarioConfig:
    def test_rejects_tiny_truncation(self):
        with pytest.raises(ScenarioError, match="truncation"):
            dataclasses.replace(transfer_scenario(), truncation=1)

    def test_rejects_empty_states(self):
        with pytest.raises(ScenarioError, match="initial state"):
            dataclasses.replace(transfer_scenario(), initial_states=())

    def test_rejects_negative_thermal(self):
        with pytest.raises(fock._DomainError,
                           match="^phonon_thermal_occupation must be finite "
                                 "and >= 0, got -0.1$"):
            dataclasses.replace(transfer_scenario(),
                                phonon_thermal_occupation=-0.1)


class TestValidateScenario:
    def test_defaults_pass_everything(self):
        checks = protocol.validate_scenario(transfer_scenario())
        assert len(checks) == 8
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert names == ["triple_resonance", "optical_hierarchy",
                         "magnon_weak_coupling", "mech_weak_coupling",
                         "magnon_pulse_short", "phonon_pulse_short",
                         "sideband_resolved", "red_detuning"]

    def test_sideband_ratio_value(self):
        checks = {c.name: c for c in
                  protocol.validate_scenario(transfer_scenario())}
        assert checks["sideband_resolved"].value == pytest.approx(1.3 / 5.3)

    def test_off_sideband_drive_fails(self):
        sc = transfer_scenario()
        mech = dataclasses.replace(sc.mechanical,
                                   drive_detuning=TWO_PI * 4.0e9)
        checks = {c.name: c for c in protocol.validate_scenario(
            dataclasses.replace(sc, mechanical=mech))}
        assert not checks["red_detuning"].passed
        assert "exceeds bound" in checks["red_detuning"].message

    def test_long_pulse_fails(self):
        sc = transfer_scenario()
        pulse = propagators.PulseSpec(coupling=TWO_PI * 10e6,
                                      cavity_linewidth=TWO_PI * 500e6,
                                      duration=500e-9)
        checks = {c.name: c for c in protocol.validate_scenario(
            dataclasses.replace(sc, magnon_pulse=pulse))}
        assert not checks["magnon_pulse_short"].passed


class TestRunTransfer:
    def test_fock_one_reference_point(self):
        rep = protocol.run_transfer(transfer_scenario())
        assert rep.state_label == "fock:1"
        assert rep.fidelity_engine == pytest.approx(0.161752752409, rel=1e-9)
        assert rep.fidelity_gap < 1e-12
        assert rep.warnings == ()
        s, t, w = rep.swap_in, rep.transmittance, rep.swap_out
        assert rep.branch_probability == pytest.approx(
            s * (t * w + 1.0 - t), rel=1e-12)

    @pytest.mark.parametrize("state", [
        InitialState.fock(0),
        InitialState.fock(2),
        InitialState.superposition(),
        InitialState("zero-two", ket=[0.6, 0.0, 0.8j]),
    ])
    def test_engine_matches_closed_form_matrix(self, state):
        sc = transfer_scenario(initial_states=(state,))
        rep = protocol.run_transfer(sc)
        closed = protocol.closed_form_transfer(
            state, rep.swap_in, rep.transmittance,
            rep.swap_out, dim=sc.truncation)
        np.testing.assert_allclose(rep.phonon_state.matrix, closed.matrix,
                                   atol=1e-12)

    def test_phase_compensation_only_moves_coherences(self):
        fock1 = protocol.run_transfer(
            transfer_scenario(initial_states=(InitialState.fock(1),)))
        assert fock1.fidelity_engine_uncompensated == pytest.approx(
            fock1.fidelity_engine, rel=1e-12)
        sup = protocol.run_transfer(
            transfer_scenario(initial_states=(InitialState.superposition(),)))
        assert sup.fidelity_engine_uncompensated < sup.fidelity_engine

    def test_branch_trace_is_branch_probability(self):
        rep = protocol.run_transfer(transfer_scenario())
        assert rep.phonon_state.trace() == pytest.approx(
            rep.branch_probability, rel=1e-12)

    def test_explicit_state_argument_overrides(self):
        rep = protocol.run_transfer(transfer_scenario(),
                                    InitialState.fock(0))
        assert rep.state_label == "fock:0"
        # vacuum passes through everything untouched
        assert rep.fidelity_engine == pytest.approx(1.0, rel=1e-12)

    def test_thermal_phonon_warns_and_degrades(self):
        cold = protocol.run_transfer(transfer_scenario())
        warm_sc = dataclasses.replace(transfer_scenario(),
                                      phonon_thermal_occupation=0.2)
        warm = protocol.run_transfer(warm_sc)
        assert any("thermal" in w for w in warm.warnings)
        assert warm.fidelity_engine < cold.fidelity_engine

    @pytest.mark.parametrize("state", [
        InitialState.fock(0),
        InitialState.fock(1),
        InitialState.fock(2),
        InitialState.superposition(),
        InitialState("zero-two", ket=[0.6, 0.0, 0.8j]),
    ], ids=lambda s: s.label)
    @pytest.mark.parametrize("d", [3, 12])
    @pytest.mark.parametrize("nbar", [0.0, 0.2])
    @pytest.mark.parametrize("length_km", [1.0, 10.0])
    def test_matches_two_mode_density_matrix_chain(self, state, d, nbar,
                                                   length_km):
        sc = dataclasses.replace(
            transfer_scenario(fiber_length_km=length_km, truncation=d,
                              initial_states=(state,)),
            phonon_thermal_occupation=nbar)
        rep = protocol.run_transfer(sc)
        # reference: tensor, swap and condition, on the pair space
        q = nbar / (1.0 + nbar)
        p = (1.0 - q) * q ** np.arange(d)
        phonon = fock.FockDensityMatrix((d,), np.diag(p / p.sum()))

        def swap(rho, partner, efficiency):
            return propagators.apply_antistokes_swap(
                fock.tensor(rho, partner), 0, 1, efficiency)

        stage = swap(state.density(d), fock.vacuum((d,)),
                     rep.swap_in)
        pulse = channels.apply_loss(fock.condition_on_vacuum(stage, 0), 0,
                                    rep.transmittance)
        branch = fock.condition_on_vacuum(swap(pulse, phonon, rep.swap_out), 0)
        branch = fock.apply_phase_rotation(branch, 0, math.pi)
        np.testing.assert_allclose(rep.phonon_state.matrix, branch.matrix,
                                   rtol=0, atol=1e-12)

    def test_builds_no_two_mode_state(self, monkeypatch):
        sizes = []
        init = fock.FockDensityMatrix.__init__

        def recorded(self, dims, matrix):
            init(self, dims, matrix)
            sizes.append(self.dims.size)

        monkeypatch.setattr(fock.FockDensityMatrix, "__init__", recorded)
        state = InitialState("zero-two", ket=[0.6, 0.0, 0.8j])
        sc = dataclasses.replace(
            transfer_scenario(fiber_length_km=10.0, initial_states=(state,)),
            phonon_thermal_occupation=0.2)
        protocol.run_transfer(sc)
        assert sizes
        assert max(sizes) == sc.truncation == 12

    def test_truncation_too_small_for_state(self):
        sc = transfer_scenario(initial_states=(InitialState.fock(15),))
        with pytest.raises(ScenarioError, match="needs at least"):
            protocol.run_transfer(sc)

    def test_validation_failures_become_warnings(self):
        sc = transfer_scenario()
        mech = dataclasses.replace(sc.mechanical,
                                   drive_detuning=TWO_PI * 4.0e9)
        rep = protocol.run_transfer(dataclasses.replace(sc, mechanical=mech))
        assert any(w.startswith("red_detuning") for w in rep.warnings)


class TestClosedFormTransfer:
    def test_lossless_full_swaps_are_identity(self):
        state = InitialState("probe", ket=[0.6, 0.8j])
        out = protocol.closed_form_transfer(state, 1.0, 1.0, 1.0, dim=2)
        np.testing.assert_allclose(out.matrix,
                                   np.outer(state.ket, state.ket.conj()),
                                   atol=1e-15)
        assert out.fidelity == pytest.approx(1.0)

    def test_parameter_range_check(self):
        state = InitialState.fock(1)
        with pytest.raises(ValueError, match="transmittance"):
            protocol.closed_form_transfer(state, 0.5, 1.5, 0.5, dim=2)

    def test_dim_must_hold_the_table(self):
        with pytest.raises(ValueError, match="smaller"):
            protocol.closed_form_transfer(InitialState.fock(3), 0.5, 0.5,
                                          0.5, dim=2)

    def test_populations_sum_to_branch_probability(self):
        state = InitialState.fock(1)
        out = protocol.closed_form_transfer(state, 0.3, 0.7, 0.9, dim=6)
        # photon transferred and survived, or absorbed along the way
        expected = 0.3 * (0.7 * 0.9 + 0.3)
        assert np.trace(out.matrix).real == pytest.approx(expected, rel=1e-12)


class TestSwapVacuumContraction:
    @pytest.mark.parametrize("efficiency", [0.0, 0.37, 1.0])
    # the vacuum-target cases keep their short ids
    @pytest.mark.parametrize("residual, occupied", [
        pytest.param(m, k, id=str(m) if k == 0 else f"{m}-occupied{k}")
        for k in (0, 2) for m in (0, 1, 5)])
    def test_matches_dense_beamsplitter(self, efficiency, residual, occupied):
        d = 6
        kappa = protocol._contraction_diagonals(d, efficiency, residual + 1,
                                                occupied)
        u = fock.two_mode_unitary(d, d, "beamsplitter",
                                  math.asin(math.sqrt(efficiency)))
        # <residual, M| U |n, occupied>, nonzero only where
        # M = n + occupied - residual
        dense = u[residual * d:(residual + 1) * d, occupied::d]
        out = np.arange(d) + occupied - residual
        inside = (out >= 0) & (out < d)
        np.testing.assert_allclose(kappa[residual, inside],
                                   dense[out[inside], np.arange(d)[inside]],
                                   rtol=0, atol=1e-13)
        assert not np.any(kappa[residual, ~inside])
        m, n = np.indices(dense.shape)
        assert np.max(np.abs(dense[m != n + occupied - residual]),
                      initial=0.0) <= 1e-13

    @pytest.mark.parametrize("efficiency", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("occupied", [0, 2])
    # both modes hold d levels; the id keeps its source-target form
    @pytest.mark.parametrize("d", [pytest.param(6, id="6-6")])
    def test_diagonals_match_dense_beamsplitter(self, d, efficiency, occupied):
        kappa = protocol._contraction_diagonals(d, efficiency, d, occupied)
        u = fock.two_mode_unitary(d, d, "beamsplitter",
                                  math.asin(math.sqrt(efficiency)))
        assert kappa.shape == (d, d)
        for m in range(d):
            for n in range(d):
                out = n + occupied - m
                # kappa[m, n] = <m, n + occupied - m| U |n, occupied>
                expect = u[m * d + out, n * d + occupied] \
                    if 0 <= out < d else 0.0
                assert abs(kappa[m, n] - expect) <= 1e-13, (m, n)

    @pytest.mark.parametrize("occupied", [0, 3])
    @pytest.mark.parametrize("efficiency", [0.0, 1e-30, 0.18, 0.37, 0.93, 1.0])
    @pytest.mark.parametrize("d", [12, 24, 30])
    def test_row_zero_does_not_depend_on_rows(self, d, efficiency, occupied):
        one = protocol._contraction_diagonals(d, efficiency, 1, occupied)
        full = protocol._contraction_diagonals(d, efficiency, d, occupied)
        assert one.shape == (1, d)
        np.testing.assert_array_equal(one[0], full[0])

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_zero_efficiency_is_the_identity(self, rows):
        # theta = 0: U_bs is the identity, so kappa[m, n] = delta_mn exactly
        for occupied in (0, 2):
            np.testing.assert_array_equal(
                protocol._contraction_diagonals(7, 0.0, rows, occupied),
                np.eye(rows, 7))

    def test_diagonals_compute_only_the_rows_asked_for(self, monkeypatch):
        d = 7
        full = protocol._contraction_diagonals(d, 0.37, d)
        dot = np.dot
        matvec_rows = []   # rows of V taken by each product

        def counted(a, b):
            matvec_rows.append(a.shape[0])
            return dot(a, b)

        monkeypatch.setattr(np, "dot", counted)
        for rows in (1, 3, d):
            matvec_rows.clear()
            kappa = protocol._contraction_diagonals(d, 0.37, rows)
            np.testing.assert_allclose(kappa, full[:rows], rtol=0, atol=1e-15)
            # per input n: one one-row product for row 0 and, when more
            # rows are asked for, one block product with a row per m < rows
            # (n >= m)
            blocks = [min(rows, n + 1) for n in range(d)] if rows > 1 else []
            assert sorted(matvec_rows) == sorted([1] * d + blocks)


class TestApplyDiagonals:
    """The diagonal-form channel against the dense sum A rho A^H."""

    def test_matches_dense_kraus_sum(self):
        d = 7
        rng = np.random.default_rng(23)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = (a + a.conj().T) / (4 * d)   # Hermitian, entries below one
        # negative as in loss and the swap-out's m > k, positive as m < k
        shifts = [-2, -1, 0, 1, 2, 3]
        table = (rng.uniform(-1, 1, size=(len(shifts), d))
                 + 1j * rng.uniform(-1, 1, size=(len(shifts), d))) / 2
        expect = np.zeros((d, d), dtype=complex)
        for row, s in zip(table, shifts):
            op = np.zeros((d, d), dtype=complex)
            for n in range(max(0, -s), min(d, d - s)):
                op[n + s, n] = row[n]    # A |n> = table[j, n] |n + s>
            expect += op @ rho @ op.conj().T
        out = protocol._apply_diagonals(rho, table, shifts)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-15)


class TestRunEntanglement:
    def test_lossless_branch_is_exact_squeezed_vacuum(self):
        rep = protocol.run_entanglement(protocol.default_entanglement_scenario())
        assert rep.squeezing == pytest.approx(0.393222919812, rel=1e-9)
        assert rep.transmittance == 1.0
        # conditioned branch is a two-mode squeezed vacuum at the reduced
        # squeezing, so engine and closed form agree to machine precision
        assert rep.en_fock.value == pytest.approx(rep.en_closed.value,
                                                  abs=1e-10)
        assert rep.en_closed.value == pytest.approx(
            2.0 * rep.effective_squeezing, rel=1e-12)
        assert rep.en_fock.value == pytest.approx(0.755586787984, rel=1e-9)
        assert rep.leak < 1e-12
        assert rep.warnings == ()

    def test_branch_probability_and_routes(self):
        rep = protocol.run_entanglement(protocol.default_entanglement_scenario())
        assert rep.branch_probability == pytest.approx(0.988724121669,
                                                       rel=1e-9)
        # the lossless vacuum branch is one pure column; the traced state
        # and every lossy branch are mixed
        assert rep.en_fock.method == "fock_schmidt"
        assert rep.en_traced.method == "fock_ppt"
        sc = dataclasses.replace(protocol.default_entanglement_scenario(),
                                 include_loss_in_entanglement=True)
        lossy = protocol.run_entanglement(sc)
        assert lossy.en_fock.method == "fock_ppt"
        assert lossy.en_traced.method == "fock_ppt"

    def test_unconditioned_trace_lies_below_branch(self):
        rep = protocol.run_entanglement(protocol.default_entanglement_scenario())
        assert rep.en_traced.value == pytest.approx(0.74441000384, rel=1e-9)
        assert rep.en_traced.value < rep.en_fock.value

    def test_fiber_loss_included_on_request(self):
        sc = dataclasses.replace(protocol.default_entanglement_scenario(),
                                 include_loss_in_entanglement=True)
        rep = protocol.run_entanglement(sc)
        assert rep.transmittance == pytest.approx(0.954992586021, rel=1e-9)
        assert any("closed form" in w for w in rep.warnings)
        assert rep.en_fock.value == pytest.approx(0.72961397578, rel=1e-9)
        assert rep.en_closed.value == pytest.approx(0.736767185195, rel=1e-9)
        assert rep.en_traced.value == pytest.approx(0.719129768291, rel=1e-9)
        assert rep.branch_probability == pytest.approx(0.989226152086,
                                                       rel=1e-9)
        assert rep.en_traced.value < rep.en_fock.value
        # mixing over Kraus branches costs entanglement beyond the closed
        # form's pure-state estimate
        assert rep.en_fock.value < rep.en_closed.value

    def test_lossy_run_builds_no_two_mode_state(self, monkeypatch):
        # the mixed states are carried as sector blocks: no dense density
        # matrix, partial transpose or d^2 x d^2 eigensolve
        def forbidden(*args, **kwargs):
            raise AssertionError("dense two-mode route taken")

        monkeypatch.setattr(fock.FockDensityMatrix, "__init__", forbidden)
        monkeypatch.setattr(metrics, "log_negativity_fock", forbidden)
        monkeypatch.setattr(fock, "partial_transpose", forbidden)
        sc = protocol.default_entanglement_scenario()
        sc = dataclasses.replace(
            sc, include_loss_in_entanglement=True,
            fiber=dataclasses.replace(sc.fiber, length_km=10.0))
        rep = protocol.run_entanglement(sc)
        assert rep.truncation == 30
        assert rep.en_fock.value == pytest.approx(0.536333486507, rel=1e-11)

    def test_sector_route_needs_a_diagonal_pair(self, monkeypatch):
        # both routes carry the pair as its amplitudes on |i, i>, so the
        # squeezed pair is checked to have no weight off that diagonal
        c, _ = protocol._squeezed_vacuum(6, 0.3)
        assert c.shape == (6,)
        assert protocol._entangle(c, 0.9, 0.8,
                                  traced=True).en_traced.method == "fock_ppt"
        squeeze = propagators.apply_stokes_squeeze

        def off_diagonal(*args):
            pair = squeeze(*args)
            amps = pair.amplitudes.copy()
            amps[pair.dims.flat_index((1, 0))] = 1e-300
            return fock.FockKet(pair.dims, amps)

        monkeypatch.setattr(propagators, "apply_stokes_squeeze", off_diagonal)
        with pytest.raises(ValueError, match="not diagonal"):
            protocol._squeezed_vacuum(6, 0.3)

    def test_effective_squeezing_matches_metric(self):
        rep = protocol.run_entanglement(protocol.default_entanglement_scenario())
        assert rep.effective_squeezing == pytest.approx(
            metrics.effective_squeezing(rep.squeezing, rep.efficiency),
            rel=1e-12)

    def test_undersized_basis_raises_leak_error(self):
        sc = protocol.default_entanglement_scenario(truncation=8)
        pulse = dataclasses.replace(sc.magnon_pulse, duration=236.2e-9)
        sc = dataclasses.replace(sc, magnon_pulse=pulse)
        with pytest.raises(TruncationLeakError):
            protocol.run_entanglement(sc)

    def test_squeeze_leak_checked_once_against_the_budget(self, monkeypatch):
        # the pipeline squeezes and measures each pair once and holds its
        # leak to SQUEEZE_LEAK_BUDGET; the squeeze itself checks no budget
        pairs = []
        squeeze = propagators.apply_stokes_squeeze

        def counted(*args):
            pairs.append(squeeze(*args))
            return pairs[-1]

        monkeypatch.setattr(propagators, "apply_stokes_squeeze", counted)
        protocol.entanglement_curves((0.1, 0.4), (1.0, 0.5), truncation=12)
        assert len(pairs) == 2
        with pytest.raises(TruncationLeakError) as exc:
            protocol._squeezed_vacuum(8, 1.2)
        assert len(pairs) == 3
        # the weight on the top shell of either mode, summed directly
        pops = pairs[-1].populations().reshape(8, 8)
        top = pops[7].sum() + pops[:7, 7].sum()
        assert exc.value.leak == pytest.approx(top / pops.sum(), rel=1e-14)
        assert exc.value.leak > protocol.SQUEEZE_LEAK_BUDGET
        assert exc.value.budget == protocol.SQUEEZE_LEAK_BUDGET
        assert str(exc.value).startswith("two-mode squeeze: truncation leak")

    @pytest.mark.parametrize("r, rel", [(1.0, 1e-11), (0.65, 1e-6)])
    def test_squeeze_leak_matches_truncated_exponential(self, r, rel):
        # reference: expm of the squeeze generator on the truncated
        # n_magnon = n_pulse sector, whose off-diagonals are i + 1
        d = 30
        gen = np.diag(np.arange(1.0, d), 1) + np.diag(np.arange(1.0, d), -1)
        ref = expm(-1j * r * gen)[:, 0]
        weights = np.abs(ref) ** 2
        expect = weights[-1] / weights.sum()
        _, leak = protocol._squeezed_vacuum(d, r)
        assert abs(leak - expect) <= rel * expect


class TestEntanglementCurves:
    def test_small_grid(self):
        points = protocol.entanglement_curves((0.2, 0.5), (1.0, 0.5))
        assert [(p.efficiency, p.squeezing) for p in points] == \
            [(1.0, 0.2), (1.0, 0.5), (0.5, 0.2), (0.5, 0.5)]
        for p in points:
            assert p.en_closed == pytest.approx(
                metrics.closed_form_log_negativity(
                    p.squeezing, p.efficiency).value, rel=1e-12)
            assert p.en_fock == pytest.approx(p.en_closed, abs=1e-6)
        # full conversion reproduces 2r
        assert points[0].en_fock == pytest.approx(0.4, abs=1e-9)
        assert points[1].en_fock == pytest.approx(1.0, abs=1e-7)

    def test_matches_lossless_run_entanglement(self):
        rep = protocol.run_entanglement(protocol.default_entanglement_scenario())
        [point] = protocol.entanglement_curves((rep.squeezing,),
                                               (rep.efficiency,))
        assert point.en_fock == pytest.approx(rep.en_fock.value, abs=1e-12)
        assert point.en_closed == pytest.approx(rep.en_closed.value, abs=1e-12)

    def test_squeezes_each_r_once(self, monkeypatch):
        calls = []
        squeeze = propagators.apply_stokes_squeeze

        def counted(*args, **kwargs):
            calls.append(args[3])
            return squeeze(*args, **kwargs)

        monkeypatch.setattr(propagators, "apply_stokes_squeeze", counted)
        squeezings = (0.1, 0.4, 0.7)
        points = protocol.entanglement_curves(squeezings, (1.0, 0.6, 0.3),
                                              truncation=12)
        assert calls == list(squeezings)
        assert len(points) == 9

    def test_growth_in_squeezing(self):
        points = protocol.entanglement_curves((0.1, 0.3, 0.6), (0.8,))
        vals = [p.en_fock for p in points]
        assert vals == sorted(vals)


def engine_fields():
    """Every engine-route number of the transfer and entanglement runs."""
    ground = transfer_scenario(initial_states=(
        InitialState.fock(1), InitialState.superposition()))
    thermal = dataclasses.replace(transfer_scenario(
        truncation=24, initial_states=(
            InitialState.fock(1), InitialState.superposition(),
            InitialState.fock(2))), phonon_thermal_occupation=0.2)
    fields = {}
    for name, sc in (("ground", ground), ("thermal", thermal)):
        for state in sc.initial_states:
            rep = protocol.run_transfer(sc, state)
            fields[f"transfer,{name},{state.label}"] = (
                rep.phonon_state.matrix, rep.fidelity_engine)
    lossless = protocol.default_entanglement_scenario()
    lossy = dataclasses.replace(
        lossless, include_loss_in_entanglement=True,
        fiber=dataclasses.replace(lossless.fiber, length_km=10.0))
    for name, sc in (("lossless", lossless), ("lossy", lossy)):
        rep = protocol.run_entanglement(sc)
        fields[f"entangle,{name}"] = (rep.en_fock.value, rep.en_traced.value)
    fields["curves"] = tuple(p.en_fock for p in protocol.entanglement_curves(
        (0.0, 0.3, 0.9), (1.0, 0.4), truncation=16))
    return fields


class TestRouteIndependence:
    def test_engine_reads_no_closed_form(self, monkeypatch):
        # with every closed form patched to NaN, no engine number may move
        # by a single bit: the engine must never borrow the oracle's formula
        before = engine_fields()
        nan = float("nan")
        monkeypatch.setattr(metrics, "closed_form_log_negativity",
                            lambda *a, **k: metrics.LogNegativity(nan, "nan"))
        monkeypatch.setattr(metrics, "effective_squeezing", lambda *a, **k: nan)
        monkeypatch.setattr(
            protocol, "closed_form_transfer",
            lambda *a, dim, **k: protocol.ClosedFormTransfer(
                fidelity=nan, matrix=np.full((dim, dim), nan)))
        # the patches reach the pipelines' oracle columns
        assert math.isnan(protocol.run_transfer(
            transfer_scenario()).fidelity_closed_form)
        assert math.isnan(protocol.run_entanglement(
            protocol.default_entanglement_scenario()).en_closed.value)
        after = engine_fields()
        assert after.keys() == before.keys()
        for key, values in before.items():
            for want, got in zip(values, after[key], strict=True):
                assert np.array_equal(np.asarray(got), np.asarray(want)), key


class TestDefaults:
    def test_transfer_scenario_shape(self):
        sc = transfer_scenario()
        assert sc.truncation == 12
        assert sc.magnon_pulse.duration == 40e-9
        assert sc.mech_pulse.duration == 55e-9
        assert sc.fiber.length_km == 1.0
        assert [s.label for s in sc.initial_states] == ["fock:1"]

    def test_entanglement_scenario_shape(self):
        sc = protocol.default_entanglement_scenario()
        assert sc.truncation == 30
        assert sc.magnon_pulse.duration == 30e-9
        assert [s.label for s in sc.initial_states] == ["fock:0"]

    def test_ten_km_transmittance(self):
        sc = transfer_scenario(fiber_length_km=10.0)
        assert channels.transmittance(sc.fiber) == pytest.approx(
            0.630957344480, rel=1e-9)
