"""Core Fock-space objects and the two-mode exponential machinery."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from magnomech import channels, fock, metrics, moments, propagators, protocol


def rand_density(rng, dims):
    size = dims.size
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    m = a @ a.conj().T
    return fock.FockDensityMatrix(dims, m / m.trace().real)


class TestModeDims:
    def test_row_major_flat_index(self):
        dims = fock.ModeDims((3, 4, 2))
        assert dims.size == 24
        assert dims.flat_index((0, 0, 0)) == 0
        assert dims.flat_index((1, 2, 1)) == 1 * 8 + 2 * 2 + 1

    def test_roundtrip_all_indices(self):
        dims = fock.ModeDims((2, 3, 2))
        for k in range(dims.size):
            assert dims.flat_index(np.unravel_index(k, dims.dims)) == k

    def test_rejects_tiny_or_empty(self):
        with pytest.raises(ValueError):
            fock.ModeDims((3, 1))
        with pytest.raises(ValueError):
            fock.ModeDims(())

    def test_flat_index_bounds(self):
        dims = fock.ModeDims((3, 3))
        with pytest.raises(ValueError):
            dims.flat_index((3, 0))
        with pytest.raises(ValueError):
            dims.flat_index((0,))

    def test_drop(self):
        dims = fock.ModeDims((3, 4, 5))
        assert dims.drop(1).dims == (3, 5)
        with pytest.raises(ValueError):
            fock.ModeDims((3,)).drop(0)


class TestFockKet:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            fock.FockKet((2,), [1.0, 1.0])
        with pytest.raises(ValueError):
            fock.FockKet((2,), [0.0, 0.0])
        with pytest.raises(ValueError, match="norm nan"):
            fock.FockKet((2,), [math.nan, 0.0])

    def test_amplitudes_frozen(self):
        k = fock.number_ket((3,), (1,))
        with pytest.raises(ValueError):
            k.amplitudes[0] = 1.0

    def test_density_matrix_roundtrip(self):
        k = fock.FockKet((2, 2), [0.6, 0.0, 0.0, 0.8])
        rho = k.density_matrix()
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rho.populations(), k.populations(), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fock.FockKet((2, 2), [1.0, 0.0])


class TestFockDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            fock.FockDensityMatrix((2,), m)
        # NaN on or off the diagonal fails every bound instead of passing it
        for nan_at in ((0, 0), (0, 1)):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[nan_at] = np.nan
            with pytest.raises(ValueError, match="Hermitian by nan"):
                fock.FockDensityMatrix((2,), m)

    def test_hermiticity_scan_reaches_last_row_block(self):
        # a d = 30 pair matrix with one unmirrored element in its last
        # rows is rejected, and the message reads the element's size
        dims = fock.ModeDims((30, 30))
        m = np.eye(dims.size, dtype=complex) / dims.size
        fock.FockDensityMatrix(dims, m)
        m[-1, -2] = 2e-10
        with pytest.raises(ValueError, match="Hermitian by 2.000e-10"):
            fock.FockDensityMatrix(dims, m)

    def test_trace_window(self):
        # subnormalized branch states are allowed, trace > 1 is not
        half = np.diag([0.25, 0.25]).astype(complex)
        assert fock.FockDensityMatrix((2,), half).trace() == pytest.approx(0.5)
        with pytest.raises(ValueError, match="trace"):
            fock.FockDensityMatrix((2,), np.diag([0.8, 0.8]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            fock.FockDensityMatrix((2,), np.zeros((2, 2), dtype=complex))

    def test_mode_marginals(self):
        rng = np.random.default_rng(3)
        rho = rand_density(rng, fock.ModeDims((3, 4)))
        marg = rho.populations().reshape(3, 4).sum(axis=0)
        assert marg.sum() == pytest.approx(1.0, abs=1e-12)
        # against the partial-trace route
        red = fock.partial_trace(rho, 0)
        np.testing.assert_allclose(marg, red.populations(), atol=1e-13)


class TestPartialOps:
    def test_partial_trace_product_state(self):
        a = fock.number_ket((3,), (1,)).density_matrix()
        b = fock.number_ket((4,), (2,)).density_matrix()
        joint = fock.tensor(a, b)
        np.testing.assert_allclose(fock.partial_trace(joint, 1).matrix, a.matrix,
                                   atol=1e-14)
        np.testing.assert_allclose(fock.partial_trace(joint, 0).matrix, b.matrix,
                                   atol=1e-14)

    def test_partial_trace_entangled(self):
        # (|00> + |11>)/sqrt(2) reduces to the maximally mixed qubit
        k = fock.FockKet((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        red = fock.partial_trace(k.density_matrix(), 0)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)

    def test_condition_on_vacuum_branch(self):
        k = fock.FockKet((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
        branch = fock.condition_on_vacuum(k.density_matrix(), 0)
        # <0|rho|0> keeps the |0><0| block of the other mode, weight 1/2
        assert branch.trace() == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(branch.matrix, np.diag([0.5, 0.0]), atol=1e-14)

    def test_condition_on_vacuum_zero_probability(self):
        rho = fock.tensor(fock.number_ket((2,), (1,)).density_matrix(),
                          fock.vacuum((2,)))
        with pytest.raises(ValueError, match="zero probability"):
            fock.condition_on_vacuum(rho, 0)

    def test_partial_transpose_involution(self):
        rng = np.random.default_rng(5)
        rho = rand_density(rng, fock.ModeDims((3, 3)))
        pt = fock.partial_transpose(rho, (1,))
        pt2 = fock.partial_transpose(fock.FockDensityMatrix(rho.dims, pt), (1,))
        np.testing.assert_allclose(pt2, rho.matrix, atol=1e-14)

    def test_partial_transpose_both_modes_is_full_transpose(self):
        rng = np.random.default_rng(6)
        rho = rand_density(rng, fock.ModeDims((3, 4)))
        pt = fock.partial_transpose(rho, (0, 1))
        np.testing.assert_allclose(pt, rho.matrix.T, atol=1e-14)

    def test_partial_transpose_element_mapping(self):
        rng = np.random.default_rng(7)
        dims = fock.ModeDims((3, 3))
        rho = rand_density(rng, dims)
        pt = fock.partial_transpose(rho, (1,))
        for na in range(3):
            for nb in range(3):
                for ma in range(3):
                    for mb in range(3):
                        lhs = pt[dims.flat_index((na, nb)), dims.flat_index((ma, mb))]
                        rhs = rho.matrix[dims.flat_index((na, mb)),
                                         dims.flat_index((ma, nb))]
                        assert lhs == rhs


class TestPairSectors:
    @pytest.mark.parametrize("kind", fock.GENERATOR_KINDS)
    @pytest.mark.parametrize("da, db", [(3, 7), (7, 3), (30, 30)])
    def test_sectors_cover_pair_space_once(self, kind, da, db):
        sectors = fock.pair_generator_eigensystem(da, db, kind)
        flat = np.concatenate([idx for idx, _, _ in sectors])
        assert sorted(flat.tolist()) == list(range(da * db))
        # each sector holds one value of the conserved number, in rising
        # order, and an orthogonal eigenbasis of its own size
        sign = 1 if kind == "beamsplitter" else -1
        labels = []
        for idx, w, v in sectors:
            na, nb = np.divmod(idx, db)
            assert len(set((na + sign * nb).tolist())) == 1
            labels.append(int(na[0] + sign * nb[0]))
            assert v.shape == (idx.size, idx.size) and w.shape == (idx.size,)
            np.testing.assert_allclose(v.T @ v, np.eye(idx.size), atol=1e-13)
        assert labels == sorted(labels)
        assert len(sectors) == da + db - 1


class TestTwoModeUnitaries:
    @pytest.mark.parametrize("kind", fock.GENERATOR_KINDS)
    def test_unitarity(self, kind):
        u = fock.two_mode_unitary(5, 6, kind, 0.37)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(30), atol=1e-12)

    @pytest.mark.parametrize("kind", fock.GENERATOR_KINDS)
    def test_matches_dense_matrix_exponential(self, kind):
        # independent route: scipy expm of the explicitly built generator,
        # on unequal dimensions in both orders
        for da, db in ((6, 7), (3, 7), (7, 3)):
            a = np.diag(np.sqrt(np.arange(1.0, da)), 1)
            b = np.diag(np.sqrt(np.arange(1.0, db)), 1)
            if kind == "beamsplitter":
                k = np.kron(a.conj().T, b) + np.kron(a, b.conj().T)
            else:
                k = np.kron(a.conj().T, b.conj().T) + np.kron(a, b)
            angle = 0.81
            u_ref = expm(-1j * angle * k)
            u = fock.two_mode_unitary(da, db, kind, angle)
            np.testing.assert_allclose(u, u_ref, atol=1e-12)

    def test_beamsplitter_full_swap_phases(self):
        # at theta = pi/2, |n, 0> -> (-i)^n |0, n>
        d = 6
        dims = fock.ModeDims((d, d))
        for n in range(d):
            out = fock.apply_two_mode_exponential(
                fock.number_ket(dims, (n, 0)), 0, 1, "beamsplitter", math.pi / 2)
            amp = out.amplitudes[dims.flat_index((0, n))]
            assert amp == pytest.approx((-1j) ** n, abs=1e-12)
            assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_beamsplitter_preserves_total_occupation(self):
        dims = fock.ModeDims((4, 4))
        k = fock.number_ket(dims, (2, 1))
        out = fock.apply_two_mode_exponential(k, 0, 1, "beamsplitter", 0.3)
        pops = out.populations().reshape(4, 4)
        for na in range(4):
            for nb in range(4):
                if na + nb != 3 and pops[na, nb] > 1e-14:
                    pytest.fail(f"population outside the n=3 shell at {(na, nb)}")

    def test_squeeze_vacuum_amplitude_law(self):
        # exp(-i r K_sq)|00> = sum_n (-i tanh r)^n / cosh r |nn>; the
        # truncated evolution deviates only by boundary reflection ~1e-10
        d, r = 30, 0.7
        dims = fock.ModeDims((d, d))
        out = fock.apply_two_mode_exponential(
            fock.number_ket(dims, (0, 0)), 0, 1, "two_mode_squeeze", r)
        lam = math.tanh(r)
        for n in range(20):
            expect = (-1j * lam) ** n / math.cosh(r)
            got = out.amplitudes[dims.flat_index((n, n))]
            assert abs(got - expect) < 1e-9

    def test_ket_and_density_routes_agree(self):
        rng = np.random.default_rng(11)
        dims = fock.ModeDims((4, 5))
        amps = rng.normal(size=20) + 1j * rng.normal(size=20)
        k = fock.FockKet(dims, amps / np.linalg.norm(amps))
        for kind, angle in (("beamsplitter", 0.4), ("two_mode_squeeze", 0.2)):
            out_k = fock.apply_two_mode_exponential(k, 0, 1, kind, angle)
            out_r = fock.apply_two_mode_exponential(k.density_matrix(), 0, 1,
                                                    kind, angle)
            np.testing.assert_allclose(out_k.density_matrix().matrix, out_r.matrix,
                                       atol=1e-12)

    @pytest.mark.parametrize("kind", fock.GENERATOR_KINDS)
    def test_complex_ket_matches_dense_unitary(self, kind):
        # the ket route multiplies the real eigenbasis into the real and
        # imaginary parts separately; a phase-rotated ket has both
        rng = np.random.default_rng(5)
        dims = fock.ModeDims((4, 6))
        amps = rng.normal(size=24) + 1j * rng.normal(size=24)
        k = fock.apply_phase_rotation(
            fock.FockKet(dims, amps / np.linalg.norm(amps)), 0, 0.7)
        angle = 0.45
        out = fock.apply_two_mode_exponential(k, 0, 1, kind, angle)
        u = fock.two_mode_unitary(4, 6, kind, angle)
        np.testing.assert_allclose(out.amplitudes, u @ k.amplitudes,
                                   rtol=0, atol=1e-13)
        # reversed mode order: the pair axes are transposed before the product
        out = fock.apply_two_mode_exponential(k, 1, 0, kind, angle)
        u = fock.two_mode_unitary(6, 4, kind, angle)
        psi_t = k.amplitudes.reshape(4, 6).T.reshape(-1)
        expect = (u @ psi_t).reshape(6, 4).T.reshape(-1)
        np.testing.assert_allclose(out.amplitudes, expect, rtol=0, atol=1e-13)

    def test_applies_to_interior_mode_pair(self):
        dims = fock.ModeDims((2, 3, 3, 2))
        k = fock.number_ket(dims, (1, 2, 0, 1))
        out = fock.apply_two_mode_exponential(k, 2, 1, "beamsplitter",
                                              math.pi / 2)
        # swap 1 <- 2 moves the two excitations with phase (-i)^2
        idx = dims.flat_index((1, 0, 2, 1))
        assert out.amplitudes[idx] == pytest.approx(-1.0, abs=1e-12)

    def test_invalid_arguments(self):
        k = fock.number_ket((3, 3), (0, 0))
        with pytest.raises(ValueError, match="kind"):
            fock.apply_two_mode_exponential(k, 0, 1, "squeeze", 0.1)
        with pytest.raises(ValueError, match="distinct"):
            fock.apply_two_mode_exponential(k, 1, 1, "beamsplitter", 0.1)
        with pytest.raises(ValueError, match="finite"):
            fock.apply_two_mode_exponential(k, 0, 1, "beamsplitter", math.inf)
        with pytest.raises(ValueError, match="out of range"):
            fock.apply_two_mode_exponential(k, 0, 2, "beamsplitter", 0.1)


class TestPhaseRotation:
    def test_phase_on_ket(self):
        dims = fock.ModeDims((4,))
        k = fock.FockKet(dims, np.ones(4) / 2.0)
        out = fock.apply_phase_rotation(k, 0, math.pi / 2)
        expect = np.array([1, 1j, -1, -1j]) / 2.0
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-14)

    def test_phase_on_density_matrix_preserves_diagonal(self):
        rng = np.random.default_rng(13)
        rho = rand_density(rng, fock.ModeDims((3, 3)))
        out = fock.apply_phase_rotation(rho, 1, 0.77)
        np.testing.assert_allclose(out.populations(), rho.populations(), atol=1e-14)
        assert out.trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_pi_rotation_gives_parity_signs(self):
        dims = fock.ModeDims((3,))
        k = fock.FockKet(dims, np.array([0.6, 0.0, 0.8]))
        out = fock.apply_phase_rotation(k, 0, math.pi)
        # e^{i pi n}: |0> and |2> unchanged, |1> flips sign
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.0, 0.8], atol=1e-12)
        out1 = fock.apply_phase_rotation(fock.number_ket(dims, (1,)), 0, math.pi)
        assert out1.amplitudes[1] == pytest.approx(-1.0, abs=1e-14)


# every [0, 1] argument of the library, as (field, call with that argument)
_PAIR = fock.number_ket((3, 3), (1, 0))
_STATE = protocol.InitialState.fock(1)
UNIT_ARGUMENTS = {
    "closed_form_transfer.swap_in": ("swap_in", lambda x: (
        protocol.closed_form_transfer(_STATE, x, 1.0, 1.0, dim=3))),
    "closed_form_transfer.transmittance": ("transmittance", lambda x: (
        protocol.closed_form_transfer(_STATE, 1.0, x, 1.0, dim=3))),
    "closed_form_transfer.swap_out": ("swap_out", lambda x: (
        protocol.closed_form_transfer(_STATE, 1.0, 1.0, x, dim=3))),
    "loss_kraus_operators": ("transmittance", lambda x: (
        channels.loss_kraus_operators(3, x))),
    "apply_loss": ("transmittance", lambda x: (
        channels.apply_loss(_PAIR.density_matrix(), 0, x))),
    "apply_antistokes_swap": ("efficiency", lambda x: (
        propagators.apply_antistokes_swap(_PAIR, 0, 1, x))),
    "effective_squeezing": ("efficiency", lambda x: (
        metrics.effective_squeezing(0.5, x))),
}
# every function that takes a mode index, called with that index
MODE_ARGUMENTS = {
    "ModeDims.drop": lambda m: _PAIR.dims.drop(m),
    "partial_trace": lambda m: fock.partial_trace(_PAIR.density_matrix(), m),
    "condition_on_vacuum": lambda m: fock.condition_on_vacuum(
        _PAIR.density_matrix(), m),
    "partial_transpose": lambda m: fock.partial_transpose(
        _PAIR.density_matrix(), m),
    "apply_two_mode_exponential.ket": lambda m: (
        fock.apply_two_mode_exponential(_PAIR, m, 0, "beamsplitter", 0.1)),
    "apply_two_mode_exponential.matrix": lambda m: (
        fock.apply_two_mode_exponential(_PAIR.density_matrix(), 0, m,
                                        "beamsplitter", 0.1)),
    "apply_phase_rotation": lambda m: fock.apply_phase_rotation(_PAIR, m, 0.1),
    "channels.apply_loss": lambda m: channels.apply_loss(
        _PAIR.density_matrix(), m, 0.5),
}

# every angle of the library, which need only be finite, called with it
ANGLE_ARGUMENTS = {
    "apply_phase_rotation.ket": lambda x: fock.apply_phase_rotation(
        _PAIR, 0, x),
    "apply_phase_rotation.matrix": lambda x: fock.apply_phase_rotation(
        _PAIR.density_matrix(), 0, x),
    "two_mode_unitary": lambda x: fock.two_mode_unitary(
        3, 3, "beamsplitter", x),
}

# every argument that names one of a fixed set of choices, as (field, the
# choices in order, call with that argument)
_DRIFT = dict(cavity_linewidth=1.0, coupling=0.1, mech_freq=10.0, detuning=10.0)
_PULSE = protocol.default_transfer_scenario().magnon_pulse
CHOICE_ARGUMENTS = {
    "pair_generator_eigensystem": ("kind", ("beamsplitter", "two_mode_squeeze"),
                                   lambda k: fock.pair_generator_eigensystem(
                                       3, 3, k)),
    "two_mode_unitary": ("kind", ("beamsplitter", "two_mode_squeeze"),
                         lambda k: fock.two_mode_unitary(3, 3, k, 0.1)),
    "apply_two_mode_exponential": ("kind", ("beamsplitter", "two_mode_squeeze"),
                                   lambda k: fock.apply_two_mode_exponential(
                                       _PAIR, 0, 1, k, 0.1)),
    "apply_loss": ("method", ("kraus", "ancilla"), lambda m: (
        channels.apply_loss(_PAIR.density_matrix(), 0, 0.5, method=m))),
    "build_drift": ("kind", ("magnonic_antistokes", "magnonic_stokes",
                             "optomech_red_rwa", "optomech_full"),
                    lambda k: moments.build_drift(k, **_DRIFT)),
    "validate_adiabatic": ("process", ("antistokes", "stokes"), lambda p: (
        moments.validate_adiabatic(_PULSE, [0.005], process=p))),
}


class TestBoundaryChecks:
    """Each rule has one owner: ``fock._require`` for a [0, 1] argument or
    an angle, ``fock._choice`` for a name from a fixed set, ``fock._mode``
    for a mode index, whichever module takes it."""

    @pytest.mark.parametrize("site", sorted(UNIT_ARGUMENTS))
    def test_unit_interval_argument(self, site):
        field, call = UNIT_ARGUMENTS[site]
        for good in (0.0, 1.0):
            call(good)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(fock._DomainError) as exc:
                call(bad)
            assert exc.value.field == field
            assert str(exc.value) == f"{field} must be in [0, 1], got {bad!r}"

    @pytest.mark.parametrize("site", sorted(ANGLE_ARGUMENTS))
    def test_finite_angle(self, site):
        ANGLE_ARGUMENTS[site](-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(fock._DomainError) as exc:
                ANGLE_ARGUMENTS[site](bad)
            assert exc.value.field == "angle"
            assert str(exc.value) == f"angle must be finite, got {bad!r}"

    @pytest.mark.parametrize("site", sorted(CHOICE_ARGUMENTS))
    def test_choice_argument(self, site):
        field, choices, call = CHOICE_ARGUMENTS[site]
        for good in choices:
            call(good)
        for bad in ("bogus", choices[0].upper(), ""):
            with pytest.raises(fock._DomainError) as exc:
                call(bad)
            assert exc.value.field == field
            assert str(exc.value) == \
                f"{field} must be one of {choices}, got {bad!r}"

    @pytest.mark.parametrize("site", sorted(MODE_ARGUMENTS))
    def test_mode_index(self, site):
        for bad in (-1, _PAIR.dims.n_modes):
            with pytest.raises(ValueError, match=f"mode {bad} out of range"):
                MODE_ARGUMENTS[site](bad)
        with pytest.raises(TypeError):   # never rounded to a mode
            MODE_ARGUMENTS[site](0.5)
