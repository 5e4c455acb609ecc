"""Fiber loss: transmittance bookkeeping and channel realizations."""

import math

import numpy as np
import pytest

from magnomech import channels, fock, propagators, protocol
from magnomech.protocol import InitialState


def rand_two_mode(rng, d):
    dims = fock.ModeDims((d, d))
    a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    m = a @ a.conj().T
    return fock.FockDensityMatrix(dims, m / m.trace().real)


class TestFiberSpec:
    def test_transmittance_reference_values(self):
        # T = 10^(-0.2 L / 10)
        assert channels.transmittance(channels.FiberSpec(1.0)) == pytest.approx(
            0.954992586021, rel=1e-9)
        assert channels.transmittance(channels.FiberSpec(10.0)) == pytest.approx(
            0.630957344480, rel=1e-9)

    def test_stores_floats(self):
        # a numeric string is accepted and stored as the float it names
        fiber = channels.FiberSpec(length_km="10")
        assert fiber.length_km == 10.0
        assert channels.transmittance(fiber) == pytest.approx(
            0.630957344480, rel=1e-9)

    def test_zero_length_is_transparent(self):
        assert channels.transmittance(channels.FiberSpec(0.0)) == 1.0

    def test_extra_loss_compounds(self):
        base = channels.FiberSpec(2.0)
        extra = channels.FiberSpec(2.0, extra_loss_db=1.0)
        assert channels.transmittance(extra) == pytest.approx(
            channels.transmittance(base) * 10 ** (-0.1), rel=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            channels.FiberSpec(-1.0)
        with pytest.raises(ValueError):
            channels.FiberSpec(1.0, attenuation_db_per_km=-0.2)
        with pytest.raises(ValueError):
            channels.FiberSpec(1.0, extra_loss_db=-0.5)


class TestKrausOperators:
    """The loss channel as its table of diagonals: table[k, n] is the
    amplitude A_k gives level n, landing on n - k."""

    @pytest.mark.parametrize("t", [0.0, 0.33, 0.630957344480, 1.0])
    def test_completeness(self, t):
        table = channels.loss_kraus_operators(10, t)
        # sum_k A_k^H A_k = 1 is diagonal: sum_k a_k(n)^2 = 1 for every n
        np.testing.assert_allclose((table**2).sum(axis=0), np.ones(10),
                                   rtol=0, atol=1e-13)
        # A_k cannot lower a level n < k
        assert not np.any(np.tril(table, -1))

    def test_unit_transmittance_is_identity_only(self):
        table = channels.loss_kraus_operators(8, 1.0)
        assert table.shape == (1, 8)
        np.testing.assert_array_equal(table, np.ones((1, 8)))

    def test_single_photon_element(self):
        table = channels.loss_kraus_operators(4, 0.7)
        # A_0 |1> = sqrt(T) |1>, A_1 |1> = sqrt(1-T) |0>
        assert table[0, 1] == pytest.approx(math.sqrt(0.7), rel=1e-12)
        assert table[1, 1] == pytest.approx(math.sqrt(0.3), rel=1e-12)

    def test_rejects_bad_transmittance(self):
        with pytest.raises(ValueError):
            channels.loss_kraus_operators(5, 1.1)


class TestApplyLoss:
    @pytest.mark.parametrize("t", [0.0, 0.630957344480, 0.954992586021, 1.0])
    def test_kraus_equals_ancilla(self, t):
        rng = np.random.default_rng(17)
        rho = rand_two_mode(rng, 12)
        out_k = channels.apply_loss(rho, 0, t, method="kraus")
        out_a = channels.apply_loss(rho, 0, t, method="ancilla")
        assert np.max(np.abs(out_k.matrix - out_a.matrix)) < 1e-10

    def test_full_loss_gives_vacuum_mode(self):
        rng = np.random.default_rng(19)
        rho = rand_two_mode(rng, 5)
        out = channels.apply_loss(rho, 1, 0.0)
        np.testing.assert_allclose(out.populations().reshape(5, 5).sum(axis=0),
                                   [1, 0, 0, 0, 0], atol=1e-12)

    def test_unit_transmittance_is_identity(self):
        rng = np.random.default_rng(23)
        rho = rand_two_mode(rng, 6)
        out = channels.apply_loss(rho, 0, 1.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-13)

    def test_composition_multiplies_transmittance(self):
        rng = np.random.default_rng(29)
        rho = rand_two_mode(rng, 8)
        t1, t2 = 0.85, 0.6
        seq = channels.apply_loss(channels.apply_loss(rho, 0, t1), 0, t2)
        once = channels.apply_loss(rho, 0, t1 * t2)
        assert np.max(np.abs(seq.matrix - once.matrix)) < 1e-12

    def test_mean_occupation_scales_by_t(self):
        rng = np.random.default_rng(31)
        rho = rand_two_mode(rng, 7)
        t = 0.44
        out = channels.apply_loss(rho, 0, t)

        def occupation(state):
            return np.arange(7) @ state.populations().reshape(7, 7).sum(axis=1)

        assert occupation(out) == pytest.approx(t * occupation(rho), rel=1e-10)

    def test_unknown_method(self):
        rho = fock.vacuum((3, 3))
        with pytest.raises(ValueError, match="method"):
            channels.apply_loss(rho, 0, 0.5, method="exact")


class TestPostLossOracle:
    """The pulse stage of the dense reference chain against the closed form.

    Swap in (efficiency S), condition the magnon on vacuum, lose photons
    in the fiber (T): the pulse state is ``closed_form_transfer`` at W = 1
    with element [v, u] multiplied by the swap-in phase (-i)^v i^u.
    """

    @pytest.mark.parametrize("coeffs", [
        np.array([0.0, 1.0]),                  # single excitation
        np.array([1.0, 1.0]) / math.sqrt(2),   # balanced superposition
        np.array([0.5, 0.5, math.sqrt(0.5)]),  # three-level pure state
        np.array([0.5, 0.5j, -0.5, 0.5j]),     # four levels, complex phases
    ])
    # the reference S is identified by T alone, the full swap by its name
    @pytest.mark.parametrize("eta, t", [
        *(pytest.param(0.182138220055, t, id=str(t))
          for t in (1.0, 0.954992586021, 0.630957344480, 0.0)),
        *(pytest.param(1.0, t, id=f"full_swap-{t}")
          for t in (1.0, 0.630957344480, 0.0)),
    ])
    def test_matches_engine_pipeline(self, coeffs, eta, t):
        d = 12
        state = InitialState("pure", ket=coeffs)
        joint = fock.tensor(state.density(d), fock.vacuum((d,)))
        joint = propagators.apply_antistokes_swap(joint, 0, 1, eta)
        branch = fock.condition_on_vacuum(joint, 0)
        engine = channels.apply_loss(branch, 0, t)
        phase = (-1j) ** np.arange(d)
        oracle = protocol.closed_form_transfer(state, eta, t, 1.0, dim=d).matrix
        oracle = oracle * np.outer(phase, phase.conj())
        assert np.max(np.abs(engine.matrix - oracle)) < 1e-12
