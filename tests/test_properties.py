"""Randomized invariants over the Fock pipeline, fixed seeds throughout."""

import math

import numpy as np
import pytest

from magnomech import channels, fock, metrics, moments


def random_product_density(rng, dims):
    """Random full-rank product state over the given per-mode dims."""
    blocks = []
    for d in dims.dims:
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = m @ m.conj().T
        blocks.append(rho / rho.trace())
    full = blocks[0]
    for b in blocks[1:]:
        full = np.kron(full, b)
    return fock.FockDensityMatrix(dims, full)


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestChannelCompositions:
    def test_random_pipelines_stay_physical(self):
        rng = np.random.default_rng(7)
        dims = fock.ModeDims((4, 4))
        for _ in range(200):
            rho = random_product_density(rng, dims)
            for _ in range(3):
                op = rng.integers(3)
                if op == 0:
                    rho = fock.apply_two_mode_exponential(
                        rho, 0, 1, "beamsplitter", float(rng.uniform(0, math.pi)))
                elif op == 1:
                    rho = channels.apply_loss(rho, int(rng.integers(2)),
                                              float(rng.uniform(0.2, 1.0)))
                else:
                    rho = fock.apply_phase_rotation(
                        rho, int(rng.integers(2)), float(rng.uniform(0, 2 * math.pi)))
            m = rho.matrix
            assert abs(m.trace().real - 1.0) < 1e-10
            assert float(np.max(np.abs(m - m.conj().T))) < 1e-10
            assert float(np.linalg.eigvalsh(m)[0]) > -1e-10

    def test_beamsplitter_angles_add(self):
        rng = np.random.default_rng(11)
        dims = fock.ModeDims((5, 5))
        for _ in range(20):
            rho = random_product_density(rng, dims)
            t1, t2 = rng.uniform(0, 0.6, size=2)
            stepped = fock.apply_two_mode_exponential(
                fock.apply_two_mode_exponential(rho, 0, 1, "beamsplitter", t1),
                0, 1, "beamsplitter", t2)
            direct = fock.apply_two_mode_exponential(rho, 0, 1, "beamsplitter",
                                                     t1 + t2)
            np.testing.assert_allclose(stepped.matrix, direct.matrix,
                                       atol=1e-12)

    def test_loss_transmittances_multiply(self):
        rng = np.random.default_rng(13)
        dims = fock.ModeDims((6,))
        for _ in range(20):
            rho = random_product_density(rng, dims)
            t1, t2 = rng.uniform(0.3, 1.0, size=2)
            twice = channels.apply_loss(channels.apply_loss(rho, 0, t1), 0, t2)
            once = channels.apply_loss(rho, 0, t1 * t2)
            np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_loss_methods_agree(self):
        rng = np.random.default_rng(17)
        dims = fock.ModeDims((5, 3))
        for _ in range(10):
            rho = random_product_density(rng, dims)
            t = float(rng.uniform(0.1, 0.95))
            kraus = channels.apply_loss(rho, 0, t, method="kraus")
            ancilla = channels.apply_loss(rho, 0, t, method="ancilla")
            np.testing.assert_allclose(kraus.matrix, ancilla.matrix,
                                       atol=1e-12)


class TestEntanglementInvariance:
    def test_log_negativity_under_local_unitaries(self):
        rng = np.random.default_rng(23)
        d = 6
        dims = fock.ModeDims((d, d))
        for _ in range(10):
            # rank-3 mixture of random bipartite kets
            m = np.zeros((d * d, d * d), dtype=complex)
            for _ in range(3):
                v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
                v /= np.linalg.norm(v)
                m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
            m /= m.trace()
            rho = fock.FockDensityMatrix(dims, m)
            base = metrics.log_negativity_fock(rho).value
            u = np.kron(random_unitary(rng, d), random_unitary(rng, d))
            rotated = fock.FockDensityMatrix(dims, u @ m @ u.conj().T)
            assert metrics.log_negativity_fock(rotated).value == \
                pytest.approx(base, abs=1e-10)

    def test_log_negativity_vanishes_on_products(self):
        rng = np.random.default_rng(29)
        dims = fock.ModeDims((5, 5))
        for _ in range(10):
            rho = random_product_density(rng, dims)
            assert metrics.log_negativity_fock(rho).value == \
                pytest.approx(0.0, abs=1e-10)


class TestIntegratorConvergence:
    def test_step_halving_on_random_stable_drifts(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            skew = rng.standard_normal((4, 4))
            skew = skew - skew.T
            a = -np.eye(4) * rng.uniform(0.5, 2.0) + skew
            d = np.eye(4) * rng.uniform(0.5, 2.0)
            dd = moments.DriftDiffusion(a, d)
            init = moments.CovarianceState.vacuum(2)
            coarse = moments.integrate(init, dd, 1.0, 0.02,
                                       check_uncertainty=False)
            fine = moments.integrate(init, dd, 1.0, 0.01,
                                     check_uncertainty=False)
            assert float(np.max(np.abs(coarse.cm - fine.cm))) < 1e-6
