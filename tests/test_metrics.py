"""Fidelity and log-negativity metrics, Fock route against Gaussian route."""

import dataclasses
import math

import numpy as np
import pytest

from magnomech import channels, fock, metrics, moments, protocol


def tmsv_table(d, r):
    """Ideal two-mode squeezed vacuum density matrix on (d, d), phase-free."""
    lam = math.tanh(r)
    amps = np.zeros(d * d, dtype=complex)
    dims = fock.ModeDims((d, d))
    for n in range(d):
        amps[dims.flat_index((n, n))] = lam**n / math.cosh(r)
    amps /= np.linalg.norm(amps)  # truncation tail renormalized away
    return fock.FockKet(dims, amps).density_matrix()


def tmsv_cm(r):
    """Covariance matrix of the two-mode squeezed vacuum, (x, p) interleaved."""
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    cm = np.zeros((4, 4))
    cm[0, 0] = cm[1, 1] = cm[2, 2] = cm[3, 3] = c
    cm[0, 2] = cm[2, 0] = s
    cm[1, 3] = cm[3, 1] = -s
    return cm


class TestFidelity:
    def test_pure_target_overlap(self):
        target = fock.number_ket((4,), (1,))
        rho = fock.FockDensityMatrix((4,), np.diag([0.2, 0.5, 0.3, 0.0]).astype(complex))
        assert metrics.fidelity_pure_target(target, rho) == pytest.approx(
            0.5, abs=1e-14)

    def test_subnormalized_branch_reads_as_probability(self):
        target = fock.number_ket((3,), (1,))
        rho = fock.FockDensityMatrix((3,), np.diag([0.1, 0.25, 0.0]).astype(complex))
        assert metrics.fidelity_pure_target(target, rho) == pytest.approx(0.25)

    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            metrics.fidelity_pure_target(fock.number_ket((3,), (0,)),
                                         fock.vacuum((4,)))


class TestFockNegativity:
    def test_tmsv_matches_2r(self):
        # trace-norm truncation error scales like tanh(r)^d
        for r, tol in ((0.2, 1e-12), (0.5, 1e-8), (1.0, 1e-3)):
            rho = tmsv_table(30, r)
            en = metrics.log_negativity_fock(rho)
            assert en.value == pytest.approx(2 * r, abs=tol)
            assert en.method == "fock_ppt"

    def test_separable_state_is_zero(self):
        rho = fock.tensor(fock.vacuum((4,)),
                          fock.FockDensityMatrix((4,), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)))
        assert metrics.log_negativity_fock(rho).value == pytest.approx(0.0, abs=1e-12)

    def test_transpose_side_irrelevant(self):
        # E_N transposes mode 1; transposing mode 0 gives the same trace norm
        rho = tmsv_table(20, 0.6)
        norm0, norm1 = (np.abs(np.linalg.eigvalsh(
            fock.partial_transpose(rho, k))).sum() for k in (0, 1))
        assert norm0 == pytest.approx(norm1, abs=1e-12)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Sizes of the matrices handed to np.linalg.eigvalsh, in call order."""
    sizes = []
    solve = np.linalg.eigvalsh

    def recording(h):
        sizes.append(h.shape[0])
        return solve(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def dense_log_negativity(rho):
    """ln sum |eigvalsh(rho^T_1)| from one eigensolve of the whole matrix."""
    pt = fock.partial_transpose(rho, (1,))
    return math.log(float(np.abs(np.linalg.eigvalsh(pt)).sum()))


def dense_entangle_states(d, squeezing, efficiency, transmittance):
    """The branch (renormalized) and traced states of the lossy chain as
    dense rho = B B^H, with B built column by column from the dense Kraus
    operators and the swap contractions <m, .|U|., 0>, sliced out of the
    dense beamsplitter; also the branch probability."""
    c, _ = protocol._squeezed_vacuum(d, squeezing)
    psi = np.diag(c)
    kets = [psi @ np.diag(row[k:], k).T for k, row in
            enumerate(channels.loss_kraus_operators(d, transmittance))]
    u = fock.two_mode_unitary(d, d, "beamsplitter",
                              math.asin(math.sqrt(efficiency)))
    columns = [[(k @ u[m * d:(m + 1) * d, ::d].T).reshape(-1) for k in kets]
               for m in range(d)]
    dims = fock.ModeDims((d, d))
    branch = np.stack(columns[0], axis=1)
    prob = float(np.vdot(branch, branch).real)
    traced = np.stack([c for cols in columns for c in cols], axis=1)
    return (fock.FockDensityMatrix(dims, branch @ branch.conj().T / prob),
            fock.FockDensityMatrix(dims, traced @ traced.conj().T), prob)


class TestBlockRoute:
    """The sector-block route, log_negativity_sectors, against the dense
    reference log_negativity_fock."""

    def test_lossy_entangle_state_takes_block_route(self, monkeypatch,
                                                    eigvalsh_sizes):
        solves = []   # eigvalsh sizes of each log_negativity_sectors call
        route = metrics.log_negativity_sectors

        def recording(blocks):
            start = len(eigvalsh_sizes)
            en = route(blocks)
            solves.append(eigvalsh_sizes[start:])
            return en

        monkeypatch.setattr(metrics, "log_negativity_sectors", recording)
        for d in (12, 30):
            for length_km in (1.0, 10.0):
                sc = protocol.default_entanglement_scenario(truncation=d)
                sc = dataclasses.replace(
                    sc, include_loss_in_entanglement=True,
                    fiber=dataclasses.replace(sc.fiber, length_km=length_km))
                solves.clear()
                rep = protocol.run_entanglement(sc)
                # the traced state and the branch: 2d - 1 blocks of <= d each
                assert [len(s) for s in solves] == [2 * d - 1] * 2
                assert max(max(s) for s in solves) == d
                branch, traced, prob = dense_entangle_states(
                    d, rep.squeezing, rep.efficiency, rep.transmittance)
                case = f"d = {d}, {length_km} km"
                assert abs(rep.en_fock.value - metrics.log_negativity_fock(
                    branch).value) <= 1e-12, case
                assert abs(rep.en_traced.value - metrics.log_negativity_fock(
                    traced).value) <= 1e-12, case
                assert abs(rep.branch_probability - prob) <= 1e-12, case
                assert rep.en_fock.method == rep.en_traced.method == "fock_ppt"
                if (d, length_km) == (30, 10.0):
                    assert rep.en_fock.value == pytest.approx(0.536333486507,
                                                              rel=1e-11)

    def test_random_mixed_state_takes_dense_route(self, eigvalsh_sizes):
        # criterion 9's construction: a random mixture of random kets
        rng = np.random.default_rng(9)
        dims = fock.ModeDims((4, 5))
        m = np.zeros((20, 20), dtype=complex)
        for _ in range(3):
            v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            v /= np.linalg.norm(v)
            m += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
        rho = fock.FockDensityMatrix(dims, m / m.trace())
        en = metrics.log_negativity_fock(rho)
        assert eigvalsh_sizes == [20]
        assert en.value == pytest.approx(max(0.0, dense_log_negativity(rho)),
                                         abs=1e-12)

    @staticmethod
    def sector_diagonal_state(d):
        """Mixture of a |n, n> and a |n + 1, n> superposition, as its
        (d + 1, d, d) stack of sector blocks D = n_0 - n_1 = 0, 1 and as a
        dense state."""
        lam = 0.5
        same = lam ** np.arange(d, dtype=complex)
        shifted = (0.3j * lam) ** np.arange(d - 1)
        same /= np.linalg.norm(same)
        shifted /= np.linalg.norm(shifted)
        blocks = [0.7 * np.outer(same, same.conj()),
                  0.3 * np.outer(shifted, shifted.conj())]
        dims = fock.ModeDims((d, d))
        stack = np.zeros((d + 1, d, d), dtype=complex)
        m = np.zeros((d * d, d * d), dtype=complex)
        for sector, block in enumerate(blocks):
            stack[sector, sector:, sector:] = block
            idx = [dims.flat_index((n, n - sector)) for n in range(sector, d)]
            m[np.ix_(idx, idx)] += block
        return stack, fock.FockDensityMatrix(dims, m)

    def test_sector_diagonal_state_takes_block_route(self, eigvalsh_sizes):
        stack, rho = self.sector_diagonal_state(6)
        en = metrics.log_negativity_sectors(stack)
        assert len(eigvalsh_sizes) == 11 and max(eigvalsh_sizes) == 6
        assert en.value > 0.1
        assert en.method == "fock_ppt"
        assert abs(en.value - dense_log_negativity(rho)) <= 1e-12

    def test_rejects_misshapen_blocks(self):
        stack, _ = self.sector_diagonal_state(6)
        for bad in (stack[:-1], stack[:, :5], stack[0]):
            with pytest.raises(ValueError, match="sector stack has shape"):
                metrics.log_negativity_sectors(bad)


class TestPureNegativity:
    """The Schmidt route against the partial-transpose route on pure kets."""

    @pytest.mark.parametrize("dims", [(3, 5), (4, 4), (6, 2)])
    def test_matches_ppt_on_random_kets(self, dims):
        rng = np.random.default_rng(sum(dims))
        size = dims[0] * dims[1]
        for _ in range(3):
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            ket = fock.FockKet(dims, amps / np.linalg.norm(amps))
            en = metrics.log_negativity_pure(ket)
            assert en.method == "fock_schmidt"
            assert en.value > 0.0
            assert en.value == pytest.approx(
                metrics.log_negativity_fock(ket.density_matrix()).value,
                abs=1e-12)

    def test_product_state_is_zero(self):
        a = np.array([0.6, 0.8j, 0.0])
        b = np.array([1.0, -1.0, 1j, 0.5]) / math.sqrt(3.25)
        ket = fock.FockKet((3, 4), np.kron(a, b))
        assert metrics.log_negativity_pure(ket).value == pytest.approx(
            0.0, abs=1e-12)
        assert metrics.log_negativity_fock(ket.density_matrix()).value == \
            pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_matches_ppt_on_squeezed_pair(self, r):
        dims = fock.ModeDims((30, 30))
        pair = fock.apply_two_mode_exponential(
            fock.number_ket(dims, (0, 0)), 0, 1, "two_mode_squeeze", r)
        en = metrics.log_negativity_pure(pair).value
        assert en == pytest.approx(
            metrics.log_negativity_fock(pair.density_matrix()).value,
            abs=1e-12)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError, match="two-mode"):
            metrics.log_negativity_pure(fock.number_ket((3,), (1,)))
        with pytest.raises(ValueError, match="two-mode"):
            metrics.log_negativity_pure(fock.number_ket((2, 2, 2), (0, 1, 0)))


class TestEffectiveSqueezing:
    def test_closed_form(self):
        r, eta = 0.8, 0.55
        expect = math.atanh(math.sqrt(eta) * math.tanh(r))
        assert metrics.effective_squeezing(r, eta) == pytest.approx(expect, rel=1e-12)
        assert metrics.closed_form_log_negativity(r, eta).value == pytest.approx(
            2 * expect, rel=1e-12)

    def test_limits(self):
        assert metrics.effective_squeezing(0.7, 1.0) == pytest.approx(0.7, rel=1e-12)
        assert metrics.effective_squeezing(0.7, 0.0) == 0.0
        assert metrics.effective_squeezing(0.0, 0.9) == 0.0

    def test_monotone_in_both_arguments(self):
        rs = np.linspace(0.0, 1.2, 7)
        vals = [metrics.effective_squeezing(r, 0.6) for r in rs]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        etas = np.linspace(0.1, 1.0, 7)
        vals = [metrics.effective_squeezing(0.5, e) for e in etas]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            metrics.effective_squeezing(-0.1, 0.5)
        with pytest.raises(ValueError):
            metrics.effective_squeezing(0.5, 1.5)

    def test_rejects_nan_squeezing(self):
        # NaN fails every comparison, so a `< 0` test let it through
        with pytest.raises(ValueError, match="^squeezing must be finite and "
                                             ">= 0, got nan$"):
            metrics.effective_squeezing(math.nan, 0.5)


class TestSymplectic:
    def test_form_blocks(self):
        omega = metrics.symplectic_form(2)
        expect = np.array([[0, 1, 0, 0], [-1, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
        np.testing.assert_allclose(omega, expect)

    def test_vacuum_and_thermal_eigenvalues(self):
        assert metrics.symplectic_eigenvalues(np.eye(4)) == pytest.approx([1.0, 1.0])
        cm = np.diag([3.0, 3.0, 1.0, 1.0])  # n = 1 thermal x vacuum
        np.testing.assert_allclose(metrics.symplectic_eigenvalues(cm), [1.0, 3.0],
                                   atol=1e-12)

    def test_tmsv_is_pure(self):
        nu = metrics.symplectic_eigenvalues(tmsv_cm(0.9))
        np.testing.assert_allclose(nu, [1.0, 1.0], atol=1e-10)


class TestGaussianNegativity:
    def test_tmsv_matches_2r(self):
        for r in (0.1, 0.5, 1.3):
            en = metrics.log_negativity_gaussian(tmsv_cm(r))
            assert en.value == pytest.approx(2 * r, rel=1e-10)
            assert en.method == "gaussian_symplectic"

    def test_vacuum_is_zero(self):
        assert metrics.log_negativity_gaussian(np.eye(4)).value == \
            pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_fock_route(self):
        # dual-route check on the same physical state
        r = 0.45
        en_g = metrics.log_negativity_gaussian(tmsv_cm(r)).value
        en_f = metrics.log_negativity_fock(tmsv_table(30, r)).value
        assert en_f == pytest.approx(en_g, abs=1e-6)

    def test_rejects_asymmetric(self):
        cm = np.eye(4)
        cm[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetric"):
            metrics.log_negativity_gaussian(cm)
        cm[0, 1] = cm[1, 0] = np.nan
        with pytest.raises(ValueError, match="asymmetric by nan"):
            metrics.log_negativity_gaussian(cm)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError, match="unphysical"):
            metrics.log_negativity_gaussian(0.5 * np.eye(4))

    @pytest.mark.parametrize("r", [6.0, 8.0, 10.0])
    def test_one_uncertainty_test_for_every_route(self, r):
        # the exact squeezed vacuum sits on the boundary of physical
        # states; at r = 8 roundoff puts min eig of V + i*Omega at -2e-9,
        # against max |V| = 4.4e6, and both routes must read it as physical
        cm = tmsv_cm(r)
        metrics.log_negativity_gaussian(cm)
        moments.CovarianceState(np.zeros(4), cm)
        for reject in (lambda v: metrics.log_negativity_gaussian(v),
                       lambda v: moments.CovarianceState(np.zeros(4), v)):
            with pytest.raises(ValueError, match="unphysical"):
                reject(0.5 * np.eye(4))

    def test_needs_two_modes(self):
        with pytest.raises(ValueError, match="at least two modes"):
            metrics.log_negativity_gaussian(np.eye(2))

    # the exact squeezed vacuum's E_N is 2r; measured errors 1.7e-11 at
    # r = 3 and 1.1e-6 at r = 6, bands set above those
    @pytest.mark.parametrize("r, tol", [
        (3.0, 1e-9),
        (6.0, 2e-6),
        pytest.param(8.0, 2e-6, marks=pytest.mark.xfail(strict=True, reason=(
            "most of the 7.3e-3 error is in the stored covariance: the exact "
            "E_N of the float64 tmsv_cm(8) is 16.0069 (mpmath at 80 digits, "
            "nu_min = 1.1176e-7), and eigvals of i*Omega*V reads 16.0073"))),
    ])
    def test_strong_squeezing_reads_2r(self, r, tol):
        assert abs(metrics.log_negativity_gaussian(tmsv_cm(r)).value
                   - 2.0 * r) <= tol
