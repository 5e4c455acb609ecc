"""Moment-equation integrator tests.

The independent reference for the integrator is the closed Lyapunov
solution of dV/dt = A V + V A^T + D for constant A, D, evaluated through
the eigendecomposition of A (elementwise in the eigenbasis, with expm1
for the stiff small-rate limit).
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from magnomech import metrics, moments, propagators, protocol

TWO_PI = 2.0 * math.pi
KAPPA = TWO_PI * 500e6

# pulse areas of the default transfer and entangling magnon pulses
AREA_TRANSFER = 2.0 * (TWO_PI * 10e6) ** 2 * 40e-9 / KAPPA
AREA_ENTANGLE = 2.0 * (TWO_PI * 10e6) ** 2 * 30e-9 / KAPPA
# the pulses themselves, as validate_adiabatic takes them
PULSE_TRANSFER = propagators.PulseSpec(TWO_PI * 10e6, KAPPA, 40e-9)
PULSE_ENTANGLE = propagators.PulseSpec(TWO_PI * 10e6, KAPPA, 30e-9)


def lyapunov_solution(a, d, v0, t):
    """V(t) for constant drift/diffusion via the eigenbasis of the drift."""
    lam, p = np.linalg.eig(a)
    pinv = np.linalg.inv(p)
    d_eig = pinv @ d @ pinv.T
    rates = lam[:, None] + lam[None, :]
    # expm1 keeps accuracy when |rate * t| is tiny; the degenerate
    # rate -> 0 entry tends to t
    safe = np.where(rates == 0, 1.0, rates)
    phi = np.where(np.abs(rates) > 1e-30, np.expm1(rates * t) / safe, t)
    eat = p @ np.diag(np.exp(lam * t)) @ pinv
    return (eat @ v0 @ eat.T + p @ (d_eig * phi) @ p.T).real


def unstable_drift():
    """Blue-detuned optomechanics, (c, b^dag) coupled at G = 0.4 kappa.

    Unstable once 4 G^2 > kappa * gamma, here with no mechanical damping:
    the covariance grows e-fold per 0.72 ns and passes the blowup bound of
    1e12 near 20 ns.
    """
    g = 0.4 * KAPPA
    drift = np.diag([-KAPPA / 2.0, -KAPPA / 2.0, 0.0, 0.0]) \
        + g * np.fliplr(np.eye(4))
    return moments.DriftDiffusion(drift, np.diag([KAPPA, KAPPA, 0.0, 0.0]))


def hand_written_drift(kind, kappa, g, gm):
    """Quadrature drift of the static kinds, placed sign by sign."""
    a = np.diag([-kappa / 2.0, -kappa / 2.0, -gm / 2.0, -gm / 2.0])
    signs = {
        # da/dt = -k/2 a - iG m ; dm/dt = -gm/2 m - iG a
        "magnonic_antistokes": (1.0, -1.0, 1.0, -1.0),
        # da/dt = -k/2 a - iG m^dag ; dm/dt = -gm/2 m - iG a^dag
        "magnonic_stokes": (-1.0, -1.0, -1.0, -1.0),
        # dc/dt = -k/2 c + iG b ; db/dt = -gm/2 b + iG c
        "optomech_red_rwa": (-1.0, 1.0, -1.0, 1.0),
    }[kind]
    for (row, col), sign in zip(((0, 3), (1, 2), (2, 1), (3, 0)), signs):
        a[row, col] = sign * g
    return a


def interaction_picture_drift(kappa, gamma, g, mech_freq, detuning):
    """Full optomechanical moments in the frame rotating with both modes.

    c and b rotate at ``detuning`` and ``mech_freq``, so the coupling
    terms carry the phases exp(+-i(detuning -+ mech_freq) t) and the drift
    is time-dependent; every entry is placed by hand.
    """
    decay = np.diag([-kappa / 2.0, -kappa / 2.0, -gamma / 2.0, -gamma / 2.0])

    def drift(t):
        a = decay.copy()
        # dc/dt += iG [ b e^{i(delta-wm)t} + b^dag e^{i(delta+wm)t} ]
        lam_minus = g * np.exp(1j * (detuning - mech_freq) * t)   # on b
        lam_plus = g * np.exp(1j * (detuning + mech_freq) * t)    # on b^dag
        a[0, 2] += -lam_minus.imag - lam_plus.imag
        a[0, 3] += -lam_minus.real + lam_plus.real
        a[1, 2] += lam_minus.real + lam_plus.real
        a[1, 3] += -lam_minus.imag + lam_plus.imag
        # db/dt += iG [ c e^{-i(delta-wm)t} + c^dag e^{i(delta+wm)t} ]
        mu_minus = g * np.exp(-1j * (detuning - mech_freq) * t)  # on c
        mu_plus = g * np.exp(1j * (detuning + mech_freq) * t)    # on c^dag
        a[2, 0] += -mu_minus.imag - mu_plus.imag
        a[2, 1] += -mu_minus.real + mu_plus.real
        a[3, 0] += mu_minus.real + mu_plus.real
        a[3, 1] += -mu_minus.imag + mu_plus.imag
        return a

    return moments.DriftDiffusion(drift, np.diag([kappa, kappa, gamma, gamma]))


def rotation(angles):
    """Quadrature rotation taking each mode a to a exp(i angle)."""
    r = np.zeros((2 * len(angles), 2 * len(angles)))
    for k, phi in enumerate(angles):
        c, s = math.cos(phi), math.sin(phi)
        r[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    return r


class TestCovarianceState:
    def test_vacuum(self):
        s = moments.CovarianceState.vacuum(2)
        assert s.n_modes == 2
        np.testing.assert_array_equal(s.mean, np.zeros(4))
        np.testing.assert_array_equal(s.cm, np.eye(4))
        assert s.occupation(0) == 0.0

    def test_thermal_occupation(self):
        s = moments.CovarianceState.thermal([0.0, 2.5])
        assert s.occupation(0) == pytest.approx(0.0, abs=1e-15)
        assert s.occupation(1) == pytest.approx(2.5)

    def test_occupation_includes_displacement(self):
        s = moments.CovarianceState([2.0, 0.0], np.eye(2))
        # coherent state alpha: mean x = 2 alpha, <n> = |alpha|^2
        assert s.occupation(0) == pytest.approx(1.0)

    def test_block_extracts_modes(self):
        cm = np.diag([1.0, 1.0, 3.0, 3.0, 5.0, 5.0])
        s = moments.CovarianceState(np.arange(6.0), cm)
        sub = s.block([2, 0])
        np.testing.assert_array_equal(sub.mean, [4.0, 5.0, 0.0, 1.0])
        np.testing.assert_array_equal(sub.cm, np.diag([5.0, 5.0, 1.0, 1.0]))

    def test_asymmetric_rejected(self):
        cm = np.eye(2)
        cm[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetric"):
            moments.CovarianceState(np.zeros(2), cm)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            moments.CovarianceState(np.zeros(2), 0.1 * np.eye(2))

    @pytest.mark.parametrize("check", [True, False])
    def test_non_finite_rejected(self, check):
        # a ValueError, not numpy's LinAlgError from the uncertainty test
        cm = np.eye(2)
        cm[0, 0] = math.nan
        with pytest.raises(ValueError, match="asymmetric by nan"):
            moments.CovarianceState(np.zeros(2), cm, check=check)
        with pytest.raises(ValueError, match="mean must be finite"):
            moments.CovarianceState([math.inf, 0.0], np.eye(2), check=check)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            moments.CovarianceState(np.zeros(3), np.eye(3))


class TestBuildDrift:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown drift kind"):
            moments.build_drift("bogus", cavity_linewidth=1.0, coupling=0.1)

    def test_full_model_needs_frequencies(self):
        with pytest.raises(ValueError, match="mech_freq and detuning"):
            moments.build_drift("optomech_full", cavity_linewidth=1.0,
                                coupling=0.1)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            moments.build_drift("magnonic_antistokes", cavity_linewidth=1.0,
                                coupling=-0.1)
        with pytest.raises(ValueError, match="cavity_linewidth"):
            moments.build_drift("magnonic_antistokes", cavity_linewidth=0.0,
                                coupling=0.1)

    @pytest.mark.parametrize("kind", ["magnonic_antistokes", "optomech_red_rwa"])
    def test_beamsplitter_kinds_preserve_vacuum(self, kind):
        dd = moments.build_drift(kind, cavity_linewidth=KAPPA,
                                 coupling=0.02 * KAPPA)
        out = moments.integrate(moments.CovarianceState.vacuum(2), dd, 40e-9,
                                moments.default_timestep(KAPPA))
        np.testing.assert_allclose(out.cm, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("kind", ["magnonic_stokes"])
    def test_parametric_kinds_grow_from_vacuum(self, kind):
        dd = moments.build_drift(kind, cavity_linewidth=KAPPA,
                                 coupling=0.02 * KAPPA)
        out = moments.integrate(moments.CovarianceState.vacuum(2), dd, 40e-9,
                                moments.default_timestep(KAPPA))
        assert out.occupation(0) > 1e-3
        assert out.occupation(1) > 1e-3

    @pytest.mark.parametrize("kind", ["magnonic_antistokes", "magnonic_stokes",
                                      "optomech_red_rwa"])
    def test_static_kinds_match_hand_written_tables(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(10):
            kappa, g, gm = rng.uniform(0.1, 10.0, 3)
            dd = moments.build_drift(kind, cavity_linewidth=kappa, coupling=g,
                                     matter_linewidth=gm)
            np.testing.assert_array_equal(dd.drift,
                                          hand_written_drift(kind, kappa, g, gm))

    @pytest.mark.parametrize("detuning_over_mech", [1.0, 0.8],
                             ids=["red_sideband", "off_sideband"])
    def test_full_model_lab_frame_matches_interaction_picture(
            self, detuning_over_mech):
        # band, fixed before the run: DOP853 at rtol 1e-10 over a 2 ns
        # pulse (about 20 counter-rotating periods) keeps its own error
        # near 1e-10 relative, so the occupations agree within 1e-9 and
        # the covariance, rotated into the interaction frame, within 1e-8
        kappa, gamma = TWO_PI * 1.3e9, TWO_PI * 4.8e3
        g, wm = TWO_PI * 50e6, TWO_PI * 5.3e9
        delta, duration = detuning_over_mech * wm, 2e-9
        init = moments.CovarianceState.thermal([0.0, 1.0])
        lab = moments.build_drift("optomech_full", cavity_linewidth=kappa,
                                  coupling=g, matter_linewidth=gamma,
                                  mech_freq=wm, detuning=delta)
        assert lab.is_static
        exact = moments.propagate_static(init, lab, duration)
        ref = interaction_picture_drift(kappa, gamma, g, wm, delta)

        def rhs(t, y):
            v = y.reshape(4, 4)
            a = ref.drift_at(t)
            return (a @ v + v @ a.T + ref.diffusion_at(t)).reshape(-1)

        sol = solve_ivp(rhs, (0.0, duration), init.cm.reshape(-1),
                        method="DOP853", rtol=1e-10, atol=1e-12)
        assert sol.success
        v_ref = sol.y[:, -1].reshape(4, 4)
        for mode in (0, 1):
            x, p = 2 * mode, 2 * mode + 1
            occ_ref = (v_ref[x, x] + v_ref[p, p] - 2.0) / 4.0
            assert abs(exact.occupation(mode) - occ_ref) < 1e-9
        # the interaction frame carries c exp(i delta t), b exp(i wm t)
        r = rotation([delta * duration, wm * duration])
        assert np.max(np.abs(r @ exact.cm @ r.T - v_ref)) < 1e-8


class TestIntegrate:
    @pytest.mark.parametrize("ratio,tol", [(0.02, 1e-12), (0.1, 1e-7)])
    def test_matches_closed_lyapunov_antistokes(self, ratio, tol):
        g = ratio * KAPPA
        tau = AREA_TRANSFER / (2.0 * g * g / KAPPA)
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=KAPPA,
                                 coupling=g, matter_linewidth=TWO_PI * 1e6)
        init = moments.CovarianceState.thermal([0.0, 1.0])
        out = moments.integrate(init, dd, tau,
                                moments.default_timestep(KAPPA, 2.0 * g * g / KAPPA))
        ref = lyapunov_solution(dd.drift, dd.diffusion, init.cm, tau)
        assert np.max(np.abs(out.cm - ref)) < tol

    def test_matches_closed_lyapunov_stokes(self):
        g = 0.02 * KAPPA
        tau = AREA_ENTANGLE / (2.0 * g * g / KAPPA)
        dd = moments.build_drift("magnonic_stokes", cavity_linewidth=KAPPA,
                                 coupling=g)
        init = moments.CovarianceState.vacuum(2)
        out = moments.integrate(init, dd, tau, moments.default_timestep(KAPPA))
        ref = lyapunov_solution(dd.drift, dd.diffusion, init.cm, tau)
        assert np.max(np.abs(out.cm - ref)) < 1e-12

    def test_step_halving_converges(self):
        g = 0.1 * KAPPA
        tau = AREA_TRANSFER / (2.0 * g * g / KAPPA)
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=KAPPA,
                                 coupling=g)
        init = moments.CovarianceState.thermal([0.0, 1.0])
        dt = moments.default_timestep(KAPPA)
        coarse = moments.integrate(init, dd, tau, dt)
        fine = moments.integrate(init, dd, tau, dt / 2.0)
        assert np.max(np.abs(coarse.cm - fine.cm)) < 1e-6

    def test_default_step_sits_near_exact_propagation(self):
        # criterion 9's set-up.  RK4 at the default step reads 6.0e-11 from
        # the exact moments; the error grows as dt^4, so a doubled step
        # (DT_SAFETY 0.1) reads 9.3e-10 and leaves the 3e-10 band
        g = 0.1 * KAPPA
        tau = PULSE_TRANSFER.pulse_area / (2.0 * g * g / KAPPA)
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=KAPPA,
                                 coupling=g)
        init = moments.CovarianceState.thermal([0.0, 1.0])
        rk4 = moments.integrate(init, dd, tau, moments.default_timestep(KAPPA))
        exact = moments.propagate_static(init, dd, tau)
        assert abs(rk4.occupation(1) - exact.occupation(1)) < 3e-10

    def test_argument_validation(self):
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=1.0,
                                 coupling=0.1)
        init = moments.CovarianceState.vacuum(2)
        with pytest.raises(ValueError, match="duration"):
            moments.integrate(init, dd, 0.0, 0.1)
        with pytest.raises(ValueError, match="dt"):
            moments.integrate(init, dd, 1.0, 0.0)

    def test_blowup_raises(self):
        dd = unstable_drift()
        init = moments.CovarianceState.vacuum(2)
        with pytest.raises(RuntimeError, match="blew up"):
            moments.integrate(init, dd, 30e-9, moments.default_timestep(KAPPA),
                              check_uncertainty=False)

    def test_blowup_raises_with_uncertainty_check(self):
        # the roundoff allowance of the uncertainty test scales with
        # max |V|, so the run reaches the blowup bound instead of reading
        # roundoff on entries near 1e10 as unphysical
        dd = unstable_drift()
        init = moments.CovarianceState.vacuum(2)
        with pytest.raises(RuntimeError, match="blew up"):
            moments.integrate(init, dd, 30e-9, moments.default_timestep(KAPPA))

    def test_calls_each_callable_once_per_stage_time(self):
        # three distinct stage times per step (t, t + h/2, t + h), so three
        # calls of each callable; constant callables give the static bits
        static = moments.build_drift("magnonic_antistokes",
                                     cavity_linewidth=KAPPA, coupling=0.1 * KAPPA)
        calls = {"drift": 0, "diffusion": 0}

        def counted(name, matrix):
            def at(t):
                calls[name] += 1
                return matrix
            return at

        dd = moments.DriftDiffusion(counted("drift", static.drift),
                                    counted("diffusion", static.diffusion))
        init = moments.CovarianceState(np.array([0.3, -0.1, 0.2, 0.05]),
                                       np.diag([1.0, 1.0, 3.0, 3.0]))
        n_steps, dt = 37, moments.default_timestep(KAPPA)
        out = moments.integrate(init, dd, n_steps * dt, dt)
        assert calls == {"drift": 3 * n_steps, "diffusion": 3 * n_steps}
        ref = moments.integrate(init, static, n_steps * dt, dt)
        np.testing.assert_array_equal(out.cm, ref.cm)
        np.testing.assert_array_equal(out.mean, ref.mean)

    @pytest.mark.parametrize("check", [False, True])
    def test_blowup_names_the_first_step_past_the_bound(self, check):
        # A = lam I, D = 0: each RK4 step multiplies V = I by
        # g = 1 + z + z^2/2 + z^3/6 + z^4/24 with z = 2 lam h, so V passes
        # the bound first at step k = ceil(log(bound) / log(g)), between
        # two uncertainty checks
        lam, h, n_steps = 1.0, 0.01, 2000
        z = 2.0 * lam * h
        g = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        k = math.ceil(math.log(moments._NORM_BOUND) / math.log(g))
        assert g ** (k - 1) < moments._NORM_BOUND / 1.001   # far from
        assert g ** k > moments._NORM_BOUND * 1.001          # the bound
        assert k % moments._CHECK_EVERY and k < n_steps
        dd = moments.DriftDiffusion(lam * np.eye(2), np.zeros((2, 2)))
        init = moments.CovarianceState.vacuum(1)
        with pytest.raises(RuntimeError, match=rf"^covariance blew up at RK4 "
                                               rf"step {k}/{n_steps} of 0\.01 s"):
            moments.integrate(init, dd, n_steps * h, h, check_uncertainty=check)

    def test_mean_leaves_the_covariance_bits(self):
        # the mean rides in the border of one moment matrix; the covariance
        # block never reads it, so a nonzero mean gives the same bits
        dd = moments.stokes_capture_drift(KAPPA, 0.02 * KAPPA, 30e-9)
        cm = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        dt = moments.default_timestep(KAPPA)
        runs = [moments.integrate(moments.CovarianceState(mean, cm, check=False),
                                  dd, 3e-9, dt, check_uncertainty=False)
                for mean in (np.zeros(6), [0.3, -0.1, 0.2, 0.05, 0.0, -0.4])]
        np.testing.assert_array_equal(runs[0].cm, runs[1].cm)
        np.testing.assert_array_equal(runs[0].mean, np.zeros(6))
        assert np.all(runs[1].mean[:4] != [0.3, -0.1, 0.2, 0.05])

    def test_large_mean_does_not_trip_the_blowup_check(self):
        # the blowup bound is on the covariance block only: a finite mean
        # past it (here held fixed by A = 0, D = 0) integrates unchanged
        mean = np.array([1e13, -1e13])
        assert np.all(np.abs(mean) > moments._NORM_BOUND)
        dd = moments.DriftDiffusion(np.zeros((2, 2)), np.zeros((2, 2)))
        out = moments.integrate(moments.CovarianceState(mean, np.eye(2)), dd,
                                10 * 0.01, 0.01)
        np.testing.assert_array_equal(out.mean, mean)
        np.testing.assert_array_equal(out.cm, np.eye(2))

    def test_nan_drift_raises_at_the_first_step_that_reads_it(self):
        # steps read t, t + h/2 and t + h; NaN from t* = 10.3 h on is first
        # read at t + h/2 of the step from 10 h, which is step 11
        h, a = 0.01, -0.5 * np.eye(2)
        nan = np.full((2, 2), np.nan)
        dd = moments.DriftDiffusion(lambda t: nan if t >= 10.3 * h else a,
                                    np.eye(2))
        init = moments.CovarianceState.vacuum(1)
        with pytest.raises(RuntimeError, match=r"^covariance blew up at RK4 "
                                               r"step 11/100 "):
            moments.integrate(init, dd, 100 * h, h)

    def test_uncertainty_violation_raises(self):
        # pure contraction with no diffusion squeezes below vacuum
        dd = moments.DriftDiffusion(-np.eye(2), np.zeros((2, 2)))
        init = moments.CovarianceState.vacuum(1)
        with pytest.raises(RuntimeError, match="unphysical"):
            moments.integrate(init, dd, 10.0, 0.01)

    def test_default_timestep(self):
        assert moments.default_timestep(10.0, 2.0, 0.0) == pytest.approx(
            moments.DT_SAFETY / 10.0)
        with pytest.raises(ValueError):
            moments.default_timestep(0.0)


def random_physical_drift(rng):
    """Stable two-mode drift A = Omega H - gamma/2 and thermal diffusion.

    H is a random symmetric Hamiltonian scaled to unit spectral radius of
    Omega H, and the common damping gamma exceeds twice its largest growth
    rate.  D = gamma (2 nbar + 1) >= gamma keeps the dynamics physical.
    """
    h = rng.standard_normal((4, 4))
    ham = metrics.symplectic_form(2) @ (h + h.T)
    ham /= np.max(np.abs(np.linalg.eigvals(ham)))
    growth = float(np.max(np.linalg.eigvals(ham).real))
    gamma = 2.0 * growth + rng.uniform(0.5, 2.0)
    nbar = np.repeat(rng.uniform(0.0, 1.0, 2), 2)
    return moments.DriftDiffusion(ham - gamma / 2.0 * np.eye(4),
                                  np.diag(gamma * (2.0 * nbar + 1.0)))


class TestPropagateStatic:
    def test_matches_rk4_on_random_stable_drifts(self):
        # band, fixed before the run: rates here are at most ~4, so RK4 at
        # dt = 0.02 sits within 1e-5 of the exact moments, and halving dt
        # shrinks that gap by 2^4 = 16 up to O(dt) corrections: in (12, 20)
        rng = np.random.default_rng(37)
        duration, dt = 2.0, 0.02
        for _ in range(5):
            dd = random_physical_drift(rng)
            init = moments.CovarianceState(rng.uniform(-2.0, 2.0, 4),
                                           np.diag([1.5, 1.5, 2.0, 2.0]))
            exact = moments.propagate_static(init, dd, duration)
            coarse = moments.integrate(init, dd, duration, dt)
            fine = moments.integrate(init, dd, duration, dt / 2.0)
            for field in ("cm", "mean"):
                gap = np.max(np.abs(getattr(coarse, field)
                                    - getattr(exact, field)))
                gap_fine = np.max(np.abs(getattr(fine, field)
                                         - getattr(exact, field)))
                assert gap < 1e-5
                assert 12.0 < gap / gap_fine < 20.0

    @pytest.mark.parametrize("ratio", [0.005, 0.1])
    def test_matches_closed_lyapunov(self, ratio):
        g = ratio * KAPPA
        tau = AREA_TRANSFER / (2.0 * g * g / KAPPA)
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=KAPPA,
                                 coupling=g, matter_linewidth=TWO_PI * 1e6)
        init = moments.CovarianceState.thermal([0.0, 1.0])
        out = moments.propagate_static(init, dd, tau)
        ref = lyapunov_solution(dd.drift, dd.diffusion, init.cm, tau)
        assert np.max(np.abs(out.cm - ref)) < 1e-11

    def test_zero_coupling_zero_matter_linewidth(self):
        # the drift is singular (the magnon neither couples nor decays), so
        # a steady-state route has nothing to solve; the magnon block must
        # stay exactly where it started and the cavity relax to vacuum
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=KAPPA,
                                 coupling=0.0)
        magnon = np.array([[4.0, 0.5], [0.5, 0.5]])
        cm = np.eye(4)
        cm[:2, :2] = 5.0 * np.eye(2)
        cm[2:, 2:] = magnon
        init = moments.CovarianceState([1.0, -2.0, 1.5, -0.5], cm)
        out = moments.propagate_static(init, dd, 60.0 / KAPPA)
        np.testing.assert_array_equal(out.cm[2:, 2:], magnon)
        np.testing.assert_array_equal(out.mean[2:], [1.5, -0.5])
        np.testing.assert_array_equal(out.cm[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_allclose(out.cm[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(out.mean[:2], 0.0, atol=1e-12)

    def test_unstable_drift_blows_up(self):
        dd = unstable_drift()
        with pytest.raises(RuntimeError, match="blew up"):
            moments.propagate_static(moments.CovarianceState.vacuum(2), dd,
                                     30e-9)

    def test_contraction_without_diffusion_is_unphysical(self):
        dd = moments.DriftDiffusion(-np.eye(2), np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="unphysical"):
            moments.propagate_static(moments.CovarianceState.vacuum(1), dd,
                                     10.0)

    def test_argument_validation(self):
        init = moments.CovarianceState.vacuum(2)
        dd = moments.build_drift("magnonic_antistokes", cavity_linewidth=1.0,
                                 coupling=0.1)
        with pytest.raises(ValueError, match="duration"):
            moments.propagate_static(init, dd, 0.0)
        timedep = interaction_picture_drift(1.0, 0.0, 0.1, 5.0, 5.0)
        with pytest.raises(ValueError, match="constant"):
            moments.propagate_static(init, timedep, 1.0)


class TestValidateAdiabatic:
    """Frozen sweep values; the propagation is deterministic."""

    def test_antistokes_rows(self):
        rows = moments.validate_adiabatic(PULSE_TRANSFER, (0.005, 0.02, 0.1))
        expected = [
            (0.005, 0.181991040929, 0.000808062832202),
            (0.02, 0.179771076027, 0.0129964157285),
            (0.1, 0.121437201325, 0.333268979523),
        ]
        closed = 0.182138220055
        for row, (ratio, integ, err) in zip(rows, expected):
            assert row.coupling_ratio == ratio
            assert row.value_closed_form == pytest.approx(closed, rel=1e-9)
            assert row.value_integrated == pytest.approx(integ, rel=1e-9)
            assert row.rel_error == pytest.approx(err, rel=1e-6)

    def test_stokes_rows(self):
        rows = moments.validate_adiabatic(PULSE_ENTANGLE, (0.005, 0.02, 0.1),
                                          process="stokes")
        expected = [
            (0.005, 0.162509953657, 0.00153598897973),
            (0.02, 0.158781106355, 0.0244460923291),
            (0.1, 0.0855501610062, 0.474378307423),
        ]
        closed = 0.162759951148
        for row, (ratio, integ, err) in zip(rows, expected):
            assert row.coupling_ratio == ratio
            assert row.value_closed_form == pytest.approx(closed, rel=1e-9)
            assert row.value_integrated == pytest.approx(integ, rel=1e-9)
            assert row.rel_error == pytest.approx(err, rel=1e-6)

    def test_error_grows_with_coupling(self):
        for process in ("antistokes", "stokes"):
            rows = moments.validate_adiabatic(PULSE_TRANSFER,
                                              (0.005, 0.02, 0.1),
                                              process=process)
            errs = [row.rel_error for row in rows]
            assert errs == sorted(errs)

    def test_validation(self):
        with pytest.raises(ValueError, match="process"):
            moments.validate_adiabatic(PULSE_TRANSFER, (0.02,), process="raman")
        # a coupling whose square underflows: the area reads 0
        zero_area = propagators.PulseSpec(1e-170, KAPPA, 40e-9)
        with pytest.raises(ValueError, match="pulse_area"):
            moments.validate_adiabatic(zero_area, (0.02,))
        with pytest.raises(ValueError, match="coupling_ratios"):
            moments.validate_adiabatic(PULSE_TRANSFER, (-0.02,))

    # NaN fails every comparison, so a NaN argument once slipped past a
    # `<= 0` test: each is now rejected under its own name.  A pulse area
    # is NaN only through a NaN field, which PulseSpec names.
    def test_nan_pulse_area_is_named(self):
        with pytest.raises(ValueError,
                           match="^duration must be finite and > 0, got nan$"):
            moments.validate_adiabatic(
                propagators.PulseSpec(TWO_PI * 10e6, KAPPA, math.nan), (0.1,))

    def test_nan_coupling_ratio_is_named(self):
        with pytest.raises(ValueError, match="^coupling_ratios must be finite "
                                             "and > 0, got nan$"):
            moments.validate_adiabatic(PULSE_TRANSFER, (math.nan,))


def mech_route_error(ratio):
    """Relative gap between the mechanical pulse's W and the exact
    ``optomech_red_rwa`` moments at G = ratio * kappa, with no mechanical
    damping and the duration that keeps the pulse's area."""
    pulse = protocol.default_transfer_scenario().mech_pulse
    rung = dataclasses.replace(pulse, coupling=ratio * pulse.cavity_linewidth)
    rung = dataclasses.replace(rung,
                               duration=pulse.pulse_area / rung.adiabatic_rate)
    dd = moments.build_drift("optomech_red_rwa",
                             cavity_linewidth=pulse.cavity_linewidth,
                             coupling=rung.coupling)
    final = moments.propagate_static(moments.CovarianceState.thermal([0.0, 1.0]),
                                     dd, rung.duration)
    w = propagators.conversion_efficiency(pulse)
    return abs(1.0 - final.occupation(1) - w) / w


def magnon_route_error(process):
    """validate_adiabatic's relative error at G/kappa = 1e-3 for the
    reference transfer (anti-Stokes, 40 ns) or writing (Stokes, 30 ns)
    magnon pulse."""
    scenario = protocol.default_transfer_scenario() if process == "antistokes" \
        else protocol.default_entanglement_scenario()
    row, = moments.validate_adiabatic(scenario.magnon_pulse, (1e-3,),
                                      process=process)
    return row.rel_error


# the route bands, stated in TestPulseMapRoute
MAGNON_ROUTE_BAND = 2e-4
MECH_ROUTE_BAND = 1e-6


# 1% errors in the pulse map the Fock engine reads
def m10_squeezing(pulse):   # the area taken 1% too large
    return float(np.arccosh(np.exp(1.01 * pulse.pulse_area)))


def m11_conversion(pulse):   # 2.02 for 2 in the exponent
    return float(-np.expm1(-2.02 * pulse.pulse_area))


class TestPulseMapRoute:
    """The moment route holds the engine's S, W and r in the adiabatic limit.

    Cavity elimination errs by a relative amount that falls as (G/kappa)^2,
    so at G/kappa = 1e-3 the route resolves errors in the map far below 1%.
    Bands, fixed before the run from that law: the magnon pulses read
    8.1e-4 (anti-Stokes) and 1.5e-3 (Stokes) at G/kappa = 0.005, which
    predicts 3.2e-5 and 6.1e-5 at 1e-3, so 2e-4 holds both; the mechanical
    pulse reads 7.94e-5 at 0.02 and 1.98e-5 at 0.01, 0.198 (G/kappa)^2,
    which predicts 2.0e-7 at 1e-3, so 1e-6 holds it.
    """

    @pytest.mark.parametrize("process", ["antistokes", "stokes"])
    def test_magnon_map_matches_the_moment_route(self, process):
        assert magnon_route_error(process) < MAGNON_ROUTE_BAND

    def test_mech_map_matches_the_moment_route(self):
        assert mech_route_error(1e-3) < MECH_ROUTE_BAND

    def test_mech_error_falls_as_coupling_squared(self):
        assert 3.6 < mech_route_error(0.02) / mech_route_error(0.01) < 4.4

    # each check fails on a 1% error in the map it reads, so the map is
    # held by a route comparison and not only by pinned values
    @pytest.mark.parametrize("attr, mutant, error, band", [
        ("conversion_efficiency", m11_conversion,
         lambda: magnon_route_error("antistokes"), MAGNON_ROUTE_BAND),
        ("conversion_efficiency", m11_conversion,
         lambda: mech_route_error(1e-3), MECH_ROUTE_BAND),
        ("squeezing_parameter", m10_squeezing,
         lambda: magnon_route_error("stokes"), MAGNON_ROUTE_BAND),
    ], ids=["M11-antistokes", "M11-mech", "M10-stokes"])
    def test_perturbed_map_fails_the_route(self, monkeypatch, attr, mutant,
                                           error, band):
        assert error() < band
        monkeypatch.setattr(propagators, attr, mutant)
        assert not error() < band


class TestRwaComparison:
    def test_mechanical_pulse(self):
        cmp = moments.compare_optomech_rwa(
            cavity_linewidth=TWO_PI * 1.3e9, mech_damping=TWO_PI * 4.8e3,
            coupling=TWO_PI * 50e6, mech_freq=TWO_PI * 5.3e9, duration=55e-9)
        assert cmp.occupation_rwa == pytest.approx(0.0696797698085, rel=1e-9)
        # the full model is propagated exactly; DOP853 at rtol 1e-12 on
        # interaction_picture_drift reads 0.0739131381397 at 55 ns
        assert cmp.occupation_full == pytest.approx(0.0739131381392, rel=1e-9)
        assert cmp.rel_difference == pytest.approx(0.0607545792202, rel=1e-6)
        # RWA result also tracks the closed-form residual exp(-2 area)
        area = 2.0 * (TWO_PI * 50e6) ** 2 * 55e-9 / (TWO_PI * 1.3e9)
        assert cmp.occupation_rwa == pytest.approx(math.exp(-2.0 * area),
                                                   rel=0.01)


class TestTemporalModeCapture:
    def test_filter_weight_is_the_normalized_growing_profile(self):
        # the filter weight f enters the capture diffusion as f^2: it is
        # the growing Stokes output profile N exp(G t), G = 2 g^2 / kappa,
        # of unit norm on the pulse
        g, tau = TWO_PI * 10e6, 40e-9
        dd = moments.stokes_capture_drift(KAPPA, g, tau)
        s = np.linspace(0.0, tau, 20001)
        f2 = np.array([dd.diffusion_at(t)[4, 4] for t in s])
        assert np.trapezoid(f2, s) == pytest.approx(1.0, rel=1e-8)
        np.testing.assert_allclose(
            f2, f2[0] * np.exp(4.0 * g**2 / KAPPA * s), rtol=1e-12)
        # the drift feeds sqrt(kappa) f of the cavity into the filter
        assert dd.drift_at(tau)[4, 0] ** 2 == pytest.approx(KAPPA * f2[-1],
                                                           rel=1e-12)
        # no coupling or no pulse, or a pulse area that underflows: there
        # is no output profile to capture
        for g, tau, name in ((0.0, 40e-9, "coupling"),
                             (TWO_PI * 10e6, 0.0, "duration"),
                             (1e-170, 40e-9, r"exp\(2 G tau\) - 1"),
                             (TWO_PI * 10e6, 1e-320, r"exp\(2 G tau\) - 1")):
            with pytest.raises(ValueError, match=f"^{name} must be finite "
                                                 "and > 0, got 0.0$"):
                moments.stokes_capture_drift(KAPPA, g, tau)
        # nor when exp(2 G tau) overflows (once an OverflowError)
        with pytest.raises(ValueError, match=r"^exp\(2 G tau\) - 1 must be "
                                             "finite and > 0, got inf$"):
            moments.stokes_capture_drift(KAPPA, 0.02 * KAPPA, 1e-3)

    @pytest.mark.parametrize("ratio", [0.02, 0.005])
    def test_matches_adaptive_integration_of_its_own_drift(self, ratio):
        # route check: DOP853 at rtol = atol = 1e-12 on the drift and
        # diffusion of stokes_capture_drift itself, at the pulse area of the
        # default entangling pulse; the (magnon, capture) block must agree
        # within 1e-10
        tol = 1e-10
        g = ratio * KAPPA
        tau = AREA_ENTANGLE / (2.0 * g * g / KAPPA)
        dd = moments.stokes_capture_drift(KAPPA, g, tau)

        def rhs(t, y):
            v = y.reshape(6, 6)
            a = dd.drift_at(t)
            return (a @ v + v @ a.T + dd.diffusion_at(t)).reshape(-1)

        v0 = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        sol = solve_ivp(rhs, (0.0, tau), v0.reshape(-1), method="DOP853",
                        rtol=1e-12, atol=1e-12)
        assert sol.success
        ref = sol.y[:, -1].reshape(6, 6)[2:, 2:]
        cs = moments.stokes_temporal_mode_covariance(KAPPA, g, tau)
        assert np.max(np.abs(cs.cm - ref)) < tol

    def test_stokes_output_mode_entanglement(self):
        cs = moments.stokes_temporal_mode_covariance(KAPPA, TWO_PI * 10e6,
                                                     30e-9)
        en = metrics.log_negativity_gaussian(cs.cm).value
        assert en == pytest.approx(0.764738430541, abs=1e-9)
        # adiabatic limit: E_N -> 2r with cosh r = exp(area); finite
        # G/kappa costs a few percent
        r = math.acosh(math.exp(AREA_ENTANGLE))
        assert en == pytest.approx(2.0 * r, rel=0.05)

    def test_occupations_near_sinh_squared(self):
        cs = moments.stokes_temporal_mode_covariance(KAPPA, TWO_PI * 10e6,
                                                     30e-9)
        r = math.acosh(math.exp(AREA_ENTANGLE))
        assert cs.occupation(0) == pytest.approx(math.sinh(r) ** 2, rel=0.05)
        assert cs.occupation(1) == pytest.approx(math.sinh(r) ** 2, rel=0.05)

    def test_correlations_sit_in_cross_quadratures(self):
        cs = moments.stokes_temporal_mode_covariance(KAPPA, TWO_PI * 10e6,
                                                     30e-9)
        # two-mode squeezing along x p' + p x': the x x' entry vanishes
        assert cs.cm[0, 2] == pytest.approx(0.0, abs=1e-10)
        assert cs.cm[0, 3] == pytest.approx(cs.cm[1, 2], rel=1e-9)
        assert cs.cm[0, 3] < -0.5
