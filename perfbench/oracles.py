"""Reference routes the benchmark checks the program's outputs against.

Each function here recomputes one workload's outputs without the program's
Fock engine, so a seed that has no recorded reference is still checked:

* ``truncated_pair_en``: E_N of the lossless swapped pair from the
  truncated two-mode squeeze, exponentiated block by block (the squeeze
  keeps n_magnon - n_pulse fixed, so only the d x d diagonal block of the
  d^2-dimensional space is reached from vacuum);
* ``lossy_pair_gaussian``: conditioned and traced E_N and the vacuum-branch
  probability of the lossy entanglement pipeline, on covariance matrices
  (every stage is Gaussian; vacuum covariance is the identity);
* ``static_moments``: exact propagation of constant-drift moment equations,
  V(t) = Phi (V0 - Vinf) Phi^T + Vinf;
* ``capture_covariance``: the Stokes capture-filter covariance from an
  adaptive high-order integrator instead of fixed-step RK4.  It takes its
  drift from the program's ``stokes_capture_drift``, so it checks the
  integration, not the model.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov


def truncated_pair_en(squeezing: float, efficiency: float, dim: int) -> float:
    """E_N after exp(-i r (a^dag b^dag + a b)) on d levels, then a partial swap."""
    n = np.arange(1, dim, dtype=float)
    gen = np.diag(n, 1) + np.diag(n, -1)       # <k+1,k+1| K |k,k> = k + 1
    amps = np.abs(expm(-1j * float(squeezing) * gen)[:, 0])
    amps *= float(efficiency) ** (np.arange(dim) / 2.0)
    # pure state with Schmidt coefficients amps / |amps|: E_N = 2 ln sum sqrt(p)
    return max(0.0, 2.0 * math.log(amps.sum() / math.sqrt(amps @ amps)))


def _beamsplitter(theta: float, n_modes: int, a: int, b: int) -> np.ndarray:
    """Symplectic matrix of exp(-i theta (a^dag b + a b^dag))."""
    s = np.eye(2 * n_modes)
    c, si = math.cos(theta), math.sin(theta)
    for i, j in ((a, b), (b, a)):
        s[2 * i, 2 * i] = s[2 * i + 1, 2 * i + 1] = c
        s[2 * i, 2 * j + 1] = si
        s[2 * i + 1, 2 * j] = -si
    return s


def _log_negativity(cm: np.ndarray) -> float:
    """Two-mode E_N = max(0, -ln nu_min) of the partial transpose on mode 1."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    pt = flip @ cm @ flip
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nu_min = float(np.abs(np.linalg.eigvals(1j * omega @ pt)).min())
    return max(0.0, -math.log(nu_min))


def lossy_pair_gaussian(squeezing: float, transmittance: float,
                        efficiency: float) -> dict:
    """Squeeze magnon+pulse, lose pulse photons, swap pulse onto phonon.

    Modes (magnon, pulse, phonon).  Returns the E_N of the state conditioned
    on the pulse left in vacuum, the E_N of the unconditioned reduced state,
    and the vacuum-branch probability.
    """
    c, s = math.cosh(2.0 * squeezing), math.sinh(2.0 * squeezing)
    cm = np.eye(6)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cm[:2, :2] = cm[2:4, 2:4] = c * np.eye(2)
    cm[:2, 2:4] = cm[2:4, :2] = -s * x
    t = float(transmittance)
    loss = np.diag([1.0, 1.0, math.sqrt(t), math.sqrt(t), 1.0, 1.0])
    cm = loss @ cm @ loss + np.diag([0.0, 0.0, 1.0 - t, 1.0 - t, 0.0, 0.0])
    swap = _beamsplitter(math.asin(math.sqrt(efficiency)), 3, 1, 2)
    cm = swap @ cm @ swap.T
    keep = [0, 1, 4, 5]
    v_a = cm[np.ix_(keep, keep)]
    v_b = cm[2:4, 2:4]
    cross = cm[np.ix_(keep, [2, 3])]
    v_b1 = v_b + np.eye(2)
    branch = v_a - cross @ np.linalg.solve(v_b1, cross.T)
    return {
        "en_fock": _log_negativity(branch),
        "en_traced": _log_negativity(v_a),
        "branch_probability": 2.0 / math.sqrt(np.linalg.det(v_b1)),
    }


def _occupation(cm: np.ndarray, mode: int) -> float:
    return float((cm[2 * mode, 2 * mode] + cm[2 * mode + 1, 2 * mode + 1] - 2.0)
                 / 4.0)


def static_moments(drift: np.ndarray, diffusion: np.ndarray, cm0: np.ndarray,
                   duration: float) -> np.ndarray:
    """Covariance after ``duration`` under constant drift A and diffusion D."""
    v_inf = solve_continuous_lyapunov(drift, -diffusion)
    phi = expm(drift * duration)
    out = phi @ (cm0 - v_inf) @ phi.T + v_inf
    return 0.5 * (out + out.T)


def magnonic_drift(process: str, cavity_linewidth: float,
                   coupling: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion of (cavity, magnon) quadratures, lossless magnon.

    anti-Stokes: da/dt = -k/2 a - iG m,     dm/dt = -iG a;
    Stokes:      da/dt = -k/2 a - iG m^dag, dm/dt = -iG a^dag.
    """
    k, g = float(cavity_linewidth), float(coupling)
    sign = 1.0 if process == "antistokes" else -1.0
    drift = np.diag([-k / 2.0, -k / 2.0, 0.0, 0.0])
    drift[0, 3] = drift[2, 1] = sign * g
    drift[1, 2] = drift[3, 0] = -g
    return drift, np.diag([k, k, 0.0, 0.0])


def adiabatic_row(process: str, coupling_ratio: float, cavity_linewidth: float,
                  pulse_area: float) -> float:
    """Integrated value of one adiabatic-sweep row, propagated exactly.

    The duration keeps 2 G^2 tau / kappa equal to ``pulse_area``; anti-Stokes
    reports 1 - n(tau) from one magnon, Stokes the magnon number grown from
    vacuum.
    """
    kappa = float(cavity_linewidth)
    g = coupling_ratio * kappa
    tau = pulse_area / (2.0 * g**2 / kappa)
    drift, diffusion = magnonic_drift(process, kappa, g)
    if process == "antistokes":
        final = static_moments(drift, diffusion, np.diag([1.0, 1.0, 3.0, 3.0]), tau)
        return 1.0 - _occupation(final, 1)
    final = static_moments(drift, diffusion, np.eye(4), tau)
    return _occupation(final, 1)


def capture_covariance(dd, duration: float) -> np.ndarray:
    """(magnon, capture) covariance block after the cascaded Stokes pulse."""
    n = 6

    def rhs(t, y):
        v = y.reshape(n, n)
        a = dd.drift_at(t)
        return (a @ v + v @ a.T + dd.diffusion_at(t)).reshape(-1)

    v0 = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]).reshape(-1)
    sol = solve_ivp(rhs, (0.0, float(duration)), v0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    v = sol.y[:, -1].reshape(n, n)
    idx = [2, 3, 4, 5]
    return v[np.ix_(idx, idx)]
