"""First-principles moment integration of the pulse quantum Langevin equations.

The pulse map the Fock engine reads (:mod:`magnomech.propagators`' S and
r) is validated here by integrating the full linear cavity-matter dynamics
without eliminating the cavity; every rate 2 G^2 / kappa comes from its
``PulseSpec``, so the map checked is the engine's, not a copy.  States
are Gaussian with zero or small means, so first and second moments suffice:

    d mean / dt = A(t) mean
    d V / dt    = A(t) V + V A(t)^T + D(t)

with quadratures x = a + a^dag, p = -i(a - a^dag) and vacuum V = identity.
Static drifts (constant A and D) are propagated exactly: the moments after
tau are one matrix exponential of the Kronecker-sum generator, computed by
scaling and squaring.  The time-dependent capture filter uses fixed-step
RK4, deterministic for fixed dt, on the bordered moment matrix
Z = [[V, mean], [mean^T, 0]]: with A and D bordered by zeros,
dZ/dt = A Z + Z A^T + D carries both equations above at once.

Each drift kind is written once as its complex mode equations
d a/dt = M a + N a^dag and converted to the quadrature drift A; every
kind is constant.  They cover the beamsplitter-type (anti-Stokes) and
parametric (Stokes) magnon-photon pulses, the red-detuned optomechanical
pulse in the rotating-wave approximation, and the full optomechanical
dynamics in the lab frame, counter-rotating terms included.

Output temporal modes are captured by cascading an auxiliary filter
variable whose weight matches the exponential output profile; its noise is
correlated with the cavity input, which shows up as off-diagonal diffusion.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fock, metrics, propagators

_DRIFT_KINDS = ("magnonic_antistokes", "magnonic_stokes", "optomech_red_rwa",
                "optomech_full")
_PROCESSES = ("antistokes", "stokes")   # validate_adiabatic's magnonic pulses

# resolve the fastest rate in the drift: dt <= DT_SAFETY / max rate
DT_SAFETY = 0.05
# integrate: RK4 steps between uncertainty checks, and the covariance
# magnitude taken as blowup
_CHECK_EVERY = 200
_NORM_BOUND = 1e12
# propagate_static: the scaled generator's 1-norm stays below _TAYLOR_THETA,
# where the Taylor sum of this degree is exact to 0.5^15 / 15! = 2.3e-17
_TAYLOR_THETA = 0.5
_TAYLOR_DEGREE = 14


class CovarianceState:
    """Mean vector and covariance matrix of a Gaussian state.

    Quadrature order is (x_0, p_0, x_1, p_1, ...); vacuum has zero mean
    and identity covariance.
    """

    __slots__ = ("mean", "cm")

    def __init__(self, mean, cm, *, check: bool = True):
        mean = np.asarray(mean, dtype=float).reshape(-1).copy()
        if np.shape(cm) != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean")
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"mean must be finite, got {mean}")
        self.mean = mean
        self.cm = metrics._covariance(cm, physical=check)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "CovarianceState":
        return cls(np.zeros(2 * n_modes), np.eye(2 * n_modes))

    @classmethod
    def thermal(cls, occupations: Sequence[float]) -> "CovarianceState":
        occ = np.asarray(occupations, dtype=float)
        diag = np.repeat(2.0 * occ + 1.0, 2)
        return cls(np.zeros(diag.size), np.diag(diag))

    def occupation(self, mode: int) -> float:
        """<n> of one mode, mean displacement included."""
        x, p = 2 * mode, 2 * mode + 1
        quad = self.cm[x, x] + self.cm[p, p] - 2.0
        disp = self.mean[x] ** 2 + self.mean[p] ** 2
        return float((quad + disp) / 4.0)

    def block(self, modes: Sequence[int]) -> "CovarianceState":
        """Reduced state of the listed modes (order preserved)."""
        idx = np.asarray([q for k in modes for q in (2 * k, 2 * k + 1)])
        return CovarianceState(self.mean[idx], self.cm[np.ix_(idx, idx)],
                               check=False)


@dataclass
class DriftDiffusion:
    """Drift A and diffusion D, either constant matrices or callables of t."""

    drift: np.ndarray | Callable[[float], np.ndarray]
    diffusion: np.ndarray | Callable[[float], np.ndarray]

    def drift_at(self, t: float) -> np.ndarray:
        return self.drift(t) if callable(self.drift) else self.drift

    def diffusion_at(self, t: float) -> np.ndarray:
        return self.diffusion(t) if callable(self.diffusion) else self.diffusion

    @property
    def is_static(self) -> bool:
        return not (callable(self.drift) or callable(self.diffusion))


def build_drift(kind: str, *, cavity_linewidth: float, coupling: float,
                matter_linewidth: float = 0.0, mech_freq: float | None = None,
                detuning: float | None = None) -> DriftDiffusion:
    """Drift/diffusion pair for one QLE family.

    Mode order is (cavity, matter) with matter the magnon or the mechanical
    mode; quadrature order (x_c, p_c, x_m, p_m).  ``matter_linewidth`` is
    the magnon linewidth or the mechanical damping, into a zero-temperature
    bath like the cavity's.  ``optomech_full`` additionally needs
    ``mech_freq`` and ``detuning``: it is the linearized Hamiltonian
    detuning c^dag c + mech_freq b^dag b - G (c + c^dag)(b + b^dag) in the
    lab frame, where its drift is constant, and it keeps the
    counter-rotating terms that ``optomech_red_rwa`` drops.
    """
    fock._choice("kind", kind, _DRIFT_KINDS)
    kappa = fock._require("cavity_linewidth", cavity_linewidth)
    gm = fock._require("matter_linewidth", matter_linewidth, closed=True)
    g = fock._require("coupling", coupling, closed=True)

    diffusion = np.diag([kappa, kappa, gm, gm])
    damping = np.diag([-kappa / 2.0, -gm / 2.0])
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == "magnonic_antistokes":
        # da/dt = -k/2 a - iG m ; dm/dt = -gm/2 m - iG a
        m, n = damping - 1j * g * pair, 0.0
    elif kind == "magnonic_stokes":
        # da/dt = -k/2 a - iG m^dag ; dm/dt = -gm/2 m - iG a^dag
        m, n = damping, -1j * g * pair
    elif kind == "optomech_red_rwa":
        # dc/dt = -k/2 c + iG b ; db/dt = -gm/2 b + iG c
        m, n = damping + 1j * g * pair, 0.0
    else:
        # dc/dt = (-k/2 - i delta) c + iG (b + b^dag)
        # db/dt = (-gm/2 - i wm) b + iG (c + c^dag)
        if mech_freq is None or detuning is None:
            raise ValueError("optomech_full needs mech_freq and detuning")
        wm = fock._require("mech_freq", mech_freq)
        rotation = np.diag([fock._require("detuning", detuning, -math.inf), wm])
        m, n = damping - 1j * rotation + 1j * g * pair, 1j * g * pair
    return DriftDiffusion(_quadrature_drift(m, n), diffusion)


def _quadrature_drift(m: np.ndarray, n: np.ndarray | float) -> np.ndarray:
    """Real (x, p) drift of the mode equations d a/dt = m a + n a^dag.

    With x = a + a^dag and p = -i(a - a^dag), block (j, k) of the drift is
    [[Re(m+n), Im(n-m)], [Im(m+n), Re(m-n)]] taken at entry (j, k).
    """
    drift = np.empty((2 * m.shape[0], 2 * m.shape[0]))
    drift[0::2, 0::2] = (m + n).real
    drift[0::2, 1::2] = (n - m).imag
    drift[1::2, 0::2] = (m + n).imag
    drift[1::2, 1::2] = (m - n).real
    return drift


def integrate(state: CovarianceState, dd: DriftDiffusion, duration: float,
              dt: float, *, check_uncertainty: bool = True) -> CovarianceState:
    """Fixed-step RK4 integration of the moment equations over [0, duration].

    For time-dependent drifts, which here means the Stokes capture filter;
    a static one is propagated exactly by :func:`propagate_static`.  Mean
    and covariance ride in one bordered matrix Z = [[V, m], [m^T, 0]]:
    with A and D bordered by zeros, dZ/dt = A Z + Z A^T + D holds dV/dt in
    its V block and dm/dt = A m in its border.  The diffusion must be
    symmetric: Z then stays exactly symmetric, so each stage makes one
    product.  The drift and diffusion callables are evaluated once per
    distinct stage time of a step (t, t + h/2 and t + h), so they must be
    pure functions of t.  Checks the uncertainty relation every
    ``_CHECK_EVERY`` steps and at the end (disable via
    check_uncertainty=False for runs carrying a partially accumulated
    filter mode, which is not canonical mid-pulse).  Raises on unphysical
    covariances and, at the first step that makes one, on a covariance
    entry beyond ``_NORM_BOUND``; both checks read the V block only, so no
    size of the mean trips them.
    """
    duration = fock._require("duration", duration)
    dt = fock._require("dt", dt)
    n_steps = max(1, int(math.ceil(duration / dt - 1e-12)))
    h = duration / n_steps
    n = state.mean.size
    z = np.zeros((n + 1, n + 1))
    cm = z[:n, :n]   # a view: the checks read V in place
    cm[...] = state.cm
    z[:n, n] = z[n, :n] = state.mean
    # bordered A and D at t, t + h/2 and t + h; only their top-left blocks
    # are ever written, so the borders stay zero
    drift, diffusion = np.zeros((2, 3, n + 1, n + 1))
    a_t, a_mid, a_end = drift[:, :n, :n]
    d_t, d_mid, d_end = diffusion[:, :n, :n]

    def rhs(a, d, y):
        ay = a @ y   # Y is exactly symmetric, so Y A^T = (A Y)^T
        return ay + ay.T + d

    for step in range(n_steps):
        t = step * h
        mid, end = t + h / 2.0, t + h
        a_t[...], d_t[...] = dd.drift_at(t), dd.diffusion_at(t)
        a_mid[...], d_mid[...] = dd.drift_at(mid), dd.diffusion_at(mid)
        a_end[...], d_end[...] = dd.drift_at(end), dd.diffusion_at(end)
        k1 = rhs(drift[0], diffusion[0], z)
        k2 = rhs(drift[1], diffusion[1], z + h / 2.0 * k1)
        k3 = rhs(drift[1], diffusion[1], z + h / 2.0 * k2)
        k4 = rhs(drift[2], diffusion[2], z + h * k3)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        due = (step + 1) % _CHECK_EVERY == 0 or step + 1 == n_steps
        if due or not _bounded(cm):
            _check_moments(cm, f"at RK4 step {step + 1}/{n_steps} of {h:.3g} s",
                           uncertainty=check_uncertainty and due)
    return CovarianceState(z[:n, n], cm, check=False)


def propagate_static(state: CovarianceState, dd: DriftDiffusion,
                     duration: float) -> CovarianceState:
    """Exact moments after ``duration`` under a constant drift and diffusion.

    The covariance obeys d vec(V)/dt = L vec(V) + vec(D) with the
    Kronecker sum L = A (x) I + I (x) A, so the augmented generator
    G = [[L, vec D], [0, 0]] maps [vec V(0); 1] to [vec V(tau); 1] through
    exp(G tau); the mean goes through exp(A tau).  L's rates are sums of
    pairs of A's, so exp(G tau) grows no faster than V itself (unlike Van
    Loan's [[-A, D], [0, A^T]], whose -A block grows like e^(kappa tau / 2)
    and overflows on long pulses), and no steady state is needed, so a
    singular drift (zero coupling with zero matter linewidth) is handled
    like any other.  The result passes the checks :func:`integrate` makes
    at its last step.
    """
    if not dd.is_static:
        raise ValueError("propagate_static needs a constant drift and diffusion")
    duration = fock._require("duration", duration)
    a = np.asarray(dd.drift, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    gen = np.zeros((n * n + 1, n * n + 1))
    gen[:-1, :-1] = np.kron(a, eye) + np.kron(eye, a)
    gen[:-1, -1] = np.asarray(dd.diffusion, dtype=float).reshape(-1)
    flow = _expm(gen * duration)
    cm = (flow[:-1, :-1] @ state.cm.reshape(-1) + flow[:-1, -1]).reshape(n, n)
    cm = 0.5 * (cm + cm.T)
    mean = _expm(a * duration) @ state.mean
    _check_moments(cm, f"after exact propagation over {duration:.6g} s")
    return CovarianceState(mean, cm, check=False)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring on a truncated Taylor sum.

    m is halved s times until its 1-norm is at most ``_TAYLOR_THETA``, the
    Taylor sum of degree ``_TAYLOR_DEGREE`` is evaluated by Horner's rule,
    and the result is squared s times (Higham, SIAM J. Matrix Anal. Appl.
    26, 1179 (2005)).
    """
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    squarings = math.ceil(math.log2(norm / _TAYLOR_THETA)) \
        if norm > _TAYLOR_THETA else 0
    x = m / 2.0**squarings
    eye = np.eye(m.shape[0])
    out = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        out = eye + x @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


def _check_moments(cm: np.ndarray, where: str, *,
                   uncertainty: bool = True) -> None:
    """Raise on a non-finite or blown-up covariance, or an unphysical one."""
    if not _bounded(cm):
        raise RuntimeError(f"covariance blew up {where} (an entry not finite "
                           f"or beyond {_NORM_BOUND:.0e})")
    if uncertainty:
        metrics._covariance(cm, where=" " + where, error=RuntimeError)


def _bounded(cm: np.ndarray) -> bool:
    """Every entry finite and within ``_NORM_BOUND``: one reduction, which
    NaN and inf both fail."""
    return float(np.abs(cm).max()) <= _NORM_BOUND


def default_timestep(*rates: float) -> float:
    """dt = DT_SAFETY / fastest rate present."""
    fastest = max(float(r) for r in rates if r > 0.0)
    return DT_SAFETY / fastest


@dataclass(frozen=True)
class AdiabaticRow:
    """One row of the adiabatic-elimination error sweep."""

    coupling_ratio: float
    value_integrated: float
    value_closed_form: float
    rel_error: float


def validate_adiabatic(pulse: propagators.PulseSpec,
                       coupling_ratios: Sequence[float], *,
                       process: str = "antistokes",
                       matter_linewidth: float = 0.0) -> list[AdiabaticRow]:
    """The moment route against the engine's pulse map, at fixed area.

    The closed form is ``pulse``'s S or sinh^2 r from :mod:`propagators`
    (process "antistokes" or "stokes").  Each rung is ``pulse`` at
    G = ratio * kappa with the duration that keeps its area, propagated
    exactly and read as 1 - n(tau) of one magnon or n(tau) grown from
    vacuum; the relative error measures adiabatic cavity elimination.  A
    closed form of 0 or past the float range fails under ``pulse_area``, a
    rung with no finite duration > 0 under ``coupling_ratios``.
    """
    antistokes = fock._choice("process", process, _PROCESSES) == "antistokes"
    area, kappa = pulse.pulse_area, pulse.cavity_linewidth
    try:
        closed = propagators.conversion_efficiency(pulse) if antistokes \
            else math.sinh(propagators.squeezing_parameter(pulse)) ** 2
    except OverflowError:
        raise fock._DomainError("pulse_area", area, "small enough that "
                                "sinh^2 r is finite") from None
    if not closed > 0.0:   # S and sinh^2 r are > 0 for every area > 0
        raise fock._DomainError("pulse_area", area, "large enough that the "
                                "pulse area 2 G^2 tau / kappa is > 0")
    init = CovarianceState.thermal([0.0, float(antistokes)])   # 1 magnon or 0
    rows = []
    for ratio in coupling_ratios:
        ratio = fock._require("coupling_ratios", ratio)
        try:   # the rate reads 0 once G^2 underflows
            rung = dataclasses.replace(pulse, coupling=ratio * kappa)
            rung = dataclasses.replace(rung, duration=area / rung.adiabatic_rate)
        except (fock._DomainError, ZeroDivisionError) as exc:
            raise fock._DomainError("coupling_ratios", ratio, "such that G = "
                                    "ratio * kappa keeps the area in a finite "
                                    "duration > 0") from exc
        dd = build_drift("magnonic_" + process, cavity_linewidth=kappa,
                         coupling=rung.coupling, matter_linewidth=matter_linewidth)
        occupation = propagate_static(init, dd, rung.duration).occupation(1)
        integrated = 1.0 - occupation if antistokes else occupation
        rows.append(AdiabaticRow(ratio, integrated, closed,
                                 abs(integrated - closed) / closed))
    return rows


@dataclass(frozen=True)
class RwaComparison:
    """Final matter occupations with and without counter-rotating terms."""

    occupation_full: float
    occupation_rwa: float
    rel_difference: float


def compare_optomech_rwa(*, cavity_linewidth: float, mech_damping: float,
                         coupling: float, mech_freq: float,
                         duration: float) -> RwaComparison:
    """Red-detuned pulse with and without the counter-rotating terms.

    Both runs start from cavity vacuum and one phonon, with a
    zero-temperature mechanical bath, and use detuning = mech_freq (red
    sideband).  Both drifts are constant, the full one in the lab frame,
    so both are propagated exactly by :func:`propagate_static`.  The
    occupations are the same in every frame, since the damping and the
    vacuum noise are phase-insensitive.
    """
    init = CovarianceState.thermal([0.0, 1.0])
    dd_rwa = build_drift("optomech_red_rwa", cavity_linewidth=cavity_linewidth,
                         coupling=coupling, matter_linewidth=mech_damping)
    dd_full = build_drift("optomech_full", cavity_linewidth=cavity_linewidth,
                          coupling=coupling, matter_linewidth=mech_damping,
                          mech_freq=mech_freq, detuning=mech_freq)
    occ_rwa = propagate_static(init, dd_rwa, duration).occupation(1)
    occ_full = propagate_static(init, dd_full, duration).occupation(1)
    return RwaComparison(occ_full, occ_rwa,
                         abs(occ_full - occ_rwa) / max(abs(occ_rwa), 1e-30))


def stokes_capture_drift(cavity_linewidth: float, coupling: float,
                         duration: float) -> DriftDiffusion:
    """Stokes QLE cascaded with the growing output temporal-mode filter.

    Modes are (cavity, lossless magnon, capture).  The capture variable
    accumulates f(t) * a_out(t) with f(t) = N exp(G t) the growing output
    profile of the pulse, G the rate of the arguments' checked
    ``PulseSpec`` and N = sqrt(2 G / (exp(2 G tau) - 1)) normalizing it on
    [0, tau] (Kiilerich & Molmer, PRL 123, 123604 (2019)); exp(2 G tau) - 1
    fails by that name when it reads 0 or overflows.  Its commutator builds
    up to the canonical value only at t = tau; the in-pulse covariance is
    therefore not a mode covariance and uncertainty checks must be deferred
    to the end of the pulse.  The filter noise is anti-correlated with the
    cavity input noise (input-output relation a_out = sqrt(kappa) a - a_in),
    giving time-dependent off-diagonal diffusion.
    """
    pulse = propagators.PulseSpec(coupling, cavity_linewidth, duration)
    kappa, gscript = pulse.cavity_linewidth, pulse.adiabatic_rate
    try:   # no norm once 2 G tau underflows, nor once exp(2 G tau) overflows
        growth = math.exp(2.0 * gscript * pulse.duration) - 1.0
    except OverflowError:
        growth = math.inf
    growth = fock._require("exp(2 G tau) - 1", growth)
    norm = math.sqrt(2.0 * gscript / growth)
    sq = math.sqrt(kappa)

    base = build_drift("magnonic_stokes", cavity_linewidth=kappa,
                       coupling=pulse.coupling)
    # the constant entries, once; each call writes only the f(t) entries
    drift_template, diffusion_template = np.zeros((6, 6)), np.zeros((6, 6))
    drift_template[:4, :4] = base.drift
    diffusion_template[:4, :4] = base.diffusion

    def drift(t: float) -> np.ndarray:
        f = norm * math.exp(gscript * t)
        a = drift_template.copy()
        a[4, 0] = a[5, 1] = f * sq   # dF/dt += f sqrt(kappa) (x_c, p_c)
        return a

    def diffusion(t: float) -> np.ndarray:
        f = norm * math.exp(gscript * t)
        d = diffusion_template.copy()
        d[4, 4] = d[5, 5] = f * f
        d[0, 4] = d[4, 0] = -sq * f
        d[1, 5] = d[5, 1] = -sq * f
        return d

    return DriftDiffusion(drift, diffusion)


def stokes_temporal_mode_covariance(cavity_linewidth: float, coupling: float,
                                    duration: float) -> CovarianceState:
    """Joint (magnon, output temporal mode) covariance after a Stokes pulse.

    Integrates the cascaded filter system from vacuum at the
    :func:`default_timestep` of the cavity linewidth and returns the
    two-mode block; in the weak-coupling limit it approaches a two-mode
    squeezed vacuum with cosh r = exp(pulse area).
    """
    dd = stokes_capture_drift(cavity_linewidth, coupling, duration)
    dt = default_timestep(cavity_linewidth)
    init = CovarianceState(np.zeros(6), np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]),
                           check=False)
    final = integrate(init, dd, float(duration), dt, check_uncertainty=False)
    out = final.block([1, 2])
    # the capture variable is canonical now; validate the pair state
    return CovarianceState(out.mean, out.cm)
