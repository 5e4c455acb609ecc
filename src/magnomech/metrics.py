"""Fidelity and entanglement figures of merit.

Fidelity against a pure target ket is the plain overlap <phi|rho|phi>,
well defined also for the subnormalized branch states the transfer
pipeline reports (there it reads as the success probability of a perfect
transfer).

Logarithmic negativity E_N = ln || rho^(T_B) ||_1 (natural log, clamped at
zero) comes in three Fock-basis routes and a Gaussian route.  A mixed
state given as a dense density matrix goes through one partial transpose
and one d^2 x d^2 eigensolve; this is the reference route.  A mixed
two-mode state given as the (d + 1, d, d) stack of its n_0 - n_1 sector
blocks (as every mixed state of the entanglement pipeline is) has a
partial transpose block-diagonal in the total number n_0 + n_1, so the
trace norm is summed over those blocks (59 blocks of at most 30 at
truncation 30) with no d^2 x d^2 matrix formed; one reality test on the
whole stack picks the real or the complex solver for all of them.  A
pure two-mode ket takes the Schmidt route,
E_N = 2 ln sum_i s_i over the singular values s_i of its amplitude matrix
(Vidal & Werner, PRA 65, 032314, 2002), with no density matrix built.
The Gaussian route uses the symplectic eigenvalues of a partially
transposed covariance matrix.  Covariance conventions: x = a + a^dag,
p = -i(a - a^dag), vacuum covariance = identity; the symplectic form is
block-diagonal [[0, 1], [-1, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock

# most negative eigenvalue of V + i*Omega accepted as roundoff in a
# physical covariance matrix V, here and in the moment integration
PHYSICAL_TOL = 1e-9
# roundoff allowance of the same test, per unit of max |V|
# (see _uncertainty_violation)
_ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class LogNegativity:
    value: float
    method: str


def fidelity_pure_target(target: fock.FockKet, rho: fock.FockDensityMatrix) -> float:
    """<phi|rho|phi> for a pure target; real, in [0, trace(rho)]."""
    if target.dims.dims != rho.dims.dims:
        raise ValueError("target and state dimensions differ")
    v = target.amplitudes
    return max(0.0, float(np.real(v.conj() @ rho.matrix @ v)))


def _real_if_close(h: np.ndarray) -> np.ndarray:
    """The real part of h when its imaginary part is roundoff, else h."""
    # phase-free states give a real matrix up to roundoff; the real
    # symmetric solver is ~3x faster and the discarded part is far below
    # any tolerance used on this number
    if float(np.max(np.abs(h.imag))) <= 1e-14 * max(1.0, float(np.max(np.abs(h.real)))):
        return np.ascontiguousarray(h.real)
    return h


def log_negativity_fock(rho: fock.FockDensityMatrix) -> LogNegativity:
    """E_N from the trace norm of the partial transpose on mode 1, clamped at 0.

    The spectrum comes from one dense eigvalsh of the whole partial
    transpose, whatever the state's structure.
    """
    lam = np.linalg.eigvalsh(_real_if_close(fock.partial_transpose(rho, 1)))
    return LogNegativity(value=max(0.0, float(np.log(np.abs(lam).sum()))),
                         method="fock_ppt")


def log_negativity_sectors(stack: np.ndarray) -> LogNegativity:
    """E_N of a (d, d) two-mode state given as its stacked n_0 - n_1 blocks.

    ``stack`` has shape (d + 1, d, d): ``stack[D, n, n']`` is
    <n, n - D| rho |n', n' - D> for D = 0 .. d - 1, zero where n or n' is
    below D, and slab d is zero, standing for every sector with
    n_0 < n_1.  The partial transpose on mode 1 is then block-diagonal in
    the total number N: its element between |a, N - a> and |a', N - a'>
    is the sector D = a + a' - N element of rho between |a, a - D> and
    |a', a' - D>.  One reality test on the whole stack picks the real or
    the complex solver.  E_N = ln(sum |lambda| / sum lambda) over the
    eigenvalues of the 2d - 1 blocks of at most d is the E_N of
    rho / tr rho: a subnormalized state needs no rescaling, one with no
    negative lambda reads exactly 0, and at unit trace the value equals
    :func:`log_negativity_fock` of the assembled state.
    """
    d = stack.shape[-1]
    if stack.shape != (d + 1, d, d):
        raise ValueError(f"sector stack has shape {stack.shape}, "
                         f"expected {(d + 1, d, d)}")
    stack = _real_if_close(stack)
    trace_norm = trace = 0.0
    for total in range(2 * d - 1):
        a = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        sectors = a[:, None] + a[None, :] - total
        sectors[sectors < 0] = d
        lam = np.linalg.eigvalsh(stack[sectors, a[:, None], a[None, :]])
        trace_norm += float(np.abs(lam).sum())
        trace += float(lam.sum())
    return LogNegativity(value=max(0.0, float(np.log(trace_norm / trace))),
                         method="fock_ppt")


def log_negativity_pure(ket: fock.FockKet) -> LogNegativity:
    """E_N = 2 ln sum_i s_i of a two-mode ket, s_i its Schmidt coefficients.

    Equal to :func:`log_negativity_fock` of the ket's density matrix, since
    the partial transpose of |psi><psi| has trace norm (sum_i s_i)^2; the
    singular values of the d_0 x d_1 amplitude matrix replace the
    d_0 d_1 x d_0 d_1 eigenproblem.
    """
    if ket.dims.n_modes != 2:
        raise ValueError(f"need a two-mode ket, got {ket.dims.n_modes} modes")
    s = np.linalg.svd(ket.amplitudes.reshape(ket.dims.dims), compute_uv=False)
    return LogNegativity(value=max(0.0, 2.0 * float(np.log(s.sum()))),
                         method="fock_schmidt")


def effective_squeezing(squeezing: float, efficiency: float) -> float:
    """r' = artanh(sqrt(eta) * tanh(r)): squeezing left after a partial swap.

    Monotone in both arguments; r' = r at eta = 1 and 0 at eta = 0.  The
    matching closed-form log negativity of the swapped pair is 2 * r'.
    """
    r = fock._require("squeezing", squeezing, closed=True)
    eta = fock._require("efficiency", efficiency, closed=True, hi=1.0)
    return float(np.arctanh(np.sqrt(eta) * np.tanh(r)))


def closed_form_log_negativity(squeezing: float, efficiency: float) -> LogNegativity:
    """E_N = 2 * artanh(sqrt(eta) * tanh(r)) for the swapped squeezed pair."""
    return LogNegativity(value=2.0 * effective_squeezing(squeezing, efficiency),
                         method="closed_form")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] per mode, quadrature order (x, p)."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (vacuum -> all ones)."""
    cm = np.asarray(cm, dtype=float)
    n = cm.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cm))
    return np.sort(ev)[::2]  # each nu appears twice


def _uncertainty_violation(cm: np.ndarray) -> float | None:
    """Min eig of V + i*Omega when the uncertainty relation fails, else None.

    The one uncertainty test of every Gaussian route: the relation fails
    below -(PHYSICAL_TOL + _ROUNDOFF_TOL * max|V|).  eigvalsh is backward
    stable, so near the boundary of physical states the computed
    eigenvalue is off by a small multiple of eps max|V| (eps = 2.2e-16),
    plus the rounding V carries from the steps that made it: 1.8 eps
    max|V| over 1,240 RK4 steps and 1.2 eps max|V| after 4 to 8 squarings
    of the moment propagator, on entries up to 4e11; 2.0e-9 at
    max|V| = 4.4e6 on the exact squeezed vacuum at r = 8.
    _ROUNDOFF_TOL = 1e-12, about 4,500 eps, leaves a wide margin; at
    max|V| of order 1 it adds a thousandth of ``PHYSICAL_TOL``.
    """
    omega = symplectic_form(cm.shape[0] // 2)
    w = float(np.linalg.eigvalsh(cm + 1j * omega)[0])
    bound = PHYSICAL_TOL + _ROUNDOFF_TOL * float(np.max(np.abs(cm)))
    return w if w < -bound else None


def log_negativity_gaussian(cm: np.ndarray) -> LogNegativity:
    """E_N = max(0, -ln nu_min) after transposing mode 1.

    ``cm`` is a covariance matrix of two or more modes in (x, p) interleaved
    order, vacuum normalized to the identity; transposition flips the p
    quadrature of mode 1.  Raises ValueError when the input covariance
    matrix fails the uncertainty test of :func:`_uncertainty_violation`.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] % 2:
        raise ValueError("covariance matrix must be square of even size")
    if cm.shape[0] < 4:
        raise ValueError(f"need at least two modes, got {cm.shape[0] // 2}")
    asym = float(np.max(np.abs(cm - cm.T)))
    if not asym <= 1e-10:   # NaN fails it too
        raise ValueError(f"covariance matrix asymmetric by {asym:.3e}")
    w = _uncertainty_violation(cm)
    if w is not None:
        raise ValueError(f"unphysical covariance matrix: min eig of V + i*Omega "
                         f"is {w:.3e}")
    flip = np.ones(cm.shape[0])
    flip[3] = -1.0   # p of mode 1
    cm_pt = cm * np.outer(flip, flip)
    nu_min = float(symplectic_eigenvalues(cm_pt).min())
    return LogNegativity(value=max(0.0, -float(np.log(nu_min))),
                         method="gaussian_symplectic")
