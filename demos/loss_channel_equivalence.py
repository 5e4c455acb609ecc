"""Three routes through the fiber loss channel, shown to be the same map.

A lossy fiber is a beamsplitter with a vacuum ancilla.  The package
implements it twice (Kraus operators, explicit ancilla mode) and the
pulse pipeline has a third, operator-free route: a scalar double sum over
how many photons the fiber ate.  This demo runs all three on the same
states and prints the elementwise spreads.
"""

import math

import numpy as np

from magnomech import channels, fock, propagators, protocol


def double_sum_loss(matrix, d, t):
    # rho'[v, u] = sum_k sqrt(C(v+k,k) C(u+k,k)) T^((v+u)/2) (1-T)^k rho[v+k, u+k]
    out = np.zeros_like(matrix)
    for v in range(d):
        for u in range(d):
            amp = t ** ((v + u) / 2.0)
            for k in range(d - max(v, u)):
                out[v, u] += amp * (1.0 - t) ** k * math.sqrt(
                    math.comb(v + k, k) * math.comb(u + k, k)) \
                    * matrix[v + k, u + k]
    return out


def main():
    d = 10
    dims = fock.ModeDims((d,))
    rng = np.random.default_rng(5)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= rho.trace()
    state = fock.FockDensityMatrix(dims, rho)

    print("random 10-level state through the loss channel, three routes:")
    print("      T      |kraus-ancilla|  |kraus-double sum|   <n> after")
    for t in (1.0, 0.955, 0.631, 0.2, 0.0):
        kraus = channels.apply_loss(state, 0, t, method="kraus").matrix
        ancilla = channels.apply_loss(state, 0, t, method="ancilla").matrix
        oracle = double_sum_loss(rho, d, t)
        occ = float(np.real(np.diag(kraus) @ np.arange(d)))
        print(f"  {t:7.3f}  {np.max(np.abs(kraus - ancilla)):15.3e}  "
              f"{np.max(np.abs(kraus - oracle)):17.3e}   {occ:.6f}")
    occ0 = float(np.real(np.diag(rho) @ np.arange(d)))
    print(f"input occupation {occ0:.6f}; loss scales it by T exactly.")

    print()
    print("the same double sum also collapses the whole transfer pipeline")
    print("(swap, loss, swap) for a pure pulse state:")
    s = propagators.conversion_efficiency(propagators.PulseSpec(
        coupling=2 * math.pi * 10e6, cavity_linewidth=2 * math.pi * 500e6,
        duration=40e-9))
    for t in (0.955, 0.631):
        # at W = 1 the transfer closed form is the pulse state after the
        # fiber, up to a swap phase that leaves the populations alone
        post = protocol.closed_form_transfer(protocol.InitialState.fock(1), s,
                                             t, 1.0, dim=4)
        print(f"  T = {t}: populations "
              f"{np.array2string(np.real(np.diag(post.matrix)), precision=6)}")


if __name__ == "__main__":
    main()
