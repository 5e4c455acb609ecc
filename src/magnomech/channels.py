"""Fiber photon loss: transmittance bookkeeping and the loss channel.

Attenuation is quoted in dB: T = 10**(-(alpha * L + extra) / 10).  The
channel itself is pure photon loss and comes in two mathematically
equivalent realizations, kept separate on purpose so they can be checked
against each other:

* "kraus": A_k = sqrt(C(n, k) terms) a^k T^(n/2), applied directly;
* "ancilla": beamsplitter onto a vacuum ancilla with sin(theta)^2 = 1 - T,
  ancilla traced out afterwards.

A_k lowers the photon number by exactly k, so `loss_kraus_operators`
returns the set as a table of diagonals: table[k, n] is the amplitude A_k
gives input level n, landing on n - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

_LOSS_METHODS = ("kraus", "ancilla")


@dataclass(frozen=True)
class FiberSpec:
    """A fiber link: length and attenuation in dB."""

    length_km: float
    attenuation_db_per_km: float = 0.2
    extra_loss_db: float = 0.0

    def __post_init__(self):
        fock._require_fields(self, "length_km", "attenuation_db_per_km",
                             "extra_loss_db", closed=True)

    @property
    def total_loss_db(self) -> float:
        return self.length_km * self.attenuation_db_per_km + self.extra_loss_db


def transmittance(fiber: FiberSpec) -> float:
    """Power transmittance T in [0, 1] from the dB budget."""
    return float(10.0 ** (-fiber.total_loss_db / 10.0))


def loss_kraus_operators(dim: int, transmittance: float) -> np.ndarray:
    """Kraus set of the photon-loss channel on a dim-level mode, as a table.

    A_k lowers the photon number by k, so it has one nonzero diagonal:
    A_k |n> = a_k(n) |n - k> with a_k(n) = sqrt(C(n, k) R^k T^(n-k)),
    R = 1 - T, and a_k(n) = 0 for n < k.  Row k of the returned (rows, dim)
    table is a_k; at unit transmittance only A_0 = 1 survives and the
    table has one row.
    """
    t = fock._require("transmittance", transmittance, closed=True, hi=1.0)
    r = 1.0 - t
    table = np.zeros((1 if r == 0.0 else dim, dim))
    for k in range(table.shape[0]):
        for n in range(k, dim):
            table[k, n] = math.sqrt(math.comb(n, k) * r**k * t ** (n - k))
    return table


def apply_loss(rho: fock.FockDensityMatrix, mode: int, transmittance: float,
               *, method: str = "kraus") -> fock.FockDensityMatrix:
    """Photon loss of power transmittance T on one mode of a joint state."""
    fock._choice("method", method, _LOSS_METHODS)
    dims = rho.dims
    mode = fock._mode(dims, mode)
    t = fock._require("transmittance", transmittance, closed=True, hi=1.0)
    d = dims.dims[mode]

    if method == "ancilla":
        joint = fock.tensor(rho, fock.vacuum(fock.ModeDims((d,))))
        ancilla = joint.dims.n_modes - 1
        theta = float(np.arcsin(np.sqrt(1.0 - t)))
        joint = fock.apply_two_mode_exponential(joint, mode, ancilla,
                                                "beamsplitter", theta)
        return fock.partial_trace(joint, ancilla)

    out = np.zeros_like(rho.matrix)
    for k, row in enumerate(loss_kraus_operators(d, t)):
        a = np.diag(row[k:], k)   # A_k placed on its diagonal: A_k[n - k, n]
        # single-mode Kraus: act on the ket axis of `mode`, then the bra axis
        m = rho.matrix.reshape(dims.dims + dims.dims)
        m = np.moveaxis(m, mode, 0)
        shp = m.shape
        m = (a @ m.reshape(d, -1)).reshape(shp)
        m = np.moveaxis(m, 0, mode)
        nm = dims.n_modes
        m = np.moveaxis(m, nm + mode, 0)
        shp = m.shape
        m = (a.conj() @ m.reshape(d, -1)).reshape(shp)
        m = np.moveaxis(m, 0, nm + mode)
        out += m.reshape(out.shape)
    return fock.FockDensityMatrix(dims, out)

