"""Pulsed magnon-photon conversion and squeezing propagators.

A drive pulse of duration tau on a cavity of linewidth kappa with effective
coupling G acts, after adiabatic elimination of the fast cavity, through the
single rate gscript = 2 G^2 / kappa, held once by :class:`PulseSpec`.  The
anti-Stokes (beamsplitter) pulse converts a magnon into the output temporal
mode with efficiency 1 - exp(-2 gscript tau); the Stokes (parametric) pulse
two-mode squeezes magnon and output mode with cosh r = exp(gscript tau).
The Fock engine (exact two-mode exponentials, see :mod:`magnomech.fock`),
the closed forms and the moment route that checks them
(:func:`magnomech.moments.validate_adiabatic`) all read these two maps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock

WEAK_COUPLING_BOUND = 0.05
# exp(x) is finite exactly for x <= this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PulseSpec:
    """One drive pulse: effective coupling, cavity linewidth, duration.

    coupling and cavity_linewidth are angular rates (rad/s), duration is
    in seconds.  All must be strictly positive, and the pulse area finite:
    past the float range the coupling is named when its rate already is,
    else the duration.
    """

    coupling: float
    cavity_linewidth: float
    duration: float

    def __post_init__(self):
        fock._require_fields(self, "coupling", "cavity_linewidth", "duration")
        try:
            rate = self.adiabatic_rate
        except OverflowError:   # coupling**2 on a Python float
            rate = math.inf
        if not rate * self.duration < math.inf:
            name = "coupling" if rate == math.inf else "duration"
            raise fock._DomainError(
                name, getattr(self, name),
                "small enough that the pulse area 2 G^2 tau / kappa is finite")

    @property
    def adiabatic_rate(self) -> float:
        """2 G^2 / kappa, the conversion rate after cavity elimination."""
        return 2.0 * self.coupling**2 / self.cavity_linewidth

    @property
    def pulse_area(self) -> float:
        """adiabatic_rate * duration, the dimensionless pulse exponent."""
        return self.adiabatic_rate * self.duration

    @property
    def coupling_ratio(self) -> float:
        return self.coupling / self.cavity_linewidth


def conversion_efficiency(pulse: PulseSpec) -> float:
    """eta = 1 - exp(-2 * gscript * tau) for an anti-Stokes pulse."""
    return float(-np.expm1(-2.0 * pulse.pulse_area))


def squeezing_parameter(pulse: PulseSpec) -> float:
    """r with cosh(r) = exp(gscript * tau) for a Stokes pulse, if finite.

    Written as r = A + log1p(sqrt(1 - exp(-2A))) for the area A, which keeps
    its relative precision as A -> 0, where arccosh(exp(A)) cancels.
    """
    area = pulse.pulse_area
    if area <= _LOG_FLOAT_MAX:
        return area + math.log1p(math.sqrt(-math.expm1(-2.0 * area)))
    raise fock._DomainError("pulse_area", area,
                            "small enough that cosh r = exp(area) is finite")


def apply_antistokes_swap(state, source_mode: int, field_mode: int,
                          efficiency: float):
    """Beamsplitter-type partial state swap with sin(theta)^2 = efficiency.

    Works on FockKet or FockDensityMatrix.  efficiency must lie in [0, 1];
    at 1 the swap is complete (up to the -i-per-excitation phase).
    """
    eta = fock._require("efficiency", efficiency, closed=True, hi=1.0)
    theta = float(np.arcsin(np.sqrt(eta)))
    return fock.apply_two_mode_exponential(
        state, source_mode, field_mode, "beamsplitter", theta)


def apply_stokes_squeeze(state, magnon_mode: int, field_mode: int,
                         squeezing: float):
    """Two-mode squeeze of magnon and field mode by parameter r >= 0.

    Checks no truncation budget: the caller reads the squeezed pair's
    leak from its own representation and judges it, as
    :func:`magnomech.protocol._squeezed_vacuum` does for the vacuum pair.
    """
    r = fock._require("squeezing", squeezing, closed=True)
    return fock.apply_two_mode_exponential(
        state, magnon_mode, field_mode, "two_mode_squeeze", r)
