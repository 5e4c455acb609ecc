"""Pulsed magnon-optics-mechanics network simulator.

A yttrium-iron-garnet sphere converts magnons to itinerant optical pulses
(anti-Stokes swap) or entangles with them (Stokes squeeze); the pulse
crosses a lossy fiber and an optomechanical cavity swaps it onto a
mechanical mode.  This package evolves the full protocol on truncated
Fock spaces, checks every stage against closed-form oracles, and
validates the adiabatic conversion rates by quantum-Langevin moment
integration.

Layout:

* :mod:`magnomech.fock` truncated multi-mode states and exact two-mode
  exponentials
* :mod:`magnomech.propagators` pulse conversion efficiency and squeezing
* :mod:`magnomech.channels` fiber photon loss, two realizations + oracle
* :mod:`magnomech.metrics` fidelity and logarithmic negativity
* :mod:`magnomech.moments` quantum-Langevin first/second-moment integration
* :mod:`magnomech.protocol` end-to-end transfer and entanglement pipelines
* :mod:`magnomech.cli` reproducible CSV runs (``magnomech`` console script)

The modules are the API: every name is imported from its module, as
``magnomech.<module>.<name>``.  The package itself binds only
``__version__`` and the submodules.
"""

# set before the submodule imports, so that any submodule may import it
__version__ = "0.1.0"

from . import channels, fock, metrics, moments, propagators, protocol  # noqa: E402
