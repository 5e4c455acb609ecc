"""How good is adiabatic cavity elimination?  Integrate and see.

Every closed form in the package leans on eliminating the cavity at
G << kappa, which turns the pulse into a pure rate 2 G^2 / kappa.  Here
the full two-mode moment equations are solved with no elimination at
all, at fixed pulse area, and compared row by row against the closed
forms.  Their drift is static, so they are propagated exactly by one
matrix exponential.  The last section repeats the red-detuned conversion
pulse with the counter-rotating terms kept, putting a number on the
rotating-wave approximation as well.  In the lab frame that full drift is
constant too, so it and its RWA are both propagated exactly.
"""

import math

from magnomech import moments, propagators

TWO_PI = 2.0 * math.pi
KAPPA = TWO_PI * 500e6


def sweep(process, pulse, label):
    rows = moments.validate_adiabatic(pulse, (0.005, 0.01, 0.02, 0.05, 0.1),
                                      process=process)
    print(f"{label} (pulse area {pulse.pulse_area:.6f}):")
    print("  G/kappa   integrated     closed form    rel err")
    for row in rows:
        print(f"  {row.coupling_ratio:7.3f}   {row.value_integrated:.9f}  "
              f"{row.value_closed_form:.9f}   {row.rel_error:.3e}")


def main():
    # the reference transfer (40 ns) and writing (30 ns) magnon pulses; the
    # closed forms are the S and sinh^2 r the Fock engine reads from them
    transfer = propagators.PulseSpec(TWO_PI * 10e6, KAPPA, 40e-9)
    write = propagators.PulseSpec(TWO_PI * 10e6, KAPPA, 30e-9)

    sweep("antistokes", transfer,
          "anti-Stokes conversion efficiency S = 1 - exp(-2 area)")
    print()
    sweep("stokes", write,
          "Stokes occupation growth sinh^2 r = exp(2 area) - 1")
    print()
    print("the error scales like (G/kappa)^2: the cavity needs about")
    print("kappa^-1 to load, and at fixed area a stronger coupling means a")
    print("shorter pulse, so the loading transient eats a bigger fraction.")
    print("the Stokes side is hit harder because its area is smaller, so")
    print("the same absolute transient is a larger relative bite.")

    print()
    print("rotating-wave approximation on the mechanical conversion pulse:")
    cmp = moments.compare_optomech_rwa(
        cavity_linewidth=TWO_PI * 1.3e9, mech_damping=TWO_PI * 4.8e3,
        coupling=TWO_PI * 50e6, mech_freq=TWO_PI * 5.3e9, duration=55e-9)
    print(f"  residual occupation, counter-rotating terms kept   "
          f"{cmp.occupation_full:.9f}")
    print(f"  residual occupation, RWA                           "
          f"{cmp.occupation_rwa:.9f}")
    print(f"  relative difference                                "
          f"{cmp.rel_difference:.3e}")
    print("  the terms oscillate at twice the mechanical frequency and")
    print("  average out over the pulse; a few percent is what survives at")
    print("  kappa_c / omega_M = 1.3/5.3.")


if __name__ == "__main__":
    main()
