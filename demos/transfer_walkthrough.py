"""Walk the magnon -> phonon transfer pipeline one stage at a time.

Runs the reference operating point at 1 km and 10 km of fiber, printing
the swap efficiencies, the surviving populations, and the engine fidelity
next to its closed-form value.  Ends with a superposition input to show
what the deterministic two-swap phase does and why the pipeline
compensates it.
"""

import numpy as np

from magnomech import channels, protocol


def describe(scenario):
    """Run the transfer pipeline on the scenario's first state and print it."""
    report = protocol.run_transfer(scenario)
    print(f"  input state          {report.state_label}")
    print(f"  swap in (S)          {report.swap_in:.6f}  "
          f"(pulse area {scenario.magnon_pulse.pulse_area:.6f})")
    print(f"  fiber transmittance  {report.transmittance:.6f}")
    print(f"  swap out (W)         {report.swap_out:.6f}")
    print(f"  branch probability   {report.branch_probability:.6f}")
    pops = np.real(np.diag(report.phonon_state.matrix))
    print(f"  phonon populations   {np.array2string(pops[:4], precision=6)} ...")
    print(f"  fidelity (engine)    {report.fidelity_engine:.9f}")
    print(f"  fidelity (closed)    {report.fidelity_closed_form:.9f}")
    print(f"  |difference|         {report.fidelity_gap:.3e}")
    return report


def main():
    print("single-magnon transfer, 1 km")
    near = describe(protocol.default_transfer_scenario())
    s, w = near.swap_in, near.swap_out

    print()
    print("same pipeline, 10 km")
    far = describe(protocol.default_transfer_scenario(fiber_length_km=10.0))

    print()
    print("the fidelity for one magnon is just S*T*W:")
    for rep in (near, far):
        stw = s * rep.transmittance * w
        print(f"  {rep.transmittance:.6f} -> S*T*W = {stw:.9f}  "
              f"engine = {rep.fidelity_engine:.9f}")

    print()
    print("superposition input (|0> + |1>)/sqrt(2), 1 km")
    sup = describe(protocol.default_transfer_scenario(
        initial_states=(protocol.InitialState.superposition(),)))
    print(f"  without phase fix    {sup.fidelity_engine_uncompensated:.9f}")
    print("  each swap stamps -i per transferred excitation; two swaps give")
    print("  a pi rotation of the coherence, which the pipeline undoes.")
    print("  Fock inputs never notice (diagonal states carry no coherence).")

    print()
    t10 = channels.transmittance(channels.FiberSpec(length_km=10.0))
    print(f"aside: 0.2 dB/km for 10 km is 2 dB, i.e. T = {t10:.6f}")


if __name__ == "__main__":
    main()
