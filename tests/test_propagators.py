"""Pulse conversion efficiency and squeezing against the closed forms."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from magnomech import fock, propagators

TWO_PI = 2.0 * math.pi

# reference pulses used throughout: (G/2pi, kappa/2pi, tau)
ANTISTOKES_PULSE = propagators.PulseSpec(coupling=TWO_PI * 10e6,
                                         cavity_linewidth=TWO_PI * 500e6,
                                         duration=40e-9)
SQUEEZE_PULSE = propagators.PulseSpec(coupling=TWO_PI * 10e6,
                                      cavity_linewidth=TWO_PI * 500e6,
                                      duration=30e-9)
CONVERSION_PULSE = propagators.PulseSpec(coupling=TWO_PI * 50e6,
                                         cavity_linewidth=TWO_PI * 1.3e9,
                                         duration=55e-9)


class TestPulseSpec:
    def test_adiabatic_rate_formula(self):
        # gscript = 2 G^2 / kappa = 2 * (2pi 10e6)^2 / (2pi 500e6)
        assert ANTISTOKES_PULSE.adiabatic_rate == pytest.approx(
            TWO_PI * 0.4e6, rel=1e-12)

    def test_pulse_areas(self):
        assert ANTISTOKES_PULSE.pulse_area == pytest.approx(0.100530964915, rel=1e-9)
        assert SQUEEZE_PULSE.pulse_area == pytest.approx(0.0753982236862, rel=1e-9)
        assert CONVERSION_PULSE.pulse_area == pytest.approx(1.32913535344, rel=1e-9)

    def test_weak_coupling_flag(self):
        assert ANTISTOKES_PULSE.coupling_ratio == pytest.approx(0.02)

    @pytest.mark.parametrize("field", ["coupling", "cavity_linewidth", "duration"])
    def test_rejects_nonpositive(self, field):
        kwargs = dict(coupling=1.0, cavity_linewidth=1.0, duration=1.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            propagators.PulseSpec(**kwargs)

    # coupling**2 overflows (a tiny linewidth takes the rate past the range
    # by division), or a finite rate times the duration does
    @pytest.mark.parametrize("field, kwargs", [
        ("coupling", dict(coupling=1e200)),
        ("coupling", dict(coupling=1e6, cavity_linewidth=1e-300)),
        ("duration", dict(duration=1e305)),
    ])
    def test_rejects_pulse_area_past_float_range(self, field, kwargs):
        spec = {"coupling": TWO_PI * 10e6, "cavity_linewidth": TWO_PI * 500e6,
                "duration": 40e-9, **kwargs}
        with pytest.raises(fock._DomainError) as exc:
            propagators.PulseSpec(**spec)
        assert exc.value.field == field
        assert exc.value.value == spec[field]
        assert exc.value.rule == ("small enough that the pulse area "
                                  "2 G^2 tau / kappa is finite")


class TestClosedForms:
    def test_conversion_efficiency_values(self):
        # eta = 1 - exp(-2 * area); reference operating points
        s = propagators.conversion_efficiency(ANTISTOKES_PULSE)
        assert s == pytest.approx(0.182138220055, rel=1e-9)
        w = propagators.conversion_efficiency(CONVERSION_PULSE)
        assert w == pytest.approx(0.929930712628, rel=1e-9)

    def test_conversion_efficiency_monotone_saturating(self):
        areas = [0.01, 0.1, 1.0, 10.0]
        effs = []
        for a in areas:
            p = propagators.PulseSpec(coupling=1.0, cavity_linewidth=2.0,
                                      duration=a)  # gscript = 1 -> area = a
            effs.append(propagators.conversion_efficiency(p))
        assert all(x < y for x, y in zip(effs, effs[1:]))
        assert effs[-1] == pytest.approx(1.0, abs=1e-8)

    def test_squeezing_parameter_value(self):
        r = propagators.squeezing_parameter(SQUEEZE_PULSE)
        assert r == pytest.approx(0.393222919812, rel=1e-9)
        # cosh r = exp(area) inverse relation
        assert math.cosh(r) == pytest.approx(
            math.exp(SQUEEZE_PULSE.pulse_area), rel=1e-12)

    @pytest.mark.parametrize("area", [5e-324, 1e-300, 1e-16, 7.5e-16, 1e-8,
                                      0.0754, 1.0])
    def test_squeezing_parameter_keeps_precision_at_small_area(self, area):
        # sinh^2 r = exp(2 area) - 1; arccosh(exp(area)) read r = 0 below
        # an area of about 1.1e-16 and 12% low at 7.5e-16
        pulse = propagators.PulseSpec(coupling=1.0, cavity_linewidth=2.0,
                                      duration=area)   # rate 1: area exact
        r = propagators.squeezing_parameter(pulse)
        assert math.sinh(r) ** 2 == pytest.approx(math.expm1(2.0 * area),
                                                  rel=1e-15, abs=0.0)

    def test_squeezing_parameter_needs_a_finite_exp_area(self):
        top = math.log(sys.float_info.max)   # exp(top) is the largest float
        pulse = propagators.PulseSpec(coupling=1.0, cavity_linewidth=2.0,
                                      duration=top)
        assert propagators.squeezing_parameter(pulse) == pytest.approx(
            top + math.log(2.0), rel=1e-15)
        past = dataclasses.replace(pulse, duration=math.nextafter(top, math.inf))
        with pytest.raises(ValueError, match=r"^pulse_area must be small enough "
                           r"that cosh r = exp\(area\) is finite, got 709\."):
            propagators.squeezing_parameter(past)


class TestApply:
    def test_swap_splits_single_excitation(self):
        eta = 0.3
        dims = fock.ModeDims((3, 3))
        k = fock.number_ket(dims, (1, 0))
        out = propagators.apply_antistokes_swap(k, 0, 1, eta)
        pops = out.populations().reshape(3, 3)
        assert pops[1, 0] == pytest.approx(1 - eta, abs=1e-12)
        assert pops[0, 1] == pytest.approx(eta, abs=1e-12)

    def test_full_swap_moves_state(self):
        dims = fock.ModeDims((4, 4))
        rho = fock.tensor(fock.number_ket((4,), (2,)).density_matrix(),
                          fock.vacuum((4,)))
        out = propagators.apply_antistokes_swap(rho, 0, 1, 1.0)
        pops = out.populations().reshape(4, 4)
        np.testing.assert_allclose(pops.sum(axis=1), [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pops.sum(axis=0), [0, 0, 1, 0], atol=1e-12)

    def test_swap_rejects_bad_efficiency(self):
        k = fock.number_ket((3, 3), (0, 0))
        with pytest.raises(ValueError, match="efficiency"):
            propagators.apply_antistokes_swap(k, 0, 1, 1.2)

    def test_squeeze_occupation_matches_sinh2(self):
        r = 0.4
        dims = fock.ModeDims((25, 25))
        out = propagators.apply_stokes_squeeze(
            fock.number_ket(dims, (0, 0)), 0, 1, r).density_matrix()
        expect = math.sinh(r) ** 2
        pops = out.populations().reshape(25, 25)
        n = np.arange(25)
        assert n @ pops.sum(axis=1) == pytest.approx(expect, rel=1e-9)
        assert n @ pops.sum(axis=0) == pytest.approx(expect, rel=1e-9)

    def test_squeeze_rejects_negative(self):
        k = fock.number_ket((6, 6), (0, 0))
        with pytest.raises(ValueError, match="squeezing"):
            propagators.apply_stokes_squeeze(k, 0, 1, -0.1)

    def test_squeeze_takes_no_leak_budget(self):
        # r = 1.5 piles weight onto the top shell of 6 levels; the squeeze
        # stays exactly unitary and leaves judging the leak to its caller
        k = fock.number_ket((6, 6), (0, 0))
        out = propagators.apply_stokes_squeeze(k, 0, 1, 1.5)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
        pops = out.populations().reshape(6, 6)
        assert pops[5].sum() + pops[:5, 5].sum() > 0.1   # the top shells
