"""Tank parameter, resonance, and normalization tests."""

import math

import numpy as np
import pytest

from llckit.tank import (
    DesignRequirements,
    LoadSpec,
    NormalizedPoint,
    TankParams,
    char_impedance,
    effective_load,
    noload_resonance,
    normalize,
    resonant_frequency,
    series_resonance,
)

# Reference 48 V -> 12 V, 6 W design used throughout the suite.
REF_LR = 37e-6
REF_CR = 68e-9
REF_LM = 75e-6
REF_N = 1.83
REF_RL = 24.0  # 12 V / 0.5 A

# Frozen against independent evaluation of 1/(2 pi sqrt(LC)).
F0_REF = 100337.85516487593
F0_SPLIT_LEAKAGE = 104670.96226723192  # Lr = 34 uH instead of 37 uH
FP_REF = 57670.89136599666
RE_REF = 65.1483862847664
QE_REF = 0.3580492290184517


def make_ref_tank(**kw):
    args = dict(Lr=REF_LR, Cr=REF_CR, Lm=REF_LM, n=REF_N)
    args.update(kw)
    return TankParams(**args)


class TestResonances:
    def test_series_resonance_reference(self):
        """f0 = 1/(2 pi sqrt(Lr Cr)) for the reference component set."""
        f0 = series_resonance(make_ref_tank())
        assert abs(f0 - F0_REF) < 1e-6, f"f0={f0}"
        assert abs(f0 - 100.3e3) / 100.3e3 < 1e-3

    def test_series_resonance_unit_case(self):
        t = TankParams(Lr=1.0, Cr=1.0 / (4 * math.pi**2), Lm=2.0, n=1.0)
        assert abs(series_resonance(t) - 1.0) < 1e-12

    def test_series_resonance_smaller_inductance(self):
        """Dropping Lr to 34 uH moves f0 up to about 104.7 kHz."""
        f0 = series_resonance(make_ref_tank(Lr=34e-6))
        assert abs(f0 - F0_SPLIT_LEAKAGE) < 1e-6, f"f0={f0}"

    def test_noload_resonance_reference(self):
        fp = noload_resonance(make_ref_tank())
        assert abs(fp - FP_REF) < 1e-6, f"fp={fp}"

    def test_noload_formula_matches_series_on_total_inductance(self):
        t = make_ref_tank()
        assert noload_resonance(t) == resonant_frequency(REF_LR + REF_LM, REF_CR)

    def test_fp_over_f0_identity(self):
        """fp/f0 = 1/sqrt(1+Ln) for any tank."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            lr = 10 ** rng.uniform(-6, -3)
            cr = 10 ** rng.uniform(-9, -6)
            ln = rng.uniform(1.01, 12.0)
            t = TankParams(Lr=lr, Cr=cr, Lm=ln * lr, n=1.0)
            ratio = noload_resonance(t) / series_resonance(t)
            expect = 1.0 / math.sqrt(1.0 + t.Ln)
            assert abs(ratio - expect) < 1e-12 * expect

    def test_fp_over_f0_reference_value(self):
        t = make_ref_tank(Lm=2.05 * REF_LR)
        assert abs(noload_resonance(t) / series_resonance(t) - 0.5725983343138682) < 1e-12


class TestEffectiveLoad:
    def test_reference_load(self):
        re = effective_load(REF_N, REF_RL)
        assert abs(re - RE_REF) < 1e-9, f"Re={re}"

    def test_unity_mapping(self):
        """n=1 with RL = pi^2/8 lands exactly on 1 ohm."""
        assert abs(effective_load(1.0, math.pi**2 / 8.0) - 1.0) < 1e-12

    def test_n2_case(self):
        assert abs(effective_load(2.0, REF_RL) - 77.81466903731541) < 1e-9

    def test_quadratic_in_n(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.uniform(0.5, 10)
            rl = rng.uniform(0.1, 1e3)
            k = rng.uniform(1.1, 5.0)
            assert abs(effective_load(k * n, rl) - k * k * effective_load(n, rl)) < 1e-9 * effective_load(k * n, rl)

    def test_no_load_maps_to_inf(self):
        assert effective_load(REF_N, math.inf) == math.inf


class TestNormalization:
    def test_reference_point(self):
        """Reference tank at 100 kHz, 0.5 A: Ln ~ 2.03, Qe ~ 0.36, fn ~ 0.997."""
        t = make_ref_tank()
        p = normalize(t, RE_REF, 100e3)
        assert abs(p.Ln - 75.0 / 37.0) < 1e-12
        assert abs(p.Qe - QE_REF) < 1e-12, f"Qe={p.Qe}"
        assert abs(p.fn - 0.9966328245274849) < 1e-12, f"fn={p.fn}"

    def test_no_load_gives_qe_zero(self):
        p = normalize(make_ref_tank(), math.inf, 100e3)
        assert p.Qe == 0.0

    def test_round_trip_components_first(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            lr = 10 ** rng.uniform(-6, -3)
            cr = 10 ** rng.uniform(-9, -6)
            ln = rng.uniform(1.05, 8.0)
            re = 10 ** rng.uniform(0, 3)
            t = TankParams(Lr=lr, Cr=cr, Lm=ln * lr, n=2.0)
            f0 = series_resonance(t)
            p = normalize(t, re, f0)
            # the way back is synthesize_tank's: Cr from (f0, Qe, Re), then
            # Lr from f0
            w0 = 2.0 * math.pi * f0
            cr2 = 1.0 / (w0 * p.Qe * re)
            lr2 = 1.0 / (w0 * w0 * cr2)
            lm2 = p.Ln * lr2
            assert abs(lr2 - lr) < 1e-12 * lr
            assert abs(cr2 - cr) < 1e-12 * cr
            assert abs(lm2 - t.Lm) < 1e-12 * t.Lm


class TestLoadEffectiveLoad:
    def test_reference_full_load(self):
        re = LoadSpec.current(0.5).effective_load(REF_N, 12.0)
        assert abs(re - RE_REF) < 1e-9

    def test_no_load(self):
        assert LoadSpec.current(0.0).effective_load(REF_N, 12.0) == math.inf

    def test_resistance_is_its_own_rl(self):
        # a resistor draws what it draws at any output voltage
        for vout in (1e-3, 12.0, 1e3):
            re = LoadSpec.resistance(REF_RL).effective_load(REF_N, vout)
            assert re == effective_load(REF_N, REF_RL)

    def test_reads_the_first_value(self):
        ld = LoadSpec.profile("current", [(0.0, 0.5), (1e-3, 0.0)])
        assert ld.effective_load(REF_N, 12.0) == effective_load(REF_N, REF_RL)


class TestValidation:
    def test_lm_must_dominate(self):
        with pytest.raises(ValueError):
            TankParams(Lr=40e-6, Cr=68e-9, Lm=40e-6, n=1.83)

    def test_positive_components(self):
        for bad in [dict(Lr=-1e-6), dict(Cr=0.0), dict(n=0.0), dict(Vf=-0.1),
                    dict(Cout=0.0), dict(t_dead=-1e-9)]:
            with pytest.raises(ValueError):
                make_ref_tank(**bad)

    def test_defaults(self):
        t = make_ref_tank()
        assert t.t_dead == 100e-9
        assert t.Cout == 100e-6
        assert t.Vf == 0.0

    def test_requirements_frequency_ordering(self):
        with pytest.raises(ValueError):
            DesignRequirements(vin_min=39, vin_nom=48, vin_max=48,
                               vout_min=12, vout_nom=12, vout_max=12,
                               iout_min=0.0, iout_max=0.5,
                               f0_target=100e3, fsw_min=110e3, fsw_max=130e3)

    def test_requirements_voltage_ordering(self):
        with pytest.raises(ValueError):
            DesignRequirements(vin_min=50, vin_nom=48, vin_max=48,
                               vout_min=12, vout_nom=12, vout_max=12,
                               iout_min=0.0, iout_max=0.5,
                               f0_target=100e3, fsw_min=60e3, fsw_max=130e3)

    def test_normalized_point_bounds(self):
        with pytest.raises(ValueError):
            NormalizedPoint(Ln=1.0, Qe=0.3, fn=1.0)
        with pytest.raises(ValueError):
            NormalizedPoint(Ln=2.0, Qe=-0.1, fn=1.0)

    def test_char_impedance(self):
        assert abs(char_impedance(REF_LR, REF_CR) - 23.326329481056884) < 1e-12


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
