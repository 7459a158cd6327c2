"""Gain-curve analysis tests.

Expected values marked "frozen" were produced by independent brute-force
evaluation of the gain formula (dense numpy grids, direct complex
arithmetic) rather than by the functions under test.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llckit.gain import (
    BelowAsymptote,
    GainPoleError,
    Region,
    UnreachableGain,
    asymptotic_gain,
    boundary_frequency,
    classify_region,
    gain,
    gain_band,
    gain_curve,
    gain_magnitude,
    input_impedance_norm,
    input_reactance,
    peak_gain,
    short_circuit_gain,
    solve_frequency,
    tank_input_impedance,
)
from llckit.tank import DesignRequirements, NormalizedPoint, TankParams

# the package re-exports a function named ``gain``, which hides the module
gain_module = importlib.import_module("llckit.gain")

LN_REF = 2.05
QE_REF = 0.36

# Frozen brute-force values for (Ln, Qe) = (2.05, 0.36).
MG_AT_1P1 = 0.9201024012025728
FN_PEAK_REF = 0.5963256815844193
MG_PEAK_REF = 2.463307994583623
FN_AT_0915 = 1.1079069470697585
FN_AT_0915_NOLOAD = 1.1114110668731012
FN_BOUNDARY_REF = 0.6078398204801932  # zero crossing of the input reactance
EPS = np.finfo(float).eps


def brute_mag(ln, qe, fn):
    """Independent re-evaluation of the gain magnitude."""
    fn = np.asarray(fn, dtype=float)
    den = ((ln + 1.0) * fn**2 - 1.0) + 1j * ((fn**2 - 1.0) * fn * qe * ln)
    return np.abs(ln * fn**2 / den)


def req_48to12(vin_min=48.0):
    return DesignRequirements(vin_min=vin_min, vin_nom=48.0, vin_max=48.0,
                              vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                              iout_min=0.0, iout_max=0.5,
                              f0_target=100e3, fsw_min=60e3, fsw_max=130e3)


class TestGainPoint:
    def test_unity_at_resonance_randomized(self):
        """All load curves cross |Mg| = 1 at fn = 1, to 1e-12."""
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(10_000):
            p = NormalizedPoint(Ln=rng.uniform(1.01, 20.0),
                                Qe=rng.uniform(0.0, 10.0), fn=1.0)
            worst = max(worst, abs(gain(p).Mg - 1.0))
        print(f"worst |Mg(1)-1| = {worst:.3e}")
        assert worst < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0),
           qe=st.one_of(st.just(0.0), st.floats(1e-3, 1e10)))
    def test_unity_at_resonance_is_exact(self, ln, qe):
        """|Mg(1)| = 1 bit for bit, for every tank shape and load."""
        assert gain_magnitude(ln, qe, 1.0) == 1.0
        assert gain(NormalizedPoint(Ln=ln, Qe=qe, fn=1.0)).Mg == 1.0

    def test_reference_value_above_resonance(self):
        g = gain(NormalizedPoint(Ln=LN_REF, Qe=QE_REF, fn=1.1))
        assert abs(g.Mg - MG_AT_1P1) < 1e-12, f"Mg={g.Mg}"

    def test_no_load_high_frequency_asymptote(self):
        g = gain(NormalizedPoint(Ln=LN_REF, Qe=0.0, fn=100.0))
        assert abs(g.Mg - 0.6721531853503394) < 1e-12
        assert abs(g.Mg - asymptotic_gain(LN_REF)) < 1e-4

    def test_pole_raises(self):
        fn_pole = 1.0 / math.sqrt(LN_REF + 1.0)
        with pytest.raises(GainPoleError):
            gain(NormalizedPoint(Ln=LN_REF, Qe=0.0, fn=fn_pole))

    def test_phase_range(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = gain(NormalizedPoint(Ln=rng.uniform(1.1, 8), Qe=rng.uniform(0.05, 3),
                                     fn=rng.uniform(0.2, 5)))
            assert -math.pi < g.phase <= math.pi

    def test_magnitude_helper_matches_point(self):
        # numpy and CPython complex division round differently in the last
        # bit, so compare to a couple of ulps rather than exactly.
        rng = np.random.default_rng(13)
        for _ in range(200):
            ln, qe, fn = rng.uniform(1.1, 9), rng.uniform(0.01, 4), rng.uniform(0.3, 3)
            a = gain_magnitude(ln, qe, fn)
            b = gain(NormalizedPoint(ln, qe, fn)).Mg
            assert abs(a - b) <= 4e-16 * b, (a, b)


class TestGainCurve:
    def test_two_samples_are_endpoints(self):
        c = gain_curve(LN_REF, QE_REF, 0.5, 2.0, samples=2)
        assert c.fn[0] == 0.5 and c.fn[-1] == 2.0 and len(c.fn) == 2

    def test_default_density(self):
        c = gain_curve(LN_REF, QE_REF, 0.1, 10.0)  # two decades
        assert len(c.fn) == 800

    def test_every_sample_satisfies_formula(self):
        c = gain_curve(LN_REF, QE_REF, 0.3, 3.0, samples=500)
        ref = brute_mag(LN_REF, QE_REF, c.fn)
        assert np.all(np.abs(c.Mg - ref) <= 1e-12 * ref)

    def test_no_load_pole_is_flagged_not_fatal(self):
        fn_pole = 1.0 / math.sqrt(LN_REF + 1.0)
        fn_hi = fn_pole * 4.0
        # force the exact pole frequency onto the grid via endpoints
        c = gain_curve(LN_REF, 0.0, fn_pole, fn_hi, samples=2)
        assert c.pole[0] and not c.pole[1]
        assert math.isinf(c.Mg[0])

    def test_grid_strictly_increasing(self):
        c = gain_curve(LN_REF, QE_REF, 0.2, 5.0)
        assert np.all(np.diff(c.fn) > 0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            gain_curve(LN_REF, QE_REF, 2.0, 0.5)


class TestPeakGain:
    def test_reference_peak_frozen(self):
        fn_pk, mg_pk = peak_gain(LN_REF, QE_REF)
        assert abs(fn_pk - FN_PEAK_REF) < 1e-7, f"fn_peak={fn_pk}"
        assert abs(mg_pk - MG_PEAK_REF) < 1e-9, f"Mg_peak={mg_pk}"
        assert mg_pk > 1.2
        assert 1.0 / math.sqrt(LN_REF + 1.0) < fn_pk < 1.0

    def test_matches_brute_force_grid(self):
        """Million-point sweep agrees with the stationary-point solve within 1e-6."""
        rng = np.random.default_rng(301)
        for _ in range(12):
            ln = rng.uniform(1.2, 8.0)
            qe = rng.uniform(0.1, 1.5)
            lo = 1.0 / math.sqrt(ln + 1.0) + 1e-6
            grid = np.linspace(lo, 1.0, 1_000_000)
            mags = brute_mag(ln, qe, grid)
            k = int(np.argmax(mags))
            fn_pk, mg_pk = peak_gain(ln, qe)
            assert abs(mg_pk - mags[k]) < 1e-6 * mags[k], (ln, qe)
            assert abs(fn_pk - grid[k]) < 5e-6, (ln, qe)

    def test_heavier_load_lowers_peak(self):
        peaks = [peak_gain(LN_REF, qe)[1] for qe in (0.15, 0.3, 0.5, 0.8, 1.2, 2.0)]
        assert all(a > b for a, b in zip(peaks, peaks[1:])), peaks

    def test_huge_qe_collapses_to_resonance(self):
        fn_pk, mg_pk = peak_gain(LN_REF, 1e6)
        assert abs(fn_pk - 1.0) < 1e-6
        assert abs(mg_pk - 1.0) < 1e-9
        assert mg_pk >= 1.0

    def test_no_load_rejected(self):
        with pytest.raises(ValueError):
            peak_gain(LN_REF, 0.0)

    def test_infinite_load_rejected(self):
        # h(1) = 2 (1 - a) + inf * 0 is NaN: no root to polish
        with pytest.raises(ValueError):
            peak_gain(LN_REF, math.inf)

    @pytest.mark.parametrize("call", [
        lambda: peak_gain(2.05, 1e200),
        lambda: solve_frequency(2.05, 1e200, 0.9),
    ])
    def test_overflowing_load_term_names_qe(self, call):
        # (Qe Ln)^2 is past the float range: a domain error naming Qe,
        # not an OverflowError from the arithmetic
        with pytest.raises(ValueError, match=r"Qe = 1e\+200 is out of range"):
            call()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0), log_qe=st.floats(-3.0, 10.0))
    def test_peak_is_the_stationary_point(self, ln, log_qe):
        """The peak is the root of h(u) = 2u^3 + (c - 2a)u^2 - c, u = 1/fn^2,
        to rounding, for loads from near-open to near-short."""
        qe = 10.0 ** log_qe
        fn_pk, mg_pk = peak_gain(ln, qe)
        assert 1.0 / math.sqrt(ln + 1.0) < fn_pk <= 1.0
        # near a short circuit the peak merges into fn = 1, where |Mg| = 1
        # exactly, and rounding of fn_peak can leave it a few ulp below 1
        assert mg_pk >= 1.0 - 4.0 * EPS
        for side in (1.0 - 1e-7, 1.0 + 1e-7):
            assert mg_pk >= gain_magnitude(ln, qe, fn_pk * side)
        a = ln + 1.0
        c = (qe * ln) ** 2
        u = 1.0 / fn_pk**2
        terms = (2.0 * u**3, (c - 2.0 * a) * u * u, -c)
        assert abs(sum(terms)) <= 1e-12 * max(abs(t) for t in terms)


def _ulps_of_largest(terms):
    """Exactly summed polynomial terms, in units of eps of the largest."""
    return abs(math.fsum(terms)) / (EPS * max(abs(t) for t in terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ln=st.floats(1.01, 20.0), log_qe=st.floats(-3.0, 10.0),
       log_step=st.floats(-8.0, 1.0))
def test_roots_satisfy_their_polynomials(ln, log_qe, log_step):
    """Each FHA root leaves a residual of a few ulp of the largest term of
    its polynomial in x = fn^2, written out term by term."""
    qe = 10.0 ** log_qe
    a = ln + 1.0
    c = (qe * ln) ** 2
    # Im Zin = 0:  c x^2 + (1 + Ln - c) x - 1
    x = boundary_frequency(ln, qe) ** 2
    assert _ulps_of_largest((c * x * x, x, ln * x, -c * x, -1.0)) <= 8.0
    # the peak:  x^3 h(1/x) = 2 - 2 a x + c x - c x^3
    fn_pk, _ = peak_gain(ln, qe)
    x = fn_pk * fn_pk
    assert _ulps_of_largest((2.0, -2.0 * a * x, c * x, -c * x ** 3)) <= 8.0
    # |Mg| = M:  M^2 c x^3 + (M^2 a^2 - 2 M^2 c - Ln^2) x^2
    #            + (M^2 c - 2 M^2 a) x + M^2
    target = gain_magnitude(ln, qe, fn_pk * (1.0 + 10.0 ** log_step))
    try:
        fn = solve_frequency(ln, qe, target)
    except BelowAsymptote:
        return
    x = fn * fn
    m2 = target * target
    terms = (m2 * c * x ** 3, m2 * a * a * x * x, -2.0 * m2 * c * x * x,
             -ln * ln * x * x, m2 * c * x, -2.0 * m2 * a * x, m2)
    assert _ulps_of_largest(terms) <= 8.0


class TestSolveFrequency:
    def test_reference_target_frozen(self):
        fn = solve_frequency(LN_REF, QE_REF, 0.915)
        assert abs(fn - FN_AT_0915) < 1e-9, f"fn={fn}"

    def test_unity_target_lands_on_resonance(self):
        assert abs(solve_frequency(LN_REF, QE_REF, 1.0) - 1.0) < 1e-9

    def test_no_load_target(self):
        fn = solve_frequency(LN_REF, 0.0, 0.915)
        assert abs(fn - FN_AT_0915_NOLOAD) < 1e-9

    def test_round_trip_identity(self):
        """solve(gain(fn)) = fn to 1e-8 on the monotone branch."""
        rng = np.random.default_rng(401)
        for _ in range(300):
            ln = rng.uniform(1.2, 8.0)
            qe = rng.uniform(0.1, 1.5)
            fn_pk, _ = peak_gain(ln, qe)
            fn = rng.uniform(fn_pk * 1.001, 4.0)
            target = gain_magnitude(ln, qe, fn)
            fn_back = solve_frequency(ln, qe, target)
            assert abs(fn_back - fn) < 1e-8, (ln, qe, fn, fn_back)

    def test_unreachable_reports_peak(self):
        with pytest.raises(UnreachableGain) as ei:
            solve_frequency(LN_REF, QE_REF, 3.0)
        assert abs(ei.value.Mg_peak - MG_PEAK_REF) < 1e-6
        assert 0 < ei.value.fn_peak < 1

    def test_below_asymptote_no_load(self):
        with pytest.raises(BelowAsymptote):
            solve_frequency(LN_REF, 0.0, 0.5)

    def test_below_bracket_floor_loaded(self):
        # Mg at fn = 100 with Qe = 0.36 is about 0.028: a 0.01 target is
        # outside the solvable bracket even though the loaded gain has no
        # nonzero asymptote.
        with pytest.raises(BelowAsymptote):
            solve_frequency(LN_REF, QE_REF, 0.01)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0), log_qe=st.floats(-3.0, 6.0),
           log_step=st.floats(-6.0, 1.0))
    def test_answer_does_not_follow_the_peak(self, ln, log_qe, log_step):
        """Moving the peak frequency by a few ulp leaves the answer bit for
        bit: no bracket is taken from it."""
        qe = 10.0 ** log_qe
        fn_pk, mg_pk = peak_gain(ln, qe)
        target = gain_magnitude(ln, qe, fn_pk * (1.0 + 10.0 ** log_step))
        if target == mg_pk:
            return
        try:
            expected = solve_frequency(ln, qe, target)
        except BelowAsymptote:
            return
        for toward in (0.0, 2.0):
            moved = fn_pk
            for _ in range(4):
                moved = math.nextafter(moved, toward)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(gain_module, "peak_gain",
                          lambda _ln, _qe, moved=moved: (moved, mg_pk))
                assert solve_frequency(ln, qe, target) == expected

    def test_monotone_on_regulation_branch(self):
        """|Mg| strictly decreasing on [fn_peak, 4] across the design box."""
        for ln in np.linspace(1.05, 10.0, 8):
            for qe in np.linspace(0.1, 1.0, 6):
                fn_pk, _ = peak_gain(ln, qe)
                grid = np.linspace(fn_pk, 4.0, 4000)
                mags = brute_mag(ln, qe, grid)
                assert np.all(np.diff(mags) < 0), (ln, qe)


class TestGainBand:
    def test_reference_band_degenerate(self):
        b = gain_band(req_48to12(), 1.83, LN_REF)
        assert abs(b.Mg_min - 0.915) < 1e-12
        assert abs(b.Mg_max - 0.915) < 1e-12

    def test_at_resonance_ratio_gives_unity(self):
        b = gain_band(req_48to12(), 2.0, LN_REF)
        assert abs(b.Mg_min - 1.0) < 1e-12
        assert abs(b.Mg_max - 1.0) < 1e-12

    def test_input_range_spreads_band(self):
        b = gain_band(req_48to12(vin_min=39.0), 1.83, LN_REF)
        assert abs(b.Mg_min - 0.915) < 1e-12
        assert abs(b.Mg_max - 1.83 * 12.0 / 19.5) < 1e-12
        assert b.Mg_max > b.Mg_min

    def test_asymptote_value(self):
        b = gain_band(req_48to12(), 1.83, LN_REF)
        assert abs(b.Mg_inf - LN_REF / (LN_REF + 1.0)) < 1e-15


class TestRegionClassification:
    def test_reference_points(self):
        assert classify_region(NormalizedPoint(LN_REF, QE_REF, 1.1)) is Region.INDUCTIVE
        assert classify_region(NormalizedPoint(LN_REF, QE_REF, 0.6)) is Region.CAPACITIVE

    def test_boundary_frequency_frozen(self):
        fb = boundary_frequency(LN_REF, QE_REF)
        assert abs(fb - FN_BOUNDARY_REF) < 1e-9, f"fn_b={fb}"

    def test_boundary_band(self):
        fb = boundary_frequency(LN_REF, QE_REF)
        assert classify_region(NormalizedPoint(LN_REF, QE_REF, fb)) is Region.BOUNDARY
        assert classify_region(NormalizedPoint(LN_REF, QE_REF, fb + 1e-6)) is Region.INDUCTIVE
        assert classify_region(NormalizedPoint(LN_REF, QE_REF, fb - 1e-6)) is Region.CAPACITIVE

    @pytest.mark.parametrize("qe", [1e160, 1e300, math.inf])
    def test_boundary_of_a_shorted_load_is_resonance(self, qe):
        """Qe -> inf takes the boundary to fn = 1, without overflow or NaN."""
        assert boundary_frequency(LN_REF, qe) == 1.0

    def test_matches_dimensioned_impedance_sign(self):
        """Normalized reactance agrees with direct complex impedance of a
        physical tank across random operating points."""
        rng = np.random.default_rng(701)
        for _ in range(300):
            ln = rng.uniform(1.1, 8.0)
            qe = rng.uniform(0.05, 3.0)
            fn = rng.uniform(0.2, 3.0)
            lr = 40e-6
            cr = 70e-9
            t = TankParams(Lr=lr, Cr=cr, Lm=ln * lr, n=2.0)
            f0 = 1.0 / (2 * math.pi * math.sqrt(lr * cr))
            re = t.Z0 / qe
            z = tank_input_impedance(t, re, fn * f0)
            xn = input_reactance(ln, qe, fn)
            assert abs(z.imag / t.Z0 - xn) < 1e-9 * max(1.0, abs(xn))

    def test_resonance_always_inductive(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = NormalizedPoint(Ln=rng.uniform(1.05, 10), Qe=rng.uniform(0.01, 5), fn=1.0)
            assert classify_region(p) is Region.INDUCTIVE

    def test_impedance_norm_no_load(self):
        z = input_impedance_norm(2.0, 0.0, 0.5)
        assert z.real == 0.0
        assert abs(z.imag - (0.5 - 2.0 + 1.0)) < 1e-15  # fn - 1/fn + fn*Ln


class TestShortCircuit:
    def test_small_above_resonance(self):
        g = short_circuit_gain(LN_REF, 1.5)
        assert g < 0.01
        assert abs(g - 1.1999999999986042e-06) < 1e-15

    def test_resonance_flagged(self):
        with pytest.raises(GainPoleError):
            short_circuit_gain(LN_REF, 1.0)

    def test_strictly_decreasing_above_resonance(self):
        grid = np.geomspace(1.001, 10.0, 1000)
        vals = np.array([short_circuit_gain(LN_REF, f) for f in grid])
        assert np.all(np.diff(vals) < 0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
