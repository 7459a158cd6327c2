"""Gain-curve analysis tests.

Expected values marked "frozen" were produced by independent brute-force
evaluation of the gain formula (dense numpy grids, direct complex
arithmetic) rather than by the functions under test.
"""

import importlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llckit import cli
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
    gain_magnitude,
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

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0),
           qe=st.one_of(st.just(0.0),
                        st.floats(-3.0, 10.0).map(lambda e: 10.0 ** e)),
           fn_kind=st.sampled_from(("grid", "resonance", "pole")),
           log_fn=st.floats(-2.0, 2.0), as_numpy=st.booleans())
    def test_scalar_path_matches_array_path(self, ln, qe, fn_kind, log_fn,
                                            as_numpy):
        """A scalar fn gives bit for bit the value of the same sample in an
        array, on the poles (inf) and at resonance included."""
        fn = {"grid": 10.0 ** log_fn, "resonance": 1.0,
              "pole": 1.0 / math.sqrt(ln + 1.0)}[fn_kind]
        expected = gain_magnitude(ln, qe, np.array([fn]))[0]
        got = gain_magnitude(ln, qe, np.float64(fn) if as_numpy else fn)
        assert type(got) is float
        assert got.hex() == float(expected).hex(), (got, expected)


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


class TestEstimates:
    """The Newton estimates the design-point search decides on."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0), log_qe=st.floats(-3.0, 10.0))
    def test_peak_estimate_is_within_its_tolerance(self, ln, log_qe):
        qe = 10.0 ** log_qe
        est = gain_module._peak_estimate(ln, qe)
        mg_pk = peak_gain(ln, qe)[1]
        if est is not None:
            assert abs(est - mg_pk) <= gain_module.PEAK_ESTIMATE_TOL * mg_pk
        if 1.1 <= ln <= 10.0 and -1.5 <= log_qe <= 0.5:
            # confirmed across the grids the search is given
            assert est is not None

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(ln=st.floats(1.01, 20.0), log_qe=st.floats(-3.0, 6.0),
           log_step=st.floats(-12.0, 1.0), no_load=st.booleans(),
           above=st.booleans())
    def test_branch_bracket_holds_the_bisection(self, ln, log_qe, log_step,
                                                no_load, above):
        """The bracket, where confirmed, holds what _solve_branch returns,
        down to targets a hair below the peak; above the peak, where the
        bisection has no root to find, it is not confirmed."""
        qe = 10.0 ** log_qe
        fn_pk, mg_pk = peak_gain(ln, qe)
        if no_load:
            qe = 0.0
        if above and not no_load:
            target = mg_pk * (1.0 + 10.0 ** log_step)
            assert gain_module._branch_bracket(ln, qe, target) is None
            return
        target = gain_magnitude(ln, qe, fn_pk * (1.0 + 10.0 ** log_step))
        try:
            fn = gain_module._solve_branch(ln, qe, target)
        except BelowAsymptote:
            with pytest.raises(BelowAsymptote):
                gain_module._branch_bracket(ln, qe, target)
            return
        bracket = gain_module._branch_bracket(ln, qe, target)
        if bracket is not None:
            assert bracket[0] <= fn <= bracket[1]
            assert bracket[1] - bracket[0] <= 2.0 * gain_module._BRACKET_MAX * fn
        elif log_step > -4.0 and log_qe < 3.0:
            pytest.fail("bracket not confirmed away from the peak")

    def test_a_target_at_the_peak_is_not_confirmed(self):
        # P has a double root there: no sign change to confirm
        for ln, qe in ((2.0, 0.3), (LN_REF, QE_REF), (6.0, 1.5)):
            mg_pk = peak_gain(ln, qe)[1]
            assert gain_module._branch_bracket(ln, qe, mg_pk) is None

    @pytest.mark.parametrize("estimate, exact", [
        (lambda ln, qe: gain_module._peak_estimate(ln, qe),
         lambda ln, qe: peak_gain(ln, qe)),
        (lambda ln, qe: gain_module._branch_bracket(ln, qe, 0.9),
         lambda ln, qe: gain_module._solve_branch(ln, qe, 0.9)),
    ], ids=["peak", "branch"])
    @pytest.mark.parametrize("ln, qe", [
        (1.0, 0.3), (LN_REF, 0.0), (LN_REF, -1.0), (LN_REF, 1e200),
        (LN_REF, math.inf), (LN_REF, 1e6), (LN_REF, 0.36)])
    def test_estimates_raise_as_the_exact_solvers(self, estimate, exact,
                                                  ln, qe):
        try:
            exact(ln, qe)
        except (ValueError, BelowAsymptote) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                estimate(ln, qe)
        else:
            estimate(ln, qe)


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
        """The region verdict is the sign of the direct complex impedance
        of a physical tank across random operating points."""
        rng = np.random.default_rng(701)
        for _ in range(300):
            ln = rng.uniform(1.1, 8.0)
            qe = rng.uniform(0.05, 3.0)
            fn = rng.uniform(0.2, 3.0)
            if (abs(fn - boundary_frequency(ln, qe))
                    < gain_module.BOUNDARY_FN_TOL):
                continue
            lr = 40e-6
            cr = 70e-9
            t = TankParams(Lr=lr, Cr=cr, Lm=ln * lr, n=2.0)
            f0 = 1.0 / (2 * math.pi * math.sqrt(lr * cr))
            re = t.Z0 / qe
            z = tank_input_impedance(t, re, fn * f0)
            expected = Region.INDUCTIVE if z.imag > 0 else Region.CAPACITIVE
            got = classify_region(NormalizedPoint(ln, qe, fn))
            assert got is expected, (ln, qe, fn)

    def test_resonance_always_inductive(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = NormalizedPoint(Ln=rng.uniform(1.05, 10), Qe=rng.uniform(0.01, 5), fn=1.0)
            assert classify_region(p) is Region.INDUCTIVE


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

    def test_gain_table_column_matches_per_sample(self):
        """The CLI's short-circuit column, built on the whole grid at once,
        is short_circuit_gain sample by sample, and inf where that rejects
        the series resonance."""
        fn = np.concatenate([np.geomspace(0.1, 1.0, 240)[:-1],
                             [1.0 - 5e-10, 1.0, 1.0 + 5e-10],
                             np.geomspace(1.0, 10.0, 240)[1:]])
        assert 1.0 in fn
        _, (name, col) = cli._gain_table(SimpleNamespace(Ln=LN_REF), fn, [0.0])
        assert name == "Mg_short_circuit"
        for f, got in zip(fn.tolist(), col.tolist()):
            try:
                expected = short_circuit_gain(LN_REF, f)
            except GainPoleError:
                expected = math.inf
            assert got.hex() == expected.hex(), (f, got, expected)
        assert np.isinf(col).sum() == 3


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
