"""Design synthesis and feasibility tests."""

import math
import random
import re

import numpy as np
import pytest

from llckit.synthesis import (
    check_feasibility,
    choose_turns_ratio,
    round_components,
    round_to_series,
    search_design_point,
    synthesize_tank,
)
from llckit.tank import (
    DesignRequirements,
    LoadSpec,
    normalize,
    series_resonance,
)

# Reference requirement set: 48 V nominal input with a dip allowance to
# 39 V, fixed 12 V output, 0 to 0.5 A load, resonance target 100 kHz.
REQ = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=48.0,
                         vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                         iout_min=0.0, iout_max=0.5,
                         f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
N_REF = 1.83
LN_REF = 2.05
QE_REF = 0.36

# Frozen synthesis output (independent closed-form evaluation).
CR_EXACT = 6.78600176237257e-08
LR_EXACT = 3.732727576205092e-05
LM_EXACT = 7.652091531220439e-05
# Frozen band edges in Hz: high-gain edge at full load, low-gain edge at
# no load (brentq on brute-force gain curves).
FSW_LO = 89932.55703537208
FSW_HI = 111141.10668731012
# Rounded build: Cr snapped to 68 nF, Lr rewound to keep f0 = 100 kHz.
LR_ROUNDED = 3.725043516262419e-05


class TestTurnsRatio:
    def test_resonance_centering(self):
        assert abs(choose_turns_ratio(REQ) - 2.0) < 1e-12

    def test_shifted_centering(self):
        assert abs(choose_turns_ratio(REQ, mg_center=0.915) - 1.83) < 1e-12

    def test_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.uniform(0.5, 1.5)
            assert abs(choose_turns_ratio(REQ, m) - m * 2.0) < 1e-12


class TestSynthesizeTank:
    def test_reference_components(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        assert abs(t.Cr - CR_EXACT) < 1e-12 * CR_EXACT, f"Cr={t.Cr}"
        assert abs(t.Lr - LR_EXACT) < 1e-12 * LR_EXACT, f"Lr={t.Lr}"
        assert abs(t.Lm - LM_EXACT) < 1e-12 * LM_EXACT, f"Lm={t.Lm}"

    def test_components_near_reference_build(self):
        """Synthesis lands within 10% of the 68 nF / 37 uH / 75 uH build."""
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        assert abs(t.Cr - 68e-9) / 68e-9 < 0.10
        assert abs(t.Lr - 37e-6) / 37e-6 < 0.10
        assert abs(t.Lm - 75e-6) / 75e-6 < 0.10

    def test_hits_f0_target_exactly(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        assert abs(series_resonance(t) - 100e3) < 1e-6

    def test_round_trip_normalization(self):
        """Synthesized tank re-normalizes to the requested (Ln, Qe) at full
        load within 1e-9."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            ln = rng.uniform(1.2, 8.0)
            qe = rng.uniform(0.1, 2.0)
            n = rng.uniform(0.8, 5.0)
            t = synthesize_tank(REQ, n, ln, qe)
            re = LoadSpec.current(REQ.iout_max).effective_load(
                n, REQ.vout_nom)
            p = normalize(t, re, series_resonance(t))
            assert abs(p.Ln - ln) < 1e-9 * ln
            assert abs(p.Qe - qe) < 1e-9 * qe
            assert abs(p.fn - 1.0) < 1e-9

    def test_rejects_bad_shape_parameters(self):
        with pytest.raises(ValueError):
            synthesize_tank(REQ, N_REF, 0.9, QE_REF)
        with pytest.raises(ValueError):
            synthesize_tank(REQ, N_REF, LN_REF, 0.0)


class TestSeriesRounding:
    def test_capacitor_snaps_to_68n(self):
        assert round_to_series(CR_EXACT, "E12") == 68e-9

    def test_fifty_nano_snaps_down(self):
        """50 nF is log-nearer to 47 nF than 56 nF."""
        assert abs(round_to_series(50e-9, "E12") - 47e-9) < 1e-15

    def test_decade_boundary(self):
        assert round_to_series(9.6, "E12") == 10.0

    def test_e24_is_finer(self):
        assert abs(round_to_series(50e-9, "E24") - 51e-9) < 1e-15

    def test_round_components_holds_f0(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        rounded, warnings = round_components(t, "E12")
        assert rounded.Cr == 68e-9
        assert abs(rounded.Lr - LR_ROUNDED) < 1e-12 * LR_ROUNDED
        assert abs(series_resonance(rounded) - series_resonance(t)) < 1e-4
        assert abs(rounded.Lm / rounded.Lr - LN_REF) < 1e-12
        assert any("Cr" in w for w in warnings)

    def test_series_none_is_identity(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        rounded, warnings = round_components(t, "none")
        assert rounded == t and warnings == []


class TestFeasibility:
    def test_reference_design_feasible(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        rep = check_feasibility(t, REQ, N_REF)
        assert rep.feasible
        assert rep.fsw_band is not None
        lo, hi = rep.fsw_band
        assert abs(lo - FSW_LO) < 1.0, f"lo={lo}"
        assert abs(hi - FSW_HI) < 1.0, f"hi={hi}"
        # the band brackets 100 kHz at roughly +/- 10 kHz
        assert abs(lo - 90e3) < 3e3
        assert abs(hi - 110e3) < 3e3

    def test_reference_report_contents(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        rep = check_feasibility(t, REQ, N_REF)
        assert abs(rep.Qe - QE_REF) < 1e-9
        assert abs(rep.Ln - LN_REF) < 1e-12
        assert rep.Mg_peak > 1.2
        assert rep.tank_rounded.Cr == 68e-9

    def test_overload_is_infeasible(self):
        """Inflating the maximum load 10x drops the peak below Mg_max."""
        req10 = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=48.0,
                                   vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                                   iout_min=0.0, iout_max=5.0,
                                   f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        rep = check_feasibility(t, req10, N_REF)
        assert not rep.feasible
        assert any("peak" in w for w in rep.warnings)

    def test_lighter_load_stays_feasible(self):
        """Scaling iout_max down only raises the available peak."""
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        for imax in (0.5, 0.25, 0.1):
            req = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=48.0,
                                     vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                                     iout_min=0.0, iout_max=imax,
                                     f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
            assert check_feasibility(t, req, N_REF).feasible, imax

    def test_headroom_warning(self):
        """A build pushed close to its peak carries a headroom warning."""
        req = DesignRequirements(vin_min=26.5, vin_nom=48.0, vin_max=48.0,
                                 vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                                 iout_min=0.0, iout_max=0.5,
                                 f0_target=100e3, fsw_min=40e3, fsw_max=130e3)
        t = synthesize_tank(req, N_REF, LN_REF, 1.0)
        rep = check_feasibility(t, req, N_REF)
        if rep.feasible:
            assert any("headroom" in w for w in rep.warnings), rep.warnings

    def test_to_dict_round_trips_values(self):
        t = synthesize_tank(REQ, N_REF, LN_REF, QE_REF)
        d = check_feasibility(t, REQ, N_REF).to_dict()
        assert d["feasible"] is True
        assert d["tank"]["Cr"] == t.Cr
        assert d["tank_rounded"]["Cr"] == 68e-9
        assert d["band"]["Mg_max"] == 1.83 * 12.0 / 19.5
        assert len(d["fsw_band"]) == 2


def seeded_search(seed):
    """A requirement set with a light load above zero, a turns ratio off
    centre and random (Ln, Qe) grids, all drawn from ``seed``."""
    rng = random.Random(seed)
    vin_nom = rng.uniform(36.0, 60.0)
    vout_nom = rng.uniform(5.0, 24.0)
    iout_max = rng.uniform(0.2, 5.0)
    f0 = rng.uniform(50e3, 300e3)
    req = DesignRequirements(
        vin_min=vin_nom * rng.uniform(0.75, 1.0), vin_nom=vin_nom,
        vin_max=vin_nom * rng.uniform(1.05, 1.3),
        vout_min=vout_nom * rng.uniform(0.97, 1.0), vout_nom=vout_nom,
        vout_max=vout_nom * rng.uniform(1.0, 1.03),
        iout_min=iout_max * rng.uniform(0.1, 0.9), iout_max=iout_max,
        f0_target=f0, fsw_min=f0 * rng.uniform(0.6, 0.95),
        fsw_max=f0 * rng.uniform(1.2, 2.0))
    n = choose_turns_ratio(req, rng.uniform(0.85, 1.05))
    ln_values = sorted(rng.uniform(1.1, 10.0) for _ in range(8))
    qe_values = sorted(10.0 ** rng.uniform(-1.5, 0.5) for _ in range(10))
    return req, n, ln_values, qe_values


# (Ln index, Qe index) into the seeded grids of the pick recorded from the
# search that synthesized a tank per candidate; None where no candidate
# passed.  Judging candidates in (Ln, Qe) alone must not move any pick.
SEEDED_PICKS = {
    0: (0, 4), 1: (0, 0), 2: None, 3: (0, 5), 4: (0, 5), 5: (0, 8),
    6: None, 7: None, 8: (0, 0), 9: None, 10: (0, 6), 11: None, 12: (0, 0),
    13: (0, 3), 14: None, 15: (0, 7), 16: None, 17: (0, 6), 18: None,
    19: None, 20: (0, 0), 21: None, 22: (0, 5), 23: (0, 8), 24: None,
    25: None, 26: (0, 0), 27: (0, 6), 28: None, 29: None, 30: (0, 0),
    31: (0, 0), 32: (0, 7), 33: (0, 5), 34: (0, 7), 35: (0, 8), 36: None,
    37: (0, 8), 38: (0, 6), 39: (0, 0),
}


def search_light_edge_first(req, n, ln_values, qe_values, min_headroom):
    """The design-point search with the light-load edge solved together
    with the full-load one, before either is checked: the order the search
    used to take, kept as the reference for the pick and for the error."""
    from llckit import synthesis
    from llckit.gain import (
        GainError,
        NormalizedPoint,
        Region,
        _load_term,
        _solve_branch,
        classify_region,
        gain_band,
        peak_gain,
        solve_frequency,
    )
    light = req.iout_min / req.iout_max
    best, best_width = None, math.inf
    for ln in ln_values:
        band = gain_band(req, n, ln)
        need = (1.0 + min_headroom) * band.Mg_max
        qe_miss = math.inf
        for qe in qe_values:
            if qe >= qe_miss:
                _load_term(ln, qe)
                continue
            _, mg_peak = peak_gain(ln, qe)
            if mg_peak < need:
                if mg_peak < need * (1.0 - synthesis._PRUNE_MARGIN):
                    qe_miss = qe
                continue
            try:
                fn_lo = _solve_branch(ln, qe, band.Mg_max)
                fn_hi = solve_frequency(ln, qe * light, band.Mg_min)
            except GainError:
                continue
            if classify_region(NormalizedPoint(ln, qe, fn_lo)) \
                    is not Region.INDUCTIVE:
                continue
            f0 = req.f0_target
            if fn_lo * f0 < req.fsw_min or fn_hi * f0 > req.fsw_max:
                continue
            width = (fn_hi - fn_lo) * f0
            if width < best_width:
                best, best_width = (ln, qe), width
    if best is None:
        raise ValueError("no (Ln, Qe) candidate satisfies the constraints")
    return best


def random_search(rng):
    """A random requirement set, turns ratio, (Ln, Qe) grids and headroom:
    light loads at and above zero, input ranges up to the nominal and past
    it (to infinity, which makes the light-load target 0), and band limits
    that cut either edge."""
    vin_nom = rng.uniform(20.0, 60.0)
    u = rng.random()
    if u < 0.3:
        vin_max = vin_nom
    elif u < 0.4:
        vin_max = math.inf
    else:
        vin_max = vin_nom * rng.uniform(1.0, 1.6)
    vout_nom = rng.uniform(3.0, 30.0)
    iout_max = rng.uniform(0.1, 3.0)
    f0 = rng.uniform(50e3, 200e3)
    req = DesignRequirements(
        vin_min=vin_nom * rng.uniform(0.6, 1.0), vin_nom=vin_nom,
        vin_max=vin_max, vout_min=vout_nom * rng.uniform(0.8, 1.0),
        vout_nom=vout_nom, vout_max=vout_nom * rng.uniform(1.0, 1.2),
        iout_min=0.0 if rng.random() < 0.4 else iout_max * rng.random(),
        iout_max=iout_max, f0_target=f0,
        fsw_min=f0 * rng.uniform(0.4, 0.95),
        fsw_max=f0 * rng.uniform(1.05, 1.8))
    n = choose_turns_ratio(req, rng.uniform(0.85, 1.15))
    ln_values = sorted(rng.uniform(1.1, 10.0) for _ in range(6))
    qe_values = sorted(10.0 ** rng.uniform(-1.5, 0.5) for _ in range(8))
    return req, n, ln_values, qe_values, rng.choice((0.0, 0.1, 0.2, 0.3))


def counting_calls(solve, calls):
    """``solve`` that first appends its first two arguments, (Ln, Qe), to
    ``calls``."""
    def counting(*args):
        calls.append(args[:2])
        return solve(*args)
    return counting


def outcome(search, args):
    """The pick of ``search(*args)``, or the message of its ValueError."""
    try:
        return search(*args)
    except ValueError as exc:
        return str(exc)


def _ties():
    """Search inputs (req, n, Ln grid, Qe grid, headroom) on which a
    decision of the search lies within rounding of its threshold, and the
    (Ln, Qe) of each exact peak_gain and _solve_branch call it makes."""
    from llckit.gain import peak_gain
    # the solved peak at qe misses 1.2 vout by less than _PRUNE_MARGIN,
    # and the one at the next float up clears it
    ln, qe = 2.399502047661044, 0.4736106535436214
    qe_up = math.nextafter(qe, math.inf)
    vout = 1.469097242671303
    rises = DesignRequirements(vin_min=2.0, vin_nom=2.0, vin_max=2.0,
                               vout_min=1.0874682569205119, vout_nom=vout,
                               vout_max=vout, iout_min=0.1, iout_max=1.0,
                               f0_target=100e3, fsw_min=1e3, fsw_max=1e7)
    # with no headroom asked, Mg_max is the peak gain itself: the peak
    # sits on its threshold and the full-load edge is a double root
    mg = peak_gain(2.0, 0.3)[1]
    at_peak = DesignRequirements(vin_min=2.0, vin_nom=2.0, vin_max=2.0,
                                 vout_min=0.9, vout_nom=mg, vout_max=mg,
                                 iout_min=0.1, iout_max=1.0, f0_target=100e3,
                                 fsw_min=1e3, fsw_max=1e7)
    return {
        "peak_rises_by_rounding": ((rises, 1.0, [ln], [qe, qe_up], 0.2),
                                   [(ln, qe), (ln, qe_up)]),
        "edge_at_the_peak": ((at_peak, 1.0, [2.0], [0.3], 0.0),
                             [(2.0, 0.3), (2.0, 0.3)]),
    }


TIES = _ties()


def _wide_bands():
    """Search inputs whose bands are so wide in Hz, at f0 near the largest
    float, that (fn_hi - fn_lo) f0 overflows wherever the light-load edge
    passes fsw_max = inf: no such band is narrower than none."""
    req = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=75.0,
                             vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                             iout_min=0.0, iout_max=0.5, f0_target=1.7e308,
                             fsw_min=1e300, fsw_max=math.inf)
    return req, 2.0, [1.5 + 0.5 * k for k in range(18)], \
        [0.1 + 0.05 * k for k in range(19)], 0.2


WIDE_BANDS = _wide_bands()


class TestSearchDesignPoint:
    def test_seeded_picks_are_pinned(self):
        wrong = []
        for seed, pick in SEEDED_PICKS.items():
            req, n, ln_values, qe_values = seeded_search(seed)
            try:
                ln, qe = search_design_point(req, n, ln_values, qe_values)
                got = (ln_values.index(ln), qe_values.index(qe))
            except ValueError:
                got = None
            if got != pick:
                wrong.append((seed, got, pick))
        assert not wrong

    def test_full_load_edge_first_keeps_every_pick_and_error(self):
        # the light-load edge is solved only for a candidate whose
        # full-load edge passes: over 600 random requirement sets, the
        # ties and bands too wide to measure the pick, or the error and its
        # message, is the one of solving both first
        rng = random.Random(19)
        outcomes = []
        extra = [args for args, _ in TIES.values()] + [WIDE_BANDS]
        for args in [random_search(rng) for _ in range(600)] + extra:
            got = outcome(search_design_point, args)
            assert got == outcome(search_light_edge_first, args), args
            outcomes.append(got if isinstance(got, str) else "pick")
        # every outcome is among them
        assert set(outcomes) == {
            "pick", "Mg_target must be positive",
            "no (Ln, Qe) candidate satisfies the constraints"}

    def test_returns_valid_candidate(self):
        ln, qe = search_design_point(REQ, N_REF)
        t = synthesize_tank(REQ, N_REF, ln, qe)
        rep = check_feasibility(t, REQ, N_REF)
        assert rep.feasible, (ln, qe)

    def test_deterministic(self):
        assert search_design_point(REQ, N_REF) == search_design_point(REQ, N_REF)

    def test_respects_headroom_constraint(self):
        from llckit.gain import gain_band, peak_gain
        ln, qe = search_design_point(REQ, N_REF, min_headroom=0.2)
        band = gain_band(REQ, N_REF, ln)
        t = synthesize_tank(REQ, N_REF, ln, qe)
        re = LoadSpec.current(REQ.iout_max).effective_load(N_REF,
                                                           REQ.vout_nom)
        qe_full = normalize(t, re, series_resonance(t)).Qe
        _, mg_peak = peak_gain(ln, qe_full)
        assert mg_peak >= 1.2 * band.Mg_max

    def test_each_peak_is_solved_once(self, monkeypatch):
        # the candidates that clear the headroom solve their band edge
        # from the peak the search already has, not by solving it again;
        # a peak counts whether it is estimated or solved exactly
        import importlib

        from llckit import synthesis
        gain = importlib.import_module("llckit.gain")
        calls = []
        for owner, name in ((gain, "peak_gain"), (synthesis, "peak_gain"),
                            (synthesis, "_peak_estimate")):
            monkeypatch.setattr(owner, name,
                                counting_calls(getattr(owner, name), calls))
        assert search_design_point(REQ, N_REF) == (1.5, 0.1)
        assert len(calls) == len(set(calls))

    def test_peaks_at_or_above_a_miss_are_not_solved(self, monkeypatch):
        # the peak falls as Qe rises, so past the smallest Qe whose peak
        # misses the headroom no peak is solved, estimated or exactly
        # (342 calls before, 153 now)
        import importlib

        from llckit import synthesis
        gain = importlib.import_module("llckit.gain")
        peak_gain = gain.peak_gain
        calls = []
        for name in ("peak_gain", "_peak_estimate"):
            monkeypatch.setattr(synthesis, name, counting_calls(
                getattr(synthesis, name), calls))
        assert search_design_point(REQ, N_REF) == (1.5, 0.1)
        ln_values = [1.5 + 0.5 * k for k in range(18)]
        qe_values = [0.1 + 0.05 * k for k in range(19)]
        expected = []
        for ln in ln_values:
            need = 1.2 * gain.gain_band(REQ, N_REF, ln).Mg_max
            misses = [qe for qe in qe_values if peak_gain(ln, qe)[1] < need]
            qe_miss = min(misses, default=math.inf)
            expected += [(ln, qe) for qe in qe_values if qe <= qe_miss]
        assert calls == expected
        assert len(calls) == 153

    @pytest.mark.parametrize("huge", [math.inf, 1e160])
    def test_a_skipped_qe_still_raises_out_of_range(self, huge):
        # Qe = 5 misses the headroom at every Ln, so ``huge`` is skipped;
        # its (Qe Ln)^2 still overflows as it would in peak_gain
        with pytest.raises(ValueError,
                           match=re.escape(f"Qe = {huge!r} is out of range")):
            search_design_point(REQ, N_REF, [2.0], [0.2, 5.0, huge])

    def test_peaks_that_rise_by_rounding_keep_their_pick(self):
        # the solved peak rises by an ulp from qe to the next float up,
        # and the headroom threshold sits between the two: the miss at qe
        # is within rounding, so it must not skip the candidate above it
        from llckit.gain import peak_gain
        req, n, (ln,), (qe, qe_up), _ = TIES["peak_rises_by_rounding"][0]
        assert peak_gain(ln, qe)[1] < 1.2 * req.vout_max <= peak_gain(ln, qe_up)[1]
        assert search_design_point(req, n, [ln], [qe, qe_up]) == (ln, qe_up)

    @pytest.mark.parametrize("name", sorted(TIES))
    def test_ties_are_solved_exactly(self, name, monkeypatch):
        # a peak within _PRUNE_MARGIN of the headroom, and a band edge at
        # the peak (a near-double root, whose bracket cannot be
        # confirmed), are solved by bisection, and the pick is the one of
        # bisecting every root
        from llckit import synthesis
        args, exact_solves = TIES[name]
        calls = []
        for fn in ("peak_gain", "_solve_branch"):
            monkeypatch.setattr(synthesis, fn, counting_calls(
                getattr(synthesis, fn), calls))
        got = outcome(search_design_point, args)
        assert calls == exact_solves
        assert got == outcome(search_light_edge_first, args)

    def test_shuffled_grids_keep_their_picks(self):
        # the skip does not depend on the grid order: the default grid and
        # each seeded grid, shuffled, give the pick of the sorted grid
        ln_values = [1.5 + 0.5 * k for k in range(18)]
        qe_values = [0.1 + 0.05 * k for k in range(19)]
        rng = random.Random(7)
        rng.shuffle(ln_values)
        rng.shuffle(qe_values)
        assert search_design_point(REQ, N_REF, ln_values, qe_values) == (1.5, 0.1)
        wrong = []
        for seed, pick in SEEDED_PICKS.items():
            req, n, ln_values, qe_values = seeded_search(seed)
            want = pick and (ln_values[pick[0]], qe_values[pick[1]])
            rng = random.Random(seed)
            rng.shuffle(ln_values)
            rng.shuffle(qe_values)
            try:
                got = search_design_point(req, n, ln_values, qe_values)
            except ValueError:
                got = None
            if got != want:
                wrong.append((seed, got, want))
        assert not wrong


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
