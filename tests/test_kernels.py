"""Kernel-level checks: exact propagation, event localization, energy
bookkeeping.

Oracles here are closed-form solutions of the piecewise-linear circuit:
with the rectifier open the tank is a plain series L-C, so trajectories
and threshold-crossing times have exact expressions to test against.
"""

import math

import numpy as np

from llckit import kernels

LR = 37e-6
CR = 68e-9
LM = 75e-6
N = 1.83
COUT = 100e-6

RES = kernels.LOAD_RES


def call_segment(x0, t0, t1, seg, clamp, rect, vin, load_val, dt_max,
                 tol_t=1e-18, stride=1, rec_cap=65536, Vf=0.0, Cout=COUT):
    rec = np.empty((rec_cap, kernels.REC_COLS))
    ev = np.empty((256, 2))
    acc = np.zeros(3)
    out = kernels.integrate_segment(
        x0[0], x0[1], x0[2], x0[3], t0, t1, seg, clamp, rect,
        vin, LR, CR, LM, N, Vf, Cout, RES, load_val,
        dt_max, tol_t, stride, rec, 0, ev, 0, acc)
    err, rec_n, ev_n = out[0], out[1], out[2]
    assert err == kernels.ERR_OK, f"kernel error code {err}"
    return {
        "rect": out[3], "clamp": out[4],
        "x": np.array(out[5:9]), "maxes": out[9:13],
        "rec": rec[:rec_n].copy(), "ev": ev[:ev_n].copy(), "acc": acc,
    }


class TestExactPropagator:
    def test_series_ring_matches_closed_form(self):
        # open-rectifier tank from rest is series (Lr+Lm)-Cr: every
        # recorded state and the end state sit on the exact solution, to
        # rounding, at grid steps and at coarse steps alike; the output is
        # held far above any reachable clamp level so no diode turns on
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        zp = math.sqrt(L / CR)
        vin = 48.0
        x0 = np.array([0.0, 0.0, 0.0, 50.0])
        for stride in (1, 1 << 30):
            out = call_segment(x0, 0.0, 20e-6, kernels.SEG_HIGH, 0,
                               kernels.RECT_OFF, vin, 1e12, 5e-9,
                               stride=stride, Cout=1.0)
            assert out["rect"] == kernels.RECT_OFF
            assert out["ev"].shape[0] == 0
            rows = out["rec"]
            t = rows[:, 0]
            assert np.all(rows[:, 1] == rows[:, 3])  # series constraint
            assert np.max(np.abs(rows[:, 1] - vin / zp * np.sin(wp * t))) \
                < 1e-13 * vin / zp
            assert np.max(np.abs(rows[:, 2] - vin * (1.0 - np.cos(wp * t)))) \
                < 1e-13 * vin
            assert abs(out["x"][0] - vin / zp * math.sin(wp * 20e-6)) \
                < 1e-13 * vin / zp
            # the peaks include the crest between records: 2 vin for vCr
            assert abs(out["maxes"][1] - 2.0 * vin) < 1e-13 * vin
            assert abs(out["maxes"][0] - vin / zp) < 1e-13 * vin / zp

    def test_clamp_graze_inside_one_step_is_found(self):
        # the open-rectifier magnetizing voltage crests 1 % above the D1
        # clamp in the middle of one coarse step and is back below it at
        # both ends: the turn-on must still be found, at the closed-form
        # instant where the crest first reaches the clamp
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        kq = LM / L
        vin, v0 = 48.0, 30.0
        vout = kq * v0 / (1.01 * N)
        maps = {}
        span = 0.95 * kernels._step_cap(maps, vin, LR, CR, LM, N, 0.0, 1.0,
                                         RES, 1e12)
        tp = 0.5 * span  # the crest: vCr = vin - v0 cos(wp (t - tp))
        x0 = np.array([-CR * v0 * wp * math.sin(wp * tp),
                       vin - v0 * math.cos(wp * tp), 0.0, vout])
        x0[2] = x0[0]
        ends = [kq * v0 * math.cos(wp * (t - tp)) - N * vout
                for t in (0.0, span)]
        assert max(ends) < 0.0  # no sign change across the step
        # dt_max = span: the whole span is one step
        out = call_segment(x0, 0.0, span, kernels.SEG_HIGH, 0,
                           kernels.RECT_OFF, vin, 1e12, span,
                           stride=1 << 30, Cout=1.0)
        ons = out["ev"][out["ev"][:, 1] == kernels.EV_D1_ON]
        assert ons.shape[0] == 1
        t_on = tp - math.acos(1.0 / 1.01) / wp
        assert abs(ons[0, 0] - t_on) < 1e-12


class TestRk4Order:
    def test_zero_everything_stays_zero(self):
        out = call_segment(np.zeros(4), 0.0, 5e-6, kernels.SEG_HIGH, 0,
                           kernels.RECT_OFF, 0.0, 24.0, 5e-9)
        assert np.all(out["x"] == 0.0)
        assert np.all(out["acc"] == 0.0)
        assert out["ev"].shape[0] == 0
        assert np.all(out["rec"][:, 1:7] == 0.0)

    def test_open_rectifier_keeps_currents_identical(self):
        # output held far above any reachable clamp level: diodes stay off
        # and both inductors integrate the same voltage, exactly
        x0 = np.array([0.1, 3.0, 0.1, 50.0])
        out = call_segment(x0, 0.0, 4e-6, kernels.SEG_LOW, 0,
                           kernels.RECT_OFF, 48.0, 1e12, 4e-9, Cout=1.0)
        assert out["rect"] == kernels.RECT_OFF
        assert out["x"][0] == out["x"][2]
        assert np.all(out["rec"][:, 1] == out["rec"][:, 3])


class TestEventLocation:
    def test_diode_turn_on_matches_closed_form(self):
        # open rectifier with the capacitor balanced at the rail: the tank
        # rings at wp = 1/sqrt((Lr+Lm) Cr), vCr = vin + I0 Zp sin(wp t), and
        # the magnetizing voltage -(Lm/L) I0 Zp sin(wp t) reaches the D2
        # clamp at an arcsine of the level ratio
        vin = 48.0
        vout = 5.0
        i0 = 0.5
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        zp = math.sqrt(L / CR)
        ratio = N * vout / (LM / L * i0 * zp)
        assert ratio < 1.0
        t_true = math.asin(ratio) / wp
        out = call_segment(np.array([i0, vin, i0, vout]), 0.0, 6e-6,
                           kernels.SEG_HIGH, 0, kernels.RECT_OFF, vin,
                           1e12, 3e-9, Cout=1.0)
        ons = out["ev"][out["ev"][:, 1] == kernels.EV_D2_ON]
        assert ons.shape[0] == 1
        assert abs(ons[0, 0] - t_true) < 1e-10
        assert out["rect"] != kernels.RECT_OFF

    def test_event_located_at_step_end_keeps_its_slot(self):
        # with a tolerance wider than the step, bisection returns the full
        # step: the D2 turn-on must still be applied as such, not fall
        # through to the dead-time clamp branch of an on-segment
        vin = 48.0
        out = call_segment(np.array([0.5, vin, 0.5, 5.0]), 0.0, 6e-6,
                           kernels.SEG_HIGH, 0, kernels.RECT_OFF, vin,
                           1e12, 3e-9, tol_t=1.0, Cout=1.0)
        codes = out["ev"][:, 1]
        assert np.count_nonzero(codes == kernels.EV_D2_ON) == 1
        assert not np.any((codes == kernels.EV_CLAMP_HIGH)
                          | (codes == kernels.EV_CLAMP_LOW))
        assert np.all(out["rec"][:, 5] == vin)

    def test_record_times_strictly_increase_through_events(self):
        vin = 48.0
        out = call_segment(np.array([0.0, 0.0, 0.0, 5.0]), 0.0, 6e-6,
                           kernels.SEG_HIGH, 0, kernels.RECT_OFF, vin,
                           24.0, 3e-9)
        t = out["rec"][:, 0]
        assert np.all(np.diff(t) > 0)

    def test_dead_time_clamp_flip_on_current_reversal(self):
        # start dead time with positive current (node clamped low); the
        # capacitor is charged above the input rail so the current swings
        # negative once and stays there, flipping the clamp to the high
        # rail exactly at the zero crossing of iLr
        i0 = 0.05
        vcr0 = 60.0
        x0 = np.array([i0, vcr0, i0, 30.0])
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        zp = math.sqrt(L / CR)
        t_true = math.atan(i0 * zp / vcr0) / wp
        out = call_segment(x0, 0.0, 4e-6, kernels.SEG_DEAD_TO_LOW, 0,
                           kernels.RECT_OFF, 48.0, 1e12, 2e-9, Cout=1.0)
        flips = out["ev"][out["ev"][:, 1] == kernels.EV_CLAMP_HIGH]
        assert flips.shape[0] == 1
        assert abs(flips[0, 0] - t_true) < 1e-10
        assert out["clamp"] == 1
        assert out["rect"] == kernels.RECT_OFF
        # iLr at the located flip is at the zero crossing
        k = np.searchsorted(out["rec"][:, 0], flips[0, 0])
        assert abs(out["rec"][k, 1]) < 1e-9


class TestEnergyAccounting:
    def test_resistive_discharge_matches_capacitor_energy(self):
        v0 = 5.0
        rl = 24.0
        out = call_segment(np.array([0.0, 0.0, 0.0, v0]), 0.0, 1e-3,
                           kernels.SEG_LOW, 0, kernels.RECT_OFF, 48.0,
                           rl, 5e-7)
        v1 = out["x"][3]
        tau = rl * COUT
        assert abs(v1 - v0 * math.exp(-1e-3 / tau)) < 1e-9
        e_expected = 0.5 * COUT * (v0 ** 2 - v1 ** 2)
        assert out["acc"][0] == 0.0  # low side draws nothing from the source
        assert abs(out["acc"][1] - e_expected) < 1e-6 * e_expected

    def test_source_energy_only_while_node_high(self):
        x0 = np.array([0.2, 10.0, 0.1, 5.0])
        hi = call_segment(x0, 0.0, 2e-6, kernels.SEG_HIGH, 0,
                          kernels.RECT_D1, 48.0, 24.0, 2e-9)
        lo = call_segment(x0, 0.0, 2e-6, kernels.SEG_LOW, 0,
                          kernels.RECT_D1, 48.0, 24.0, 2e-9)
        assert hi["acc"][0] != 0.0
        assert lo["acc"][0] == 0.0


class TestSinkCutoff:
    def test_sink_drains_output_to_ground_and_holds_it(self):
        # open rectifier with a small tank current, far from either clamp:
        # the sink ramps the output down at I / Cout, and from the instant
        # it reaches 0 V holds it there; the cut-off is no logged event
        vin, il, vf = 48.0, 0.5, 0.5
        v0 = 1e-5
        t_cut = v0 * COUT / il
        rec = np.empty((64, kernels.REC_COLS))
        ev = np.empty((8, 2))
        acc = np.zeros(3)
        out = kernels.integrate_segment(
            0.05, 47.5, 0.05, v0, 0.0, 20 * 5e-9, kernels.SEG_HIGH, 0,
            kernels.RECT_OFF, vin, LR, CR, LM, N, vf, COUT, kernels.LOAD_CUR,
            il, 5e-9, 1e-18, 1, rec, 0, ev, 0, acc)
        assert out[0] == kernels.ERR_OK
        assert out[2] == 0
        rows = rec[:out[1]]
        before = rows[:, 0] < t_cut
        assert 0 < np.count_nonzero(before) < rows.shape[0]
        ramp = v0 - il * rows[before, 0] / COUT
        assert np.max(np.abs(rows[before, 4] - ramp)) < 1e-16
        assert np.all(rows[~before, 4] == 0.0)
        assert out[8] == 0.0
        # the sink draws its setpoint until then; holding the output with
        # the rectifier open, it carries nothing
        assert np.all(rows[before, 6] == il)
        assert np.all(rows[~before, 6] == 0.0)
        # the sink took the capacitor's charge: its energy, C v0^2 / 2
        assert abs(acc[1] - 0.5 * COUT * v0 * v0) < 1e-9 * 0.5 * COUT * v0 * v0

    def test_sink_holds_ground_until_the_rectifier_lifts_it(self):
        # D1 conducts into an output at 0 V while the secondary current is
        # below the sink's: the sink takes all of it and the output stays at
        # ground, so the tank rings as Lr-Cr against the diode drop and Lm
        # ramps on it; the output lifts off where n (iLr - iLm) reaches the
        # sink current
        vin, il, vf = 48.0, 0.5, 0.5
        i0, c0, m0 = 0.3, 20.0, 0.1
        wr = 1.0 / math.sqrt(LR * CR)
        zr = math.sqrt(LR / CR)
        vd = vin - N * vf

        def tank(t):
            ilr = i0 * math.cos(wr * t) + (vd - c0) / zr * math.sin(wr * t)
            vcr = (vd - (vd - c0) * math.cos(wr * t)
                   + i0 * zr * math.sin(wr * t))
            return ilr, vcr, m0 + N * vf / LM * t

        def excess(t):
            ilr, _, ilm = tank(t)
            return N * (ilr - ilm) - il

        lo, hi = 0.0, 1e-6
        assert excess(lo) < 0.0 < excess(hi)
        while hi - lo > 1e-18:
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        t_lift = hi
        rec = np.empty((512, kernels.REC_COLS))
        ev = np.empty((8, 2))
        acc = np.zeros(3)
        out = kernels.integrate_segment(
            i0, c0, m0, 0.0, 0.0, 1e-6, kernels.SEG_HIGH, 0, kernels.RECT_D1,
            vin, LR, CR, LM, N, vf, COUT, kernels.LOAD_CUR, il, 5e-9, 1e-18,
            1, rec, 0, ev, 0, acc)
        assert out[0] == kernels.ERR_OK
        assert out[2] == 0
        rows = rec[:out[1]]
        held = rows[:, 0] <= t_lift
        assert 0 < np.count_nonzero(held) < rows.shape[0]
        assert np.all(rows[held, 4] == 0.0)
        assert np.all(rows[~held, 4] > 0.0)
        # while it holds the output, the sink carries the rectifier's current
        assert np.all(rows[held, 6] == N * np.abs(rows[held, 1] - rows[held, 3]))
        assert np.all(rows[held, 6] <= il)
        assert np.all(rows[~held, 6] == il)
        for t, ilr, vcr, ilm in rows[held, :4]:
            ei, ec, em = tank(t)
            assert abs(ilr - ei) < 1e-13 and abs(ilm - em) < 1e-13
            assert abs(vcr - ec) < 1e-11
