"""Kernel-level checks: exact propagation, event localization, energy
bookkeeping.

Oracles here are closed-form solutions of the piecewise-linear circuit:
with the rectifier open the tank is a plain series L-C, so trajectories
and threshold-crossing times have exact expressions to test against.
"""

import math

import numpy as np

from llckit import kernels, modes

from eager_peaks import eager_segment

LR = 37e-6
CR = 68e-9
LM = 75e-6
N = 1.83
COUT = 100e-6

RES = modes.LOAD_RES


def call_segment(x0, t0, t1, seg, clamp, rect, vin, load_val, dt_max,
                 tol_t=1e-18, stride=1, Vf=0.0, Cout=COUT):
    events = []
    out = eager_segment(
        x0[0], x0[1], x0[2], x0[3], t0, t1, seg, clamp, rect,
        vin, LR, CR, LM, N, Vf, Cout, RES, load_val,
        dt_max, tol_t, stride, events, [])
    err = out[0]
    assert err == kernels.ERR_OK, f"kernel error code {err}"
    assert out[2] == len(events)
    return {
        "rect": out[3], "clamp": out[4],
        "x": np.array(out[5:9]), "maxes": out[9:13], "plan": out[1],
        "rec": None if out[1] is None else kernels.build_rows([out[1]]),
        "ev": np.array(events, dtype=float).reshape(-1, 2),
        "acc": np.array(out[15:18]),
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
        for stride in (1, 1 << 30, 0):
            out = call_segment(x0, 0.0, 20e-6, kernels.SEG_HIGH, 0,
                               modes.RECT_OFF, vin, 1e12, 5e-9,
                               stride=stride, Cout=1.0)
            assert out["rect"] == modes.RECT_OFF
            assert out["ev"].shape[0] == 0
            rows = out["rec"]
            if stride == 0:
                assert out["plan"] is None  # no rows at all
            else:
                t = rows[:, 0]
                assert np.all(rows[:, 1] == rows[:, 3])  # series constraint
                assert np.max(np.abs(rows[:, 1] - vin / zp * np.sin(wp * t))) \
                    < 1e-13 * vin / zp
                assert np.max(np.abs(rows[:, 2]
                                     - vin * (1.0 - np.cos(wp * t)))) \
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
        span = 0.95 * modes._step_cap(maps, vin, LR, CR, LM, N, 0.0, 1.0,
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
                           modes.RECT_OFF, vin, 1e12, span,
                           stride=1 << 30, Cout=1.0)
        ons = out["ev"][out["ev"][:, 1] == kernels.EV_D1_ON]
        assert ons.shape[0] == 1
        t_on = tp - math.acos(1.0 / 1.01) / wp
        assert abs(ons[0, 0] - t_on) < 1e-12


class TestRk4Order:
    def test_zero_everything_stays_zero(self):
        out = call_segment(np.zeros(4), 0.0, 5e-6, kernels.SEG_HIGH, 0,
                           modes.RECT_OFF, 0.0, 24.0, 5e-9)
        assert np.all(out["x"] == 0.0)
        assert np.all(out["acc"] == 0.0)
        assert out["ev"].shape[0] == 0
        assert np.all(out["rec"][:, 1:7] == 0.0)

    def test_open_rectifier_keeps_currents_identical(self):
        # output held far above any reachable clamp level: diodes stay off
        # and both inductors integrate the same voltage, exactly
        x0 = np.array([0.1, 3.0, 0.1, 50.0])
        out = call_segment(x0, 0.0, 4e-6, kernels.SEG_LOW, 0,
                           modes.RECT_OFF, 48.0, 1e12, 4e-9, Cout=1.0)
        assert out["rect"] == modes.RECT_OFF
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
                           kernels.SEG_HIGH, 0, modes.RECT_OFF, vin,
                           1e12, 3e-9, Cout=1.0)
        ons = out["ev"][out["ev"][:, 1] == kernels.EV_D2_ON]
        assert ons.shape[0] == 1
        assert abs(ons[0, 0] - t_true) < 1e-10
        assert out["rect"] != modes.RECT_OFF

    def test_event_located_at_step_end_keeps_its_slot(self):
        # with a tolerance wider than the step, bisection returns the full
        # step: the D2 turn-on must still be applied as such, not fall
        # through to the dead-time clamp branch of an on-segment
        vin = 48.0
        out = call_segment(np.array([0.5, vin, 0.5, 5.0]), 0.0, 6e-6,
                           kernels.SEG_HIGH, 0, modes.RECT_OFF, vin,
                           1e12, 3e-9, tol_t=1.0, Cout=1.0)
        codes = out["ev"][:, 1]
        assert np.count_nonzero(codes == kernels.EV_D2_ON) == 1
        assert not np.any((codes == kernels.EV_CLAMP_HIGH)
                          | (codes == kernels.EV_CLAMP_LOW))
        assert np.all(out["rec"][:, 5] == vin)

    def test_record_times_strictly_increase_through_events(self):
        vin = 48.0
        out = call_segment(np.array([0.0, 0.0, 0.0, 5.0]), 0.0, 6e-6,
                           kernels.SEG_HIGH, 0, modes.RECT_OFF, vin,
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
                           modes.RECT_OFF, 48.0, 1e12, 2e-9, Cout=1.0)
        flips = out["ev"][out["ev"][:, 1] == kernels.EV_CLAMP_HIGH]
        assert flips.shape[0] == 1
        assert abs(flips[0, 0] - t_true) < 1e-10
        assert out["clamp"] == 1
        assert out["rect"] == modes.RECT_OFF
        # iLr at the located flip is at the zero crossing
        k = np.searchsorted(out["rec"][:, 0], flips[0, 0])
        assert abs(out["rec"][k, 1]) < 1e-9


class TestEnergyAccounting:
    def test_resistive_discharge_matches_capacitor_energy(self):
        v0 = 5.0
        rl = 24.0
        out = call_segment(np.array([0.0, 0.0, 0.0, v0]), 0.0, 1e-3,
                           kernels.SEG_LOW, 0, modes.RECT_OFF, 48.0,
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
                          modes.RECT_D1, 48.0, 24.0, 2e-9)
        lo = call_segment(x0, 0.0, 2e-6, kernels.SEG_LOW, 0,
                          modes.RECT_D1, 48.0, 24.0, 2e-9)
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
        events = []
        out = kernels.integrate_segment(
            0.05, 47.5, 0.05, v0, 0.0, 20 * 5e-9, kernels.SEG_HIGH, 0,
            modes.RECT_OFF, vin, LR, CR, LM, N, vf, COUT, modes.LOAD_CUR,
            il, 5e-9, 1e-18, 1, events, [])
        assert out[0] == kernels.ERR_OK
        assert out[2] == 0 and events == []
        rows = kernels.build_rows([out[1]])
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
        assert abs(out[16] - 0.5 * COUT * v0 * v0) < 1e-9 * 0.5 * COUT * v0 * v0

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
        events = []
        out = kernels.integrate_segment(
            i0, c0, m0, 0.0, 0.0, 1e-6, kernels.SEG_HIGH, 0, modes.RECT_D1,
            vin, LR, CR, LM, N, vf, COUT, modes.LOAD_CUR, il, 5e-9, 1e-18,
            1, events, [])
        assert out[0] == kernels.ERR_OK
        assert out[2] == 0 and events == []
        rows = kernels.build_rows([out[1]])
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


def sensitivity(x0, t1, seg, clamp, rect, vin, load_val, dt_max,
                load_kind=RES, Vf=0.0, Cout=COUT):
    """A span's carried sensitivity S and its central differences, both in
    energy coordinates, its end state and its logged events."""
    def run(x, sens=None):
        events = []
        out = kernels.integrate_segment(
            x[0], x[1], x[2], x[3], 0.0, t1, seg, clamp, rect, vin,
            LR, CR, LM, N, Vf, Cout, load_kind, load_val, dt_max, 1e-18, 0,
            events, [], None, sens)
        assert out[0] == kernels.ERR_OK
        return out, events

    out, events = run(x0, np.eye(4))
    w = np.sqrt(np.array([LR, CR, LM, Cout]))
    central = np.empty((4, 4))
    for j in range(4):
        h = 1e-5 * max(abs(x0[j]), 1.0)
        ends = []
        for sign in (1.0, -1.0):
            x = np.array(x0, dtype=float)
            x[j] += sign * h
            o, ev = run(x)
            assert [c for _, c in ev] == [c for _, c in events]
            ends.append(np.array(o[5:9]))
        central[:, j] = (ends[0] - ends[1]) / (2.0 * h) * w / w[j]
    return (out[18] * w[:, None] / w[None, :], central, np.array(out[5:9]),
            events)


class TestSensitivity:
    """Each kind of state event carries S across by its saltation matrix:
    S matches central differences over a span with the event inside."""

    def check(self, sens, central, cols=4):
        size = max(1.0, float(np.max(np.abs(sens))))
        assert np.max(np.abs(sens - central)[:, :cols]) <= 1e-6 * size

    def test_event_free_span_is_the_matrix_exponential(self):
        # the open-rectifier series ring: (iLr, vCr) turn through w t, iLm
        # keeps its offset from iLr, and vOut decays through 1e12 ohm; a
        # full step carried by its end rate keeps S exact to rounding
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        zp = math.sqrt(L / CR)
        t1 = 20e-6
        events = []
        out = kernels.integrate_segment(
            0.0, 0.0, 0.0, 50.0, 0.0, t1, kernels.SEG_HIGH, 0,
            modes.RECT_OFF, 48.0, LR, CR, LM, N, 0.0, 1.0, RES, 1e12,
            5e-9, 1e-18, 0, events, [], None, np.eye(4))
        assert out[0] == kernels.ERR_OK and events == []
        c, s = math.cos(wp * t1), math.sin(wp * t1)
        exact = np.array([[c, -s / zp, 0.0, 0.0],
                          [zp * s, c, 0.0, 0.0],
                          [c - 1.0, -s / zp, 1.0, 0.0],
                          [0.0, 0.0, 0.0, math.exp(-t1 / 1e12)]])
        w = np.sqrt(np.array([LR, CR, LM, 1.0]))
        err = (out[18] - exact) * w[:, None] / w[None, :]
        assert np.max(np.abs(err)) < 1e-13

    def test_diode_turn_on(self):
        # the closed-form turn-on of TestEventLocation, and its mirror
        for x0, seg, code in (([0.5, 48.0, 0.5, 5.0], kernels.SEG_HIGH,
                               kernels.EV_D2_ON),
                              ([-0.5, 0.0, -0.5, 5.0], kernels.SEG_LOW,
                               kernels.EV_D1_ON)):
            sens, central, _, events = sensitivity(
                x0, 3e-6, seg, 0, modes.RECT_OFF, 48.0, 1e12, 3e-9,
                Cout=1.0)
            assert [c for _, c in events] == [code]
            self.check(sens, central)

    def test_diode_turn_off(self):
        # a conducting pair whose secondary current falls through zero
        for x0, seg, rect, code in (
                ([0.2, 10.0, 0.1, 5.0], kernels.SEG_LOW, modes.RECT_D1,
                 kernels.EV_D1_OFF),
                ([-0.2, 38.0, -0.1, 5.0], kernels.SEG_HIGH, modes.RECT_D2,
                 kernels.EV_D2_OFF)):
            sens, central, x1, events = sensitivity(
                x0, 2e-6, seg, 0, rect, 48.0, 24.0, 2e-9)
            assert [c for _, c in events] == [code]
            assert x1[0] == x1[2]  # open since the turn-off
            self.check(sens, central)

    def test_dead_time_clamp(self):
        # the node swaps rails where iLr reverses (TestEventLocation)
        sens, central, _, events = sensitivity(
            [0.05, 60.0, 0.05, 30.0], 4e-6, kernels.SEG_DEAD_TO_LOW, 0,
            modes.RECT_OFF, 48.0, 1e12, 2e-9, Cout=1.0)
        assert [c for _, c in events] == [kernels.EV_CLAMP_HIGH]
        self.check(sens, central)

    def test_sink_starts_holding(self):
        # D1 delivers less than the sink draws, so the output falls to 0 V
        # about 30 ns in and is held there; the secondary current keeps
        # below the sink's to the end
        sens, central, x1, events = sensitivity(
            [0.2, 40.0, 0.1, 1e-4], 2e-7, kernels.SEG_HIGH, 0,
            modes.RECT_D1, 48.0, 0.5, 5e-9, load_kind=modes.LOAD_CUR,
            Vf=0.5)
        assert events == [] and x1[3] == 0.0
        assert np.all(sens[3] == 0.0)  # a held output forgets its start
        self.check(sens, central)

    def test_sink_lifts_off(self):
        # the held output of TestSinkCutoff lifts off where the rectifier
        # current passes the sink's; a start held at exactly 0 V sits on
        # the sink's own kink in the vOut direction, so that column is left
        # out
        sens, central, x1, events = sensitivity(
            [0.3, 20.0, 0.1, 0.0], 1e-6, kernels.SEG_HIGH, 0,
            modes.RECT_D1, 48.0, 0.5, 5e-9, load_kind=modes.LOAD_CUR,
            Vf=0.5)
        assert events == [] and x1[3] > 0.0
        self.check(sens, central, cols=3)
