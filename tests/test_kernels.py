"""Kernel-level checks: RK4 order, event localization, energy bookkeeping.

Oracles here are closed-form solutions of the piecewise-linear circuit:
with the rectifier open the tank is a plain series L-C, so trajectories
and threshold-crossing times have exact expressions to test against.
"""

import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
    acc = np.zeros(2)
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


class TestRk4Order:
    def test_local_error_fifth_order(self):
        # open-rectifier tank from rest is series (Lr+Lm)-Cr: exact solution
        L = LR + LM
        wp = 1.0 / math.sqrt(L * CR)
        zp = math.sqrt(L / CR)
        vin = 48.0

        def exact(h):
            return (vin / zp) * math.sin(wp * h), vin * (1 - math.cos(wp * h))

        def one_step_err(h):
            i1, v1, im1, _ = kernels._rk4(
                0.0, 0.0, 0.0, 0.0, h, vin, kernels.RECT_OFF,
                LR, CR, LM, N, 0.0, COUT, RES, 24.0)
            ie, ve = exact(h)
            assert im1 == i1  # series constraint holds exactly
            return abs(i1 - ie) + abs(v1 - ve)

        e1 = one_step_err(200e-9)
        e2 = one_step_err(100e-9)
        ratio = e1 / e2
        assert 24.0 < ratio < 40.0, f"halving ratio {ratio}, not ~2^5"

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
    @pytest.mark.parametrize("rect, x0, steps", [
        # open rectifier with a small tank current, far from either clamp:
        # the sink drains the output through 0 V in the first step and is
        # off after it
        (kernels.RECT_OFF, (0.05, 47.5, 0.05, 1e-5), 19.4),
        # D1 charging the output up from 0 V, where the sink is off at the
        # start of the step and on at its end
        (kernels.RECT_D1, (0.6, 20.0, 0.1, 0.0), 1.0),
    ])
    def test_segment_across_cutoff_matches_hand_rk4_loop(self, rect, x0,
                                                         steps):
        # the load is not affine across the sink's cut-off, so every step
        # here must be the stage-form RK4 step, bit for bit
        vin, il, vf = 48.0, 0.5, 0.5
        t0 = 1e-6
        dt_max = 5e-9
        t1 = t0 + steps * dt_max
        rec = np.empty((64, kernels.REC_COLS))
        ev = np.empty((8, 2))
        acc = np.zeros(2)
        out = kernels.integrate_segment(
            *x0, t0, t1, kernels.SEG_HIGH, 0, rect, vin,
            LR, CR, LM, N, vf, COUT, kernels.LOAD_CUR, il, dt_max, 1e-18, 1,
            rec, 0, ev, 0, acc)
        assert out[0] == kernels.ERR_OK
        assert out[2] == 0

        n_steps = math.ceil((t1 - t0) / dt_max)
        dt = (t1 - t0) / n_steps
        x = x0
        rows = [(t0,) + x0]
        e_src = e_load = 0.0
        for k in range(n_steps):
            t_b = t1 if k == n_steps - 1 else t0 + dt * (k + 1)
            t_cur = t0 + dt * k if k > 0 else t0
            h = t_b - t_cur
            nx = kernels._rk4(*x, h, vin, rect, LR, CR, LM, N, vf, COUT,
                              kernels.LOAD_CUR, il)
            e_src += 0.5 * (vin * x[0] + vin * nx[0]) * h
            e_load += 0.5 * (x[3] * kernels._iload(x[3], 1, il)
                             + nx[3] * kernels._iload(nx[3], 1, il)) * h
            x = nx
            rows.append((t_b,) + x)
        assert (x0[3] > 0.0) != (rows[1][4] > 0.0)  # the first step crosses

        assert out[5:9] == x
        assert rec[:out[1], :5].tobytes() == np.array(rows).tobytes()
        assert acc.tobytes() == np.array([e_src, e_load]).tobytes()


NUMBA_PRESENT = importlib.util.find_spec("numba") is not None

_PAR_SCRIPT = """
import numpy as np
from llckit.tank import TankParams
from llckit.sim import SimConfig, LoadSpec, run_transient, warm_start_state
tank = TankParams(Lr=37e-6, Cr=68e-9, Lm=75e-6, n=1.83)
cfg = SimConfig(tank=tank, vin=48.0, fsw=105e3, load=LoadSpec.resistance(24.0),
                t_end=50/105e3)
res = run_transient(cfg, warm_start_state(cfg))
s = res.final_state
print(repr(s.iLr), repr(s.vCr), repr(s.iLm), repr(s.vOut),
      repr(res.energy["source"]), repr(res.energy["load"]))
"""


@pytest.mark.skipif(not NUMBA_PRESENT, reason="numba not installed")
def test_jit_and_pure_paths_bit_identical():
    # the kernel avoids transcendentals and fastmath precisely so that the
    # compiled and interpreted paths agree to the last bit
    outs = []
    for flag in ("0", "1"):
        env = dict(os.environ)
        env["LLCKIT_JIT"] = flag
        r = subprocess.run([sys.executable, "-c", _PAR_SCRIPT],
                           capture_output=True, text=True, env=env,
                           timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
