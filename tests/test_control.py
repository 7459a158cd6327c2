"""Frequency-mode regulator: direction law, clamps, scenarios."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from dataclasses import replace

from llckit import kernels
from llckit.control import (
    ControllerConfig,
    FrequencyController,
    baseline_frequency,
    default_controller,
    run_closed_loop,
    run_load_step,
)
from llckit.sim import SimConfig
from llckit.steady_state import find_pop
from llckit.synthesis import check_feasibility
from llckit.tank import (
    DesignRequirements,
    LoadSpec,
    TankParams,
    noload_resonance,
    series_resonance,
)

from eager_peaks import eager_segment

TANK = TankParams(Lr=37e-6, Cr=68e-9, Lm=75e-6, n=1.83)
REQ = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=48.0,
                         vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                         iout_min=0.0, iout_max=0.5,
                         f0_target=100e3, fsw_min=60e3, fsw_max=130e3)


@pytest.fixture(scope="module")
def design():
    rep = check_feasibility(TANK, REQ, TANK.n)
    assert rep.feasible
    return rep


@pytest.fixture(scope="module")
def ctrl(design):
    return default_controller(design)


@pytest.fixture(scope="module")
def load_step_run(design, ctrl):
    """The reference scenario: 0.5 A baseline, +0.2 A impulse for 10 ms."""
    scen = LoadSpec.profile("current", [(0.0, 0.5), (1e-3, 0.7), (11e-3, 0.5)])
    return run_load_step(design, scen, ctrl=ctrl, t_end=16e-3)


@pytest.fixture(scope="module")
def overload_run(design, ctrl):
    """Step to ten times the rated current: protection territory."""
    scen = LoadSpec.profile("current", [(0.0, 0.5), (1e-3, 5.0)])
    return run_load_step(design, scen, ctrl=ctrl, t_end=6e-3)


class TestControllerConfigValidation:
    def _ok(self, **kw):
        base = dict(v_ref=12.0, ki=1e6, fsw_min=60e3, fsw_max=130e3)
        base.update(kw)
        return ControllerConfig(**base)

    def test_accepts_sane_settings(self):
        self._ok()

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            self._ok(v_ref=0.0)
        with pytest.raises(ValueError):
            self._ok(ki=-1.0)
        with pytest.raises(ValueError):
            self._ok(kp=-1.0)
        with pytest.raises(ValueError):
            self._ok(fsw_min=130e3, fsw_max=60e3)
        with pytest.raises(ValueError):
            self._ok(i_limit=0.0)
        with pytest.raises(ValueError):
            self._ok(f_shift_rate=-1.0)
        with pytest.raises(ValueError):
            self._ok(update_period=0.0)


    @pytest.mark.parametrize("field", ["v_ref", "ki", "fsw_min", "fsw_max",
                                       "kp", "i_limit", "f_shift_rate",
                                       "update_period"])
    def test_rejects_nan_in_any_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must not be NaN"):
            self._ok(**{field: math.nan})


class TestFrequencyControllerUnit:
    CFG = ControllerConfig(v_ref=12.0, ki=1e6, fsw_min=60e3, fsw_max=130e3)

    def test_zero_error_leaves_frequency_alone(self):
        fc = FrequencyController(self.CFG, 100e3)
        assert fc.update(12.0, 0.0, 1e-5) == 100e3

    def test_direction_follows_error_sign(self):
        fc = FrequencyController(self.CFG, 100e3)
        up = fc.update(12.5, 0.0, 1e-5)
        assert up > 100e3
        fc = FrequencyController(self.CFG, 100e3)
        down = fc.update(11.5, 0.0, 1e-5)
        assert down < 100e3

    def test_clamps_bind_on_large_errors(self):
        fc = FrequencyController(self.CFG, 100e3)
        assert fc.update(100.0, 0.0, 10.0) == self.CFG.fsw_max
        fc = FrequencyController(self.CFG, 100e3)
        assert fc.update(0.0, 0.0, 10.0) == self.CFG.fsw_min

    def test_seed_is_clamped(self):
        assert FrequencyController(self.CFG, 1e9).fsw == self.CFG.fsw_max
        assert FrequencyController(self.CFG, 1.0).fsw == self.CFG.fsw_min

    def test_overcurrent_ramps_toward_upper_clamp(self):
        cfg = replace(self.CFG, i_limit=1.0, f_shift_rate=1e6)
        fc = FrequencyController(cfg, 100e3)
        f1 = fc.update(12.0, 2.0, 1e-3)  # zero voltage error, current high
        assert fc.overridden
        assert f1 == pytest.approx(101e3)
        f2 = fc.update(12.0, 2.0, 1e-3)
        assert f2 > f1
        f3 = fc.update(12.0, 0.5, 1e-5)  # current back under the limit
        assert not fc.overridden
        assert f3 == f2  # zero error: PI resumes without a kick

    def test_proportional_term_acts_on_error_change(self):
        cfg = replace(self.CFG, ki=0.0, kp=10.0)
        fc = FrequencyController(cfg, 100e3)
        assert fc.update(12.5, 0.0, 1e-5) == 100e3  # first call only arms it
        f2 = fc.update(12.7, 0.0, 1e-5)
        assert f2 == pytest.approx(100e3 + 10.0 * 0.2)

    def test_update_period_batches_measurements(self):
        cfg = replace(self.CFG, update_period=3e-5)
        fc = FrequencyController(cfg, 100e3)
        assert fc.update(12.1, 0.0, 1e-5) == 100e3
        assert fc.update(12.1, 0.0, 1e-5) == 100e3
        f3 = fc.update(12.1, 0.0, 1e-5)
        assert f3 == pytest.approx(100e3 + 1e6 * 0.1 * 3e-5)


class TestClosedLoopRun:
    def test_settles_to_reference_within_half_ripple(self, ctrl):
        # integral action has to erase the sinusoidal model's bias in the
        # starting frequency; judged against the cycle ripple.  Resistive
        # load: a current sink leaves the output pole undamped and the
        # loop rings for much longer
        cfg = SimConfig(tank=TANK, vin=48.0, fsw=111035.10243865271,
                        load=LoadSpec.resistance(24.0), t_end=18e-3,
                        record_stride=64)
        pop = find_pop(replace(cfg, t_end=1.0), method="shooting")
        out = run_closed_loop(cfg, replace(ctrl, ki=8e6), initial=pop.state)
        err = abs(float(out.trace.vout[-1]) - ctrl.v_ref)
        assert err <= pop.metrics.vout_ripple / 2.0

    def test_trace_is_consistent(self, ctrl):
        cfg = SimConfig(tank=TANK, vin=48.0, fsw=110e3,
                        load=LoadSpec.current(0.5), t_end=1e-3,
                        record_stride=64)
        out = run_closed_loop(cfg, ctrl)
        tr = out.trace
        assert np.all(np.diff(tr.t) > 0.0)
        assert tr.t[-1] == cfg.t_end
        assert out.sim.waveform.t[-1] == cfg.t_end
        assert np.all((tr.fsw >= ctrl.fsw_min) & (tr.fsw <= ctrl.fsw_max))
        assert not tr.overcurrent.any()


class TestLoadStepScenario:
    def test_recovers_into_the_band(self, load_step_run):
        _, rep = load_step_run
        assert rep.settles
        assert rep.recovery_time < 8e-3
        assert abs(rep.final_vout - rep.v_ref) <= rep.band

    def test_regulates_before_the_impulse_ends(self, load_step_run):
        out, rep = load_step_run
        tr = out.trace
        mid = (tr.t > 6e-3) & (tr.t < 11e-3)
        assert np.all(np.abs(tr.vout[mid] - rep.v_ref) <= rep.band)

    def test_deviation_is_transient_and_bounded(self, load_step_run):
        _, rep = load_step_run
        assert 0.1 < rep.max_deviation < 0.5
        assert 11.6 < rep.vout_min < 11.8
        assert rep.vout_max < 12.15

    def test_frequency_stays_between_the_resonances(self, load_step_run):
        _, rep = load_step_run
        assert rep.fsw_lo >= noload_resonance(TANK)
        assert rep.fsw_hi <= 1.3 * series_resonance(TANK)

    def test_report_geometry(self, load_step_run):
        _, rep = load_step_run
        assert rep.t_step == 11e-3
        assert rep.band == pytest.approx(0.12)


class TestOvercurrentScenario:
    def test_protection_engages_and_shifts_up(self, overload_run, ctrl):
        out, _ = overload_run
        tr = out.trace
        assert tr.overcurrent.any()
        assert float(np.max(tr.fsw)) == ctrl.fsw_max

    def test_shift_starves_the_tank(self, overload_run):
        out, rep = overload_run
        tr = out.trace
        peak = float(np.max(tr.ilr_peak))
        tail = float(np.mean(tr.ilr_peak[tr.t > 5e-3]))
        assert peak > 3.0  # the fault really did pull hard
        assert tail < peak
        assert not rep.settles

    def test_output_collapses_under_the_fault(self, overload_run):
        _, rep = overload_run
        assert rep.final_vout < 1.0


class TestZeroAmplitudeScenario:
    def test_frozen_frequency_repeats_the_operating_point(self, design, ctrl):
        # with the integral disabled the run must sit on the periodic
        # operating point of its starting frequency, ripple and all
        scen = LoadSpec.current(0.5)
        out, rep = run_load_step(design, scen, ctrl=replace(ctrl, ki=0.0),
                                 t_end=2e-3)
        assert np.all(out.trace.fsw == out.trace.fsw[0])
        pop = find_pop(SimConfig(tank=TANK, vin=48.0,
                                 fsw=float(out.trace.fsw[0]), load=scen,
                                 t_end=1.0), method="shooting")
        dv = float(np.max(np.abs(out.trace.vout - pop.metrics.vout_mean)))
        assert dv <= pop.metrics.vout_ripple
        # the sinusoidal model's bias stays: no regulation to the reference
        assert not rep.settles


class TestScenarioPlumbing:
    def test_baseline_frequency_matches_gain_inversion(self, design):
        f_cur = baseline_frequency(design, LoadSpec.current(0.5), 12.0, 48.0)
        f_res = baseline_frequency(design, LoadSpec.resistance(24.0), 12.0,
                                   48.0)
        assert abs(f_cur - 111035.102) < 0.01
        assert abs(f_cur - f_res) < 1e-6
        # a lower input needs more gain, which sits lower on the branch
        assert baseline_frequency(design, LoadSpec.current(0.5), 12.0,
                                  39.0) < f_cur

    def test_unreachable_baseline_is_rejected(self, design, ctrl):
        # load alone can't make the start point unsolvable: any Q curve
        # still crosses the usual targets somewhere.  Unloaded, the gain
        # floor is the high-frequency asymptote, so a reference below it
        # has no solution at all
        with pytest.raises(ValueError):
            run_load_step(design, LoadSpec.current(0.0),
                          ctrl=replace(ctrl, v_ref=6.0))

    def test_dt_max_reaches_the_seed_and_the_run(self, design, ctrl,
                                                 monkeypatch):
        """A coarser dt_max caps every kernel call, seed POP and closed
        loop alike, and the scenario takes fewer kernel steps."""
        scen = LoadSpec.profile("current", [(0.0, 0.46), (1e-4, 0.7)])
        inner = kernels.integrate_segment
        seen = []

        def counting(*args):
            seen.append(args)
            return inner(*args)
        monkeypatch.setattr(kernels, "integrate_segment", counting)

        def run(dt_max):
            seen.clear()
            run_load_step(design, scen, ctrl=ctrl, t_end=2e-4, dt_max=dt_max)
            # integrate_segment(iLr, vCr, iLm, vOut, t0, t1, ..., dt_max, ...)
            steps = sum(math.ceil((a[5] - a[4]) / a[18])
                        for a in seen if a[5] > a[4])
            return steps, {a[18] for a in seen}

        fine, _ = run(None)
        coarse, dts = run(2e-8)
        assert dts == {2e-8}
        assert coarse < fine

    def test_default_controller_scales_from_the_design(self, design, ctrl):
        assert ctrl.v_ref == 12.0
        assert ctrl.fsw_min == noload_resonance(TANK)
        assert ctrl.fsw_max == pytest.approx(1.3 * series_resonance(TANK))
        assert 2.0 < ctrl.i_limit < 2.3
        assert ctrl.f_shift_rate > 0.0


def test_logged_ilr_peaks_are_the_eager_ones():
    # the loop locates only the iLr crests it logs, when it logs them; its
    # trace and run are those of a driver whose kernel calls locate every
    # crest themselves, bit for bit
    cfg = SimConfig(tank=TANK, vin=48.0, fsw=100e3,
                    load=LoadSpec.profile("current", [(0.0, 0.3),
                                                      (2e-4, 0.7)]),
                    t_end=6e-4, record_stride=32)
    ctrl = ControllerConfig(v_ref=12.0, ki=3e6, fsw_min=60e3, fsw_max=130e3,
                            i_limit=1.0, f_shift_rate=4e7)
    lazy = run_closed_loop(cfg, ctrl)
    with patch.object(kernels, "integrate_segment",
                      lambda *args: eager_segment(*args)[:19]):
        eager = run_closed_loop(cfg, ctrl)
    for name in ("t", "fsw", "vout", "ilr_peak", "overcurrent"):
        assert getattr(lazy.trace, name).tobytes() \
            == getattr(eager.trace, name).tobytes()
    assert lazy.trace.overcurrent.any()
    assert lazy.final_fsw == eager.final_fsw
    assert lazy.sim.waveform["iLr"].tobytes() \
        == eager.sim.waveform["iLr"].tobytes()
    assert lazy.sim.counts["extremum_searches"] > 0
