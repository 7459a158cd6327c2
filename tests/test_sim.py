"""Switched-circuit simulation layer: drivers, events, measurements."""

import math
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from llckit import kernels, modes, sim
from llckit.gain import gain
from llckit.sim import (
    CHANNELS,
    EventLocalizationFailure,
    LoadSpec,
    ModeChatter,
    ModeViolation,
    NotSettled,
    RecordOverflow,
    RectPhase,
    SimConfig,
    SimState,
    Waveform,
    consistent_rect,
    fundamental_component,
    run_transient,
    stored_energy,
    warm_start_state,
    zero_state,
)
from llckit.tank import TankParams, effective_load, normalize, series_resonance

from eager_peaks import eager_segment

TANK = TankParams(Lr=37e-6, Cr=68e-9, Lm=75e-6, n=1.83)
F0 = series_resonance(TANK)
RL = 24.0
VIN = 48.0


def full_load_cfg(fsw, periods, **kw):
    return SimConfig(tank=TANK, vin=VIN, fsw=fsw,
                     load=LoadSpec.resistance(RL), t_end=periods / fsw, **kw)


@pytest.fixture(scope="module")
def resonant_settled():
    """Long run at the series-resonant frequency, started from the
    sinusoidal seed so the output capacitor has time to settle."""
    cfg = full_load_cfg(F0, 900, record_stride=4)
    return cfg, run_transient(cfg, warm_start_state(cfg))


class TestLoadSpec:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            LoadSpec("impedance", ((0.0, 24.0),))

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            LoadSpec("resistance", ())

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            LoadSpec.profile("current", [(0.0, 0.1), (1e-3, 0.2), (1e-3, 0.3)])

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            LoadSpec.resistance(0.0)

    def test_rejects_negative_current(self):
        with pytest.raises(ValueError):
            LoadSpec.current(-0.1)

    @pytest.mark.parametrize("point, field", [
        ((math.nan, 0.2), "switch time"), ((math.inf, 0.2), "switch time"),
        ((1e-3, math.nan), "value"), ((1e-3, math.inf), "value")])
    def test_rejects_non_finite_points(self, point, field):
        with pytest.raises(ValueError, match=f"load {field} must be finite"):
            LoadSpec.profile("current", [(0.0, 0.1), point])

    def test_value_at_steps(self):
        ld = LoadSpec.profile("current", [(0.0, 0.1), (2e-3, 0.5)])
        assert ld.value_at(-1.0) == 0.1  # first value applies before t0
        assert ld.value_at(1.9e-3) == 0.1
        assert ld.value_at(2e-3) == 0.5
        assert ld.value_at(1.0) == 0.5
        assert ld.switch_times == (2e-3,)


class TestSimConfigValidation:
    def test_rejects_negative_vin(self):
        with pytest.raises(ValueError):
            full_load_cfg(F0, 1, dt_max=None).__class__(
                tank=TANK, vin=-1.0, fsw=F0,
                load=LoadSpec.resistance(RL), t_end=1e-3)

    def test_rejects_nonpositive_fsw(self):
        with pytest.raises(ValueError):
            SimConfig(tank=TANK, vin=VIN, fsw=0.0,
                      load=LoadSpec.resistance(RL), t_end=1e-3)

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            full_load_cfg(F0, -1)

    def test_rejects_dead_time_exceeding_half_period(self):
        # default dead time is 100 ns, so 6 MHz leaves no conduction time
        with pytest.raises(ValueError):
            SimConfig(tank=TANK, vin=VIN, fsw=6e6,
                      load=LoadSpec.resistance(RL), t_end=1e-3)

    @pytest.mark.parametrize("field", ["vin", "fsw", "t_end", "dt_max",
                                       "soft_start"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, field, value):
        # checked at construction: no such run is ever started
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(full_load_cfg(F0, 1), **{field: value})

    def test_rejects_bad_stride_and_dt(self):
        with pytest.raises(ValueError):
            full_load_cfg(F0, 1, record_stride=0)
        with pytest.raises(ValueError):
            full_load_cfg(F0, 1, dt_max=0.0)

    @pytest.mark.parametrize("stride", [2.5, 8.0, "8"])
    def test_rejects_a_stride_that_is_no_integer(self, stride):
        # a float stride used to pass here and fail in the kernel's range()
        with pytest.raises(ValueError, match="record_stride must be an "
                                             "integer"):
            full_load_cfg(F0, 1, record_stride=stride)

    def test_takes_a_numpy_integer_stride(self):
        assert run_transient(full_load_cfg(
            F0, 1, record_stride=np.int64(8))).periods == 1

    @pytest.mark.parametrize("fsw", [math.nan, 0.0, -F0, math.inf])
    def test_period_rejects_a_bad_frequency_by_name(self, fsw):
        # the command a period runs is checked there: NaN, 0 and inf used
        # to fail as a conversion, a division or a dead-time misfit
        drv = sim.PeriodDriver(full_load_cfg(F0, 1))
        with pytest.raises(ValueError, match="fsw must be positive and "
                                             "finite"):
            drv.advance_period(fsw)
        assert drv.periods == 0 and drv.t == 0.0

    def test_period_rejects_a_dead_time_misfit(self):
        drv = sim.PeriodDriver(full_load_cfg(F0, 1))
        with pytest.raises(ValueError, match="dead time does not fit"):
            drv.advance_period(6e6)

    def test_period_rejects_a_nan_stop_by_name(self):
        # a NaN t_stop used to reach the kernel and fail there as a float
        # conversion; a stop at or before the start still runs nothing
        drv = sim.PeriodDriver(full_load_cfg(110e3, 1))
        with pytest.raises(ValueError, match="t_stop must not be NaN"):
            drv.advance_period(110e3, t_stop=math.nan)
        for t_stop in (0.0, -1.0, -math.inf):
            drv.advance_period(110e3, t_stop=t_stop)
        assert drv.periods == 0 and drv.t == 0.0
        assert drv.result().events == ()
        drv.advance_period(110e3)
        assert drv.periods == 1


class TestOpenRectifierCoast:
    def test_series_currents_stay_identical(self):
        # output held far above any reachable reflected voltage: the
        # rectifier must never engage and both inductors carry one current
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=F0,
                        load=LoadSpec.resistance(1e12), t_end=20 / F0,
                        record_stride=1)
        st = SimState(t=0.0, iLr=0.0, vCr=24.0, iLm=0.0, vOut=60.0,
                      rect=RectPhase.OFF)
        res = run_transient(cfg, st)
        wf = res.waveform
        assert set(np.unique(wf.aux["rect"])) == {0}
        assert np.array_equal(wf["iLr"], wf["iLm"])
        assert np.max(np.abs(wf["vOut"] - 60.0)) < 1e-6
        kinds = {e.kind for e in res.events}
        assert kinds <= {"gate_HS_on", "gate_HS_off",
                         "gate_LS_on", "gate_LS_off"}

    def test_inconsistent_open_state_is_flagged(self):
        # an open rectifier with unequal inductor currents is not a valid
        # circuit state; the run must fail loudly, not drift
        cfg = full_load_cfg(F0, 8)
        bad = SimState(t=0.0, iLr=0.3, vCr=24.0, iLm=-0.3, vOut=12.0,
                       rect=RectPhase.OFF)
        with pytest.raises(ModeViolation):
            run_transient(cfg, bad)


@pytest.fixture(scope="module")
def pattern_run():
    cfg = full_load_cfg(F0, 30, record_stride=1)
    return run_transient(cfg, warm_start_state(cfg))


class TestConductionPattern:
    def test_bridge_voltage_is_two_level(self, pattern_run):
        wf = pattern_run.waveform
        assert set(np.unique(wf["vsw"])) <= {0.0, VIN}

    def test_gate_tracks_are_exclusive(self, pattern_run):
        wf = pattern_run.waveform
        assert set(np.unique(wf["gateHS"])) <= {0.0, 1.0}
        assert set(np.unique(wf["gateLS"])) <= {0.0, 1.0}
        assert np.all(wf["gateHS"] + wf["gateLS"] <= 1.0)

    def test_event_times_nondecreasing(self, pattern_run):
        ts = [e.t for e in pattern_run.events]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_diode_events_alternate(self, pattern_run):
        conducting = {"D1": False, "D2": False}
        counts = {"D1_on": 0, "D2_on": 0}
        for e in pattern_run.events:
            if not e.kind.startswith("D"):
                continue
            diode, edge = e.kind.split("_")
            if edge == "on":
                assert not conducting[diode], f"{e.kind} while already on"
                conducting[diode] = True
                counts[e.kind] += 1
            else:
                assert conducting[diode], f"{e.kind} while already off"
                conducting[diode] = False
        # one conduction interval per diode per period, give or take the ends
        assert counts["D1_on"] >= 28
        assert counts["D2_on"] >= 28

    def test_both_diode_phases_visited(self, pattern_run):
        assert set(np.unique(pattern_run.waveform.aux["rect"])) == {0, 1, 2}


class TestConsistentRect:
    def test_tags_by_the_sign_of_the_current_difference(self):
        assert consistent_rect(SimState(iLr=0.3, iLm=0.1)).rect == RectPhase.D1
        assert consistent_rect(SimState(iLr=0.1, iLm=0.3)).rect == RectPhase.D2
        on = SimState(iLr=0.3, iLm=0.3, rect=RectPhase.D1)
        assert consistent_rect(on).rect == RectPhase.OFF

    def test_one_ulp_apart_logs_no_zero_length_conduction(self):
        # a trial state on a conduction edge, its magnetizing voltage inside
        # both clamps: currents one ulp apart are rounding, not a conducting
        # pair, so the period logs what it logs from equal currents (tagged
        # by the sign alone, the pair would turn off again at once)
        exact = SimState(iLr=0.3, vCr=24.0, iLm=0.3, vOut=12.0)
        cfg = full_load_cfg(F0, 1)

        def events(state):
            start = consistent_rect(state)
            drv = sim.PeriodDriver(cfg, start, record=False)
            drv.advance_period(F0)
            return start.rect, drv.result().events

        rect, ref = events(exact)
        assert rect == RectPhase.OFF
        for ilm in (math.nextafter(0.3, 1.0), math.nextafter(0.3, 0.0)):
            rect, ev = events(replace(exact, iLm=ilm))
            assert rect == RectPhase.OFF
            assert [e.kind for e in ev] == [e.kind for e in ref]


class TestFundamentalComponent:
    def _wf(self, t, y):
        return Waveform(t=t, channels={"y": y})

    def test_recovers_pure_cosine(self):
        f = 1000.0
        t = np.linspace(0.0, 10.0 / f, 20001)
        y = 2.5 * np.cos(2.0 * math.pi * f * t - 0.7)
        amp, ph = fundamental_component(self._wf(t, y), "y", f)
        assert abs(amp - 2.5) < 1e-9
        assert abs(ph - 0.7) < 1e-9

    def test_square_wave_fundamental(self):
        f = 1000.0
        t = np.linspace(0.0, 10.0 / f, 20001)
        y = 3.0 * np.sign(np.cos(2.0 * math.pi * f * t))
        amp, ph = fundamental_component(self._wf(t, y), "y", f)
        assert abs(amp - 4.0 * 3.0 / math.pi) < 1e-4
        # sampled jumps land half a sample late, which reads as a phase lag
        half_sample = math.pi * f * (t[1] - t[0])
        assert abs(ph) < 1.5 * half_sample

    def test_rejects_unsettled_amplitude(self):
        f = 1000.0
        t = np.linspace(0.0, 10.0 / f, 20001)
        y = (1.0 + 0.2 * t * f / 10.0) * np.cos(2.0 * math.pi * f * t)
        with pytest.raises(NotSettled):
            fundamental_component(self._wf(t, y), "y", f)

    def test_rejects_short_window(self):
        f = 1000.0
        t = np.linspace(0.0, 4.0 / f, 8001)
        y = np.cos(2.0 * math.pi * f * t)
        with pytest.raises(ValueError):
            fundamental_component(self._wf(t, y), "y", f)


@st.composite
def stage_runs(draw):
    """A random valid stage, load and operating point, started from rest or
    from the sinusoidal seed."""
    lr = draw(st.floats(10e-6, 100e-6))
    cr = draw(st.floats(10e-9, 200e-9))
    tank = TankParams(Lr=lr, Cr=cr, Lm=draw(st.floats(1.5, 8.0)) * lr,
                      n=draw(st.floats(0.5, 4.0)),
                      Vf=draw(st.floats(0.0, 1.0)),
                      Cout=draw(st.floats(10e-6, 200e-6)),
                      t_dead=draw(st.floats(50e-9, 300e-9)))
    fsw = draw(st.floats(0.8, 1.5)) * series_resonance(tank)
    if draw(st.booleans()):
        load = LoadSpec.resistance(draw(st.floats(2.0, 500.0)))
    else:
        load = LoadSpec.current(draw(st.floats(0.0, 2.0)))
    cfg = SimConfig(tank=tank, vin=draw(st.floats(12.0, 400.0)), fsw=fsw,
                    load=load, t_end=draw(st.integers(1, 12)) / fsw,
                    record_stride=draw(st.sampled_from((1, 8, 1 << 20))))
    if draw(st.booleans()):
        return cfg, zero_state()
    return cfg, consistent_rect(warm_start_state(cfg))


class TestEnergyBalance:
    def test_lossless_cold_start_accounting(self):
        # every joule from the source ends up in the load or in stored
        # field energy; the integrator must account for all of it
        cfg = full_load_cfg(F0, 1, record_stride=64)
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=F0,
                        load=LoadSpec.resistance(RL), t_end=3e-3,
                        soft_start=1.5e-3, record_stride=64)
        res = run_transient(cfg, zero_state())
        e_src = res.energy["source"]
        e_load = res.energy["load"]
        de = stored_energy(TANK, res.final_state)  # cold start stores zero
        assert e_src > 0.0
        assert abs(e_src - e_load - de) < 1e-4 * e_src

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(stage_runs())
    def test_whole_run_power_balance(self, run):
        # the source energy goes to the load, the diodes and the stored
        # field energy, to rounding, over whole runs of random stages; and
        # the logged events walk the conduction modes consistently from the
        # start state's tag: a diode turns on only while neither conducts
        # and off only while it conducts, the node swaps rails only in dead
        # time (between a gate turn-off and the next turn-on), and the walk
        # ends in the final state's tag
        cfg, start = run
        try:
            res = run_transient(cfg, start)
        except ModeChatter:
            # the dead-time clamp chatter at iLr = 0 (a known defect with
            # its own fix on the roadmap) stops some runs before there is a
            # whole run to balance
            reject()
        e = res.energy
        stored = (stored_energy(cfg.tank, res.final_state)
                  - stored_energy(cfg.tank, start))
        scale = max(abs(e["source"]), abs(e["load"]), abs(stored),
                    stored_energy(cfg.tank, start))
        assert e["diode"] >= 0.0
        assert abs(e["source"] - e["load"] - e["diode"] - stored) \
            <= 1e-9 * scale
        rect = start.rect
        dead = False
        for ev in res.events:
            if ev.kind.startswith("gate_"):
                dead = ev.kind.endswith("_off")
            elif ev.kind.startswith("node_clamp_"):
                assert dead, f"{ev.kind} outside dead time at t={ev.t}"
            elif ev.kind.endswith("_on"):
                assert rect == RectPhase.OFF, \
                    f"{ev.kind} while {rect.name} conducts at t={ev.t}"
                rect = RectPhase[ev.kind[:2]]
            else:
                assert rect == RectPhase[ev.kind[:2]], \
                    f"{ev.kind} while {rect.name} at t={ev.t}"
                rect = RectPhase.OFF
        assert res.final_state.rect == rect


class TestRecordOverflow:
    def test_rows_past_the_cap_raise_before_the_span_runs(self, monkeypatch):
        # a stride-1 half period holds about a thousand grid rows; with the
        # cap at 100 the driver refuses the span, while a coarser stride
        # and an unrecorded run fit under it
        monkeypatch.setattr(sim, "_REC_CAP_MAX", 100)
        cfg = full_load_cfg(F0, 2, record_stride=1)
        with pytest.raises(RecordOverflow):
            run_transient(cfg, warm_start_state(cfg))
        assert run_transient(replace(cfg, record_stride=64)).periods == 2
        assert _drive(cfg, warm_start_state(cfg), False)[0].periods == 2


class TestNumpyScalarInputs:
    def test_numpy_scalar_state_and_frequency_run_as_floats(self):
        # a solver's trial state and a controller's command arrive as
        # numpy scalars; the driver must run them as the float run does
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=F0,
                        load=LoadSpec.resistance(RL), t_end=1.0)
        seed = warm_start_state(cfg)
        seed_np = SimState(np.float64(seed.t), np.float64(seed.iLr),
                           np.float64(seed.vCr), np.float64(seed.iLm),
                           np.float64(seed.vOut), seed.rect)
        runs = []
        for state, fsw in ((seed, F0), (seed_np, np.float64(F0))):
            drv = sim.PeriodDriver(cfg)
            drv.reset(state)
            for _ in range(3):
                drv.advance_period(fsw)
            runs.append((drv.state, drv.result()))
        (st_f, res_f), (st_np, res_np) = runs
        for name in ("t", "iLr", "vCr", "iLm", "vOut"):
            assert type(getattr(st_np, name)) is float
        assert st_np == st_f
        assert res_np.waveform.t.tobytes() == res_f.waveform.t.tobytes()
        for name in CHANNELS:
            assert (res_np.waveform[name].tobytes()
                    == res_f.waveform[name].tobytes())
        assert res_np.events == res_f.events
        assert res_np.zvs == res_f.zvs
        assert repr(res_np.energy) == repr(res_f.energy)


class TestStepSizeConvergence:
    def test_halving_dt_leaves_final_state_unchanged(self):
        finals = []
        for div in (1000, 2000):
            cfg = full_load_cfg(F0, 10, dt_max=1.0 / F0 / div,
                                record_stride=1000)
            res = run_transient(cfg, warm_start_state(cfg))
            finals.append(res.final_state.vector())
        d = np.abs(finals[0] - finals[1])
        tol = 1e-6 * np.maximum(1.0, np.abs(finals[1]))
        assert np.all(d < tol)


class TestSettledResonance:
    def test_output_voltage_matches_sinusoidal_model(self, resonant_settled):
        # at the series-resonant point the divider action is ratio-exact,
        # so the sinusoidal approximation nails the dc output
        cfg, res = resonant_settled
        wf = res.waveform
        T = 1.0 / cfg.fsw
        sel = wf.t >= wf.t[-1] - T
        vmean = float(np.trapezoid(wf["vOut"][sel], wf.t[sel])) / T
        re = effective_load(TANK.n, RL)
        mg = gain(normalize(TANK, re, cfg.fsw)).Mg
        v_pred = mg * VIN / (2.0 * TANK.n)
        assert abs(vmean - v_pred) < 1e-3 * v_pred

    def test_resonant_current_fundamental_matches_closed_form(
            self, resonant_settled):
        # at fn = 1 the resonant current is a pure sine: its in-phase part
        # carries the load (pi Iout / 2n) and its quadrature part equals
        # the magnetizing triangle peak n V T / (4 Lm)
        cfg, res = resonant_settled
        wf = res.waveform
        T = 1.0 / cfg.fsw
        sel = wf.t >= wf.t[-1] - T
        vmean = float(np.trapezoid(wf["vOut"][sel], wf.t[sel])) / T
        amp, _ = fundamental_component(wf, "iLr", cfg.fsw)
        pred = math.hypot(math.pi * (vmean / RL) / (2.0 * TANK.n),
                          TANK.n * (vmean + TANK.Vf) * T / (4.0 * TANK.Lm))
        assert abs(amp - pred) < 0.01 * pred


class TestZvsClassification:
    def _edges_late(self, fsw, periods=100, tail=20):
        cfg = full_load_cfg(fsw, periods, record_stride=64)
        res = run_transient(cfg, warm_start_state(cfg))
        lo = res.waveform.t[-1] - tail / fsw
        edges = [e for e in res.zvs.edges if e.t >= lo]
        assert len(edges) >= 2 * tail - 2
        return res, edges

    def test_above_resonance_all_edges_soft(self):
        _, edges = self._edges_late(1.1 * F0)
        assert all(e.achieved for e in edges)

    def test_deep_below_resonance_edges_hard(self):
        # fn = 0.6 at full load sits in the capacitive region: current
        # leads the bridge voltage, so no edge can find its body diode
        res, edges = self._edges_late(0.6 * F0)
        assert not any(e.achieved for e in edges)
        assert not res.zvs.all_soft
        assert len(res.zvs.failures) >= len(edges)
        assert res.zvs.soft_fraction < 1.0

    def test_edges_identify_both_switches(self):
        _, edges = self._edges_late(1.1 * F0, periods=40, tail=10)
        assert {e.switch for e in edges} == {"HS", "LS"}


class TestWaveformCsv:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = full_load_cfg(F0, 5, record_stride=8)
        wf = run_transient(cfg, warm_start_state(cfg)).waveform
        p = tmp_path / "wave.csv"
        wf.to_csv(p)
        back = Waveform.from_csv(p)
        assert back.names == wf.names
        assert np.array_equal(back.t, wf.t)
        for nm in wf.names:
            assert np.array_equal(back[nm], wf[nm])

    @pytest.mark.parametrize("block", [sim._CSV_BLOCK, 3])
    def test_bytes_match_row_by_row_formatting(self, tmp_path, monkeypatch,
                                               block):
        # the column-wise writer must emit what formatting one row at a
        # time does, for negative, subnormal and integral values alike,
        # and across the boundary between two blocks of rows
        monkeypatch.setattr(sim, "_CSV_BLOCK", block)
        t = np.array([0.0, 1e-7, 2.5e-7, 1.0])
        chans = {
            "vsw": np.array([48.0, 0.0, -0.0, 48.0]),
            "iLr": np.array([-1.25, 5e-324, -2.2250738585072014e-309, 3.0]),
            "vOut": np.array([12.000000000000002, -1e300, 1.0 / 3.0, 7.0]),
            "gateHS": np.array([1.0, 0.0, 1.0, 0.0]),
        }
        wf = Waveform(t=t, channels=chans)
        p = tmp_path / "wave.csv"
        wf.to_csv(p)
        cols = [t] + list(chans.values())
        expected = ",".join(("t",) + tuple(chans)) + "\n" + "".join(
            ",".join(repr(float(c[i])) for c in cols) + "\n"
            for i in range(t.size))
        assert p.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_read_back_is_bit_equal(self, tmp_path_factory, data):
        # whatever float64 a channel holds (signed zeros, subnormals,
        # values near the range ends, integral values) reads back as the
        # same bits
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from((0.0, -0.0, 5e-324, -5e-324,
                             2.2250738585072014e-308, -1e-310, 1e300,
                             -1e300, 1.7976931348623157e308)),
            st.integers(-2 ** 53, 2 ** 53).map(float))
        rows = data.draw(st.integers(1, 40))
        names = data.draw(st.lists(st.sampled_from(CHANNELS), min_size=1,
                                   max_size=4, unique=True))
        cols = [np.array(data.draw(st.lists(value, min_size=rows,
                                            max_size=rows)))
                for _ in range(len(names) + 1)]
        wf = Waveform(t=cols[0], channels=dict(zip(names, cols[1:])))
        p = tmp_path_factory.mktemp("csv") / "wave.csv"
        wf.to_csv(p)
        back = Waveform.from_csv(p)
        assert back.names == wf.names
        for name in ("t",) + wf.names:
            assert back[name].tobytes() == wf[name].tobytes()

    def test_reader_skips_blank_lines_and_rejects_bad_rows(self, tmp_path):
        p = tmp_path / "wave.csv"
        p.write_text("t,vOut\n0.0,1.5\n\n   \n1e-06,-2.0\n\n")
        back = Waveform.from_csv(p)
        assert back.t.tolist() == [0.0, 1e-06]
        assert back["vOut"].tolist() == [1.5, -2.0]
        for body in ("0.0,1.5\n1e-06\n", "0.0,1.5\n1e-06,x\n"):
            p.write_text("t,vOut\n" + body)
            with pytest.raises(ValueError):
                Waveform.from_csv(p)
        p.write_text("vOut,t\n1.0,0.0\n")
        with pytest.raises(ValueError, match="must start with a t column"):
            Waveform.from_csv(p)

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_reads_empty_channels(self, tmp_path):
        p = tmp_path / "wave.csv"
        p.write_text("t,iLr,vOut\n\n")
        back = Waveform.from_csv(p)
        assert back.names == ("iLr", "vOut")
        assert back.t.size == 0 and back["vOut"].size == 0

    def test_zero_span_run_writes_header_only(self, tmp_path):
        cfg = full_load_cfg(F0, 0)
        wf = run_transient(cfg).waveform
        assert wf.t.size == 0
        p = tmp_path / "empty.csv"
        wf.to_csv(p)
        lines = p.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(("t",) + CHANNELS)
        back = Waveform.from_csv(p)
        assert back.names == wf.names
        assert back.t.size == 0


def _drive(cfg, initial, record):
    """run_transient's loop, on a driver that may leave the waveform out;
    the result and the last period's peaks."""
    drv = sim.PeriodDriver(cfg, initial, record=record)
    while drv.t < cfg.t_end:
        drv.advance_period(cfg.fsw, t_stop=cfg.t_end)
    return drv.result(), drv.period_peaks.exact()


class TestRecordingLeavesTheRunAlone:
    @pytest.mark.parametrize("load", [LoadSpec.resistance(RL),
                                      LoadSpec.current(0.5)])
    def test_strides_and_unrecorded_run_are_bit_identical(self, load):
        # waveform rows are read off the steps, so a run recorded at every
        # grid instant, at every 64th and not at all takes the same steps
        # to the same bits
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=1.1 * F0, load=load,
                        t_end=20.5 / (1.1 * F0), record_stride=1)
        seed = warm_start_state(cfg)
        ref = run_transient(cfg, seed)
        runs = [_drive(cfg, seed, True),
                _drive(replace(cfg, record_stride=64), seed, True),
                _drive(cfg, seed, False)]
        assert runs[0][0].waveform.t.tobytes() == ref.waveform.t.tobytes()
        assert runs[0][0].waveform["iLr"].tobytes() \
            == ref.waveform["iLr"].tobytes()
        assert runs[2][0].waveform.t.size == 0
        for res, peaks in runs:
            assert repr(res.final_state) == repr(ref.final_state)
            assert repr(res.energy) == repr(ref.energy)
            assert res.events == ref.events
            assert res.zvs == ref.zvs
            assert res.counts == ref.counts
            assert repr(peaks) == repr(runs[0][1])


    def test_unrecorded_periods_sum_no_grid_rows(self, monkeypatch):
        # a driver that keeps no waveform has the kernel plan no rows and
        # evaluates none; a recorded period, as the control, plans rows in
        # every call and builds them in one pass
        plans = []
        built = []
        segment = kernels.integrate_segment
        build = kernels.build_rows

        def planning(*args):
            out = segment(*args)
            plans.append(out[1])
            return out

        def building(call_plans):
            rows = build(call_plans)
            built.append((len(call_plans), rows.shape[0]))
            return rows

        monkeypatch.setattr(kernels, "integrate_segment", planning)
        monkeypatch.setattr(kernels, "build_rows", building)
        cfg = full_load_cfg(F0, 1.0)
        drv = sim.PeriodDriver(cfg, warm_start_state(cfg), record=False)
        for _ in range(5):
            drv.advance_period(F0)
        assert drv.periods == 5
        assert drv.result().waveform.t.size == 0
        assert plans == [None] * 20
        assert built == [(0, 0)]
        plans.clear()
        built.clear()
        drv = sim.PeriodDriver(cfg, warm_start_state(cfg))
        drv.advance_period(F0)
        rows = drv.result().waveform.t.size
        assert len(plans) == 4 and None not in plans
        assert built == [(4, rows)] and rows > 4

    def test_run_rows_are_the_calls_rows(self, monkeypatch):
        # the run's record, built in one pass over chunks of rows and of
        # steps, holds each call's own rows bit for bit, less the earlier
        # of two rows at one instant where calls meet
        plans = []
        segment = kernels.integrate_segment

        def planning(*args):
            out = segment(*args)
            plans.append(out[1])
            return out

        monkeypatch.setattr(kernels, "integrate_segment", planning)
        cfg = full_load_cfg(F0, 25, record_stride=8)
        wf = run_transient(cfg, warm_start_state(cfg)).waveform
        calls = np.concatenate([kernels.build_rows([p]) for p in plans])
        calls = calls[np.append(calls[:-1, 0] != calls[1:, 0], True)]
        assert wf.t.size > 4 * kernels._ROW_CHUNK
        assert sum(len(p[2]) for p in plans) > kernels._BLOCK_CHUNK
        assert wf.t.tobytes() == calls[:, 0].tobytes()
        for j, name in enumerate(("iLr", "vCr", "iLm", "vOut", "vsw",
                                  "iOut"), 1):
            assert wf[name].tobytes() == calls[:, j].tobytes()


class TestSinkCurrent:
    @pytest.mark.parametrize("stride", [1, 1 << 30])
    def test_held_output_reads_the_rectifier_current(self, stride):
        # a cold start of the reference project into its 0.5 A sink: while
        # the output is held at 0 V the sink carries what the rectifier
        # delivers, nothing through an open rectifier, and once the output
        # is up its setpoint; every grid row and the few rows of an
        # unrecorded run are summed along different paths
        from llckit import cli
        from llckit.config import load_config

        project = load_config(Path(__file__).resolve().parent.parent
                              / "configs" / "reference_design.json")
        design = cli._sim_report(project)
        vin, load, fsw, _ = cli._sim_inputs(project, design)
        assert load.value_at(0.0) == 0.5
        cfg = SimConfig(tank=design.tank, vin=vin, fsw=fsw, load=load,
                        t_end=20e-6, record_stride=stride)
        wf = run_transient(cfg).waveform
        v, iout, rect = wf["vOut"], wf["iOut"], wf.aux["rect"]
        n = design.tank.n
        held = (v == 0.0) & (rect != RectPhase.OFF)
        assert np.count_nonzero(held) > (10 if stride == 1 else 1)
        assert np.all(iout[held]
                      == n * np.abs(wf["iLr"][held] - wf["iLm"][held]))
        assert np.all(iout[held] <= 0.5)
        assert np.all(iout[(v == 0.0) & (rect == RectPhase.OFF)] == 0.0)
        assert np.all(iout[v > 0.0] == 0.5)


class TestPeaksOnDemand:
    """A period's crests are queued and located only when its peaks are
    read, to the bits that locating them in every call gives."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(0.8, 1.4), st.sampled_from(("resistance", "current")),
           st.floats(0.0, 1.0), st.integers(1, 4))
    def test_read_peaks_are_the_eager_ones(self, f, kind, u, periods):
        # random stages from the sinusoidal seed; every period's peaks,
        # its state and its counts other than the crest searches
        load = (LoadSpec.resistance(6.0 + 194.0 * u) if kind == "resistance"
                else LoadSpec.current(0.7 * u))
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=f * F0, load=load,
                        t_end=1.0)

        def run():
            drv = sim.PeriodDriver(cfg, warm_start_state(cfg), record=False)
            peaks = []
            for _ in range(periods):
                drv.advance_period(cfg.fsw)
                peaks.append(drv.period_peaks.exact())
            counts = drv.counts
            for key in ("crest_candidates", "extremum_searches",
                        "extremum_iterations"):
                counts.pop(key)
            return repr(peaks), repr(drv.state), counts, drv.counts

        try:
            lazy = run()
        except sim.SimError:
            reject()
        # each kernel call's crests located at its end, none queued
        with patch.object(kernels, "integrate_segment",
                          lambda *args: eager_segment(*args)[:19]):
            eager = run()
        assert lazy[:3] == eager[:3]
        assert eager[3]["crest_candidates"] == 0

    def test_transient_locates_no_crest(self):
        # a transient reads no peaks: its crests stay queued
        cfg = full_load_cfg(1.1 * F0, 20)
        counts = run_transient(cfg, warm_start_state(cfg)).counts
        assert counts["crest_candidates"] > 20
        assert counts["extremum_searches"] == 0
        assert counts["extremum_iterations"] == 0

    def test_light_load_grazes_are_rejected_without_a_series(self):
        # at 110 kHz into a 0.1 A sink the dead-time and clamp functions
        # turn back short of their thresholds; the series-free bound
        # rejects those grazes before any Taylor series is built, and the
        # run ends where it ends with every graze searched
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=110e3,
                        load=LoadSpec.current(0.1), t_end=1.0)
        runs = []
        series = modes._series
        for tail in (modes._tail, lambda *args: math.inf):
            built = []

            def counting(*args):
                built.append(args)
                return series(*args)

            # kernels binds both helpers by name, and modes and sim reach
            # ``_series`` through modes; only the kernel reads ``_tail``
            with patch.object(kernels, "_series", counting), \
                    patch.object(modes, "_series", counting), \
                    patch.object(kernels, "_tail", tail):
                drv = sim.PeriodDriver(cfg, warm_start_state(cfg),
                                       record=False)
                for _ in range(20):
                    drv.advance_period(cfg.fsw)
            runs.append((len(built), repr(drv.state), drv.result().events,
                         drv.counts["localization_iterations"]))
        bounded, searched = runs
        assert bounded[1:3] == searched[1:3]
        assert bounded[0] < searched[0] and bounded[3] < searched[3]

    def test_failed_crest_search_raises_at_the_read(self):
        # one unrecorded period from the operating point at t = 1 ms; its
        # crests are located when its peaks are read, and a search that runs
        # out of iterations raises, naming the period's absolute start
        cfg = full_load_cfg(1.1 * F0, 1)
        from llckit.steady_state import find_pop

        state = find_pop(cfg).state
        drv = sim.PeriodDriver(cfg, record=False)
        drv.reset(replace(state, t=1e-3))
        drv.advance_period(cfg.fsw)
        with patch.object(kernels, "LOC_MAX", 1), \
                pytest.raises(EventLocalizationFailure,
                              match=r"crest .* t=1\.000000e-03"):
            drv.period_peaks.exact()
        assert all(p > 0.0 for p in drv.period_peaks.exact())


class TestPeriodLocalTime:
    """Each period runs in its own local time; only what it reports is
    labelled with its absolute start."""

    FSW = 110e3

    def _period(self, t0):
        cfg = full_load_cfg(self.FSW, 1)
        drv = sim.PeriodDriver(cfg, record=False)
        drv.reset(replace(warm_start_state(cfg), t=t0), jacobian=True)
        drv.advance_period(self.FSW)
        return drv

    def test_period_runs_alike_from_any_start(self):
        ref = self._period(0.0)
        period = 1.0 / self.FSW
        for t0 in (1e-3, 16e-3, 1.0):
            drv = self._period(t0)
            assert drv.state == replace(ref.state, t=t0 + period)
            assert repr(drv.energy) == repr(ref.energy)
            assert repr(drv.period_peaks.exact()) \
                == repr(ref.period_peaks.exact())
            assert drv.counts == ref.counts
            assert drv.jacobian.tobytes() == ref.jacobian.tobytes()
            events = drv.result().events
            assert [e.kind for e in events] \
                == [e.kind for e in ref.result().events]
            assert all(t0 <= e.t <= t0 + period for e in events)

    def test_fixed_frequency_periods_reuse_their_step_maps(self,
                                                          monkeypatch):
        # every period at one frequency has the same local bounds, so the
        # same step lengths: once the first period from the operating
        # point has built its maps, the next 199 build none
        from llckit.steady_state import find_pop

        cfg = full_load_cfg(self.FSW, 1)
        drv = sim.PeriodDriver(cfg, find_pop(cfg).state, record=False)
        drv.advance_period(self.FSW)
        built = []
        step_map = kernels._step_map

        def counting(m, h, *args):
            built.append(h)
            return step_map(m, h, *args)

        monkeypatch.setattr(kernels, "_step_map", counting)
        for _ in range(199):
            drv.advance_period(self.FSW)
        assert drv.periods == 200
        assert built == []

    def test_errors_name_absolute_time(self, monkeypatch):
        # no transition is allowed inside a step, so the first event
        # chatters; the message names the time of the run, not of the
        # period
        monkeypatch.setattr(kernels, "EVENT_GUARD", 0)
        t0 = 1e-3
        with pytest.raises(ModeChatter, match="near t=") as exc:
            self._period(t0)
        t = float(exc.value.args[0].rsplit("t=", 1)[1])
        assert t0 <= t <= t0 + 1.0 / self.FSW


class TestTimebase:
    @pytest.mark.parametrize("fsw, te, periods, gates", [
        # deliberately not a whole number of periods: the sixth period's
        # high-side turn-on only
        (F0, 5.37 / F0, 5, 21),
        # whole periods whose sum rounds an ulp or two below t_end, with no
        # sliver of a period after the last
        (110e3, 1e-4, 11, 44),
        (110e3, 2e-4, 22, 88),
        (115e3, 2e-4, 23, 92),
        # whole periods whose sum rounds 8 ulps past t_end: the last one
        # still ends at t_end, counts and logs its ZVS edge
        (110e3, 1e-3, 110, 440),
    ], ids=["5.37_periods", "110kHz_100us", "110kHz_200us", "115kHz_200us",
            "110kHz_1ms"])
    def test_final_sample_lands_exactly_on_t_end(self, fsw, te, periods,
                                                 gates):
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=fsw,
                        load=LoadSpec.resistance(RL), t_end=te,
                        record_stride=8)
        res = run_transient(cfg, warm_start_state(cfg))
        assert res.waveform.t[-1] == te
        assert res.final_state.t == te
        assert res.periods == periods
        assert sum(e.kind.startswith("gate") for e in res.events) == gates
        # two dead times end in every whole period, none in a part period
        assert len(res.zvs.edges) == 2 * periods

    def test_long_run_ends_without_a_sliver(self):
        # 11000 whole periods to 0.1 s, unrecorded: their float sum ends
        # 2.1e-14 s short of t_end, 21 times a 1e-15 s band.  The band
        # grows with the periods summed, so the last period ends at t_end
        # and counts, and no sliver period with a 44001st gate event follows
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=110e3,
                        load=LoadSpec.resistance(RL), t_end=0.1)
        drv = sim.PeriodDriver(cfg, warm_start_state(cfg), record=False)
        while drv.t < cfg.t_end:
            drv.advance_period(cfg.fsw, t_stop=cfg.t_end)
        res = drv.result()
        assert res.final_state.t == cfg.t_end
        assert res.periods == 11000
        assert sum(e.kind.startswith("gate") for e in res.events) == 44000
        assert len(res.zvs.edges) == 22000

    def test_record_times_strictly_increase(self, resonant_settled):
        _, res = resonant_settled
        assert np.all(np.diff(res.waveform.t) > 0.0)

    def test_load_profile_switches_mid_period(self):
        # the sampled sink current must step exactly at the breakpoint,
        # with the breakpoint row carrying the new value
        tsw = 3.7e-5
        cfg = SimConfig(
            tank=TANK, vin=VIN, fsw=F0,
            load=LoadSpec.profile("current", [(0.0, 0.2), (tsw, 0.45)]),
            t_end=8 / F0, record_stride=1)
        st = SimState(t=0.0, iLr=0.3, vCr=24.0, iLm=0.3, vOut=12.0,
                      rect=RectPhase.OFF)
        wf = run_transient(cfg, st).waveform
        assert set(np.unique(wf["iOut"])) == {0.2, 0.45}
        assert np.all(wf["iOut"][wf.t < tsw] == 0.2)
        assert np.all(wf["iOut"][wf.t >= tsw] == 0.45)


class TestWarmStart:
    def test_resistance_seed_matches_gain_model(self):
        cfg = full_load_cfg(F0, 1)
        ws = warm_start_state(cfg)
        re = effective_load(TANK.n, RL)
        mg = gain(normalize(TANK, re, F0)).Mg
        assert abs(ws.vOut - mg * VIN / (2.0 * TANK.n)) < 1e-9
        assert ws.iLm == -TANK.n * (ws.vOut + TANK.Vf) / (4.0 * TANK.Lm * F0)
        assert ws.rect is RectPhase.OFF
        assert ws.t == 0.0

    def test_current_seed_is_a_gain_fixed_point(self):
        cfg = SimConfig(tank=TANK, vin=VIN, fsw=1.05 * F0,
                        load=LoadSpec.current(0.5), t_end=1e-3)
        ws = warm_start_state(cfg)
        re = effective_load(TANK.n, ws.vOut / 0.5)
        mg = gain(normalize(TANK, re, cfg.fsw)).Mg
        assert abs(ws.vOut - mg * VIN / (2.0 * TANK.n)) < 1e-6

    @staticmethod
    def no_load_cfg(fsw):
        return SimConfig(tank=TANK, vin=VIN, fsw=fsw,
                         load=LoadSpec.current(0.0), t_end=2e-4)

    def test_no_load_seed_has_no_magnetizing_offset(self):
        """With no diode conducting, Lm carries the resonant current."""
        for fsw in (100e3, 110e3, 130e3):
            ws = warm_start_state(self.no_load_cfg(fsw))
            assert ws.rect is RectPhase.OFF
            assert ws.iLm == ws.iLr, fsw

    @pytest.mark.parametrize("fsw", [100e3, 110e3, 130e3])
    def test_no_load_seed_keeps_the_conduction_invariant(self, fsw):
        cfg = self.no_load_cfg(fsw)
        res = run_transient(cfg, warm_start_state(cfg))
        assert res.final_state.t == pytest.approx(2e-4)

    def test_seed_enters_conduction_immediately(self):
        cfg = full_load_cfg(F0, 3)
        res = run_transient(cfg, warm_start_state(cfg))
        kinds = [e.kind for e in res.events[:2]]
        assert kinds == ["gate_HS_on", "D1_on"]
