"""Periodic-operating-point solvers and cycle metrics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llckit import steady_state
from llckit.gain import solve_frequency
from llckit.sim import (
    LoadSpec,
    PeriodDriver,
    PeriodPeaks,
    RectPhase,
    SimConfig,
    Waveform,
    ZvsReport,
    warm_start_state,
)
from llckit.steady_state import (
    Divergence,
    NoConvergence,
    PopResult,
    _check_norm,
    find_pop,
    pop_metrics,
)
from llckit.synthesis import DesignRequirements, synthesize_tank
from llckit.tank import TankParams, effective_load, normalize, series_resonance

TANK = TankParams(Lr=37e-6, Cr=68e-9, Lm=75e-6, n=1.83)
F0 = series_resonance(TANK)
RL = 24.0
VIN = 48.0
TOL = 1e-6


def cfg_at(fsw, load=None, vin=VIN):
    return SimConfig(tank=TANK, vin=vin, fsw=fsw,
                     load=load if load is not None else LoadSpec.resistance(RL),
                     t_end=1.0)


def solved_fsw():
    """Switching frequency the sinusoidal model picks for 12 V at full load."""
    re = effective_load(TANK.n, RL)
    pt = normalize(TANK, re, F0)
    mg = 12.0 * 2.0 * TANK.n / VIN
    return solve_frequency(TANK.Ln, pt.Qe, mg) * F0


@pytest.fixture(scope="module")
def pop_shooting():
    return find_pop(cfg_at(solved_fsw()), method="shooting")


@pytest.fixture(scope="module")
def pop_cycle():
    return find_pop(cfg_at(solved_fsw()), method="cycle_iteration")


class TestSolvedOperatingPoint:
    def test_model_frequency_value(self):
        # anchors the whole chain: gain inversion feeding the POP search
        assert abs(solved_fsw() - 111035.102) < 0.01

    def test_shooting_converges_tightly(self, pop_shooting):
        assert pop_shooting.residual < TOL
        assert pop_shooting.cycles < 100
        assert pop_shooting.method == "shooting"

    def test_trace_accounts_for_every_period(self, pop_shooting, pop_cycle):
        tr = pop_shooting.trace
        # Newton starts at the seed: its residual is the first iterate's
        assert tr.residuals[0] > TOL
        assert tr.residuals[-1] == pop_shooting.residual
        assert len(tr.residuals) <= pop_shooting.cycles
        assert tr.plain <= pop_shooting.cycles
        tr = pop_cycle.trace
        assert (tr.residuals, tr.halvings, tr.plain) \
            == ((), 0, pop_cycle.cycles)

    def test_period_map_jacobian_is_asked_for(self, pop_shooting):
        drv = PeriodDriver(cfg_at(pop_shooting.fsw), pop_shooting.state,
                           record=False)
        assert drv.jacobian is None
        drv.reset(pop_shooting.state, jacobian=True)
        assert np.all(drv.jacobian == np.eye(4))
        drv.advance_period(pop_shooting.fsw)
        jac = drv.jacobian
        assert jac.shape == (4, 4)
        # at the fixed point the period map contracts: every multiplier
        # lies inside the unit circle
        assert np.max(np.abs(np.linalg.eigvals(jac))) < 1.0
        drv.reset(pop_shooting.state)
        assert drv.jacobian is None

    def test_rounding_level_changes_move_shooting_by_rounding(self):
        # with the exact Jacobian, a one-ulp change of the input voltage
        # moves the shooting state at 115 kHz into 24 ohm by no more than
        # the final Newton step's own error (a finite-difference Jacobian
        # turned the rounding of each period into some 1e-10 of it)
        a = find_pop(cfg_at(115e3)).state.vector()
        b = find_pop(cfg_at(115e3, vin=math.nextafter(VIN, 100.0))).state
        assert np.max(np.abs(b.vector() - a) / np.abs(a)) < 5e-11

    def test_output_voltage_regression(self, pop_shooting):
        # frozen from a converged run; guards the integrator and solver
        assert abs(pop_shooting.metrics.vout_mean - 11.72921626202277) < 1e-6

    def test_cycle_iteration_converges(self, pop_cycle):
        assert pop_cycle.residual < TOL
        assert pop_cycle.cycles <= 2000
        assert abs(pop_cycle.metrics.vout_mean - 11.729214) < 1e-4

    def test_methods_agree_on_the_fixed_point(self, pop_shooting, pop_cycle):
        peaks = [float(np.max(np.abs(pop_shooting.waveform[ch])))
                 for ch in ("iLr", "vCr", "iLm", "vOut")]
        d = np.abs(pop_shooting.state.vector() - pop_cycle.state.vector())
        for di, pk in zip(d, peaks):
            assert di <= 10.0 * TOL * max(pk, 1e-9)

    def test_fixed_point_reproduces_itself(self, pop_shooting):
        drv = PeriodDriver(cfg_at(pop_shooting.fsw), pop_shooting.state,
                           record=False)
        drv.advance_period(pop_shooting.fsw)
        d = np.abs(drv.state.vector() - pop_shooting.state.vector())
        for di, pk in zip(d, drv.period_peaks.exact()):
            assert di <= 2.0 * TOL * max(pk, 1e-9)

    def test_cycle_waveform_spans_one_period(self, pop_shooting):
        wf = pop_shooting.waveform
        assert wf.t[0] == 0.0
        assert wf.t[-1] == 1.0 / pop_shooting.fsw
        assert np.all(np.diff(wf.t) > 0.0)

    def test_recorded_period_matches_a_fresh_driver(self, pop_shooting):
        """The recorded period reuses the solve's step maps; a driver that
        builds its own from scratch writes the same samples bit for bit."""
        cfg = replace(cfg_at(pop_shooting.fsw), record_stride=1)
        drv = PeriodDriver(cfg, pop_shooting.state, record=True)
        drv.advance_period(pop_shooting.fsw)
        wf = drv.result().waveform
        assert wf.t.tobytes() == pop_shooting.waveform.t.tobytes()
        for ch in wf.names:
            assert wf[ch].tobytes() == pop_shooting.waveform[ch].tobytes(), ch

    def test_metrics_are_self_consistent(self, pop_shooting):
        m = pop_shooting.metrics
        assert 0.0 < m.vout_ripple < 0.02
        assert 0.0 < m.ilr_rms < m.ilr_peak
        assert 0.7 < m.ilr_peak < 0.9
        assert m.zvs_all
        assert pop_shooting.zvs.all_soft


class TestPowerBalance:
    def test_lossless_stage_moves_all_power_to_the_load(self):
        pop = find_pop(cfg_at(1.1 * F0), method="shooting")
        m = pop.metrics
        assert m.p_source > 0.0
        assert abs(m.p_source - m.p_load) < 0.005 * m.p_source
        # the integrator does far better than the contract asks
        assert abs(m.p_source - m.p_load) < 1e-4 * m.p_source


class TestNearTheRegionBoundary:
    def test_newton_finishes_where_cycle_iteration_crawls(self):
        # 70 kHz at 0.5 A, near the region-1/2 boundary: the output pole's
        # multiplier sits near one, so cycle iteration needs hundreds of
        # periods; Newton on the exact Jacobian finishes in a handful, with
        # no plain cycles (a finite-difference Jacobian took 642 periods)
        cfg = cfg_at(70e3, load=LoadSpec.current(0.5))
        pop = find_pop(cfg)
        assert pop.residual < TOL
        assert pop.trace.plain == 0
        assert pop.cycles < 20
        slow = find_pop(cfg, method="cycle_iteration")
        assert slow.cycles > 10 * pop.cycles
        assert abs(pop.metrics.vout_mean - slow.metrics.vout_mean) \
            < 10.0 * TOL * slow.metrics.vout_mean


class TestSeedConductionTag:
    def test_shooting_tags_the_seed_by_its_currents(self):
        # at 130 kHz into 6 ohm on the reference tank the warm-start seed is
        # tagged open although iLr and iLm differ by 0.58 A; a period from
        # the seed as tagged breaches the conduction invariant at t = 0, so
        # Newton's first period map starts from the tag its currents give
        req = DesignRequirements(
            vin_min=39.0, vin_nom=48.0, vin_max=48.0, vout_min=12.0,
            vout_nom=12.0, vout_max=12.0, iout_min=0.0, iout_max=0.5,
            f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
        cfg = SimConfig(tank=synthesize_tank(req, 1.83, 2.05, 0.36),
                        vin=48.0, fsw=130e3, load=LoadSpec.resistance(6.0),
                        t_end=1.0)
        seed = warm_start_state(cfg)
        assert seed.rect == RectPhase.OFF
        assert abs(seed.iLr - seed.iLm) > 0.5
        pop = find_pop(cfg)
        assert pop.residual < TOL
        assert pop.cycles < 20


class TestTrivialFixedPoints:
    def test_zero_input_is_the_zero_state(self):
        pop = find_pop(cfg_at(F0, vin=0.0), method="cycle_iteration")
        assert pop.cycles == 1
        assert pop.residual == 0.0
        assert np.all(pop.state.vector() == 0.0)
        assert pop.metrics.p_source == 0.0
        assert pop.metrics.p_load == 0.0


class TestMetricsHelpers:
    def _one_period(self, f):
        T = 1.0 / f
        t = np.linspace(0.0, T, 4001)
        return t, T

    def test_dc_channel_has_zero_ripple(self):
        t, T = self._one_period(1e5)
        wf = Waveform(t=t, channels={"vOut": np.full(t.size, 5.0),
                                     "iLr": np.zeros(t.size)})
        m = pop_metrics(wf, {"source": 0.0, "load": 0.0}, ZvsReport(()), T)
        assert m.vout_ripple == 0.0
        assert m.vout_mean == pytest.approx(5.0, rel=1e-12)

    def test_sine_rms_identity(self):
        t, T = self._one_period(1e5)
        a = 0.8
        wf = Waveform(t=t, channels={
            "vOut": np.zeros(t.size),
            "iLr": a * np.sin(2.0 * math.pi * t / T)})
        m = pop_metrics(wf, {"source": 0.0, "load": 0.0}, ZvsReport(()), T)
        assert abs(m.ilr_rms - a / math.sqrt(2.0)) < 1e-3 * a
        assert m.ilr_peak == pytest.approx(a, rel=1e-6)


class TestFailureModes:
    def test_cycle_budget_exhaustion_reports_residual(self):
        with pytest.raises(NoConvergence) as exc:
            find_pop(cfg_at(solved_fsw()), method="cycle_iteration",
                     tol=1e-13, max_cycles=40)
        assert exc.value.cycles == 40
        assert exc.value.residual > 1e-13

    def test_newton_budget_exhaustion(self):
        with pytest.raises(NoConvergence) as exc:
            find_pop(cfg_at(solved_fsw()), method="shooting",
                     tol=1e-15, max_cycles=3)
        assert exc.value.cycles == 3
        assert exc.value.residual > 1e-15

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            find_pop(cfg_at(F0), method="collocation")

    def test_rejects_time_varying_load(self):
        ld = LoadSpec.profile("resistance", [(0.0, 24.0), (1e-3, 12.0)])
        with pytest.raises(ValueError):
            find_pop(cfg_at(F0, load=ld))

    def test_norm_guard_trips_on_blowup(self):
        with pytest.raises(Divergence):
            _check_norm(np.array([1e4, 0.0, 0.0, 0.0]), 10.0)

    @pytest.mark.parametrize("method", steady_state.METHODS)
    @pytest.mark.parametrize("kw", [
        {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-6}, {"tol": math.inf},
        {"max_cycles": -3}, {"max_cycles": 0}, {"max_cycles": 2.5},
        {"max_cycles": 2.0},
    ])
    def test_rejects_a_bad_tolerance_or_budget(self, method, kw):
        # these used to return an unconverged state as a POP (tol NaN by
        # shooting), spend the whole budget (tol <= 0), report a negative
        # budget or die in range()
        with pytest.raises(ValueError, match=next(iter(kw))):
            find_pop(cfg_at(115e3), method=method, **kw)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from(
           (0.0, -0.0, 5e-324, 1e154, 1e308, math.inf, math.nan)),
           min_size=4, max_size=4),
       st.floats(1e-300, 1e300), st.booleans())
def test_norm_guard_trips_where_the_norm_passes_its_limit(x, norm_ref, arr):
    # the guard skips the norm only where 2 max |x_i| bounds it below the
    # limit: it raises exactly where the norm itself is past the limit
    with np.errstate(over="ignore"):
        trips = float(np.linalg.norm(np.array(x))) > 100.0 * norm_ref
        try:
            _check_norm(np.array(x) if arr else x, norm_ref)
        except Divergence:
            assert trips
        else:
            assert not trips


def test_result_carries_the_run_context(pop_shooting):
    assert isinstance(pop_shooting, PopResult)
    assert pop_shooting.fsw == solved_fsw()
    assert pop_shooting.energy["source"] > 0.0
    assert pop_shooting.state.t == 0.0


# the reference tank (n = 1.83, Ln = 2.05, Qe = 0.36) and its three POP
# regimes: above resonance, light load and near the region boundary
REF_REQ = DesignRequirements(vin_min=39.0, vin_nom=48.0, vin_max=48.0,
                             vout_min=12.0, vout_nom=12.0, vout_max=12.0,
                             iout_min=0.0, iout_max=0.5, f0_target=100e3,
                             fsw_min=60e3, fsw_max=130e3)


# (fsw, method): the solve's state (iLr, vCr, iLm, vOut), rectifier phase,
# residual and periods.  Residuals judged on the exact peaks instead of the
# step-end ones, which are at most the exact ones, give the same states,
# phases and periods, bit for bit, and residuals no larger than these
POP_PINS = {
    (115e3, "shooting"): ((-0.6091045378665695, 15.874284428261998,
                           -0.5844664108500592, 11.32037413872456), 2,
                          3.050295790497546e-12, 10),
    (115e3, "cycle_iteration"): ((-0.6091011334946956, 15.874443234775509,
                                  -0.5844673274811515, 11.320378585157481),
                                 2, 1.1006276754490926e-07, 83),
    (110e3, "shooting"): ((-0.6127778327730342, 21.39018886493129,
                           -0.6127778327730342, 12.109623181496097), 0,
                          1.0250527048416762e-10, 5),
    (110e3, "cycle_iteration"): ((-0.6127780489511379, 21.39015405089823,
                                  -0.6127780489511379, 12.109618574070128),
                                 0, 4.05310425775123e-08, 187),
    (73.5e3, "shooting"): ((-1.5960859138563908, -4.036144457590777,
                            -1.5960859138563908, 24.564334264194056), 0,
                           3.3385957260655864e-09, 4),
    (73.5e3, "cycle_iteration"): ((-1.5960929311082597, -4.035123774119834,
                                   -1.5960929311082597, 24.564349565229133),
                                  0, 1.3798064794773017e-07, 381),
}
POP_LOADS = [
    (115e3, LoadSpec.resistance(24.0)),
    (110e3, LoadSpec.current(0.1)),
    (73.5e3, LoadSpec.current(0.5)),
]


def ref_cfg(fsw, load):
    tank = synthesize_tank(REF_REQ, 1.83, 2.05, 0.36)
    return SimConfig(tank=tank, vin=48.0, fsw=fsw, load=load, t_end=1.0)


@pytest.mark.parametrize("method", steady_state.METHODS)
@pytest.mark.parametrize("fsw, load", POP_LOADS)
def test_pop_solves_are_pinned(fsw, load, method):
    pop = find_pop(ref_cfg(fsw, load), method=method)
    s = pop.state
    x = (s.iLr, s.vCr, s.iLm, s.vOut)
    x_pin, rect, res, cycles = POP_PINS[fsw, method]
    assert repr(tuple(map(float, x))) == repr(x_pin)
    assert s.rect == rect
    assert repr(pop.residual) == repr(res)
    assert pop.cycles == cycles
    if method == "cycle_iteration":
        # its state is the driver's Python floats, as it always was
        assert all(type(v) is float for v in x)


@pytest.mark.parametrize("method", steady_state.METHODS)
@pytest.mark.parametrize("fsw, load", POP_LOADS)
def test_solves_locate_no_crest(fsw, load, method, monkeypatch):
    # both solvers judge their residuals on the step-end peaks, which need
    # no crest search: the exact peaks are never read
    def unread(self, comps=(0, 1, 2, 3)):
        raise AssertionError("a solve read exact peaks")

    monkeypatch.setattr(PeriodPeaks, "exact", unread)
    drv = steady_state._solve_pop(ref_cfg(fsw, load), method)[4]
    assert drv.counts["extremum_searches"] == 0
