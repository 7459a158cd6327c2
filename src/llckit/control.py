"""Closed-loop output regulation by switching-frequency modulation.

The regulator samples the output voltage and the resonant-current peak once
per switching period and moves the commanded frequency along the inductive
branch: output high pushes the frequency up (gain down), output low pulls it
down.  Clamping at the configured frequency window doubles as anti-windup
because the integral action lives in the frequency command itself (velocity
form).  An overcurrent threshold switches the law to a plain frequency ramp
toward the upper clamp, which starves the tank, the standard shift response
to a shorted output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .gain import GainError, solve_frequency
from .sim import (
    LoadSpec,
    PeriodDriver,
    SimConfig,
    SimResult,
    SimState,
    warm_start_state,
)
# find_pop stays importable from here for callers that take it from this
# module; the load step seeds from the solve alone
from .steady_state import _solve_pop, find_pop  # noqa: F401
from .synthesis import DesignReport
from .tank import (
    effective_load,
    normalize,
    noload_resonance,
    series_resonance,
)

__all__ = [
    "ControllerConfig",
    "FrequencyController",
    "ControlTrace",
    "ClosedLoopResult",
    "LoadStepReport",
    "baseline_frequency",
    "default_controller",
    "run_closed_loop",
    "run_load_step",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Regulator settings.  Frequencies in Hz, gains in Hz/(V s) and Hz/V."""

    v_ref: float
    ki: float
    fsw_min: float
    fsw_max: float
    kp: float = 0.0
    i_limit: float = math.inf  # resonant-current peak that trips protection
    f_shift_rate: float = 0.0  # Hz/s ramp while protection is active
    update_period: float | None = None  # None: act once per switching cycle

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and math.isnan(v):
                raise ValueError(f"{f.name} must not be NaN")
        if self.v_ref <= 0.0:
            raise ValueError("v_ref must be positive")
        if self.ki < 0.0 or self.kp < 0.0:
            raise ValueError("gains must be non-negative")
        if not 0.0 < self.fsw_min < self.fsw_max:
            raise ValueError("need 0 < fsw_min < fsw_max")
        if self.i_limit <= 0.0:
            raise ValueError("i_limit must be positive")
        if self.f_shift_rate < 0.0:
            raise ValueError("f_shift_rate must be non-negative")
        if self.update_period is not None and self.update_period <= 0.0:
            raise ValueError("update_period must be positive")


class FrequencyController:
    """Owns the commanded frequency between measurement instants."""

    def __init__(self, cfg: ControllerConfig, fsw0: float):
        self.cfg = cfg
        self.fsw = min(max(fsw0, cfg.fsw_min), cfg.fsw_max)
        self.overridden = False
        self._prev_err: float | None = None
        self._pending = 0.0  # time since the last applied PI update

    def update(self, vout: float, ilr_peak: float, dt: float) -> float:
        """Consume one period's measurements, return the next command."""
        cfg = self.cfg
        if ilr_peak > cfg.i_limit:
            # protection: ramp up regardless of the voltage error, and make
            # the PI restart cleanly once the current subsides
            self.fsw = min(self.fsw + cfg.f_shift_rate * dt, cfg.fsw_max)
            self.overridden = True
            self._prev_err = None
            self._pending = 0.0
            return self.fsw
        self.overridden = False
        self._pending += dt
        if cfg.update_period is not None and self._pending < cfg.update_period:
            return self.fsw
        h = self._pending
        self._pending = 0.0
        err = vout - cfg.v_ref  # positive error must raise the frequency
        d = cfg.ki * err * h
        if self._prev_err is not None:
            d += cfg.kp * (err - self._prev_err)
        self._prev_err = err
        self.fsw = min(max(self.fsw + d, cfg.fsw_min), cfg.fsw_max)
        return self.fsw


@dataclass
class ControlTrace:
    """Per-period record of what the regulator saw and commanded."""

    t: np.ndarray  # period-boundary times
    fsw: np.ndarray  # frequency commanded for the period ending at t
    vout: np.ndarray  # output voltage sampled at t
    ilr_peak: np.ndarray  # resonant-current peak over that period
    overcurrent: np.ndarray  # protection active at the update following t

    @property
    def fsw_span(self) -> tuple[float, float]:
        return float(np.min(self.fsw)), float(np.max(self.fsw))


@dataclass
class ClosedLoopResult:
    sim: SimResult
    trace: ControlTrace
    final_fsw: float


def run_closed_loop(cfg: SimConfig, ctrl: ControllerConfig,
                    initial: SimState | None = None,
                    fsw0: float | None = None) -> ClosedLoopResult:
    """Integrate ``cfg`` with the frequency under closed-loop control.

    ``cfg.fsw`` (or ``fsw0``) seeds the command; soft-start settings are
    ignored since the regulator owns the frequency trajectory.
    """
    controller = FrequencyController(ctrl, cfg.fsw if fsw0 is None else fsw0)
    if initial is None:
        initial = warm_start_state(replace(cfg, fsw=controller.fsw))
    drv = PeriodDriver(cfg, initial, record=True)
    rows = []
    flags = []
    while drv.t < cfg.t_end:
        fcmd = controller.fsw
        t_a = drv.t
        drv.advance_period(fcmd, t_stop=cfg.t_end)
        dt = drv.t - t_a
        vout = drv.state.vOut
        ipk = drv.period_peaks.exact((0,))[0]  # the iLr peak alone
        controller.update(vout, ipk, dt)
        rows.append((drv.t, fcmd, vout, ipk))
        flags.append(controller.overridden)
    arr = np.array(rows) if rows else np.empty((0, 4))
    trace = ControlTrace(t=arr[:, 0], fsw=arr[:, 1], vout=arr[:, 2],
                         ilr_peak=arr[:, 3],
                         overcurrent=np.array(flags, dtype=bool))
    return ClosedLoopResult(sim=drv.result(), trace=trace,
                            final_fsw=controller.fsw)


@dataclass(frozen=True)
class LoadStepReport:
    """How a load scenario went, judged against the regulation band."""

    v_ref: float
    band: float  # absolute volts around v_ref
    t_step: float  # final load breakpoint
    vout_min: float  # trace extremes from the first breakpoint on
    vout_max: float
    max_deviation: float
    recovery_time: float  # last out-of-band sample after t_step, minus t_step
    settles: bool
    fsw_lo: float  # command excursion over the whole run
    fsw_hi: float
    final_vout: float
    final_fsw: float


def default_controller(design: DesignReport) -> ControllerConfig:
    """Regulator defaults scaled from the design point.

    The frequency window spans the two tank resonances with a 30% margin on
    top, the overcurrent threshold sits at 2.5x the predicted full-load
    resonant-current peak, and the integral gain targets a few-millisecond
    recovery on the nominal converter.
    """
    tank = design.tank
    req = design.requirements
    f0 = series_resonance(tank)
    fsw_lo = noload_resonance(tank)
    fsw_hi = 1.3 * f0
    v = req.vout_nom
    i_pk = math.hypot(
        math.pi * req.iout_max / (2.0 * tank.n),
        tank.n * v / (4.0 * tank.Lm * f0))
    return ControllerConfig(
        v_ref=v,
        ki=3e6,
        fsw_min=fsw_lo,
        fsw_max=fsw_hi,
        i_limit=2.5 * i_pk,
        f_shift_rate=(fsw_hi - fsw_lo) / 1.5e-3,
    )


def baseline_frequency(design: DesignReport, load: LoadSpec,
                        v_ref: float) -> float:
    tank = design.tank
    v0 = load.points[0][1]
    if load.kind == "resistance":
        rl = v0
    else:
        rl = math.inf if v0 == 0.0 else v_ref / v0
    re = effective_load(tank.n, rl)
    f0 = series_resonance(tank)
    pt = normalize(tank, re, f0)
    mg = v_ref * 2.0 * tank.n / design.requirements.vin_nom
    try:
        return solve_frequency(tank.Ln, pt.Qe, mg) * f0
    except GainError as exc:
        raise ValueError(
            f"scenario baseline is outside the reachable gain range: {exc}"
        ) from exc


def run_load_step(design: DesignReport, scenario: LoadSpec,
                  ctrl: ControllerConfig | None = None,
                  t_end: float | None = None, record_stride: int = 32,
                  band: float = 0.01, dt_max: float | None = None,
                  ) -> tuple[ClosedLoopResult, LoadStepReport]:
    """Run a closed-loop load scenario from a settled starting cycle.

    The starting frequency comes from inverting the sinusoidal gain model
    at the scenario's first load value; the initial state is the periodic
    operating point there, so the run begins settled rather than cold.
    ``band`` is the regulation band as a fraction of the reference;
    ``dt_max`` sets the record grid of both the seed and the run.
    """
    if ctrl is None:
        ctrl = default_controller(design)
    tank = design.tank
    req = design.requirements
    fsw0 = baseline_frequency(design, scenario, ctrl.v_ref)
    fsw0 = min(max(fsw0, ctrl.fsw_min), ctrl.fsw_max)
    if t_end is None:
        last = scenario.switch_times[-1] if scenario.switch_times else 0.0
        t_end = last + 5e-3

    # the run starts from the operating point's state alone, so the seed
    # records no period and computes no metrics
    base = LoadSpec(scenario.kind, (scenario.points[0],))
    seed = _solve_pop(
        SimConfig(tank=tank, vin=req.vin_nom, fsw=fsw0, load=base,
                  t_end=1.0, dt_max=dt_max),
        method="shooting")[0]
    cfg = SimConfig(tank=tank, vin=req.vin_nom, fsw=fsw0, load=scenario,
                    t_end=t_end, dt_max=dt_max, record_stride=record_stride)
    out = run_closed_loop(cfg, ctrl, initial=seed, fsw0=fsw0)

    tr = out.trace
    t_first = scenario.switch_times[0] if scenario.switch_times else 0.0
    t_step = scenario.switch_times[-1] if scenario.switch_times else 0.0
    band_abs = band * ctrl.v_ref
    after = tr.t >= t_first
    v_after = tr.vout[after]
    dev = np.abs(v_after - ctrl.v_ref) if v_after.size else np.empty(0)
    out_of_band = (np.abs(tr.vout - ctrl.v_ref) > band_abs) & (tr.t > t_step)
    if np.any(out_of_band):
        recovery = float(tr.t[np.nonzero(out_of_band)[0][-1]]) - t_step
    else:
        recovery = 0.0
    settles = (tr.vout.size > 0
               and abs(float(tr.vout[-1]) - ctrl.v_ref) <= band_abs
               and recovery < t_end - t_step)
    lo, hi = tr.fsw_span
    report = LoadStepReport(
        v_ref=ctrl.v_ref,
        band=band_abs,
        t_step=t_step,
        vout_min=float(np.min(v_after)) if v_after.size else math.nan,
        vout_max=float(np.max(v_after)) if v_after.size else math.nan,
        max_deviation=float(np.max(dev)) if dev.size else math.nan,
        recovery_time=recovery,
        settles=settles,
        fsw_lo=lo,
        fsw_hi=hi,
        final_vout=float(tr.vout[-1]) if tr.vout.size else math.nan,
        final_fsw=out.final_fsw,
    )
    return out, report
