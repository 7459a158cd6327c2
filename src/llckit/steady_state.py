"""Periodic steady state of the switched stage.

Two solvers over the start-of-period state (iLr, vCr, iLm, vOut):

* cycle iteration: integrate whole switching periods until the state at the
  period boundary stops moving.  Robust, but slow when the output capacitor
  pole is much slower than the switching period.
* shooting: Newton's method on the period map with a finite-difference
  Jacobian, warmed up by a few plain cycles.  Handles the slow-pole cases in
  a handful of period evaluations.

Residuals are normalized per state component by the peak excursion of that
component over the last integrated period, so volts and amperes are judged
on equal footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sim import (
    PeriodDriver,
    SimConfig,
    SimError,
    SimState,
    Waveform,
    ZvsReport,
    consistent_rect,
    warm_start_state,
)

__all__ = [
    "PopError",
    "NoConvergence",
    "Divergence",
    "PopMetrics",
    "PopResult",
    "find_pop",
    "pop_metrics",
    "METHODS",
]

METHODS = ("shooting", "cycle_iteration")

_PEAK_FLOOR = 1e-9  # residual denominator floor, amps or volts


class PopError(SimError):
    """Periodic-steady-state search failed."""


class NoConvergence(PopError):
    def __init__(self, msg: str, residual: float, cycles: int):
        super().__init__(msg)
        self.residual = residual
        self.cycles = cycles


class Divergence(PopError):
    """State norm blew up during the search."""


@dataclass(frozen=True)
class PopMetrics:
    """Cycle-averaged figures of one settled switching period."""

    vout_mean: float
    vout_ripple: float  # peak-to-peak
    ilr_rms: float
    ilr_peak: float
    p_source: float  # W drawn from the input rail
    p_load: float  # W delivered to the output load
    zvs_all: bool


@dataclass
class PopResult:
    state: SimState  # start-of-period fixed point (t = 0)
    fsw: float
    residual: float  # normalized period-map residual at the fixed point
    cycles: int  # switching periods integrated to get there
    method: str
    waveform: Waveform  # one period at the fixed point, every step recorded
    zvs: ZvsReport
    energy: dict  # joules over that one period
    metrics: PopMetrics


def _residual(delta: np.ndarray, peaks) -> float:
    return float(max(abs(d) / max(p, _PEAK_FLOOR)
                     for d, p in zip(delta, peaks)))


def _check_norm(vec: np.ndarray, norm_ref: float) -> None:
    if float(np.linalg.norm(vec)) > 100.0 * norm_ref:
        raise Divergence("state norm grew past 100x the starting point")


def _solve_cycle_iteration(drv: PeriodDriver, fsw: float, tol: float,
                           max_cycles: int):
    # The per-cycle delta understates the distance to the fixed point when
    # a pole is slow (delta ~ distance * (1 - contraction)), so stopping on
    # the raw delta alone would leave the answer many deltas short.
    # Estimate the contraction from the delta decay over a 20-cycle window
    # (a one-step ratio is fooled by beating between modes) and stop on the
    # extrapolated remaining distance delta * r / (1 - r).
    lag = 20
    prev = np.array(drv.state.vector())
    # reference scale for the blow-up guard; vin keeps a cold start from
    # tripping the threshold on its way up
    norm_ref = max(float(np.linalg.norm(prev)), drv.cfg.vin, 1.0)
    res = math.inf
    history: list[float] = []
    for k in range(max_cycles):
        drv.advance_period(fsw)
        vec = drv.state.vector()
        res = _residual(vec - prev, drv.last_period_peaks)
        _check_norm(vec, norm_ref)
        if res < tol:
            if res < 1e-3 * tol:
                return replace(drv.state, t=0.0), res, k + 1
            if len(history) >= lag and history[-lag] > 0.0:
                r = (res / history[-lag]) ** (1.0 / lag)
                if r < 1.0 and res * r / (1.0 - r) < tol:
                    return replace(drv.state, t=0.0), res, k + 1
        prev = vec
        history.append(res)
    raise NoConvergence(
        f"cycle iteration still at residual {res:.3e} after "
        f"{max_cycles} periods", res, max_cycles)


def _solve_shooting(drv: PeriodDriver, state0: SimState, fsw: float,
                    tol: float, warm_cycles: int, newton_max: int,
                    max_cycles: int):
    cycles = 0

    def period_map(st: SimState):
        nonlocal cycles
        drv.reset(consistent_rect(replace(st, t=0.0)))
        drv.advance_period(fsw)
        cycles += 1
        return drv.state.vector(), drv.last_period_peaks, drv.state.rect

    # a few plain cycles pull the seed onto the right conduction pattern
    drv.reset(replace(state0, t=0.0))
    for _ in range(warm_cycles):
        drv.advance_period(fsw)
        cycles += 1
    st = replace(drv.state, t=0.0)
    norm_ref = max(float(np.linalg.norm(st.vector())), drv.cfg.vin, 1.0)

    x = st.vector()
    px, peaks, rect_out = period_map(st)
    res = _residual(px - x, peaks)
    for _ in range(newton_max):
        if res < tol:
            return replace(st, t=0.0, rect=rect_out), res, cycles
        jac = np.empty((4, 4))
        for i in range(4):
            h = 1e-6 * max(abs(x[i]), peaks[i], _PEAK_FLOOR)
            xp = x.copy()
            xp[i] += h
            pxp, _, _ = period_map(
                replace(st, iLr=xp[0], vCr=xp[1], iLm=xp[2], vOut=xp[3]))
            jac[:, i] = (pxp - px) / h
        delta = np.linalg.solve(jac - np.eye(4), -(px - x))
        # damped update: the map Jacobian has an eigenvalue near one when
        # the output pole is slow, so the raw Newton direction can be wild;
        # halve the step until the trial state integrates cleanly and the
        # residual actually drops
        best = None
        step = 1.0
        for _ in range(9):
            x_t = x + step * delta
            st_t = replace(st, iLr=x_t[0], vCr=x_t[1], iLm=x_t[2],
                           vOut=x_t[3])
            try:
                px_t, peaks_t, rect_t = period_map(st_t)
            except SimError:
                step *= 0.5
                continue
            res_t = _residual(px_t - x_t, peaks_t)
            if best is None or res_t < best[0]:
                best = (res_t, x_t, st_t, px_t, peaks_t, rect_t)
            if res_t <= 0.9 * res:
                break
            step *= 0.5
        if best is None or best[0] >= res:
            break  # Newton exhausted; finish by contraction below
        res, x, st, px, peaks, rect_out = best
        _check_norm(x, norm_ref)
        if cycles > max_cycles:
            break
    if res < tol:
        return replace(st, t=0.0, rect=rect_out), res, cycles

    # Newton cannot finish when the cycle map is not smooth at the fixed
    # point (a rectifier conduction flip can sit exactly on the period
    # boundary, which both kinks the map and poisons the finite-difference
    # Jacobian), so hand the polished state to the contraction iteration
    budget = max_cycles - cycles
    if budget < 1:
        raise NoConvergence(
            f"shooting still at residual {res:.3e} after {cycles} periods",
            res, cycles)
    drv.reset(consistent_rect(replace(st, t=0.0)))
    try:
        state, res, extra = _solve_cycle_iteration(drv, fsw, tol, budget)
    except NoConvergence as exc:
        raise NoConvergence(
            f"shooting stalled at residual {res:.3e}; contraction finish "
            f"still at {exc.residual:.3e} after {cycles + exc.cycles} "
            f"periods", exc.residual, cycles + exc.cycles) from exc
    return state, res, cycles + extra


def pop_metrics(wf: Waveform, energy: dict, zvs: ZvsReport,
                period: float) -> PopMetrics:
    t = wf.t
    vout = wf["vOut"]
    ilr = wf["iLr"]
    return PopMetrics(
        vout_mean=float(np.trapezoid(vout, t)) / period,
        vout_ripple=float(np.max(vout) - np.min(vout)),
        ilr_rms=math.sqrt(float(np.trapezoid(ilr * ilr, t)) / period),
        ilr_peak=float(np.max(np.abs(ilr))),
        p_source=energy["source"] / period,
        p_load=energy["load"] / period,
        zvs_all=zvs.all_soft,
    )


def find_pop(cfg: SimConfig, method: str = "shooting", tol: float = 1e-6,
             max_cycles: int = 2000, warm_cycles: int = 20,
             newton_max: int = 25,
             initial: SimState | None = None) -> PopResult:
    """Find the periodic operating point at ``cfg.fsw``.

    The load must be time-invariant (a single point); soft-start settings
    are ignored because the search runs at the commanded frequency only.
    Raises :class:`NoConvergence` or :class:`Divergence` when the search
    fails, ``ValueError`` on a misconfigured request.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if cfg.load.switch_times:
        raise ValueError("periodic steady state needs a time-invariant load")

    state0 = initial if initial is not None else warm_start_state(cfg)
    drv = PeriodDriver(cfg, state0, record=False)

    if method == "cycle_iteration":
        state, res, cycles = _solve_cycle_iteration(drv, cfg.fsw, tol,
                                                    max_cycles)
    else:
        state, res, cycles = _solve_shooting(drv, state0, cfg.fsw, tol,
                                             warm_cycles, newton_max,
                                             max_cycles)

    # one fully recorded period at the fixed point for waveform and metrics
    period = 1.0 / cfg.fsw
    mcfg = replace(cfg, record_stride=1, channels=None)
    mdrv = PeriodDriver(mcfg, state, record=True)
    # the step maps hang on (mode, step length) alone: reuse the solve's
    mdrv._maps = drv._maps
    mdrv.advance_period(cfg.fsw)
    out = mdrv.result()
    return PopResult(
        state=state,
        fsw=cfg.fsw,
        residual=res,
        cycles=cycles,
        method=method,
        waveform=out.waveform,
        zvs=out.zvs,
        energy=out.energy,
        metrics=pop_metrics(out.waveform, out.energy, out.zvs, period),
    )
