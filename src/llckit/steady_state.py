"""Periodic steady state of the switched stage.

Two solvers over the start-of-period state (iLr, vCr, iLm, vOut):

* cycle iteration: integrate whole switching periods until the state at the
  period boundary stops moving.  Robust, but slow when the output capacitor
  pole is much slower than the switching period.
* shooting: Newton's method on the period map, starting at the seed.
  Each period-map evaluation also carries the map's exact Jacobian
  through the kernel: the sensitivity of the state to the period's start
  state, across every step and, by its saltation matrix, every rectifier,
  dead-time and sink event (Aprille & Trick 1972; Leine & Nijmeijer
  2004).  So a Newton iteration costs one period, and the slow output
  pole, whose multiplier sits near one, costs no more than the rest.
  The map is only piecewise smooth: a conduction edge near the period
  boundary kinks it, and the residual can rise on the way across a kink.
  So a full step that raises the residual is taken once on watch, where
  it moves no component by more than the period's step-end peak, a short
  line search damps the rest, and where no step along the Newton
  direction helps, plain cycles (twice as many at each such failure) move
  on to another piece of the map.  Newton runs until the residual is
  below the tolerance or the period budget is spent.

Residuals are normalized per state component by the largest value of that
component at the step ends of the last integrated period
(:attr:`PeriodPeaks.ends <llckit.sim.PeriodPeaks>`, floored at
``_PEAK_FLOOR``), so volts and amperes are judged on equal footing.  The
step ends leave out only the extrema inside kernel steps, so they are at
most the period's peaks, and each residual is at least the one the exact
peaks would give: the tolerance test is no looser for it, and neither
solver locates a crest.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .sim import (
    PeriodDriver,
    RectPhase,
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
    "PopTrace",
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


@dataclass(frozen=True)
class PopTrace:
    """Where a solve's periods went."""

    # the residual at each Newton iterate, the seed's first
    residuals: tuple[float, ...]
    halvings: int  # line-search step halvings
    # periods run as plain cycles: shooting's fallback where no Newton step
    # helps, and every period of cycle iteration
    plain: int


class _Iterate(NamedTuple):
    """One shooting iterate: the period map run from ``state``."""

    residual: float  # normalized |P(x) - x|
    x: np.ndarray  # the start state as a vector
    state: SimState
    px: np.ndarray  # P(x), the state one period on
    ends: list[float]  # the period's step-end peaks, the residual's scale
    rect: RectPhase  # rectifier phase at the period's end
    jacobian: np.ndarray  # dP/dx at x


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
    trace: PopTrace


def _residual(delta: np.ndarray, peaks) -> float:
    return float(max(abs(d) / max(p, _PEAK_FLOOR)
                     for d, p in zip(delta, peaks)))


def _check_norm(x, norm_ref: float) -> None:
    """Raise :class:`Divergence` where the 2-norm of the state x (four
    components, floats or an array) has grown past 100 ``norm_ref``.

    ||x||_2 <= 2 max |x_i| for four components, so the norm is computed
    only where that bound, less a margin of 2^-40 that is far wider than
    the norm's rounding, is not within the limit, or where the limit is so
    large (past 2^500) that the squares the norm sums could overflow.
    """
    limit = 100.0 * norm_ref
    if (not 2.0 * max(map(abs, x)) <= limit * (1.0 - 2.0 ** -40)
            or limit > 2.0 ** 500):
        if float(np.linalg.norm(x)) > limit:
            raise Divergence("state norm grew past 100x the starting point")


def _solve_cycle_iteration(drv: PeriodDriver, fsw: float, tol: float,
                           max_cycles: int):
    """Cycle iteration on ``drv``: (state, residual, periods) once the
    state at the period boundary stops moving, else :class:`NoConvergence`.

    The per-cycle delta understates the distance to the fixed point when a
    pole is slow (delta ~ distance * (1 - contraction)), so stopping on the
    raw delta alone would leave the answer many deltas short.  The
    contraction is estimated from the delta's decay over a 20-cycle window
    (a one-step ratio is fooled by beating between modes), and the solve
    stops on the extrapolated remaining distance delta * r / (1 - r).

    Each period works on the driver's state as Python floats
    (:attr:`PeriodDriver.x`), whose differences are the bits numpy's would
    be, and its blow-up guard (``_check_norm``) takes a norm only where a
    bound from the largest component cannot settle it.
    """
    lag = 20
    prev = drv.x
    # reference scale for the blow-up guard; vin keeps a cold start from
    # tripping the threshold on its way up
    norm_ref = max(float(np.linalg.norm(prev)), drv.cfg.vin, 1.0)
    res = math.inf
    history: deque = deque(maxlen=lag)  # the last lag periods' residuals
    for k in range(max_cycles):
        drv.advance_period(fsw)
        x = drv.x
        _check_norm(x, norm_ref)
        res = _residual([x[0] - prev[0], x[1] - prev[1], x[2] - prev[2],
                         x[3] - prev[3]], drv.period_peaks.ends)
        if res < tol:
            if res < 1e-3 * tol:
                return replace(drv.state, t=0.0), res, k + 1
            if len(history) == lag:
                old = history[0]
                if old > 0.0:
                    r = (res / old) ** (1.0 / lag)
                    if r < 1.0 and res * r / (1.0 - r) < tol:
                        return replace(drv.state, t=0.0), res, k + 1
        prev = x
        history.append(res)
    raise NoConvergence(
        f"cycle iteration still at residual {res:.3e} after "
        f"{max_cycles} periods", res, max_cycles)


def _solve_shooting(drv: PeriodDriver, state0: SimState, fsw: float,
                    tol: float, max_cycles: int):
    cycles = 0
    halvings = 0
    plain = 0

    def period_map(st: SimState) -> _Iterate:
        """The iterate at st."""
        nonlocal cycles
        drv.reset(consistent_rect(st), jacobian=True)
        drv.advance_period(fsw)
        cycles += 1
        x = st.vector()
        px = drv.state.vector()
        ends = drv.period_peaks.ends
        return _Iterate(_residual(px - x, ends), x, st, px, ends,
                        drv.state.rect, drv.jacobian)

    def trial(x):
        """The iterate at state vector x, or None if its period fails."""
        try:
            return period_map(replace(state0, iLr=x[0], vCr=x[1], iLm=x[2],
                                      vOut=x[3]))
        except SimError:
            return None

    def line_search(cur, delta):
        """The first of the steps 1/2, 1/4, 1/8 and 1/16 along delta whose
        trial lands at or below 0.9 of cur's residual, or None."""
        nonlocal halvings
        step = 1.0
        for _ in range(4):
            step *= 0.5
            halvings += 1
            new = trial(cur.x + step * delta)
            if new is not None and new.residual <= 0.9 * cur.residual:
                return new
        return None

    norm_ref = max(float(np.linalg.norm(state0.vector())), drv.cfg.vin, 1.0)
    cur = period_map(state0)
    residuals = [cur.residual]
    # the iterate a watchdog step left, with its Newton step (None when the
    # last step was an ordinary one)
    ref = None
    run = 1  # plain cycles the next failed Newton step falls back on
    while cur.residual >= tol and cycles < max_cycles:
        delta = np.linalg.solve(cur.jacobian - np.eye(4), cur.x - cur.px)
        new = trial(cur.x + delta)
        goal = 0.9 * (cur if ref is None else ref[0]).residual
        if new is not None and new.residual <= goal:
            ref = None
        elif (new is not None and ref is None
              and _residual(delta, cur.ends) <= 1.0):
            # watchdog (Chamberlain et al. 1982): a conduction edge near the
            # period boundary kinks the map, and a full step across it can
            # raise the residual on its way to the fixed point, so take it
            # if it moves no component by more than its largest value at
            # the period's step ends, and ask the next full step to land below 0.9 of here
            ref = (cur, delta)
        else:
            # back to where the watchdog step started, if one did, and damp:
            # on a piece of the map with a multiplier near one (a
            # commutation held at a gate edge, say) the raw Newton
            # direction can be wild
            if ref is not None:
                cur, delta = ref
                ref = None
            new = line_search(cur, delta)
            if new is None:
                # no step along the Newton direction helps (the Jacobian of
                # a piece of the map the fixed point is not on): go on by
                # plain cycles, twice as many as at the last such failure,
                # which land on other pieces and, where Newton cannot
                # finish, contract towards the fixed point
                new = trial(cur.px)
                plain += 1
                for _ in range(min(run, max_cycles - cycles) - 1):
                    if new is None or new.residual < tol:
                        break
                    nxt = trial(new.px)
                    plain += 1
                    if nxt is None:
                        break
                    new = nxt
                if new is None:
                    break
                run *= 2
        cur = new
        residuals.append(cur.residual)
        _check_norm(cur.x, norm_ref)
    if cur.residual >= tol:
        raise NoConvergence(
            f"shooting still at residual {cur.residual:.3e} after {cycles} "
            "periods", cur.residual, cycles)
    return (replace(cur.state, rect=cur.rect), cur.residual, cycles,
            PopTrace(tuple(residuals), halvings, plain))


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


def _solve_pop(cfg: SimConfig, method: str = "shooting", tol: float = 1e-6,
               max_cycles: int = 2000):
    """:func:`find_pop`'s solve alone: (state, residual, cycles, trace,
    the unrecorded driver it ran on), without the recorded period.  The
    driver's configuration records every grid instant, for the period
    :func:`find_pop` records on it."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not (isinstance(max_cycles, (int, np.integer)) and max_cycles >= 1):
        raise ValueError(f"max_cycles must be an integer >= 1, got "
                         f"{max_cycles!r}")
    if cfg.load.switch_times:
        raise ValueError("periodic steady state needs a time-invariant load")

    state0 = warm_start_state(cfg)
    drv = PeriodDriver(replace(cfg, record_stride=1), state0, record=False)

    if method == "cycle_iteration":
        state, res, cycles = _solve_cycle_iteration(drv, cfg.fsw, tol,
                                                    max_cycles)
        trace = PopTrace((), 0, cycles)
    else:
        state, res, cycles, trace = _solve_shooting(drv, state0, cfg.fsw,
                                                    tol, max_cycles)
    return state, res, cycles, trace, drv


def find_pop(cfg: SimConfig, method: str = "shooting", tol: float = 1e-6,
             max_cycles: int = 2000) -> PopResult:
    """Find the periodic operating point at ``cfg.fsw``.

    The load must be time-invariant (a single point); soft-start settings
    are ignored because the search runs at the commanded frequency only.
    Raises :class:`NoConvergence` or :class:`Divergence` when the search
    fails, ``ValueError`` on a misconfigured request.
    """
    state, res, cycles, trace, drv = _solve_pop(cfg, method, tol, max_cycles)

    # one fully recorded period at the fixed point for waveform and
    # metrics, on the solve's driver and so with the step maps it built
    period = 1.0 / cfg.fsw
    drv.record = True
    drv.reset(state)
    drv.advance_period(cfg.fsw)
    out = drv.result()
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
        trace=trace,
    )
