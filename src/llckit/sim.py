"""Time-domain driver for the switched half-bridge LLC stage.

One switching period is four gate segments in fixed order: high switch on,
dead time into the low side, low switch on, dead time back to the high
side.  Each segment is handed to the kernel (:mod:`llckit.kernels`), which
steps the piecewise-linear circuit by each mode's exact propagator
(:mod:`llckit.modes`) and locates rectifier, dead-time and sink events on
the exact trajectory.
Each period runs in its own local time, from 0 at its start: the kernel
gets the segment bounds 0, T/2 - td, T/2, T - td and T, and the period's
absolute start only as the base of the times it reports (events and rows;
the driver's error messages name absolute time too), so the period's
arithmetic does not depend on when it starts.  The driver keeps the kernel's
propagator cache for the run, has each call append its events to the run's
log and its crest candidates to the period's (see :class:`PeriodPeaks`, the
one place crests are located: the extrema inside steps are located only
when a period's exact peaks are read), keeps the row plan each call hands back,
adds up its energies, and counts the kernel's steps, its localization
iterations, the crest candidates, the crests located and their iterations,
and the events by kind (:attr:`PeriodDriver.counts`).  The waveform rows are
built from the plans in one pass when the result is asked for
(:meth:`PeriodDriver.result`, through ``kernels.build_rows``), so their
numpy work is paid once per run rather than once per kernel call.
``dt_max`` (default: a period over ``STEPS_PER_PERIOD``) sets the grid that
waveform rows sit on; an unrecorded driver (``record=False``, as the
steady-state solvers run) asks the kernel for no rows at all.  Reset with
``jacobian=True``, a driver also has the kernel carry the derivative of the
state with respect to the reset state (:attr:`PeriodDriver.jacobian`),
which after one period is the Jacobian of the period map.

During dead time the switching node is clamped to a rail by whichever body
diode the resonant current forces into conduction; a gate edge that finds
the node already at its rail is a soft (zero-voltage) transition, and
every such edge is recorded in the run's ZVS report.

The driver is deliberately dumb about control: it runs one commanded
frequency per period.  Closed-loop operation and periodic steady-state
solvers sit on top (see :mod:`llckit.control` and
:mod:`llckit.steady_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from . import kernels, modes
from .tank import TankParams, effective_load, normalize, series_resonance
from .gain import GainPoleError, gain, tank_input_impedance

__all__ = [
    "RectPhase",
    "SimState",
    "LoadSpec",
    "SimConfig",
    "Waveform",
    "SimEvent",
    "ZvsEdge",
    "ZvsReport",
    "SimResult",
    "SimError",
    "ModeViolation",
    "ModeChatter",
    "EventLocalizationFailure",
    "RecordOverflow",
    "NotSettled",
    "zero_state",
    "warm_start_state",
    "run_transient",
    "PeriodDriver",
    "PeriodPeaks",
    "fundamental_component",
    "stored_energy",
]

# waveform channel order (t always comes first in CSV output)
CHANNELS = ("vsw", "iLr", "vCr", "iLm", "vOut", "iOut", "gateHS", "gateLS")

STEPS_PER_PERIOD = 2000  # default record grid behind dt_max
_CSV_BLOCK = 256  # waveform rows formatted per block in Waveform.to_csv

_EVENT_NAMES = {
    kernels.EV_D1_ON: "D1_on",
    kernels.EV_D2_ON: "D2_on",
    kernels.EV_D1_OFF: "D1_off",
    kernels.EV_D2_OFF: "D2_off",
    kernels.EV_CLAMP_HIGH: "node_clamp_high",
    kernels.EV_CLAMP_LOW: "node_clamp_low",
    kernels.EV_GATE_HS_ON: "gate_HS_on",
    kernels.EV_GATE_HS_OFF: "gate_HS_off",
    kernels.EV_GATE_LS_ON: "gate_LS_on",
    kernels.EV_GATE_LS_OFF: "gate_LS_off",
}


class SimError(RuntimeError):
    """Base class for simulator failures."""


class ModeViolation(SimError):
    """A conduction-mode invariant was breached beyond tolerance."""


class ModeChatter(SimError):
    """Too many mode transitions piled up inside a single step."""


class EventLocalizationFailure(SimError):
    """Event localization hit its iteration cap before reaching tolerance."""


class RecordOverflow(SimError):
    """Waveform storage exceeded the hard cap."""


class NotSettled(SimError):
    """Waveform tail still drifting; quantity needs a settled excerpt."""


class RectPhase(IntEnum):
    OFF = modes.RECT_OFF
    D1 = modes.RECT_D1
    D2 = modes.RECT_D2


@dataclass(frozen=True)
class SimState:
    """Instantaneous circuit state: two inductor currents, two capacitor
    voltages, plus the rectifier conduction phase."""

    t: float = 0.0
    iLr: float = 0.0
    vCr: float = 0.0
    iLm: float = 0.0
    vOut: float = 0.0
    rect: RectPhase = RectPhase.OFF

    def vector(self) -> np.ndarray:
        return np.array([self.iLr, self.vCr, self.iLm, self.vOut])


def zero_state() -> SimState:
    return SimState()


def consistent_rect(state: SimState) -> SimState:
    """Re-derive the conduction tag from the current imbalance.

    A state assembled from arithmetic (a solver trial, a perturbed seed) can
    carry a conduction tag its currents no longer support, and integrating
    the mismatched pair trips the conduction invariant.  A primary-secondary
    current difference past rounding identifies the pair that is still
    carrying it, so tag by its sign; within rounding of zero (the kernel's
    event-function bound) leave the rectifier off and let the integrator's
    entry settle engage whichever pair the voltages demand.
    """
    isec = state.iLr - state.iLm
    if abs(isec) <= kernels._NOISE * (abs(state.iLr) + abs(state.iLm)):
        rect = RectPhase.OFF
    elif isec > 0.0:
        rect = RectPhase.D1
    else:
        rect = RectPhase.D2
    if rect == state.rect:
        return state
    return replace(state, rect=rect)


@dataclass(frozen=True)
class LoadSpec:
    """Piecewise-constant output load.

    ``kind`` is "resistance" (ohms across the output) or "current" (a sink
    that drops out when the output reaches zero).  ``points`` holds
    (time, value) steps; the first value also applies before its time.
    """

    kind: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in ("resistance", "current"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        if not self.points:
            raise ValueError("load needs at least one (time, value) point")
        for t, v in self.points:
            if not math.isfinite(t):
                raise ValueError(f"load switch time must be finite, got {t!r}")
            if not math.isfinite(v):
                raise ValueError(f"load value must be finite, got {v!r}")
        times = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("load switch times must be strictly increasing")
        for _, v in self.points:
            if self.kind == "resistance" and not v > 0.0:
                raise ValueError("load resistance must be positive")
            if self.kind == "current" and v < 0.0:
                raise ValueError("load current must be nonnegative")

    @classmethod
    def resistance(cls, ohms: float) -> "LoadSpec":
        return cls("resistance", ((0.0, float(ohms)),))

    @classmethod
    def current(cls, amps: float) -> "LoadSpec":
        return cls("current", ((0.0, float(amps)),))

    @classmethod
    def profile(cls, kind: str, points) -> "LoadSpec":
        return cls(kind, tuple((float(t), float(v)) for t, v in points))

    @property
    def switch_times(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points[1:])

    def value_at(self, t: float) -> float:
        v = self.points[0][1]
        for tk, vk in self.points:
            if tk <= t:
                v = vk
            else:
                break
        return v

    def kind_code(self) -> int:
        return modes.LOAD_RES if self.kind == "resistance" else modes.LOAD_CUR


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: stage, source, commanded frequency, load, span."""

    tank: TankParams
    vin: float
    fsw: float
    load: LoadSpec
    t_end: float
    dt_max: float | None = None  # default: period / STEPS_PER_PERIOD
    record_stride: int = 8  # record every k-th grid instant
    soft_start: float = 0.0  # frequency-ramp duration from cold start

    def __post_init__(self):
        for name in ("vin", "fsw", "t_end", "dt_max", "soft_start"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.vin < 0.0:
            raise ValueError("vin must be nonnegative")
        if self.fsw <= 0.0:
            raise ValueError("fsw must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if 2.0 * self.tank.t_dead >= 1.0 / self.fsw:
            raise ValueError("dead time does not fit in the switching period")
        if self.dt_max is not None and self.dt_max <= 0.0:
            raise ValueError("dt_max must be positive")
        if not (isinstance(self.record_stride, (int, np.integer))
                and self.record_stride >= 1):
            raise ValueError(f"record_stride must be an integer >= 1, got "
                             f"{self.record_stride!r}")
        if self.soft_start < 0.0:
            raise ValueError("soft_start must be nonnegative")


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str


@dataclass(frozen=True)
class ZvsEdge:
    """One gate turn-on edge: where the node sat when the switch fired."""

    t: float
    switch: str  # "HS" or "LS"
    i_res: float  # resonant current at the edge
    achieved: bool  # node already at the incoming rail


@dataclass(frozen=True)
class ZvsReport:
    edges: tuple[ZvsEdge, ...]

    @property
    def all_soft(self) -> bool:
        return all(e.achieved for e in self.edges)

    @property
    def failures(self) -> tuple[ZvsEdge, ...]:
        return tuple(e for e in self.edges if not e.achieved)

    @property
    def soft_fraction(self) -> float:
        if not self.edges:
            return 1.0
        return sum(1 for e in self.edges if e.achieved) / len(self.edges)


@dataclass
class Waveform:
    """Sampled run: shared time base plus named channels.

    ``aux`` carries integer-coded conduction/segment tracks that are not
    part of the CSV contract.
    """

    t: np.ndarray
    channels: dict
    aux: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "t":
            return self.t
        return self.channels[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    def to_csv(self, path) -> None:
        cols = [np.asarray(c, dtype=float)
                for c in [self.t] + [self.channels[k] for k in self.names]]
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(("t",) + self.names) + "\n")
            # whole columns at a time, a block of rows at a time so the
            # Python lists stay small
            for i in range(0, self.t.size, _CSV_BLOCK):
                texts = [map(repr, c[i:i + _CSV_BLOCK].tolist()) for c in cols]
                f.writelines(",".join(row) + "\n" for row in zip(*texts))

    @classmethod
    def from_csv(cls, path) -> "Waveform":
        with open(path, "r", encoding="utf-8") as f:
            names = f.readline().strip().split(",")
            if names[0] != "t":
                raise ValueError("waveform CSV must start with a t column")
            # numpy's C reader takes the rows from the first non-blank line
            # on; a header-only file has none
            start = f.tell()
            line = f.readline()
            while line and not line.strip():
                start = f.tell()
                line = f.readline()
            if not line:
                data = np.empty((0, len(names)))
            else:
                f.seek(start)
                try:
                    data = np.loadtxt(f, delimiter=",", ndmin=2)
                except ValueError:
                    # the reader skips empty lines but not whitespace-only
                    # ones; a malformed row raises ValueError again here
                    f.seek(start)
                    data = np.loadtxt([ln for ln in f if ln.strip()],
                                      delimiter=",", ndmin=2)
        channels = {nm: data[:, j] for j, nm in enumerate(names) if j > 0}
        return cls(t=data[:, 0], channels=channels)


@dataclass
class SimResult:
    waveform: Waveform
    events: tuple[SimEvent, ...]
    zvs: ZvsReport
    final_state: SimState
    energy: dict  # J drawn from Vin, delivered to the load, lost in diodes
    periods: int
    # deterministic work counts (see PeriodDriver.counts)
    counts: dict = field(default_factory=dict)


def stored_energy(tank: TankParams, state: SimState) -> float:
    """Total tank + output-capacitor field energy for the given state."""
    return 0.5 * (tank.Lr * state.iLr ** 2 + tank.Cr * state.vCr ** 2
                  + tank.Lm * state.iLm ** 2 + tank.Cout * state.vOut ** 2)


def warm_start_state(cfg: SimConfig, vout: float | None = None) -> SimState:
    """Sinusoidal-approximation seed for the state at a high-side turn-on.

    Estimates the resonant current and capacitor phasors from the
    fundamental of the bridge voltage and the tank input impedance, and
    places the magnetizing current at its negative triangle peak.  At no
    load no diode conducts, so the magnetizing current equals the resonant
    one.  Rough by construction; meant to cut the settling transient, not
    replace it.
    """
    tank = cfg.tank
    lv = cfg.load.value_at(0.0)

    def load_re(vout: float) -> float:
        if cfg.load.kind == "resistance":
            rl = lv
        else:
            rl = math.inf if lv == 0.0 else max(vout, 1e-3) / lv
        return effective_load(tank.n, rl)

    if vout is None:
        vout = 0.0
        for _ in range(8):
            pt = normalize(tank, load_re(vout), cfg.fsw)
            try:
                mg = gain(pt).Mg
            except GainPoleError:
                mg = 1.0
            vout_new = mg * cfg.vin / (2.0 * tank.n)
            if abs(vout_new - vout) < 1e-9:
                vout = vout_new
                break
            vout = vout_new

    re = load_re(vout)
    w = 2.0 * math.pi * cfg.fsw
    v1 = 2.0 * cfg.vin / math.pi  # peak fundamental of the bridge voltage
    i_ph = v1 / tank_input_impedance(tank, re, cfg.fsw)
    vc_ph = i_ph / (1j * w * tank.Cr)
    ilr = i_ph.imag
    if math.isinf(re):
        ilm = ilr
    else:
        ilm = -tank.n * (vout + tank.Vf) / (4.0 * tank.Lm * cfg.fsw)
    return SimState(
        t=0.0,
        iLr=ilr,
        vCr=0.5 * cfg.vin + vc_ph.imag,
        iLm=ilm,
        vOut=vout,
        rect=RectPhase.OFF,
    )


_REC_CAP_MAX = 1 << 24  # grid rows one kernel call may record


class PeriodPeaks:
    """The peaks max |x_j| of (iLr, vCr, iLm, vOut) over one period,
    resolved only where they are read.

    The kernel hands back the largest values at its steps' ends
    (``ends``), at most the peaks, and queues its crest candidates
    (``crests``, see ``kernels.integrate_segment``): the whole steps in
    which a component's rate changes sign, and the steps an event ends.
    The steady-state solvers judge their residuals by ``ends`` alone.
    :meth:`exact` is the one place crests are located.  It uses that |x_j|
    over the step fraction s <= 1 is at most max(|w_0|, |w_0 + w_1 s|) +
    s^2 sum_(k >= 2) |w_k| plus a rounding margin (``kernels._reach``), so
    a crest is located, largest bound first, only where that bound can
    still pass the peak.  A peak is a max, so neither the crests left out
    nor the order of the rest can change it, and the exact peaks are the
    bits that locating every crest gives.  Ripple minima and other extrema
    that move towards zero need no search.  Searches and their iterations
    are added to ``counter``, the driver's [crests located, root
    iterations].
    """

    def __init__(self, t0: float, counter: list):
        self.t0 = t0  # the period's start, for error messages
        self.ends = [0.0, 0.0, 0.0, 0.0]
        self.crests: list = []
        self._counter = counter
        self._exact: list = [None, None, None, None]  # once located

    def exact(self, comps=(0, 1, 2, 3)) -> tuple:
        """The exact peaks of the components ``comps``; raises
        :class:`EventLocalizationFailure` where a crest search fails."""
        todo = [j for j in range(4) if j in comps and self._exact[j] is None]
        if not todo:
            return tuple(self._exact[j] for j in comps)
        peaks = list(self.ends)
        # (bound, entry, component, its Taylor terms, s, rates at 0 and s)
        # of each crest, in candidate order and then component order; an
        # event-ended candidate carries its terms, and its end rates are
        # read off them
        queue = []
        for w, s, ra, rb, x, h, m in self.crests:
            rb = rb or kernels._rates(w, s, h)
            for j in todo:
                if ra[j] * rb[j] < 0.0:
                    w = w or modes._series(*x, *m.b, h, m)
                    P = [c[j] for c in w]
                    queue.append((kernels._reach(P, s, 0.0), len(queue), j,
                                  P, s, ra[j], rb[j]))
        queue.sort(reverse=True)
        for top, _, j, P, s, a, b in queue:
            if top > peaks[j]:
                u, it = kernels._extremum(P, s, 1.0 if b > 0.0 else -1.0,
                                          a, b)
                self._counter[0] += 1
                self._counter[1] += it
                if u < 0.0:
                    raise EventLocalizationFailure(
                        f"could not localize a crest in the period from "
                        f"t={self.t0:.6e}")
                peaks[j] = max(peaks[j], abs(kernels._peval(P, u)[0]))
        for j in todo:
            self._exact[j] = peaks[j]
        return tuple(self._exact[j] for j in comps)


def _local(t: float, t0: float) -> float:
    """The local time d from t0 whose label t0 + d is t itself (t - t0
    may be an ulp off)."""
    d = t - t0
    while t0 + d < t:
        d = math.nextafter(d, math.inf)
    while t0 + d > t:
        d = math.nextafter(d, -math.inf)
    return d


class PeriodDriver:
    """Owns the mutable run: state, waveform rows, event/ZVS logs, energy."""

    def __init__(self, cfg: SimConfig, initial: SimState | None = None,
                 record: bool = True):
        self.cfg = cfg
        self.record = record
        tank = cfg.tank
        # the stage arguments every kernel call shares, as Python floats: a
        # numpy scalar here would make every kernel operation a
        # numpy-scalar one, several times slower
        self._stage = (float(cfg.vin), float(tank.Lr), float(tank.Cr),
                       float(tank.Lm), float(tank.n), float(tank.Vf),
                       float(tank.Cout), cfg.load.kind_code())
        self._switch_times = cfg.load.switch_times
        self._load0 = float(cfg.load.points[0][1])
        # mode propagators, shared by every kernel call of this run
        self._maps: dict = {}
        self.reset(initial if initial is not None else zero_state())

    def reset(self, state: SimState, jacobian: bool = False) -> None:
        """Start over from ``state``; with ``jacobian``, also carry the
        derivative of the state with respect to this one (see
        :attr:`jacobian`)."""
        self.t = float(state.t)
        self._x = [float(state.iLr), float(state.vCr), float(state.iLm),
                   float(state.vOut)]
        self._rect = int(state.rect)
        self._plans: list = []
        self._events: list = []
        self._zvs: list = []
        self._energy = [0.0, 0.0, 0.0]  # source, load, diode
        self.periods = 0
        self._steps = 0
        self._loc_iters = 0
        self._ext = [0, 0]  # crests located, and their root iterations
        self._queued = 0
        self._peaks = PeriodPeaks(self.t, self._ext)
        self._sens = np.eye(4) if jacobian else None

    @property
    def state(self) -> SimState:
        return SimState(self.t, self._x[0], self._x[1], self._x[2],
                        self._x[3], RectPhase(self._rect))

    @property
    def x(self) -> list:
        """(iLr, vCr, iLm, vOut) now, as a list of Python floats: the
        driver's own, which it replaces rather than changes as it runs, so
        it stays as read; a caller must not change it."""
        return self._x

    @property
    def period_peaks(self) -> PeriodPeaks:
        """The last period's record of max |iLr|, max |vCr|, max |iLm| and
        max |vOut|: its step ends' values need no search, and its crests
        are located only when its exact peaks are read
        (:meth:`PeriodPeaks.exact`)."""
        return self._peaks

    @property
    def jacobian(self) -> np.ndarray | None:
        """d(iLr, vCr, iLm, vOut) / d(the same at the last reset), a 4x4
        array, when that reset asked for it (None otherwise).  After one
        period from the reset it is the Jacobian of the period map."""
        return self._sens

    @property
    def energy(self) -> dict:
        """Joules since the last reset: drawn from Vin, delivered to the
        load, and dropped across the rectifier diodes."""
        src, load, diode = self._energy
        return {"source": src, "load": load, "diode": diode}

    @property
    def counts(self) -> dict:
        """Deterministic work counts since the last reset: kernel steps,
        event-localization iterations, the steps queued as crest candidates
        for the peaks, the crests located among them and their root
        iterations, and logged events by kind.  Crests are located only
        when a period's exact peaks are read (:meth:`PeriodPeaks.exact`):
        a transient and the steady-state solvers read none, so they locate
        none, and the closed loop reads the iLr peak alone."""
        events = dict.fromkeys(_EVENT_NAMES.values(), 0)
        for _, code in self._events:
            events[_EVENT_NAMES[code]] += 1
        return {"steps": self._steps,
                "localization_iterations": self._loc_iters,
                "crest_candidates": self._queued,
                "extremum_searches": self._ext[0],
                "extremum_iterations": self._ext[1],
                "events": events}

    def _run_piece(self, t_a: float, t_b: float, seg_kind: int, clamp: int,
                   load_val: float, dt_eff: float, tol_t: float,
                   stride: int, base: float) -> int:
        vin, Lr, Cr, Lm, n, Vf, Cout, kind = self._stage
        if stride and math.ceil((t_b - t_a) / dt_eff) // stride > _REC_CAP_MAX:
            raise RecordOverflow("waveform rows of one span exceed the hard cap")
        x = self._x
        peaks = self._peaks
        queued = len(peaks.crests)
        (err, plan, _, rect, clamp_out, iLr, vCr, iLm, vOut, m0, m1, m2, m3,
         steps, loc_iters, e_src, e_load, e_dio,
         self._sens) = kernels.integrate_segment(
            x[0], x[1], x[2], x[3], t_a, t_b, seg_kind, clamp, self._rect,
            vin, Lr, Cr, Lm, n, Vf, Cout, kind, load_val, dt_eff, tol_t,
            stride, self._events, peaks.crests, self._maps, self._sens, base)
        t_err = base + t_a
        if err == kernels.ERR_EVENT_LOC:
            raise EventLocalizationFailure(
                f"could not localize a mode transition near t={t_err:.6e}")
        if err == kernels.ERR_CHATTER:
            raise ModeChatter(
                f"more than {kernels.EVENT_GUARD} transitions in one step "
                f"near t={t_err:.6e}")
        if err == kernels.ERR_MODE_VIOLATION:
            raise ModeViolation(
                f"conduction invariant breached near t={t_err:.6e} "
                f"(state {iLr:.4g}, {vCr:.4g}, {iLm:.4g}, {vOut:.4g})")
        self._x = [iLr, vCr, iLm, vOut]
        self._rect = rect
        self._steps += steps
        self._loc_iters += loc_iters
        self._queued += len(peaks.crests) - queued
        energy = self._energy
        energy[0] += e_src
        energy[1] += e_load
        energy[2] += e_dio
        ends = peaks.ends  # max(ends[j], m_j), in place
        if m0 > ends[0]:
            ends[0] = m0
        if m1 > ends[1]:
            ends[1] = m1
        if m2 > ends[2]:
            ends[2] = m2
        if m3 > ends[3]:
            ends[3] = m3
        if self.record:
            self._plans.append(plan)
        return clamp_out

    def _load_pieces(self, t0: float, s_a: float, s_end: float):
        """(start, end, load value) of each constant-load piece of the span
        [s_a, s_end] of local time from t0."""
        if not self._switch_times:
            return ((s_a, s_end, self._load0),)
        load = self.cfg.load
        pts = ([s_a] + [_local(tc, t0) for tc in self._switch_times
                        if t0 + s_a < tc < t0 + s_end] + [s_end])
        return tuple((a, b, load.value_at(t0 + a))
                     for a, b in zip(pts[:-1], pts[1:]))

    def advance_period(self, fsw: float, t_stop: float = math.inf) -> None:
        """Run (up to) one full switching period at the commanded frequency.

        The kernel runs the period in its local time, from 0 at its start
        ``self.t``, so its steps depend on the frequency alone; times are
        reported as ``self.t`` plus the local time.  The period stops at
        ``t_stop``; one that would end near it, short of it or past it,
        ends at ``t_stop`` itself and counts as whole, so that a run of
        whole periods whose sum rounds either side of its end still ends
        there with every period and ZVS edge logged, and no sliver of a
        period follows.  Near is within 1e-15 s (relative past 1 s), or
        within the rounding of the sum, if wider: each period since the
        reset added one rounding of at most half an ulp of ``self.t``, and
        the band allows twice that, 2^-52 t_stop, for each of them and one
        more.  A ``fsw`` that is not positive and finite, or whose period
        the dead time does not fit, raises ``ValueError``, and so does a NaN
        ``t_stop``.
        """
        cfg = self.cfg
        fsw = float(fsw)
        td = cfg.tank.t_dead
        # one test for both: 1 / fsw is taken only for a positive fsw, and
        # is 0 at inf, where no dead time fits
        if not (fsw > 0.0 and 2.0 * td < (period := 1.0 / fsw)):
            if 0.0 < fsw < math.inf:
                raise ValueError(
                    "dead time does not fit in the switching period")
            raise ValueError(f"fsw must be positive and finite, got {fsw!r}")
        if t_stop != t_stop:  # NaN, which no comparison below catches
            raise ValueError(f"t_stop must not be NaN, got {t_stop!r}")
        t0 = self.t
        end = period
        tol = max(1e-15 * max(1.0, t_stop),
                  (self.periods + 1) * 2.0 ** -52 * t_stop)
        # (at t_stop = inf the left side is nan, and no period ends there)
        if t_stop - tol <= t0 + period <= t_stop + tol and t0 + period != t_stop:
            end = _local(t_stop, t0)
        bounds = (0.0, 0.5 * period - td, 0.5 * period, period - td, end)
        plan = ((kernels.SEG_HIGH, bounds[0], bounds[1], kernels.EV_GATE_HS_ON),
                (kernels.SEG_DEAD_TO_LOW, bounds[1], bounds[2],
                 kernels.EV_GATE_HS_OFF),
                (kernels.SEG_LOW, bounds[2], bounds[3], kernels.EV_GATE_LS_ON),
                (kernels.SEG_DEAD_TO_HIGH, bounds[3], bounds[4],
                 kernels.EV_GATE_LS_OFF))
        dt_eff = cfg.dt_max if cfg.dt_max is not None else period / STEPS_PER_PERIOD
        tol_t = 1e-12 / fsw
        stride = cfg.record_stride if self.record else 0  # 0: no rows
        self._peaks = PeriodPeaks(t0, self._ext)

        for seg_kind, s_a, s_b, gate_code in plan:
            if t0 + s_a >= t_stop:
                return
            self._events.append((t0 + s_a, gate_code))
            dead = (seg_kind == kernels.SEG_DEAD_TO_LOW
                    or seg_kind == kernels.SEG_DEAD_TO_HIGH)
            clamp = 0
            if dead:
                if self._x[0] < 0.0:
                    clamp = 1
                elif self._x[0] > 0.0:
                    clamp = 0
                else:
                    # zero current leaves the node where the last on-state put it
                    clamp = 1 if seg_kind == kernels.SEG_DEAD_TO_LOW else 0
            s_end = s_b if t0 + s_b <= t_stop else _local(t_stop, t0)
            for a, b, load_val in self._load_pieces(t0, s_a, s_end):
                clamp = self._run_piece(a, b, seg_kind, clamp, load_val,
                                        dt_eff, tol_t, stride, t0)
            self.t = t0 + s_end
            if dead and s_end == s_b:
                # soft when the node already sits at the incoming rail
                # (clamp 1: high)
                hs = seg_kind == kernels.SEG_DEAD_TO_HIGH
                self._zvs.append((self.t, "HS" if hs else "LS", self._x[0],
                                  clamp == hs))
        if s_end == end:
            self.periods += 1

    def result(self) -> SimResult:
        rows = kernels.build_rows(self._plans)
        channels = {  # in the order of CHANNELS
            "vsw": rows[:, 5],
            "iLr": rows[:, 1],
            "vCr": rows[:, 2],
            "iLm": rows[:, 3],
            "vOut": rows[:, 4],
            "iOut": rows[:, 6],
            "gateHS": (rows[:, 8] == kernels.SEG_HIGH).astype(float),
            "gateLS": (rows[:, 8] == kernels.SEG_LOW).astype(float),
        }
        wf = Waveform(
            t=rows[:, 0],
            channels=channels,
            aux={"rect": rows[:, 7].astype(np.int8),
                 "seg": rows[:, 8].astype(np.int8)},
        )
        events = tuple(SimEvent(t, _EVENT_NAMES[c]) for t, c in self._events)
        return SimResult(
            waveform=wf,
            events=events,
            zvs=ZvsReport(tuple(ZvsEdge(*e) for e in self._zvs)),
            final_state=self.state,
            energy=self.energy,
            periods=self.periods,
            counts=self.counts,
        )


def _scheduled_fsw(cfg: SimConfig, t: float) -> float:
    if cfg.soft_start <= 0.0 or t >= cfg.soft_start:
        return cfg.fsw
    start = 2.0 * series_resonance(cfg.tank)
    return start + (cfg.fsw - start) * (t / cfg.soft_start)


def run_transient(cfg: SimConfig, initial: SimState | None = None) -> SimResult:
    """Integrate from ``initial`` (cold start by default) to ``cfg.t_end``.

    With ``cfg.soft_start`` set, the commanded frequency ramps linearly
    from twice the series-resonant frequency down to ``cfg.fsw`` over that
    window, the standard way to keep inrush current sane from an uncharged
    output.
    """
    drv = PeriodDriver(cfg, initial, record=True)
    while drv.t < cfg.t_end:
        drv.advance_period(_scheduled_fsw(cfg, drv.t), t_stop=cfg.t_end)
    return drv.result()


def _window(t: np.ndarray, y: np.ndarray, lo: float, hi: float):
    """Clip samples to [lo, hi], interpolating exact endpoint values."""
    i0 = int(np.searchsorted(t, lo, side="left"))
    i1 = int(np.searchsorted(t, hi, side="right"))
    tw = t[i0:i1]
    yw = y[i0:i1]
    if tw.size == 0 or tw[0] > lo:
        tw = np.concatenate(([lo], tw))
        yw = np.concatenate(([np.interp(lo, t, y)], yw))
    if tw[-1] < hi:
        tw = np.concatenate((tw, [hi]))
        yw = np.concatenate((yw, [np.interp(hi, t, y)]))
    return tw, yw


def _rms(t: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    tw, yw = _window(t, y, lo, hi)
    return math.sqrt(float(np.trapezoid(yw * yw, tw)) / (hi - lo))


def fundamental_component(wf: Waveform, channel: str, fsw: float,
                          settle_tol: float = 0.005):
    """Amplitude and phase of the switching-frequency component.

    Projects the last full period onto cos/sin at ``fsw`` (trapezoid
    quadrature) and returns (amplitude, phase) with the convention
    y ~ A cos(2 pi fsw (t - t0) - phase), t0 the window start.  Requires at
    least five periods of data; raises NotSettled when the RMS of the last
    two periods differs by more than ``settle_tol`` (relative).
    """
    t = wf.t
    y = wf[channel]
    if t.size < 8:
        raise ValueError("waveform too short")
    period = 1.0 / fsw
    span = t[-1] - t[0]
    if span < 5.0 * period * (1.0 - 1e-9):
        raise ValueError("need at least five switching periods of data")
    hi = float(t[-1])
    r1 = _rms(t, y, hi - period, hi)
    r0 = _rms(t, y, hi - 2.0 * period, hi - period)
    scale = max(r0, r1, 1e-30)
    if abs(r1 - r0) > settle_tol * scale:
        raise NotSettled(
            f"last two periods differ by {abs(r1 - r0) / scale:.3%} RMS")
    lo = hi - period
    tw, yw = _window(t, y, lo, hi)
    w = 2.0 * math.pi * fsw
    ph = w * (tw - lo)
    a = 2.0 / period * float(np.trapezoid(yw * np.cos(ph), tw))
    b = 2.0 / period * float(np.trapezoid(yw * np.sin(ph), tw))
    return math.hypot(a, b), math.atan2(b, a)
