"""Resonant tank parameters and normalized quantities for the LLC half-bridge.

The converter under study is a half-bridge driving a series Lr-Cr branch into
a magnetizing inductance Lm that is clamped by an ideal center-tapped
rectifier with turns ratio n per secondary.  All analysis in this package is
expressed either in direct SI component values (:class:`TankParams`) or in
the usual dimensionless coordinates:

    Ln = Lm / Lr                    inductance ratio, > 1 for this topology
    Qe = sqrt(Lr / Cr) / Re         quality factor at the effective AC load
    fn = fsw / f0                   switching frequency over series resonance

with the AC-side effective load ``Re = 8 n^2 RL / pi^2`` coming from the
fundamental-approximation mapping of the rectified DC load.
:func:`normalize` maps a tank to these coordinates;
:func:`llckit.synthesis.synthesize_tank` is the way back.

The DC load itself is a :class:`LoadSpec`: a resistance or a current sink,
piecewise constant in time.  :meth:`LoadSpec.effective_load` is the one
place a load becomes an Re: a resistor is its own RL, and a sink drawing I
at an output vout is RL = vout / I (no load, Re = inf, at 0 A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TankParams",
    "DesignRequirements",
    "NormalizedPoint",
    "LoadSpec",
    "resonant_frequency",
    "char_impedance",
    "series_resonance",
    "noload_resonance",
    "effective_load",
    "normalize",
]

DEFAULT_COUT = 100e-6  # F
DEFAULT_T_DEAD = 100e-9  # s


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class TankParams:
    """Physical component values of one converter build.

    Lr, Lm in henry, Cr and Cout in farad, t_dead in seconds.  ``n`` is the
    primary-to-secondary turns ratio of one half of the center-tapped
    secondary; ``Vf`` is the rectifier forward drop (0 for the ideal model).
    """

    Lr: float
    Cr: float
    Lm: float
    n: float
    Vf: float = 0.0
    Cout: float = DEFAULT_COUT
    t_dead: float = DEFAULT_T_DEAD

    def __post_init__(self) -> None:
        _require(self.Lr > 0, "Lr must be positive")
        _require(self.Cr > 0, "Cr must be positive")
        _require(self.Lm > 0, "Lm must be positive")
        _require(self.n > 0, "turns ratio n must be positive")
        _require(self.Lm > self.Lr, "requires Lm > Lr (inductance ratio Ln > 1)")
        _require(self.Vf >= 0, "Vf must be non-negative")
        _require(self.Cout > 0, "Cout must be positive")
        _require(self.t_dead >= 0, "t_dead must be non-negative")

    @property
    def Ln(self) -> float:
        """Inductance ratio Lm/Lr."""
        return self.Lm / self.Lr

    @property
    def Z0(self) -> float:
        """Characteristic impedance sqrt(Lr/Cr) in ohm."""
        return char_impedance(self.Lr, self.Cr)


@dataclass(frozen=True)
class DesignRequirements:
    """Electrical specification a design must cover.

    Voltage ranges may be degenerate (min == nom == max).  ``f0_target`` is
    the desired series-resonant frequency; ``fsw_min``/``fsw_max`` bound the
    controller's frequency excursion and must straddle ``f0_target``.
    """

    vin_min: float
    vin_nom: float
    vin_max: float
    vout_min: float
    vout_nom: float
    vout_max: float
    iout_min: float
    iout_max: float
    f0_target: float
    fsw_min: float
    fsw_max: float

    def __post_init__(self) -> None:
        _require(0 < self.vin_min <= self.vin_nom <= self.vin_max,
                 "need 0 < vin_min <= vin_nom <= vin_max")
        _require(0 < self.vout_min <= self.vout_nom <= self.vout_max,
                 "need 0 < vout_min <= vout_nom <= vout_max")
        _require(0 <= self.iout_min <= self.iout_max,
                 "need 0 <= iout_min <= iout_max")
        _require(self.iout_max > 0, "iout_max must be positive")
        _require(self.f0_target > 0, "f0_target must be positive")
        _require(self.fsw_min < self.f0_target < self.fsw_max,
                 "need fsw_min < f0_target < fsw_max")


@dataclass(frozen=True)
class NormalizedPoint:
    """One operating point in dimensionless (Ln, Qe, fn) coordinates."""

    Ln: float
    Qe: float
    fn: float

    def __post_init__(self) -> None:
        _require(self.Ln > 1, "Ln must exceed 1")
        _require(self.Qe >= 0, "Qe must be non-negative")
        _require(self.fn > 0, "fn must be positive")


@dataclass(frozen=True)
class LoadSpec:
    """Piecewise-constant output load.

    ``kind`` is "resistance" (ohms across the output) or "current" (a sink
    that drops out when the output reaches zero).  ``points`` holds
    (time, value) steps; the first value also applies before its time, and
    every later step switches at a positive time, so the first value is
    the one in force at t = 0.
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
        if len(times) > 1 and times[1] <= 0.0:
            raise ValueError(f"load switch times must be positive, got "
                             f"{times[1]!r}")
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

    def effective_load(self, n: float, vout: float) -> float:
        """Re of the first value at output voltage ``vout`` for turns
        ratio ``n`` (see :func:`effective_load`); a sink of 0 A is no load,
        Re = inf."""
        v0 = self.points[0][1]
        if self.kind == "resistance":
            return effective_load(n, v0)
        return effective_load(n, math.inf if v0 == 0.0 else vout / v0)


def resonant_frequency(L: float, C: float) -> float:
    """f = 1 / (2 pi sqrt(L C)) for a series L-C pair."""
    _require(L > 0 and C > 0, "L and C must be positive")
    return 1.0 / (2.0 * math.pi * math.sqrt(L * C))


def char_impedance(L: float, C: float) -> float:
    """Z0 = sqrt(L/C) in ohm."""
    _require(L > 0 and C > 0, "L and C must be positive")
    return math.sqrt(L / C)


def series_resonance(tank: TankParams) -> float:
    """Series resonance f0 of the Lr-Cr branch, Hz."""
    return resonant_frequency(tank.Lr, tank.Cr)


def noload_resonance(tank: TankParams) -> float:
    """Open-rectifier resonance fp of (Lr + Lm) with Cr, Hz.

    Relative to the series resonance, fp/f0 = 1/sqrt(1 + Ln); this is where
    the no-load gain curve diverges.
    """
    return resonant_frequency(tank.Lr + tank.Lm, tank.Cr)


def effective_load(n: float, RL: float) -> float:
    """AC-side effective resistance Re = 8 n^2 RL / pi^2.

    ``RL`` is the DC load resistance seen at the output; ``math.inf`` maps to
    ``math.inf`` (no load).
    """
    _require(n > 0, "turns ratio n must be positive")
    _require(RL > 0, "RL must be positive")
    if math.isinf(RL):
        return math.inf
    return 8.0 * n * n * RL / (math.pi * math.pi)


def normalize(tank: TankParams, Re: float, fsw: float) -> NormalizedPoint:
    """Map (tank, effective load, switching frequency) to (Ln, Qe, fn)."""
    _require(Re > 0, "Re must be positive")
    _require(fsw > 0, "fsw must be positive")
    qe = 0.0 if math.isinf(Re) else tank.Z0 / Re
    return NormalizedPoint(Ln=tank.Ln, Qe=qe, fn=fsw / series_resonance(tank))
