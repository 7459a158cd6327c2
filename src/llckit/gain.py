"""Fundamental-approximation voltage gain of the LLC resonant tank.

Replacing the rectifier and DC load by the effective AC resistance Re and the
half-bridge square wave by its fundamental gives the classic normalized gain
of the divider formed by (Lr, Cr) against (Lm || Re):

    Mg(fn) = Ln fn^2 / ( [(Ln+1) fn^2 - 1]  +  j [(fn^2 - 1) fn Qe Ln] )

The DC transfer then follows as  Vout = |Mg| * (1/n) * (Vin / 2).

Useful structure of |Mg|:

* |Mg(1)| = 1 for every load: all curves cross at the series resonance.
* At Qe = 0 the gain is real with a pole at fn = 1/sqrt(Ln+1) (the
  open-rectifier resonance fp/f0) and the high-frequency asymptote
  Ln/(Ln+1).
* For Qe > 0 a single finite peak sits between fp/f0 and 1; regulation
  happens on the monotone branch at fn above the peak.

Region classification (inductive vs capacitive) is decided from the sign of
the tank input reactance Im{ jwLr + 1/(jwCr) + (jwLm || Re) }, which is the
criterion that actually governs zero-voltage switching.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tank import DesignRequirements, NormalizedPoint, TankParams

__all__ = [
    "GainError",
    "GainPoleError",
    "UnreachableGain",
    "BelowAsymptote",
    "Region",
    "GainPoint",
    "GainCurve",
    "GainBand",
    "gain",
    "gain_magnitude",
    "gain_curve",
    "asymptotic_gain",
    "peak_gain",
    "solve_frequency",
    "gain_band",
    "input_impedance_norm",
    "input_reactance",
    "boundary_frequency",
    "classify_region",
    "tank_input_impedance",
    "short_circuit_gain",
    "SHORT_CIRCUIT_QE",
]

POLE_DEN_TOL = 1e-15
# A shorted output drives Re -> 0, Qe -> inf; this proxy is large enough that
# the remaining load dependence is far below every tolerance used here.
SHORT_CIRCUIT_QE = 1e6
# Upper end of the frequency bracket used when solving gain targets.
FN_SOLVE_MAX = 100.0
BOUNDARY_FN_TOL = 1e-9
CURVE_SAMPLES_PER_DECADE = 400
# (Qe Ln)^2 stays a finite float below this Qe Ln
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


class GainError(Exception):
    """Base class for gain-analysis failures."""


class GainPoleError(GainError):
    """The requested point sits on (or numerically at) a gain pole."""


class UnreachableGain(GainError):
    """Target gain exceeds the peak available at this load."""

    def __init__(self, msg: str, fn_peak: float, Mg_peak: float):
        super().__init__(msg)
        self.fn_peak = fn_peak
        self.Mg_peak = Mg_peak


class BelowAsymptote(GainError):
    """Target gain lies at or below what raising frequency can reach."""


class Region(Enum):
    INDUCTIVE = "inductive"
    CAPACITIVE = "capacitive"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class GainPoint:
    """Gain at a single normalized frequency."""

    fn: float
    Mg_complex: complex
    Mg: float
    phase: float  # rad, in (-pi, pi]
    pole: bool = False


@dataclass(frozen=True)
class GainCurve:
    """Sampled |Mg| over a strictly increasing log-spaced fn grid.

    Pole samples (possible only at Qe = 0) carry Mg = inf and pole = True
    instead of aborting the sweep.
    """

    Ln: float
    Qe: float
    fn: np.ndarray
    Mg_complex: np.ndarray
    Mg: np.ndarray
    phase: np.ndarray
    pole: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.fn) < 2:
            raise ValueError("curve needs at least 2 samples")
        if not np.all(np.diff(self.fn) > 0):
            raise ValueError("fn grid must be strictly increasing")

    def points(self):
        """Iterate the samples as :class:`GainPoint` objects."""
        for k in range(len(self.fn)):
            yield GainPoint(
                fn=float(self.fn[k]),
                Mg_complex=complex(self.Mg_complex[k]),
                Mg=float(self.Mg[k]),
                phase=float(self.phase[k]),
                pole=bool(self.pole[k]),
            )


@dataclass(frozen=True)
class GainBand:
    """Gain targets a design must span, plus the no-load floor."""

    Mg_min: float
    Mg_max: float
    Mg_inf: float


def _gain_den(Ln: float, Qe: float, fn):
    fn2 = fn * fn
    # Ln fn^2 + (fn^2 - 1) rather than (Ln + 1) fn^2 - 1: at fn = 1 the real
    # part is then Ln itself, so |Mg(1)| = 1 holds bit for bit
    return (Ln * fn2 + (fn2 - 1.0)) + 1j * ((fn2 - 1.0) * fn * Qe * Ln)


def _larger_root(alpha: float, beta: float, gamma: float) -> float:
    """Larger real root of alpha x^2 + beta x + gamma (a negative
    discriminant counts as 0), in the form that does not cancel."""
    s = math.sqrt(max(beta * beta - 4.0 * alpha * gamma, 0.0))
    if beta >= 0.0:
        return -2.0 * gamma / (beta + s)
    return (s - beta) / (2.0 * alpha)


def _load_term(Ln: float, Qe: float) -> float:
    """c = (Qe Ln)^2, or ValueError naming Qe where that is no finite float."""
    qe_ln = Qe * Ln
    if qe_ln < _SQRT_FLOAT_MAX:
        return qe_ln ** 2
    raise ValueError(f"Qe = {Qe!r} is out of range: (Qe Ln)^2 overflows "
                     f"at Ln = {Ln!r}")


def _bisect(f, lo: float, hi: float) -> float:
    """Polish a root of ``f`` on a bracket where it turns from negative to
    non-negative: halve [lo, hi] down to two adjacent floats and return the
    one with the smaller |f| (lo on a tie).

    The step count and the answer follow from f, lo and hi alone; for a
    single clean sign change the answer does not depend on the bracket.
    A NaN at either end (a non-finite input) raises ValueError.
    """
    f_lo, f_hi = f(lo), f(hi)
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"root bracket [{lo!r}, {hi!r}] has a NaN end value")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def gain_magnitude(Ln: float, Qe: float, fn):
    """|Mg| evaluated elementwise; accepts scalars or numpy arrays.

    Poles map to inf (no exception), which keeps brute-force sweeps usable.
    """
    fn = np.asarray(fn, dtype=float)
    den = np.abs(_gain_den(Ln, Qe, fn))
    num = Ln * fn * fn
    # |num| / |den| rather than |num / den|: numpy's complex division
    # multiplies by a rounded reciprocal, which would cost |Mg(1)| its exactness
    with np.errstate(divide="ignore"):
        out = np.where(den < POLE_DEN_TOL, np.inf, num / np.where(den == 0, 1.0, den))
    if out.ndim == 0:
        return float(out)
    return out


def gain(point: NormalizedPoint) -> GainPoint:
    """Complex gain at one normalized operating point.

    Raises :class:`GainPoleError` when the denominator magnitude falls below
    ``POLE_DEN_TOL`` (the Qe = 0 pole at fn = 1/sqrt(Ln+1)).
    """
    den = _gain_den(point.Ln, point.Qe, point.fn)
    if abs(den) < POLE_DEN_TOL:
        raise GainPoleError(
            f"gain pole at fn={point.fn!r} (Ln={point.Ln!r}, Qe={point.Qe!r})")
    mg = (point.Ln * point.fn * point.fn) / den
    phase = cmath.phase(mg)
    if phase <= -math.pi:
        phase = math.pi
    return GainPoint(fn=point.fn, Mg_complex=mg, Mg=abs(mg), phase=phase)


def gain_curve(Ln: float, Qe: float, fn_lo: float, fn_hi: float,
               samples: int | None = None) -> GainCurve:
    """Sample the gain on a log grid between ``fn_lo`` and ``fn_hi``.

    Default density is ``CURVE_SAMPLES_PER_DECADE``; ``samples=2`` gives
    exactly the endpoints.
    """
    if not (0 < fn_lo < fn_hi):
        raise ValueError("need 0 < fn_lo < fn_hi")
    if samples is None:
        decades = math.log10(fn_hi / fn_lo)
        samples = max(2, int(round(CURVE_SAMPLES_PER_DECADE * decades)))
    if samples < 2:
        raise ValueError("samples must be >= 2")
    fn = np.geomspace(fn_lo, fn_hi, samples)
    den = _gain_den(Ln, Qe, fn)
    pole = np.abs(den) < POLE_DEN_TOL
    safe_den = np.where(pole, 1.0, den)
    num = Ln * fn * fn
    mgc = np.where(pole, np.inf + 0j, num / safe_den)
    mg = np.where(pole, np.inf, num / np.abs(safe_den))
    phase = np.angle(mgc)
    return GainCurve(Ln=Ln, Qe=Qe, fn=fn, Mg_complex=mgc, Mg=mg,
                     phase=phase, pole=pole)


def asymptotic_gain(Ln: float) -> float:
    """High-frequency no-load gain floor Ln/(Ln+1)."""
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    return Ln / (Ln + 1.0)


def peak_gain(Ln: float, Qe: float) -> tuple[float, float]:
    """Locate (fn_peak, Mg_peak) of the finite resonant peak for Qe > 0.

    With a = Ln + 1, c = (Qe Ln)^2 and u = 1/fn^2, the peak is the
    stationary point of |Mg|^-2, the root of

        h(u) = 2 u^2 (u - a) + c (u^2 - 1),

    which has exactly one positive root, inside (1, a) because h(1) = -2 Ln
    < 0 and h(a) = c (a^2 - 1) > 0; so fp/f0 < fn_peak <= 1.  Qe = 0 is
    rejected: its pole makes the peak unbounded.
    """
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    if Qe <= 0:
        raise ValueError("peak_gain requires Qe > 0 (no finite peak at no load)")
    a = Ln + 1.0
    c = _load_term(Ln, Qe)
    # factored so that h(1) = 2 (1 - a) does not cancel against c
    u = _bisect(lambda u: 2.0 * u * u * (u - a) + c * (u * u - 1.0), 1.0, a)
    fn_peak = 1.0 / math.sqrt(u)
    return fn_peak, gain_magnitude(Ln, Qe, fn_peak)


def solve_frequency(Ln: float, Qe: float, Mg_target: float) -> float:
    """Invert the gain on the monotone branch at and above the peak.

    Returns the unique fn >= fn_peak with |Mg(fn)| = Mg_target.  Raises
    :class:`UnreachableGain` when the target exceeds the available peak and
    :class:`BelowAsymptote` when even the top of the frequency bracket
    (fn = ``FN_SOLVE_MAX``) cannot get the gain down to the target.

    With x = fn^2, a = Ln + 1, c = (Qe Ln)^2 and M = Mg_target, the answer
    is the largest real root of the cubic

        P(x) = M^2 c x^3 + (M^2 a^2 - 2 M^2 c - Ln^2) x^2
               + (M^2 c - 2 M^2 a) x + M^2,

    (a quadratic at Qe = 0), which is negative exactly where |Mg| > M.  P
    rises from its larger turning point on, so that point, in closed form,
    opens the bracket, and the root is polished on the gain itself rather
    than on the expanded cubic; the answer depends on (Ln, Qe, M) alone.
    """
    if Mg_target <= 0:
        raise ValueError("Mg_target must be positive")
    if Qe < 0:
        raise ValueError("Qe must be non-negative")
    if Mg_target == 1.0:
        # unity gain sits at the series resonance for every load, and fn = 1
        # is always on the monotone branch, so return it without iterating
        return 1.0
    if Qe == 0.0:
        # No finite peak: the branch runs from the pole down to Ln/(Ln+1).
        floor = asymptotic_gain(Ln)
        if Mg_target <= floor:
            raise BelowAsymptote(
                f"target {Mg_target!r} at or below no-load asymptote {floor!r}")
    else:
        fn_peak, mg_peak = peak_gain(Ln, Qe)
        if Mg_target > mg_peak:
            raise UnreachableGain(
                f"target {Mg_target!r} above peak {mg_peak!r} at fn={fn_peak!r}",
                fn_peak=fn_peak, Mg_peak=mg_peak)
        if Mg_target == mg_peak:
            return fn_peak
    hi = FN_SOLVE_MAX
    if gain_magnitude(Ln, Qe, hi) >= Mg_target:
        raise BelowAsymptote(
            f"target {Mg_target!r} below gain {gain_magnitude(Ln, Qe, hi)!r} "
            f"reachable at fn={hi!r}")
    a = Ln + 1.0
    c = _load_term(Ln, Qe)
    r2 = (Ln / Mg_target) ** 2
    # P'/M^2 = 3 c x^2 + 2 (a^2 - 2 c - Ln^2/M^2) x + (c - 2 a) has its
    # larger root between P's two positive roots; flooring it at the
    # open-load pole 1/a, below the peak, keeps the bracket valid where
    # rounding blurs a target at the peak
    x_turn = _larger_root(3.0 * c, 2.0 * (a * a - 2.0 * c - r2), c - 2.0 * a)
    lo = math.sqrt(max(1.0 / a, x_turn))

    def excess(fn: float) -> float:
        # M |den| - Ln fn^2 has the sign of M - |Mg| and no pole
        x = fn * fn
        return (Mg_target * math.hypot(Ln * x + (x - 1.0), (x - 1.0) * fn * Qe * Ln)
                - Ln * x)

    return _bisect(excess, lo, hi)


def gain_band(req: DesignRequirements, n: float, Ln: float) -> GainBand:
    """Required gain extremes for requirements ``req`` with turns ratio ``n``.

    The low edge pairs minimum output with maximum input, the high edge the
    reverse; degenerate voltage ranges collapse both to a single target.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return GainBand(
        Mg_min=n * req.vout_min / (req.vin_max / 2.0),
        Mg_max=n * req.vout_max / (req.vin_min / 2.0),
        Mg_inf=asymptotic_gain(Ln),
    )


def input_impedance_norm(Ln: float, Qe: float, fn: float) -> complex:
    """Tank input impedance in units of Z0 = sqrt(Lr/Cr).

    Z/Z0 = j(fn - 1/fn) + (j fn Ln || 1/Qe);  Qe = 0 gives the open-load
    series string j(fn - 1/fn + fn Ln).
    """
    if fn <= 0:
        raise ValueError("fn must be positive")
    xm = fn * Ln
    t = xm * Qe
    re = xm * t / (1.0 + t * t)
    im = fn - 1.0 / fn + xm / (1.0 + t * t)
    return complex(re, im)


def input_reactance(Ln: float, Qe: float, fn: float) -> float:
    """Im{Zin}/Z0; positive means the tank looks inductive."""
    return input_impedance_norm(Ln, Qe, fn).imag


def boundary_frequency(Ln: float, Qe: float) -> float:
    """fn where the input reactance crosses zero (always below fn = 1)."""
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    if Qe < 0:
        raise ValueError("Qe must be non-negative")
    if Qe == 0.0:
        return 1.0 / math.sqrt(Ln + 1.0)
    # Im Zin = 0 multiplied out: t^2 x^2 + (1 + Ln - t^2) x - 1 = 0 in
    # x = fn^2 with t = Qe Ln; divided through by t^2 above t = 1, so that
    # a huge or infinite Qe gives x -> 1 instead of overflowing
    t = Qe * Ln
    if t > 1.0:
        return math.sqrt(_larger_root(1.0, (1.0 + Ln) / t / t - 1.0, -1.0 / t / t))
    c = t * t
    return math.sqrt(_larger_root(c, 1.0 + Ln - c, -1.0))


def classify_region(point: NormalizedPoint) -> Region:
    """Inductive / capacitive / boundary verdict for one operating point.

    Decided by the sign of the input reactance; the crossing frequency is a
    hair above the gain-peak frequency, and it is the reactance sign that
    predicts whether the tank current lags (ZVS) or leads (hard switching).
    """
    fn_b = boundary_frequency(point.Ln, point.Qe)
    if abs(point.fn - fn_b) < BOUNDARY_FN_TOL:
        return Region.BOUNDARY
    return Region.INDUCTIVE if point.fn > fn_b else Region.CAPACITIVE


def tank_input_impedance(tank: TankParams, Re: float, fsw: float) -> complex:
    """Dimensioned tank input impedance in ohm at ``fsw`` with AC load ``Re``."""
    if fsw <= 0:
        raise ValueError("fsw must be positive")
    if Re <= 0:
        raise ValueError("Re must be positive")
    w = 2.0 * math.pi * fsw
    zm = 1j * w * tank.Lm
    if not math.isinf(Re):
        zm = (zm * Re) / (Re + zm)
    return 1j * w * tank.Lr + 1.0 / (1j * w * tank.Cr) + zm


def short_circuit_gain(Ln: float, fn: float) -> float:
    """Gain magnitude with the output shorted (Qe -> inf proxy).

    Tiny everywhere except the series resonance, where the tank impedance
    vanishes and the current diverges; fn = 1 is therefore rejected rather
    than returning the misleading formula value.
    """
    if fn <= 0:
        raise ValueError("fn must be positive")
    if abs(fn - 1.0) < 1e-9:
        raise GainPoleError(
            "shorted output at the series resonance: tank current diverges")
    return float(gain_magnitude(Ln, SHORT_CIRCUIT_QE, fn))
