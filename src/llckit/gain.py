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

A curve is |Mg| sampled by :func:`gain_magnitude` on an fn array, which
takes poles as inf.

Region classification (inductive vs capacitive) is decided from the sign of
the tank input reactance Im{ jwLr + 1/(jwCr) + (jwLm || Re) }, which is the
criterion that actually governs zero-voltage switching.  The impedance
itself is :func:`tank_input_impedance`, in ohm; :func:`boundary_frequency`
is the zero of its imaginary part in closed form.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tank import (
    DesignRequirements,
    LoadSpec,
    NormalizedPoint,
    TankParams,
    normalize,
    series_resonance,
)

__all__ = [
    "GainError",
    "GainPoleError",
    "UnreachableGain",
    "BelowAsymptote",
    "Region",
    "GainPoint",
    "GainBand",
    "gain",
    "gain_magnitude",
    "asymptotic_gain",
    "peak_gain",
    "solve_frequency",
    "operating_point",
    "gain_band",
    "boundary_frequency",
    "classify_region",
    "tank_input_impedance",
    "short_circuit_gain",
    "SHORT_CIRCUIT_QE",
    "SHORT_CIRCUIT_FN_TOL",
]

POLE_DEN_TOL = 1e-15
# A shorted output drives Re -> 0, Qe -> inf; this proxy is large enough that
# the remaining load dependence is far below every tolerance used here.
SHORT_CIRCUIT_QE = 1e6
# short_circuit_gain rejects an fn this close to the series resonance
SHORT_CIRCUIT_FN_TOL = 1e-9
# Upper end of the frequency bracket used when solving gain targets.
FN_SOLVE_MAX = 100.0
BOUNDARY_FN_TOL = 1e-9
# (Qe Ln)^2 stays a finite float below this Qe Ln
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
_EPS = sys.float_info.epsilon
# Relative half-width of the bracket put around a Newton estimate (the
# least one for a band edge, whose bracket may widen up to _BRACKET_MAX),
# and the relative accuracy _peak_estimate guarantees for the peak gain
_BRACKET_REL = 2.0 ** -36
_BRACKET_MAX = 2.0 ** -20
PEAK_ESTIMATE_TOL = 1e-10
_NEWTON_STEPS = 100
# Newton stops after a step below this fraction of its iterate: the error
# left is about the square of it, far inside the bracket
_NEWTON_REL = 2.0 ** -40


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


def _den_scale(Ln: float, Qe: float, fn: float) -> float:
    """The sum of the magnitudes of the terms of :func:`_gain_den`, which
    its rounding scales with: a polynomial in fn with non-negative
    coefficients."""
    x = fn * fn
    return Ln * x + x + 1.0 + (x + 1.0) * fn * Qe * Ln


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
    A float ``fn`` skips the array machinery, not numpy's complex absolute
    value: ``math.hypot`` differs from it in the last bit on a third of points.
    """
    if isinstance(fn, float):
        fn = float(fn)
        den = float(np.abs(np.complex128(_gain_den(Ln, Qe, fn))))
        return math.inf if den < POLE_DEN_TOL else Ln * fn * fn / den
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


def asymptotic_gain(Ln: float) -> float:
    """High-frequency no-load gain floor Ln/(Ln+1)."""
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    return Ln / (Ln + 1.0)


def _peak_terms(Ln: float, Qe: float):
    """(a, c, h) of :func:`peak_gain`, or its ValueError."""
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    if Qe <= 0:
        raise ValueError("peak_gain requires Qe > 0 (no finite peak at no load)")
    a = Ln + 1.0
    c = _load_term(Ln, Qe)

    def h(u: float) -> float:
        # factored so that h(1) = 2 (1 - a) does not cancel against c
        return 2.0 * u * u * (u - a) + c * (u * u - 1.0)

    return a, c, h


def peak_gain(Ln: float, Qe: float) -> tuple[float, float]:
    """Locate (fn_peak, Mg_peak) of the finite resonant peak for Qe > 0.

    With a = Ln + 1, c = (Qe Ln)^2 and u = 1/fn^2, the peak is the
    stationary point of |Mg|^-2, the root of

        h(u) = 2 u^2 (u - a) + c (u^2 - 1),

    which has exactly one positive root, inside (1, a) because h(1) = -2 Ln
    < 0 and h(a) = c (a^2 - 1) > 0; so fp/f0 < fn_peak <= 1.  Qe = 0 is
    rejected: its pole makes the peak unbounded.
    """
    a, _, h = _peak_terms(Ln, Qe)
    fn_peak = 1.0 / math.sqrt(_bisect(h, 1.0, a))
    return fn_peak, gain_magnitude(Ln, Qe, fn_peak)


def _confirmed(f, lo: float, hi: float, low_bound: float,
               high_bound: float) -> bool:
    """Whether the computed f is below -low_bound at lo and above
    high_bound at hi, with lo < hi."""
    return lo < hi and f(lo) < -low_bound and f(hi) > high_bound


def _peak_estimate(Ln: float, Qe: float) -> float | None:
    """Mg_peak as :func:`peak_gain` returns it, to a relative
    ``PEAK_ESTIMATE_TOL``, from a Newton estimate of the root of h; None
    where that accuracy is not confirmed.  Raises peak_gain's ValueError.

    h is convex and rising right of its root r (its turning points are 0
    and (2a - c)/3 < r), so Newton from a start right of r falls to r
    monotonically.
    The estimate u is widened to [u0, u1] = u (1 -+ 2^-36), and confirmed
    when the computed h is below -2B at u0 and above 2B at u1, with B a
    bound on the rounding of h anywhere on [1, a] and 2 (a - 1) = -h(1)
    above B as well.  h falls and then rises on (0, inf), so on [1, u0] it
    is at most max(h(1), h(u0)) < -B, and past r it rises, so on [u1, a]
    it is at least h(u1) > B: every value the bisection computes left of
    u0 is negative and right of u1 non-negative, and the two adjacent
    floats it ends on, with its answer, lie in [u0, u1].

    g = Ln^2 |Mg|^-2 = (a - u)^2 + c (1 - u)^2 / u has its minimum at r
    and the second derivative 2 + 2 c / u^3 <= 2 (1 + c) on [1, a].  u and
    the bisection's answer lie within 2 a w of r (w = 2^-36), where g
    exceeds its minimum by at most 4 (1 + c) (a w)^2, so |Mg| there falls
    short of its maximum, both by less than 2 (1 + c) (a w Mg / Ln)^2
    relative; doubled, and with the rounding of |Mg| at u and at the
    answer, that bounds the distance to peak_gain's Mg_peak.
    """
    a, c, h = _peak_terms(Ln, Qe)
    # (u + 1)/u^2 falls on [1, a], so h(u)/u^2 >= 2 (u - a) + k (u - 1)
    # there with k = c (a + 1)/a^2: the root of that line is right of r
    k = c * (a + 1.0) / (a * a)
    u = (2.0 * a + k) / (2.0 + k)
    for _ in range(_NEWTON_STEPS):
        step = h(u) / (2.0 * u * (3.0 * u - 2.0 * a + c))
        if not step > 0.0:
            break
        u -= step
        if step < _NEWTON_REL * u:
            break
    bound = 8.0 * _EPS * a * a * (2.0 * a + 2.0 * c)
    if not (bound < a - 1.0 and 1.0 < u * (1.0 - _BRACKET_REL)
            and u * (1.0 + _BRACKET_REL) < a
            and _confirmed(h, u * (1.0 - _BRACKET_REL),
                           u * (1.0 + _BRACKET_REL), 2.0 * bound, 2.0 * bound)):
        return None
    fn = 1.0 / math.sqrt(u)
    x = fn * fn
    den = abs(_gain_den(Ln, Qe, fn))
    mg = Ln * x / den if den > 0.0 else math.inf
    spread = a * _BRACKET_REL * mg / Ln
    err = (8.0 * _EPS * (mg * _den_scale(Ln, Qe, fn) / (Ln * x) + 1.0)
           + 4.0 * (1.0 + c) * spread * spread)
    return mg if err <= PEAK_ESTIMATE_TOL else None


def solve_frequency(Ln: float, Qe: float, Mg_target: float) -> float:
    """Invert the gain on the monotone branch at and above the peak.

    Returns the unique fn >= fn_peak with |Mg(fn)| = Mg_target.  Raises
    :class:`UnreachableGain` when the target exceeds the available peak and
    :class:`BelowAsymptote` when even the top of the frequency bracket
    (fn = ``FN_SOLVE_MAX``) cannot get the gain down to the target.
    """
    if Mg_target <= 0:
        raise ValueError("Mg_target must be positive")
    if Qe < 0:
        raise ValueError("Qe must be non-negative")
    if Mg_target != 1.0:  # unity gain needs no peak (see _solve_branch)
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
    return _solve_branch(Ln, Qe, Mg_target)


def operating_point(tank: TankParams, vin: float, vout: float,
                    load: LoadSpec) -> NormalizedPoint:
    """The point at which ``tank``, fed from ``vin``, holds ``vout`` across
    the first value of ``load``.

    Qe is the tank's at the load's Re at ``vout``
    (:meth:`LoadSpec.effective_load`), and fn solves |Mg| = 2 n vout / vin
    by :func:`solve_frequency`, whose errors it raises.  A ``vin`` that is
    not positive raises ValueError.
    """
    if not vin > 0.0:
        raise ValueError(f"vin must be positive, got {vin!r}")
    qe = normalize(tank, load.effective_load(tank.n, vout),
                   series_resonance(tank)).Qe
    fn = solve_frequency(tank.Ln, qe, 2.0 * tank.n * vout / vin)
    return NormalizedPoint(tank.Ln, qe, fn)


def _branch_terms(Ln: float, Qe: float, Mg_target: float):
    """(lo, q, excess) of :func:`_solve_branch` past its unity-gain return,
    or its BelowAsymptote: the bisection's low end, the cubic P/M^2 with
    its derivative, and the function the bisection polishes."""
    mg_hi = gain_magnitude(Ln, Qe, FN_SOLVE_MAX)
    if mg_hi >= Mg_target:
        raise BelowAsymptote(f"target {Mg_target!r} below gain {mg_hi!r} "
                             f"reachable at fn={FN_SOLVE_MAX!r}")
    a = Ln + 1.0
    c = _load_term(Ln, Qe)
    r2 = (Ln / Mg_target) ** 2
    b2, b1 = a * a - 2.0 * c - r2, c - 2.0 * a
    # P'/M^2 = 3 c x^2 + 2 (a^2 - 2 c - Ln^2/M^2) x + (c - 2 a) has its
    # larger root between P's two positive roots; flooring it at the
    # open-load pole 1/a, below the peak, keeps the bracket valid where
    # rounding blurs a target at the peak
    x_turn = _larger_root(3.0 * c, 2.0 * b2, b1)
    lo = math.sqrt(max(1.0 / a, x_turn))

    def q(x: float) -> tuple[float, float]:
        return (((c * x + b2) * x + b1) * x + 1.0,
                (3.0 * c * x + 2.0 * b2) * x + b1)

    def excess(fn: float) -> float:
        # M |den| - Ln fn^2 has the sign of M - |Mg| and no pole
        x = fn * fn
        return (Mg_target * math.hypot(Ln * x + (x - 1.0), (x - 1.0) * fn * Qe * Ln)
                - Ln * x)

    return lo, q, excess


def _solve_branch(Ln: float, Qe: float, Mg_target: float) -> float:
    """:func:`solve_frequency` past its input and peak checks: a positive
    target no higher than the gain at any finite peak.

    With x = fn^2, a = Ln + 1, c = (Qe Ln)^2 and M = Mg_target, the answer
    is the largest real root of the cubic

        P(x) = M^2 c x^3 + (M^2 a^2 - 2 M^2 c - Ln^2) x^2
               + (M^2 c - 2 M^2 a) x + M^2,

    (a quadratic at Qe = 0), which is negative exactly where |Mg| > M.  P
    rises from its larger turning point on, so that point, in closed form,
    opens the bracket, and the root is polished on the gain itself rather
    than on the expanded cubic; the answer depends on (Ln, Qe, M) alone.
    """
    if Mg_target == 1.0:
        # unity gain sits at the series resonance for every load, and fn = 1
        # is always on the monotone branch, so return it without iterating
        return 1.0
    lo, _, excess = _branch_terms(Ln, Qe, Mg_target)
    return _bisect(excess, lo, FN_SOLVE_MAX)


def _branch_bracket(Ln: float, Qe: float,
                    Mg_target: float) -> tuple[float, float] | None:
    """A bracket [f0, f1] that holds the answer of :func:`_solve_branch`,
    from a Newton estimate of the root of P; None where it is not
    confirmed.  Raises _solve_branch's errors.

    |Mg(1)| = 1 and fn = 1 is on the monotone branch, so x = 1, or the
    first of 4, 16, ... where the computed P is positive, lies right of
    the root, where P is convex and rising: Newton falls to the root from
    there.  The estimate is widened to [f0, f1] = fn (1 -+ w), w sized
    from the slope P' there (at least 2^-36, less than 2^-20), and
    confirmed on the bisection's own function E(fn) = M |den| - Ln x =
    P / (M |den| + Ln x), whose rounding is at most B(fn) = 8 eps (M S +
    Ln x), S = Ln x + x + 1 + (x + 1) fn Qe Ln, a polynomial in fn with
    non-negative coefficients that rises with fn:

    * Left of the root, from the bisection's low end lo on, P falls to its
      turning point and rises after it (lo^2 is that turning point as
      _larger_root computes it, which never falls left of the midpoint
      between P's two turning points, or 1/a right of it), so on [lo, f0]
      it is at most its larger end value, and E < 0 there puts the
      denominator between Ln x
      and 2 Ln x.  So |E| >= min(|E(lo)| (lo/f0)^2, |E(f0)|) / 2 there,
      and both terms below -3 B(f0) make every computed E on [lo, f0]
      negative.
    * Right of the root |Mg| falls (it has one maximum, and |Mg| > M at
      f0 and < M at f1 put it left of f1), so E = Ln x (M/|Mg| - 1) >= E(f1)
      (fn/f1)^2 on [f1, FN_SOLVE_MAX] while B(fn) <= B(f1) (fn/f1)^3:
      E(f1) above (1 + FN_SOLVE_MAX/f1) B(f1) makes every computed E
      there positive.

    So the bisection keeps its low end left of f1 and its high end right
    of f0, and ends on two adjacent floats inside [f0, f1].
    """
    if Mg_target == 1.0:
        return 1.0, 1.0
    lo, q, excess = _branch_terms(Ln, Qe, Mg_target)
    x = 1.0
    while not q(x)[0] > 0.0 and x < FN_SOLVE_MAX ** 2:
        x *= 4.0
    for _ in range(_NEWTON_STEPS):
        p, dp = q(x)
        step = p / dp if dp > 0.0 else 0.0
        if not step > 0.0:
            break
        x -= step
        if step < _NEWTON_REL * x:
            break
    # at the root E rises by M^2 P'/Ln per unit of relative fn
    slope = Mg_target * Mg_target * dp / Ln
    if not (slope > 0.0 and x > 0.0):
        return None  # no root right of the turning point: a target above the peak
    fn = math.sqrt(x)

    def bound(fn: float) -> float:
        return 8.0 * _EPS * (Mg_target * _den_scale(Ln, Qe, fn) + Ln * fn * fn)

    # a half-width twice what the bounds below ask of that slope
    w = max(_BRACKET_REL, 2.0 * (3.0 + FN_SOLVE_MAX / fn) * bound(fn) / slope)
    f0, f1 = fn * (1.0 - w), fn * (1.0 + w)
    b0 = 3.0 * bound(f0)
    if (w < _BRACKET_MAX and lo < f0 and f1 < FN_SOLVE_MAX
            and excess(lo) * (lo / f0) ** 2 < -b0
            and _confirmed(excess, f0, f1, b0,
                           (1.0 + FN_SOLVE_MAX / f1) * bound(f1))):
        return f0, f1
    return None


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


def boundary_frequency(Ln: float, Qe: float) -> float:
    """fn where the input reactance, Im of :func:`tank_input_impedance`,
    crosses zero (always below fn = 1)."""
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
    return _region(point.fn, boundary_frequency(point.Ln, point.Qe))


def _region(fn: float, fn_b: float) -> Region:
    """The verdict of :func:`classify_region` at fn, given the boundary."""
    if abs(fn - fn_b) < BOUNDARY_FN_TOL:
        return Region.BOUNDARY
    return Region.INDUCTIVE if fn > fn_b else Region.CAPACITIVE


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
    if abs(fn - 1.0) < SHORT_CIRCUIT_FN_TOL:
        raise GainPoleError(
            "shorted output at the series resonance: tank current diverges")
    return gain_magnitude(Ln, SHORT_CIRCUIT_QE, fn)
