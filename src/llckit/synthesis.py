"""Tank synthesis and feasibility checking against a design requirement set.

The synthesis direction inverts the normalization: pick a turns ratio from
the voltage conversion at the chosen centering gain, pick (Ln, Qe) as the
shape parameters, then at the full-load effective resistance

    Cr = 1 / (2 pi f0 Qe Re),   Lr = 1 / ((2 pi f0)^2 Cr),   Lm = Ln Lr.

Feasibility of the result is judged on the fundamental-approximation curves:
the worst-case required gain must sit below the full-load peak, and both
ends of the resulting frequency band must land in the inductive region.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .gain import (
    GainBand,
    GainError,
    Region,
    _branch_bracket,
    _load_term,
    _peak_estimate,
    _region,
    _solve_branch,
    asymptotic_gain,
    boundary_frequency,
    classify_region,
    gain_band,
    peak_gain,
    solve_frequency,
)
from .tank import (
    DEFAULT_COUT,
    DEFAULT_T_DEAD,
    DesignRequirements,
    LoadSpec,
    NormalizedPoint,
    TankParams,
    normalize,
    series_resonance,
)

__all__ = [
    "E12",
    "E24",
    "SERIES_NAMES",
    "DesignReport",
    "choose_turns_ratio",
    "synthesize_tank",
    "round_to_series",
    "round_components",
    "check_feasibility",
    "search_design_point",
]

E12 = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)
E24 = (1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0,
       3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1)
_SERIES = {"E12": E12, "E24": E24}
SERIES_NAMES = tuple(_SERIES)

# Flag designs whose peak gain clears the worst-case requirement by less
# than this fraction.
HEADROOM_WARN = 0.10
F0_DRIFT_LIMIT = 0.05
# The solved peak gain can rise by a few ulps where the exact one falls
# with Qe (up to 9e-16 relative between nearby Qe, measured), so the
# design-point search prunes only after a peak that misses the headroom by
# more than this fraction.  It also solves a peak exactly where its
# estimate, good to PEAK_ESTIMATE_TOL, lies this close to a threshold.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class DesignReport:
    """Everything the feasibility check learned about one candidate design."""

    requirements: DesignRequirements
    n: float
    Ln: float
    Qe: float
    tank: TankParams
    tank_rounded: TankParams
    band: GainBand
    fn_peak: float
    Mg_peak: float
    feasible: bool
    fsw_band: tuple[float, float] | None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        # asdict keeps each dataclass's field order, which the JSON keeps
        return {
            "requirements": asdict(self.requirements),
            "n": self.n,
            "Ln": self.Ln,
            "Qe": self.Qe,
            "tank": asdict(self.tank),
            "tank_rounded": asdict(self.tank_rounded),
            "band": {"Mg_min": self.band.Mg_min, "Mg_max": self.band.Mg_max,
                     "Mg_inf": self.band.Mg_inf},
            "peak": {"fn_peak": self.fn_peak, "Mg_peak": self.Mg_peak},
            "feasible": self.feasible,
            "fsw_band": list(self.fsw_band) if self.fsw_band else None,
            "warnings": list(self.warnings),
        }


def choose_turns_ratio(req: DesignRequirements, mg_center: float = 1.0) -> float:
    """n = Mg_center * (Vin_nom/2) / Vout_nom.

    ``mg_center = 1`` centers the nominal point on the series resonance; a
    value below 1 shifts the nominal operating frequency upward (and vice
    versa), trading regulation slope for center placement.
    """
    if mg_center <= 0:
        raise ValueError("mg_center must be positive")
    return mg_center * (req.vin_nom / 2.0) / req.vout_nom


def synthesize_tank(req: DesignRequirements, n: float, Ln: float, Qe: float,
                    Vf: float = 0.0, Cout: float = DEFAULT_COUT,
                    t_dead: float = DEFAULT_T_DEAD) -> TankParams:
    """Component values hitting (f0_target, Ln, Qe) at full load.

    The effective load is evaluated at (vout_nom, iout_max), the heaviest
    point the design must regulate.
    """
    if Ln <= 1:
        raise ValueError("Ln must exceed 1")
    if Qe <= 0:
        raise ValueError("Qe must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    re = LoadSpec.current(req.iout_max).effective_load(n, req.vout_nom)
    w0 = 2.0 * math.pi * req.f0_target
    cr = 1.0 / (w0 * Qe * re)
    lr = 1.0 / (w0 * w0 * cr)
    return TankParams(Lr=lr, Cr=cr, Lm=Ln * lr, n=n, Vf=Vf, Cout=Cout,
                      t_dead=t_dead)


def round_to_series(value: float, series: str) -> float:
    """Snap ``value`` to the nearest standard series value by log distance."""
    if series not in _SERIES:
        raise ValueError(f"unknown series {series!r}")
    if value <= 0:
        raise ValueError("value must be positive")
    mantissas = _SERIES[series]
    decade = math.floor(math.log10(value))
    best, best_dist = value, math.inf
    for d in (decade - 1, decade, decade + 1):
        for m in mantissas:
            cand = m * 10.0**d
            dist = abs(math.log(value / cand))
            if dist < best_dist:
                best, best_dist = cand, dist
    return best


def round_components(tank: TankParams, series: str = "E12") -> tuple[TankParams, list[str]]:
    """Snap Cr to a purchasable value, rewind Lr to keep f0, scale Lm.

    Only the capacitor is forced onto the series; the inductors are wound
    parts whose value is set by turns and gap, so Lr is recomputed to hold
    the original resonance exactly and Lm follows to preserve Ln.  Returns
    the adjusted tank plus human-readable drift notes.
    """
    if series.lower() in ("none", ""):
        return tank, []
    f0 = series_resonance(tank)
    cr_r = round_to_series(tank.Cr, series)
    w0 = 2.0 * math.pi * f0
    lr_r = 1.0 / (w0 * w0 * cr_r)
    lm_r = tank.Ln * lr_r
    rounded = TankParams(Lr=lr_r, Cr=cr_r, Lm=lm_r, n=tank.n, Vf=tank.Vf,
                         Cout=tank.Cout, t_dead=tank.t_dead)
    warnings = []
    if cr_r != tank.Cr:
        warnings.append(
            f"Cr snapped to {series}: {tank.Cr:.4e} F -> {cr_r:.4e} F "
            f"({(cr_r / tank.Cr - 1.0) * 100.0:+.2f}%)")
        warnings.append(
            f"Lr rewound {tank.Lr:.4e} H -> {lr_r:.4e} H to hold f0 = {f0:.1f} Hz")
    drift = abs(series_resonance(rounded) - f0) / f0
    if drift > F0_DRIFT_LIMIT:
        warnings.append(f"f0 drift {drift * 100.0:.1f}% exceeds {F0_DRIFT_LIMIT * 100.0:.0f}%")
    return rounded, warnings


def _band_qe(tank: TankParams, req: DesignRequirements) -> tuple[float, float]:
    """(Qe at heaviest load, Qe at lightest load) for this tank."""
    f0 = series_resonance(tank)
    return tuple(
        normalize(tank, LoadSpec.current(i).effective_load(tank.n, req.vout_nom),
                  f0).Qe
        for i in (req.iout_max, req.iout_min))


def check_feasibility(tank: TankParams, req: DesignRequirements, n: float,
                      series: str = "E12") -> DesignReport:
    """Judge whether ``tank`` can regulate ``req`` on the inductive branch.

    Feasible means: the worst-case gain Mg_max stays below the full-load
    peak, and both solved band-edge frequencies classify inductive.  The
    frequency band spans from the full-load high-gain edge to the
    light-load low-gain edge.
    """
    ln = tank.Ln
    f0 = series_resonance(tank)
    qe_full, qe_light = _band_qe(tank, req)
    band = gain_band(req, n, ln)
    fn_peak, mg_peak = peak_gain(ln, qe_full)
    warnings: list[str] = []
    feasible = True

    if band.Mg_max >= mg_peak:
        feasible = False
        warnings.append(
            f"required gain {band.Mg_max:.4f} not below full-load peak {mg_peak:.4f}")
    headroom = mg_peak / band.Mg_max - 1.0
    if feasible and headroom < HEADROOM_WARN:
        warnings.append(f"gain headroom only {headroom * 100.0:.1f}%")

    fsw_band: tuple[float, float] | None = None
    if feasible:
        try:
            fn_lo = solve_frequency(ln, qe_full, band.Mg_max)
            fn_hi = solve_frequency(ln, qe_light, band.Mg_min)
        except GainError as exc:
            feasible = False
            warnings.append(f"band edge unsolvable: {exc}")
        else:
            fsw_band = (fn_lo * f0, fn_hi * f0)
            for fn_edge, qe_edge, name in ((fn_lo, qe_full, "high-gain"),
                                           (fn_hi, qe_light, "low-gain")):
                region = classify_region(NormalizedPoint(ln, qe_edge, fn_edge))
                if region is not Region.INDUCTIVE:
                    feasible = False
                    warnings.append(f"{name} band edge at fn={fn_edge:.4f} is {region.value}")
            if fsw_band[0] < req.fsw_min or fsw_band[1] > req.fsw_max:
                warnings.append(
                    f"band ({fsw_band[0]:.0f}, {fsw_band[1]:.0f}) Hz leaves the "
                    f"configured range ({req.fsw_min:.0f}, {req.fsw_max:.0f}) Hz")

    rounded, round_warn = round_components(tank, series)
    warnings.extend(round_warn)
    return DesignReport(
        requirements=req, n=n, Ln=ln, Qe=qe_full, tank=tank,
        tank_rounded=rounded, band=band, fn_peak=fn_peak, Mg_peak=mg_peak,
        feasible=feasible, fsw_band=fsw_band, warnings=tuple(warnings))


class _Root:
    """A band edge of the design-point search: a bracket [lo, hi] that holds
    the value its exact solver returns, which is solved on demand."""

    __slots__ = ("lo", "hi", "_solve")

    def __init__(self, lo: float, hi: float, solve):
        self.lo, self.hi, self._solve = lo, hi, solve

    def exact(self) -> float:
        if self.lo != self.hi:
            self.lo = self.hi = self._solve()
        return self.lo

    def decide(self, test) -> bool:
        """``test`` at the exact value, for a test that turns at most once
        (from False to True or back) as fn rises."""
        at_lo = test(self.lo)
        return at_lo if at_lo == test(self.hi) else test(self.exact())


def _root(solve, args, bracket=None) -> _Root | None:
    """``solve(*args)`` as a :class:`_Root` opened from ``bracket(*args)``
    where that is not None; None where either raises a GainError."""
    try:
        got = bracket(*args) if bracket is not None else None
        if got is None:
            got = (solve(*args),) * 2
    except GainError:
        return None
    return _Root(*got, lambda: solve(*args))


def _near(value: float, threshold: float) -> bool:
    return abs(value - threshold) <= _PRUNE_MARGIN * abs(threshold)


def _light_edge(ln: float, qe: float, target: float) -> _Root | None:
    """``solve_frequency(ln, qe, target)`` as a :class:`_Root`; None where
    it raises a GainError, and its ValueError where it raises one.

    Its peak checks are taken on the estimated peak where that is
    confirmed and not within ``_PRUNE_MARGIN`` of the target; every other
    case is left to solve_frequency itself.
    """
    if target > 0.0 and target != 1.0:
        if qe > 0.0:
            mg_peak = _peak_estimate(ln, qe)
            if mg_peak is not None and not _near(mg_peak, target):
                if target > mg_peak:
                    return None  # UnreachableGain
                return _root(_solve_branch, (ln, qe, target), _branch_bracket)
        elif qe == 0.0:
            if target <= asymptotic_gain(ln):
                return None  # BelowAsymptote
            return _root(_solve_branch, (ln, qe, target), _branch_bracket)
    return _root(solve_frequency, (ln, qe, target))


# the edges of a band of infinite width: the best band before any pick
_NO_BAND = (_Root(0.0, 0.0, None), _Root(math.inf, math.inf, None))


def _narrower(lo: _Root, hi: _Root, best: tuple[_Root, _Root],
              f0: float) -> bool:
    """Whether the band (hi - lo) f0 is narrower than the best one, both
    at their exact edges; edges are solved only where the brackets
    overlap.  A width that overflows is never narrower than _NO_BAND."""
    best_lo, best_hi = best
    if (hi.hi - lo.lo) * f0 < (best_hi.lo - best_lo.hi) * f0:
        return True
    if (hi.lo - lo.hi) * f0 >= (best_hi.hi - best_lo.lo) * f0:
        return False
    return ((hi.exact() - lo.exact()) * f0
            < (best_hi.exact() - best_lo.exact()) * f0)


def search_design_point(req: DesignRequirements, n: float,
                        ln_values=None, qe_values=None,
                        min_headroom: float = 0.2) -> tuple[float, float]:
    """Grid-search (Ln, Qe) minimizing the regulation-band width.

    Candidates must keep at least ``min_headroom`` of peak-gain margin over
    Mg_max and produce inductive, in-range band edges; among those the
    narrowest fsw band wins (first hit on ties, so the result is
    deterministic).  Default grids: Ln in 1.5..10 step 0.5, Qe in 0.1..1.0
    step 0.05.  Each candidate is judged in (Ln, Qe) alone:
    :func:`synthesize_tank` builds a tank whose full-load Qe is the
    candidate's, so its light-load Qe is Qe * iout_min / iout_max.

    Per Ln, every Qe at or above the smallest one whose peak missed the
    headroom is rejected without solving its peak.  That is exact: in
    ``|Mg(fn)| = Ln fn^2 / |(Ln fn^2 + fn^2 - 1) + j (fn^2 - 1) fn Qe Ln|``
    the real part of the denominator does not depend on Qe and the
    imaginary part grows in magnitude with it wherever fn != 1, so |Mg| at
    every fn, and with it the peak, can only fall as Qe rises.  A peak
    that misses by less than ``_PRUNE_MARGIN`` (relative) sets no skip, so
    the rounding of the solved peaks cannot move a pick.  The skip does
    not depend on the grid order, so unsorted grids keep their pick, and a
    skipped Qe still raises the ValueError of :func:`peak_gain` when
    (Qe Ln)^2 overflows.

    The search decides on confirmed Newton brackets and bisects only near
    a tie.  Each peak gain is a Newton estimate within
    ``PEAK_ESTIMATE_TOL`` of what :func:`peak_gain` returns, and each band
    edge a bracket that holds what the bisection of :func:`_solve_branch`
    or :func:`solve_frequency` returns; the gain module confirms both on
    the bisection's own function.  Every test a band edge takes (inductive
    and within ``fsw_min``, within ``fsw_max``, narrower than the best so
    far) turns once as the edge rises, so where it gives the same answer
    at both ends of the bracket it gives that answer at the exact edge.
    The exact solver runs only where an estimate is not confirmed, where a
    peak lies within ``_PRUNE_MARGIN`` of a threshold, or where a test
    differs across a bracket.  The search therefore returns the pick of
    bisecting every root, or raises its error at the same candidate, and
    every value a report carries still comes from the bisection, through
    :func:`check_feasibility`.
    """
    if ln_values is None:
        ln_values = [1.5 + 0.5 * k for k in range(18)]
    if qe_values is None:
        qe_values = [0.1 + 0.05 * k for k in range(19)]
    light = req.iout_min / req.iout_max
    f0 = req.f0_target
    best: tuple[float, float] | None = None
    best_edges = _NO_BAND
    for ln in ln_values:
        band = gain_band(req, n, ln)
        need = (1.0 + min_headroom) * band.Mg_max
        miss = need * (1.0 - _PRUNE_MARGIN)
        # the light-load edge is solved only where the full-load edge
        # passes, unless its target or Qe is out of range (an infinite
        # vin_max, say): then its ValueError comes at the same candidate
        quiet = band.Mg_min > 0.0 and 0.0 <= light <= 1.0
        qe_miss = math.inf
        for qe in qe_values:
            if qe >= qe_miss:
                # raise the ValueError peak_gain would for an overflowing Qe
                _load_term(ln, qe)
                continue
            mg_peak = _peak_estimate(ln, qe)
            if mg_peak is None or _near(mg_peak, need) or _near(mg_peak, miss):
                _, mg_peak = peak_gain(ln, qe)
            if mg_peak < need:
                if mg_peak < miss:
                    qe_miss = qe
                continue
            # the headroom puts Mg_max below the peak just solved
            lo = _root(_solve_branch, (ln, qe, band.Mg_max), _branch_bracket)
            if lo is None:
                continue
            fn_b = boundary_frequency(ln, qe)
            lo_ok = lo.decide(lambda fn: _region(fn, fn_b) is Region.INDUCTIVE
                              and not fn * f0 < req.fsw_min)
            if not lo_ok and quiet:
                continue
            hi = _light_edge(ln, qe * light, band.Mg_min)
            if (hi is None or not lo_ok
                    or hi.decide(lambda fn: fn * f0 > req.fsw_max)):
                continue
            if _narrower(lo, hi, best_edges, f0):
                best, best_edges = (ln, qe), (lo, hi)
    if best is None:
        raise ValueError("no (Ln, Qe) candidate satisfies the constraints")
    return best
