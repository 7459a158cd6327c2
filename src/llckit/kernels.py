"""Exact piecewise-linear integration kernel for the switched LLC power stage.

The power stage is piecewise linear: within one mode the four states

    x = (iLr, vCr, iLm, vOut)

obey a constant-coefficient ODE dx/dt = A x + b (``_mode``).  A mode is one
combination of

  * rectifier phase: open, D1 or D2 conducting,
  * bridge-node rail: vsw = vin or 0,
  * for a current-sink load, sink state: drawing its current while
    vOut > 0, or holding vOut where it is once the output is down at 0 V
    (the sink cannot pull the output below ground, so there it takes only
    what the rectifier delivers).

Each mode is stepped by its exact affine propagator

    x(t + h) = x + D(h) x + q(h),    D = Phi(h) - I,

taken from the Taylor series of exp(A h) summed to double precision
(``_series``).  The maps of one (mode, step length) are built once and
kept in the caller's ``maps`` cache, along with the integral rows that
give the source and diode energy of a step exactly.

Since a step is exact at any length, the length is set by event detection
alone: a span is split into ceil(span / H) equal steps, whatever is
recorded.  H is ``STEP_FRACTION`` of the stage's fastest natural period
2 pi / rho, where rho bounds every eigenvalue of the mode matrices (the
largest row sum of |A| in energy coordinates).  On the reference tank the
bound is 9.5 us against the 10.0 us D1/D2 series resonance, so H is
1.19 us and a switching period at 110 kHz takes 12 steps.

Waveform rows on the record grid never end a step.  Each is the Taylor
series of the step it falls in, summed at its own instant
(``_put_grid_rows``): with numpy for all the rows of a call at once, or in
plain Python when a call holds only a few.  The state carried from step to
step is the map's, so what is recorded cannot move the trajectory.

Mode boundaries are event-function zeros, located by a safeguarded Newton
iteration on the step's Taylor polynomial (``_root``):

  * diode turn-off: secondary current n (iLr - iLm) falling through zero,
  * diode turn-on: open-rectifier magnetizing voltage
    Lm/(Lr+Lm) (vsw - vCr) reaching the output clamp +/- n (vOut + Vf),
  * dead-time node swap: iLr changing sign while both switches are off
    (the body diodes re-clamp the node to the other rail),
  * current sink: vOut falling to 0 V (the sink starts holding it there),
    or the rectifier current rising past the sink current (vOut lifts
    off); these mode changes are not written to the event log.

A step fires an event when an event function ends it on the other side of
its threshold, or when the function turns back inside the step after
crossing it (a graze: its slope changes sign towards the threshold, and its
extremum lies past it).  The located instant lies on the fired side, within
tol_t of the crossing.  When several fire inside one step the earliest
located one is applied; a tie goes to the one listed first.

Source energy (vin times the integral of iLr while the node is high) and
diode loss come from integral maps.  The load energy of each span between
transitions follows from the output capacitor, whose rectifier input is,
while a diode conducts, the source energy less the diode loss and the
tank's gain (``_span_load``).  The peaks per component include the extrema
inside a step, located where the component's rate changes sign.

Gate transitions are segment boundaries handled by the caller; each call
integrates one span of constant gate state.  The stepping is scalar
float64 arithmetic in a fixed order, and the rows' numpy arithmetic is
fixed by the call's inputs, so equal inputs give equal bits.
"""

from __future__ import annotations

import math

import numpy as np

# rectifier phases
RECT_OFF = 0
RECT_D1 = 1
RECT_D2 = 2
# switch-phase segments, in the order they occur inside one period
SEG_HIGH = 0
SEG_DEAD_TO_LOW = 1
SEG_LOW = 2
SEG_DEAD_TO_HIGH = 3
# load kinds
LOAD_RES = 0
LOAD_CUR = 1
# kernel error codes
ERR_OK = 0
ERR_EVENT_LOC = 1
ERR_CHATTER = 2
ERR_MODE_VIOLATION = 3
ERR_RECORD_FULL = 4
ERR_EVENT_FULL = 5
# event codes (written into the event log)
EV_D1_ON = 1
EV_D2_ON = 2
EV_D1_OFF = 3
EV_D2_OFF = 4
EV_CLAMP_HIGH = 5
EV_CLAMP_LOW = 6
EV_GATE_HS_ON = 7
EV_GATE_HS_OFF = 8
EV_GATE_LS_ON = 9
EV_GATE_LS_OFF = 10
# current-sink states (a resistive load has none)
SINK_NONE = 0
SINK_ON = 1
SINK_HELD = 2

# invariant slack: events are located far tighter than this, so a breach
# means a genuinely missed transition
I_TOL = 1e-6  # A
V_TOL = 1e-3  # V
EVENT_GUARD = 16
LOC_MAX = 100  # root-search iterations before a localization failure
# step cap H as a fraction of the fastest natural period: rho H = pi / 4
STEP_FRACTION = 0.125
# an event function's extremum is located to this fraction of a step
_EXT_TOL = 2.0 ** -30
# an event function within this fraction of its terms' magnitude of its
# threshold counts as on it
_NOISE = 2.0 ** -50
# a Taylor series stops once its term bound theta^k / k! drops below this
_TERM_TOL = 2.0 ** -56
# cached step lengths keep this many mantissa bits, so that spans which
# differ in their last bits (t1 - t0 at different t0) share one map; a step
# is carried across the rounding by its end rate, which leaves an error of
# (2^-33 rho h)^2 / 2 of the state
_Q_BITS = 32
# entries per propagator cache, and step lengths per mode
_MAPS_MAX = 64


def _term_count(theta):
    """How many terms past w_0 ``_series`` sums at rho h = theta."""
    bound = theta
    k = 1
    while bound > _TERM_TOL:
        k += 1
        bound *= theta / k
    return k


# Taylor terms past w_0 that a step of the cap length H sums (rho H = pi/4)
_ROW_K = _term_count(STEP_FRACTION * 2.0 * math.pi)
# a call with at most this many grid rows sums them in plain Python: below
# it, numpy's fixed cost per call outweighs its saving per row
_ROWS_SCALAR = 8

# record row layout
REC_COLS = 9  # t, iLr, vCr, iLm, vOut, vsw, iload, rect, seg

# event-function slots: (slot, c0, c1, c2, c3, d, side) for
# g = c0 iLr + c1 vCr + c2 iLm + c3 vOut + d, firing when side * g turns
# positive (side 0: either sign flip)
_DEAD_SLOT = (2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _iout(sink, rect, iLr, iLm, vOut, n, load_kind, load_val):
    """The load current: vOut / R for a resistor; for a current sink, its
    setpoint while it draws, and while it holds the output at 0 V the
    rectifier's current n |iLr - iLm| (none through an open rectifier)."""
    if load_kind == LOAD_RES:
        return vOut / load_val
    if sink != SINK_HELD:
        return load_val
    if rect == RECT_OFF:
        return 0.0
    return n * abs(iLr - iLm)


def _mode(rect, vsw, sink, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val):
    """A and b of one mode, its eigenvalue bound and its event functions.

    Every mode shares the pattern

        d iLr/dt  = a01 vCr + a03 vOut + b0
        d vCr/dt  = a10 iLr
        d iLm/dt  = a21 vCr + a23 vOut + b2
        d vOut/dt = a30 (iLr - iLm) + a33 vOut + b3

    Returns [a01, a03, a10, a21, a23, a30, a33, b0, b2, b3, rho, slots,
    dead_slots, maps, row_terms]: rho is the largest row sum of |A| in the
    energy coordinates (sqrt(Lr) iLr, sqrt(Cr) vCr, sqrt(Lm) iLm,
    sqrt(Cout) vOut), which bounds every eigenvalue; slots lists the mode's
    rectifier and sink event functions in slot order, and dead_slots adds
    the dead-time one; maps caches the step maps by step length, and
    row_terms the ``_row_terms`` array once built (None until then).
    """
    a10 = 1.0 / Cr
    kq = Lm / (Lr + Lm)
    if rect == RECT_OFF:
        a01 = a21 = -1.0 / (Lr + Lm)
        a03 = a23 = a30 = 0.0
        b0 = b2 = vsw / (Lr + Lm)
        nv = n * Vf
        slots = [(0, 0.0, -kq, 0.0, -n, kq * vsw - nv, 1.0),
                 (1, 0.0, kq, 0.0, -n, -kq * vsw - nv, 1.0)]
        s = 0.0
    else:
        s = 1.0 if rect == RECT_D1 else -1.0
        a01 = -1.0 / Lr
        a03 = -s * n / Lr
        a21 = 0.0
        a23 = s * n / Lm
        a30 = s * n / Cout
        b0 = (vsw - s * n * Vf) / Lr
        b2 = s * n * Vf / Lm
        slots = [(0, s, 0.0, -s, 0.0, 0.0, -1.0)]
    a33 = b3 = 0.0
    if load_kind == LOAD_RES:
        a33 = -1.0 / (load_val * Cout)
    elif sink == SINK_ON:
        b3 = -load_val / Cout
        slots.append((3, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0))
    else:
        a30 = 0.0
        if s != 0.0:
            slots.append((3, n * s, 0.0, -n * s, 0.0, -load_val, 1.0))
    sl, sc = math.sqrt(Lr), math.sqrt(Cr)
    sm, so = math.sqrt(Lm), math.sqrt(Cout)
    rho = max(abs(a01) * sl / sc + abs(a03) * sl / so,
              abs(a10) * sc / sl,
              abs(a21) * sm / sc + abs(a23) * sm / so,
              abs(a30) * (so / sl + so / sm) + abs(a33))
    return [a01, a03, a10, a21, a23, a30, a33, b0, b2, b3, rho, slots,
            sorted(slots + [_DEAD_SLOT]), {}, None]


def _mode_of(maps, rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf, Cout,
             load_kind, load_val):
    """The cached mode record (see ``_mode``)."""
    key = (rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind,
           load_val)
    m = maps.get(key)
    if m is None:
        if len(maps) >= _MAPS_MAX:
            maps.clear()
        m = _mode(rect, vin if node_hi == 1 else 0.0, sink, Lr, Cr, Lm, n,
                  Vf, Cout, load_kind, load_val)
        maps[key] = m
    return m


def _step_cap(maps, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val):
    """H: ``STEP_FRACTION`` of the stage's fastest natural period.

    The bound rho of a conducting mode covers both D1 and D2 and is at
    least that of a holding sink; the open rectifier is bounded apart.
    """
    sink = SINK_NONE if load_kind == LOAD_RES else SINK_ON
    rho = max(_mode_of(maps, RECT_D1, 0, sink, vin, Lr, Cr, Lm, n, Vf, Cout,
                       load_kind, load_val)[10],
              _mode_of(maps, RECT_OFF, 0, sink, vin, Lr, Cr, Lm, n, Vf, Cout,
                       load_kind, load_val)[10])
    return STEP_FRACTION * 2.0 * math.pi / rho


def _series(x0, x1, x2, x3, e0, e2, e3, h, m):
    """Taylor terms w_k of x(s h) = sum_k w_k s^k over one step.

    x is the start state and e the input (b of the mode, or 0 for the
    homogeneous part), so w_0 = x, w_1 = h (A x + e) and
    w_(k+1) = h/(k+1) A w_k.  The terms stop once the bound
    (rho h)^k / k! on their size relative to the state drops below
    ``_TERM_TOL``.
    """
    a01, a03, a10, a21, a23, a30, a33 = m[:7]
    theta = m[10] * h
    u0 = h * (a01 * x1 + a03 * x3 + e0)
    u1 = h * (a10 * x0)
    u2 = h * (a21 * x1 + a23 * x3 + e2)
    u3 = h * (a30 * (x0 - x2) + a33 * x3 + e3)
    w = [(x0, x1, x2, x3), (u0, u1, u2, u3)]
    bound = theta
    k = 1
    while bound > _TERM_TOL:
        k += 1
        c = h / k
        u0, u1, u2, u3 = (c * (a01 * u1 + a03 * u3), c * (a10 * u0),
                          c * (a21 * u1 + a23 * u3),
                          c * (a30 * (u0 - u2) + a33 * u3))
        w.append((u0, u1, u2, u3))
        bound *= theta / k
    return w


def _at(w, s):
    """The state x(s h) from the Taylor terms."""
    p0, p1, p2, p3 = w[-1]
    for k in range(len(w) - 2, -1, -1):
        c0, c1, c2, c3 = w[k]
        p0 = p0 * s + c0
        p1 = p1 * s + c1
        p2 = p2 * s + c2
        p3 = p3 * s + c3
    return p0, p1, p2, p3


def _rate_at(w, s, h):
    """The rate dx/dt at s h from the Taylor terms."""
    k = len(w) - 1
    p0, p1, p2, p3 = (k * c for c in w[k])
    for k in range(k - 1, 0, -1):
        c0, c1, c2, c3 = w[k]
        p0 = p0 * s + k * c0
        p1 = p1 * s + k * c1
        p2 = p2 * s + k * c2
        p3 = p3 * s + k * c3
    return p0 / h, p1 / h, p2 / h, p3 / h


def _integrals(w, s, h):
    """The integrals of iLr and iLm over [0, s h]."""
    i0 = i2 = 0.0
    for k in range(len(w) - 1, -1, -1):
        c = w[k]
        r = 1.0 / (k + 1)
        i0 = i0 * s + r * c[0]
        i2 = i2 * s + r * c[2]
    return i0 * s * h, i2 * s * h


def _unit_series(m, h):
    """The Taylor terms over a step of length h of each unit state e_j
    with the inputs off, then of rest with the inputs (b) on: the series
    of x(s h) from any (x, 1) is their combination with those weights."""
    b0, b2, b3 = m[7:10]
    return (_series(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, h, m),
            _series(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, h, m),
            _series(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, h, m),
            _series(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, h, m),
            _series(0.0, 0.0, 0.0, 0.0, b0, b2, b3, h, m))


def _row_terms(m, h):
    """The mode's Taylor terms w_0 .. w_ROW_K over a step of length h, as a
    (5, 4 (``_ROW_K`` + 1)) array T: from a state x the step's terms are
    (x, 1) . T, reshaped to (``_ROW_K`` + 1, 4), and x(t + s h) is
    sum_k s^k w_k."""
    series = np.array(_unit_series(m, h))[:, :_ROW_K + 1]
    terms = np.zeros((5, _ROW_K + 1, 4))
    terms[:, :series.shape[1]] = series
    return terms.reshape(5, -1)


def _step_map(m, h, vin, node_hi, rect, n, Vf):
    """The cached maps of one mode over a step of length h.

    Returns (D by rows, q, src, dio): x(h) = x + D x + q, and the step's
    source energy src . (x, 1) while the node is high and diode loss
    dio . (x, 1) while a diode conducts (None otherwise).  Column j of
    D and of the integral map is the series of the unit state e_j with the
    inputs off; q and the input column are the series of b from rest.
    """
    cols = []
    int0 = []
    int2 = []
    for w in _unit_series(m, h):
        d0 = d1 = d2 = d3 = 0.0
        for k in range(len(w) - 1, 0, -1):
            c = w[k]
            d0 += c[0]
            d1 += c[1]
            d2 += c[2]
            d3 += c[3]
        cols.append((d0, d1, d2, d3))
        i0, i2 = _integrals(w, 1.0, h)
        int0.append(i0)
        int2.append(i2)
    rows = tuple(cols[j][i] for i in range(4) for j in range(4))
    q = cols[4]
    src = tuple(vin * v for v in int0) if node_hi == 1 else None
    dio = None
    if rect != RECT_OFF and Vf != 0.0:
        f = Vf * n if rect == RECT_D1 else -Vf * n
        dio = tuple(f * (a - b) for a, b in zip(int0, int2))
    return rows, q, src, dio


def _peval(P, s):
    """Polynomial sum_k P[k] s^k and its derivative at s."""
    p = P[-1]
    dp = 0.0
    for k in range(len(P) - 2, -1, -1):
        dp = dp * s + p
        p = p * s + P[k]
    return p, dp


def _root(P, lo, hi, side, tol, p_lo, p_hi):
    """The zero of polynomial P inside (lo, hi], approached from its far side.

    side * P <= 0 at lo and > 0 at hi (values p_lo, p_hi).  Newton steps
    from a secant start, replaced by bisection where a step would leave the
    bracket or not halve the one before it (as in Numerical Recipes'
    rtsafe); once a step is shorter than tol/2 the next probe goes tol/2
    across the zero, so the bracket closes.  Returns (s, iterations), s the
    bracket end with side * P > 0 once the bracket is within tol, or
    (-1.0, iterations) after ``LOC_MAX``.
    """
    it = 0
    s = 0.5 * (lo + hi)
    if p_lo != p_hi:
        guess = lo + (hi - lo) * (p_lo / (p_lo - p_hi))
        if lo < guess < hi:
            s = guess
    step = hi - lo
    while True:
        if it >= LOC_MAX:
            return -1.0, it
        p, dp = _peval(P, s)
        it += 1
        if side * p > 0.0:
            hi = s
        else:
            lo = s
        if hi - lo <= tol:
            break
        last = step
        step = p / dp if dp != 0.0 else math.inf
        if abs(step) < 0.5 * tol:
            nxt = s + 0.5 * tol if s == lo else s - 0.5 * tol
        else:
            nxt = s - step
        if not lo < nxt < hi or abs(2.0 * step) > abs(last):
            step = 0.5 * (hi - lo)
            nxt = lo + step
            if not lo < nxt < hi:
                break  # float exhaustion: the bracket cannot shrink further
        s = nxt
    return hi, it


def _crossing(slot, side, ga, gb, da, db, w, xb, tol):
    """Where event ``slot`` fires inside a step, as a fraction of it.

    w holds the step's Taylor terms (w[0] its start state), xb its end
    state; ga, gb and da, db are the function's values and slopes at the
    ends.  Within rounding of its threshold a function counts as on it: it
    fires only from there or short of it, and only once it ends clear past
    it, or once its extremum inside the step lies clear past it (a graze).
    Returns (s, iterations): s the located fraction, -2.0 when the slot
    does not fire, or -1.0 when localization failed.
    """
    _, c0, c1, c2, c3, d, _ = slot
    if side * ga > 0.0 and side * ga > _noise(c0, c1, c2, c3, d, *w[0]):
        return -2.0, 0
    P = [c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 for u0, u1, u2, u3 in w]
    P[0] = ga
    it = 0
    lo_end = 1.0
    if side * gb <= 0.0 or side * gb <= _noise(c0, c1, c2, c3, d, *xb):
        if not (side * da > 0.0 and side * db < 0.0):
            return -2.0, 0
        dP = [k * P[k] for k in range(1, len(P))]
        lo_end, it = _root(dP, 0.0, 1.0, -side, _EXT_TOL, da, db)
        gb = _peval(P, lo_end)[0]
        if side * gb <= _noise(c0, c1, c2, c3, d, *w[0]):
            return -2.0, it
    s, it2 = _root(P, 0.0, lo_end, side, tol, ga, gb)
    return s, it + it2


def _crests(w, s, ra, rb, peaks):
    """The running peaks |x_j|, raised by the extremum inside (0, s) of each
    component whose rate goes from ra[j] to rb[j] of the other sign."""
    return tuple(max(p, _extremum(w, j, s, a, b)) if a * b < 0.0 else p
                 for j, (p, a, b) in enumerate(zip(peaks, ra, rb)))


def _transition(sid, g_start, rect, clamp_hi, vsw, sink, iLr, vCr, iLm,
                vOut, vin, Lr, Lm, n, Vf, load_kind, load_val):
    """The mode after event slot ``sid`` fires at state x.

    Returns (rect, clamp_hi, vsw, sink, iLm, vOut, codes): the new mode,
    the resets it imposes (iLm = iLr when a diode turns off, vOut = 0 when
    the sink starts holding it) and the event codes to log, the event's own
    and then a settle's turn-on; a sink's mode change logs none.  g_start
    is the function's value at the step start.
    """
    codes = []
    if sid == 0:
        if rect == RECT_OFF:
            rect = RECT_D1
            codes.append(EV_D1_ON)
        else:
            codes.append(EV_D1_OFF if rect == RECT_D1 else EV_D2_OFF)
            rect = RECT_OFF
            iLm = iLr  # series constraint is exact at turn-off
    elif sid == 1:
        rect = RECT_D2
        codes.append(EV_D2_ON)
    elif sid == 2:
        # node swaps rails when iLr reverses during dead time
        clamp_hi = 1 if g_start > 0.0 else 0
        codes.append(EV_CLAMP_HIGH if clamp_hi == 1 else EV_CLAMP_LOW)
        vsw = vin if clamp_hi == 1 else 0.0
    elif sink == SINK_ON:
        vOut = 0.0  # the sink holds the output at ground
    if codes:
        # the new Off state may sit past the other clamp already
        rect, code = _settle(rect, vCr, vOut, vsw, Lr, Lm, n, Vf)
        if code != 0:
            codes.append(code)
    if sid == 3 and sink == SINK_HELD:
        sink = SINK_ON  # the rectifier lifts the output
    else:
        sink = _settle_sink(rect, iLr, iLm, vOut, n, load_kind, load_val)
    return rect, clamp_hi, vsw, sink, iLm, vOut, codes


def _extremum(w, j, s_end, ra, rb):
    """|x_j| at the extremum inside (0, s_end), where its rate goes from ra
    to rb of the other sign."""
    dP = [k * w[k][j] for k in range(1, len(w))]
    s, _ = _root(dP, 0.0, s_end, 1.0 if rb > 0.0 else -1.0, _EXT_TOL, ra, rb)
    return abs(_peval([c[j] for c in w], s)[0])


def _noise(c0, c1, c2, c3, d, x0, x1, x2, x3):
    """Rounding bound on an event function c . x + d at state x."""
    return _NOISE * (abs(c0 * x0) + abs(c1 * x1) + abs(c2 * x2) + abs(c3 * x3)
                     + abs(d))


def _settle(rect, vCr, vOut, vsw, Lr, Lm, n, Vf):
    """Close a diode the open rectifier already sits past.

    A gate edge, the caller's clamp choice or a transition can leave the
    open-rectifier magnetizing voltage beyond a clamp threshold.  Returns
    (rect, code): the new phase and its turn-on event code, or the phase
    unchanged and 0.
    """
    if rect == RECT_OFF:
        kq = Lm / (Lr + Lm)
        nv = n * Vf
        if -kq * vCr - n * vOut + (kq * vsw - nv) > 0.0:
            return RECT_D1, EV_D1_ON
        if kq * vCr - n * vOut + (-kq * vsw - nv) > 0.0:
            return RECT_D2, EV_D2_ON
    return rect, 0


def _settle_sink(rect, iLr, iLm, vOut, n, load_kind, load_val):
    """The sink state a current-sink load takes at this state."""
    if load_kind == LOAD_RES:
        return SINK_NONE
    if vOut > 0.0:
        return SINK_ON
    if rect == RECT_D1 and n * (iLr - iLm) > load_val:
        return SINK_ON
    if rect == RECT_D2 and n * (iLm - iLr) > load_val:
        return SINK_ON
    return SINK_HELD


def _span_load(rect, e_src, e_dio, cap0, tank0, iLr, vCr, iLm, vOut,
               Lr, Cr, Lm, Cout):
    """Load energy over a span of one rectifier phase.

    The output capacitor gives it as the rectifier's output energy less
    the capacitor's gain (cap0: its energy at the span start).  An open
    rectifier delivers nothing; a conducting one delivers the source energy
    less the diode loss and the tank's gain (tank0: the energy in Lr, Cr
    and Lm at the span start), by the mode's own energy balance.
    """
    e = cap0 - 0.5 * Cout * vOut * vOut
    if rect != RECT_OFF:
        e += e_src - e_dio - (0.5 * (Lr * iLr * iLr + Cr * vCr * vCr
                                     + Lm * iLm * iLm) - tank0)
    return e


def _put_event(ev, ev_n, t, code):
    """Append (t, code) to the event log; the new count, or -1 when full."""
    if ev_n >= ev.shape[0]:
        return -1
    ev[ev_n, 0] = t
    ev[ev_n, 1] = code
    return ev_n + 1


def _put_row(rec, rec_n, t, iLr, vCr, iLm, vOut, vsw, rect, seg_kind,
             iout):
    """Record the state at t; the new row count, or -1 when full.

    A row already holding the same instant is overwritten, so the row
    written last (post-transition mode) wins.
    """
    if rec_n > 0 and rec[rec_n - 1, 0] == t:
        r = rec_n - 1
    elif rec_n >= rec.shape[0]:
        return -1
    else:
        r = rec_n
        rec_n += 1
    rec[r] = (t, iLr, vCr, iLm, vOut, vsw, iout, rect, seg_kind)
    return rec_n


def _grid_rows(t0, dt, k, stride, n_cells, t_end):
    """How many of the grid rows t0 + dt k, t0 + dt (k + stride), ...
    (indices below n_cells) lie at or before t_end; the first one does."""
    top = (n_cells - 1 - k) // stride
    j = min(top, max(0, int(((t_end - t0) / dt - k) / stride)))
    while j < top and t0 + dt * (k + (j + 1) * stride) <= t_end:
        j += 1
    while j > 0 and t0 + dt * (k + j * stride) > t_end:
        j -= 1
    return j + 1


def _put_grid_rows(rec, blocks, t0, dt, k, stride, cap, seg_kind, n,
                   load_kind, load_val):
    """Write the grid rows t0 + dt k, t0 + dt (k + stride), ... of a call.

    Each block (row, t_a, (x, 1), count, m, vsw, rect, sink) holds the next
    ``count`` of them, from rec row ``row`` on, inside one step of mode m
    that starts at t_a from state x; each row is the step's Taylor series
    at its own instant.  A few rows are summed in plain Python from the
    series over t_a to the block's last row; more go through numpy at
    once, the terms of every block from its mode's ``_row_terms`` over the
    step cap, x(t_a + tau) = sum_k (tau / cap)^k w_k.
    """
    total = sum(b[3] for b in blocks)
    if total <= _ROWS_SCALAR:
        for r, ta, x, cnt, m, vsw, rect, sink in blocks:
            h = t0 + dt * (k + (cnt - 1) * stride) - ta
            w = _series(*x[:4], m[7], m[8], m[9], h, m)
            for i in range(cnt):
                t = t0 + dt * k
                k += stride
                x0, x1, x2, x3 = _at(w, (t - ta) / h)
                rec[r + i] = (t, x0, x1, x2, x3, vsw,
                              _iout(sink, rect, x0, x2, x3, n, load_kind,
                                    load_val),
                              rect, seg_kind)
        return
    rows, ta, xs, cnt, ms, vsw, rect, sink = zip(*blocks)
    for m in ms:
        if m[14] is None:
            m[14] = _row_terms(m, cap)
    # each block's terms, (x, 1) . T of its mode
    w = np.matmul(np.array(xs)[:, None, :], np.array([m[14] for m in ms]))
    w = w.reshape(len(blocks), _ROW_K + 1, 4)
    t = t0 + dt * np.arange(k, k + stride * total, stride)
    # the powers of s = tau / cap, one row per power, doubling the filled
    # rows each time
    p = np.empty((_ROW_K + 1, total))
    p[0] = 1.0
    p[1] = (t - np.repeat(ta, cnt)) / cap
    j = 1
    while j < _ROW_K:
        c = min(j, _ROW_K - j)
        np.multiply(p[1:c + 1], p[j], out=p[j + 1:j + c + 1])
        j += c
    out = np.empty((total, REC_COLS))
    a = 0
    for j, c in enumerate(cnt):
        out[a:a + c, 1:5] = p[:, a:a + c].T @ w[j]
        a += c
    out[:, 0] = t
    out[:, 5] = np.repeat(vsw, cnt)
    if load_kind == LOAD_RES:
        out[:, 6] = out[:, 4] / load_val
    else:
        held = [sk == SINK_HELD and rc != RECT_OFF
                for sk, rc in zip(sink, rect)]
        level = [0.0 if sk == SINK_HELD else load_val for sk in sink]
        out[:, 6] = np.where(np.repeat(held, cnt),
                             n * np.abs(out[:, 1] - out[:, 3]),
                             np.repeat(level, cnt))
    out[:, 7] = np.repeat(rect, cnt)
    out[:, 8] = seg_kind
    a = 0
    for r, c in zip(rows, cnt):
        rec[r:r + c] = out[a:a + c]
        a += c


def _quantize(h):
    """h rounded to ``_Q_BITS`` mantissa bits."""
    f, e = math.frexp(h)
    return math.ldexp(round(f * (1 << _Q_BITS)), e - _Q_BITS)


def integrate_segment(iLr, vCr, iLm, vOut, t0, t1, seg_kind, clamp_hi, rect,
                      vin, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val,
                      dt_max, tol_t, stride, rec, rec_n, ev, ev_n, acc,
                      maps=None):
    """Advance one constant-gate span [t0, t1] with event handling.

    The span is split into ceil(span / H) equal steps, whatever is
    recorded.  rec is a (cap, 9) float64 record buffer filled from row
    ``rec_n``; ev a (cap, 2) event log (t, code).  Rows are written at t0,
    at the grid instants t0 + dt (k + 1) for k % stride == 0 (dt = span /
    ceil(span / dt_max)), at every event and at t1.  A grid row comes from
    the Taylor terms of the step it falls in (``_put_grid_rows``), so the
    record never changes the steps taken; rows at events and at t1 hold
    the state the steps carry.  acc[0] accumulates source energy, acc[1]
    load energy and acc[2] diode loss, once the call completes; a call that
    stops early leaves acc as it was.  maps is the propagator cache; pass
    the same dict to every call of one run (a fresh one when None).
    Returns

        (err, rec_n, ev_n, rect, clamp_hi,
         iLr, vCr, iLm, vOut, max_iLr, max_vCr, max_iLm, max_vOut,
         steps, loc_iters)

    with err one of the ERR_* codes, steps the propagation steps taken and
    loc_iters the root-search iterations spent locating events; on err != 0
    the state is whatever was reached and the caller is expected to abort,
    or to grow the full buffer (ERR_RECORD_FULL, ERR_EVENT_FULL) and run the
    span again.
    """
    if maps is None:
        maps = {}
    err = ERR_OK
    steps = 0
    loc_iters = 0
    is_dead = seg_kind == SEG_DEAD_TO_LOW or seg_kind == SEG_DEAD_TO_HIGH
    if seg_kind == SEG_HIGH:
        node_hi = 1
    elif seg_kind == SEG_LOW:
        node_hi = 0
    else:
        node_hi = clamp_hi
    vsw = vin if node_hi == 1 else 0.0

    max_ilr = abs(iLr)
    max_vcr = abs(vCr)
    max_ilm = abs(iLm)
    max_vout = abs(vOut)

    # entry settle, then the segment entry row (overwrites a sample left at
    # the same t)
    rect, code = _settle(rect, vCr, vOut, vsw, Lr, Lm, n, Vf)
    sink = _settle_sink(rect, iLr, iLm, vOut, n, load_kind, load_val)
    if code != 0:
        j = _put_event(ev, ev_n, t0, code)
        if j < 0:
            err = ERR_EVENT_FULL
        else:
            ev_n = j
    if err == ERR_OK:
        j = _put_row(rec, rec_n, t0, iLr, vCr, iLm, vOut, vsw, rect,
                     seg_kind, _iout(sink, rect, iLr, iLm, vOut, n,
                                     load_kind, load_val))
        if j < 0:
            err = ERR_RECORD_FULL
        else:
            rec_n = j

    span = t1 - t0
    count = 0
    n_cells = 0
    dt = hp = hq = cap = 0.0
    if err == ERR_OK and span > 0.0:
        n_cells = max(1, int(math.ceil(span / dt_max)))
        dt = span / n_cells
        cap = _step_cap(maps, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind,
                        load_val)
        count = max(1, int(math.ceil(span / cap)))
        hp = span / count
        hq = _quantize(hp)
    # the grid rows t0 + dt k for k = 1, 1 + stride, ... below n_cells: k_row
    # is the next one's index and t_row its instant (inf past the last).
    # Each step reserves the rows it holds as a block; they are written at
    # the end, and then the event rows, each over a row at its own instant
    k_row = 1
    t_row = t0 + dt * k_row if k_row < n_cells else math.inf
    while t_row <= t0:  # a grid below t0's resolution
        k_row += stride
        t_row = t0 + dt * k_row if k_row < n_cells else math.inf
    k_first = k_row
    blocks = []
    ev_rows = []
    t_last = t0  # the instant of the last row

    # per-mode quantities, refreshed at entry and after each transition:
    # the mode record, its step map, the rate and the event-function
    # values and slopes at the current state
    stale = True
    m = None
    mmaps = None
    slots = ()
    g_a = []
    d_a = []
    r0 = r1 = r2 = r3 = 0.0
    a01 = a03 = a10 = a21 = a23 = a30 = a33 = b0 = b2 = b3 = 0.0
    hq_map = -1.0
    d00 = d01 = d02 = d03 = d10 = d11 = d12 = d13 = 0.0
    d20 = d21 = d22 = d23 = d30 = d31 = d32 = d33 = 0.0
    q0 = q1 = q2 = q3 = 0.0
    src = dio = None
    # the source energy and diode loss per unit integral of iLr and of
    # the secondary's primary-side current iLr - iLm, in the current mode
    f_src = f_dio = 0.0
    # energy of this call, added to acc once at the end, and of the span
    # since the last transition (see ``_span_load``)
    e_src = e_load = e_dio = 0.0
    sp_src = sp_dio = 0.0
    sp_cap = 0.5 * Cout * vOut * vOut
    sp_tank = 0.5 * (Lr * iLr * iLr + Cr * vCr * vCr + Lm * iLm * iLm)

    t_cur = t0
    for i in range(count):
        t_b = t1 if i == count - 1 else t0 + hp * (i + 1)
        full = True  # the step starts on its lattice point
        guard = 0
        while t_cur < t_b:
            if stale:
                m = _mode_of(maps, rect, node_hi, sink, vin, Lr, Cr, Lm,
                             n, Vf, Cout, load_kind, load_val)
                a01, a03, a10, a21, a23, a30, a33, b0, b2, b3 = m[:10]
                slots = m[12] if is_dead else m[11]
                mmaps = m[13]
                hq_map = -1.0
                f_src = vin if node_hi == 1 else 0.0
                f_dio = 0.0
                if rect == RECT_D1:
                    f_dio = Vf * n
                elif rect == RECT_D2:
                    f_dio = -Vf * n
                r0 = a01 * vCr + a03 * vOut + b0
                r1 = a10 * iLr
                r2 = a21 * vCr + a23 * vOut + b2
                r3 = a30 * (iLr - iLm) + a33 * vOut + b3
                g_a = [c0 * iLr + c1 * vCr + c2 * iLm + c3 * vOut + d
                       for _, c0, c1, c2, c3, d, _ in slots]
                d_a = [c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3
                       for _, c0, c1, c2, c3, _, _ in slots]
                stale = False
            w = None
            h = t_b - t_cur
            if full:
                if hq_map != hq:
                    mp = mmaps.get(hq)
                    if mp is None:
                        if len(mmaps) >= _MAPS_MAX:
                            mmaps.clear()
                        mp = _step_map(m, hq, vin, node_hi, rect, n, Vf)
                        mmaps[hq] = mp
                    ((d00, d01, d02, d03, d10, d11, d12, d13,
                      d20, d21, d22, d23, d30, d31, d32, d33),
                     (q0, q1, q2, q3), src, dio) = mp
                    hq_map = hq
                ni = iLr + (d00 * iLr + d01 * vCr + d02 * iLm
                            + d03 * vOut + q0)
                nc = vCr + (d10 * iLr + d11 * vCr + d12 * iLm
                            + d13 * vOut + q1)
                nm = iLm + (d20 * iLr + d21 * vCr + d22 * iLm
                            + d23 * vOut + q2)
                no = vOut + (d30 * iLr + d31 * vCr + d32 * iLm
                             + d33 * vOut + q3)
                de_src = de_dio = 0.0
                if src is not None:
                    de_src = (src[0] * iLr + src[1] * vCr + src[2] * iLm
                              + src[3] * vOut + src[4])
                if dio is not None:
                    de_dio = (dio[0] * iLr + dio[1] * vCr + dio[2] * iLm
                              + dio[3] * vOut + dio[4])
            else:
                # the rest of a step after an event
                w = _series(iLr, vCr, iLm, vOut, b0, b2, b3, h, m)
                ni, nc, nm, no = _at(w, 1.0)
                i0, i2 = _integrals(w, 1.0, h)
                de_src = f_src * i0
                de_dio = f_dio * (i0 - i2)
            steps += 1
            rb0 = a01 * nc + a03 * no + b0
            rb1 = a10 * ni
            rb2 = a21 * nc + a23 * no + b2
            rb3 = a30 * (ni - nm) + a33 * no + b3
            if full:
                # the map spans hq: carry the state and the integrals on
                # to h by the rate there (the rates, which only signal
                # sign changes, keep a relative error of dh rho)
                dh = h - hq
                ni += dh * rb0
                nc += dh * rb1
                nm += dh * rb2
                no += dh * rb3
                de_src += dh * f_src * ni
                de_dio += dh * f_dio * (ni - nm)

            # events: a sign change across the step, or a graze inside it
            g_b = [c0 * ni + c1 * nc + c2 * nm + c3 * no + d
                   for _, c0, c1, c2, c3, d, _ in slots]
            d_b = [c0 * rb0 + c1 * rb1 + c2 * rb2 + c3 * rb3
                   for _, c0, c1, c2, c3, _, _ in slots]
            hit = -1
            s_hit = 2.0
            for j in range(len(slots)):
                ga = g_a[j]
                gb = g_b[j]
                db = d_b[j]
                side = slots[j][6]
                if side == 0.0:
                    side = -1.0 if ga > 0.0 else 1.0 if ga < 0.0 else 0.0
                if side * gb <= 0.0 and not (side * d_a[j] > 0.0
                                             and side * db < 0.0):
                    continue  # nothing to look for (or no side yet)
                if w is None:
                    w = _series(iLr, vCr, iLm, vOut, b0, b2, b3, h, m)
                s_j, it = _crossing(slots[j], side, ga, gb, d_a[j], db,
                                    w, (ni, nc, nm, no), tol_t / h)
                loc_iters += it
                if s_j == -1.0:
                    err = ERR_EVENT_LOC
                    break
                if 0.0 <= s_j < s_hit:
                    s_hit = s_j
                    hit = j
            if err != ERR_OK:
                break

            # the step, or its part before the event, ends at t_end; the
            # grid rows in it follow from its start state in this mode
            t_end = t_b
            if hit >= 0:
                t_end = t_cur + s_hit * h
                if t_end > t_b:
                    t_end = t_b
            if t_row <= t_end:
                c = _grid_rows(t0, dt, k_row, stride, n_cells, t_end)
                if rec_n + c > rec.shape[0]:
                    err = ERR_RECORD_FULL
                    break
                blocks.append((rec_n, t_cur, (iLr, vCr, iLm, vOut, 1.0), c,
                               m, vsw, rect, sink))
                rec_n += c
                k_row += c * stride
                t_last = t0 + dt * (k_row - stride)
                t_row = t0 + dt * k_row if k_row < n_cells else math.inf

            if hit < 0:
                # accepted step: energy, extrema, invariants
                sp_src += de_src
                sp_dio += de_dio
                if r0 * rb0 < 0.0 or r1 * rb1 < 0.0 or r2 * rb2 < 0.0 \
                        or r3 * rb3 < 0.0:
                    if w is None:
                        w = _series(iLr, vCr, iLm, vOut, b0, b2, b3, h, m)
                    max_ilr, max_vcr, max_ilm, max_vout = _crests(
                        w, 1.0, (r0, r1, r2, r3), (rb0, rb1, rb2, rb3),
                        (max_ilr, max_vcr, max_ilm, max_vout))
                iLr, vCr, iLm, vOut = ni, nc, nm, no
                r0, r1, r2, r3 = rb0, rb1, rb2, rb3
                g_a = g_b
                d_a = d_b
                t_cur = t_b
                if abs(iLr) > max_ilr:
                    max_ilr = abs(iLr)
                if abs(vCr) > max_vcr:
                    max_vcr = abs(vCr)
                if abs(iLm) > max_ilm:
                    max_ilm = abs(iLm)
                if abs(vOut) > max_vout:
                    max_vout = abs(vOut)
                bad = False
                if rect == RECT_D1 and n * (iLr - iLm) < -I_TOL:
                    bad = True
                elif rect == RECT_D2 and n * (iLm - iLr) < -I_TOL:
                    bad = True
                if vOut < -V_TOL:
                    bad = True
                if bad:
                    err = ERR_MODE_VIOLATION
                    break
                continue

            # advance to the earliest located event
            s = s_hit
            i0, i2 = _integrals(w, s, h)
            sp_src += f_src * i0
            sp_dio += f_dio * (i0 - i2)
            max_ilr, max_vcr, max_ilm, max_vout = _crests(
                w, s, (r0, r1, r2, r3), _rate_at(w, s, h),
                (max_ilr, max_vcr, max_ilm, max_vout))
            iLr, vCr, iLm, vOut = _at(w, s)
            if abs(iLr) > max_ilr:
                max_ilr = abs(iLr)
            if abs(vCr) > max_vcr:
                max_vcr = abs(vCr)
            if abs(iLm) > max_ilm:
                max_ilm = abs(iLm)
            if abs(vOut) > max_vout:
                max_vout = abs(vOut)
            e_load += _span_load(rect, sp_src, sp_dio, sp_cap, sp_tank,
                                 iLr, vCr, iLm, vOut, Lr, Cr, Lm, Cout)
            e_src += sp_src
            e_dio += sp_dio
            t_ev = t_end
            t_cur = t_ev
            full = False
            stale = True

            # apply the transition; a logged one also records the instant
            # with the post-transition mode
            rect, clamp_hi, vsw, sink, iLm, vOut, codes = _transition(
                slots[hit][0], g_a[hit], rect, clamp_hi, vsw, sink,
                iLr, vCr, iLm, vOut, vin, Lr, Lm, n, Vf, load_kind, load_val)
            if is_dead:
                node_hi = clamp_hi
            for code in codes:
                j = _put_event(ev, ev_n, t_ev, code)
                if j < 0:
                    err = ERR_EVENT_FULL
                    break
                ev_n = j
            if err != ERR_OK:
                break
            if codes:
                r = rec_n - 1 if t_last == t_ev else rec_n
                if r == rec_n:
                    if rec_n >= rec.shape[0]:
                        err = ERR_RECORD_FULL
                        break
                    rec_n += 1
                ev_rows.append((r, (t_ev, iLr, vCr, iLm, vOut, vsw,
                                    _iout(sink, rect, iLr, iLm, vOut, n,
                                          load_kind, load_val),
                                    rect, seg_kind)))
                t_last = t_ev

            sp_src = sp_dio = 0.0
            sp_cap = 0.5 * Cout * vOut * vOut
            sp_tank = 0.5 * (Lr * iLr * iLr + Cr * vCr * vCr + Lm * iLm * iLm)

            guard += 1
            if guard > EVENT_GUARD:
                err = ERR_CHATTER
                break
        if err != ERR_OK:
            break

    if blocks:
        _put_grid_rows(rec, blocks, t0, dt, k_first, stride, cap, seg_kind,
                       n, load_kind, load_val)
    for r, row in ev_rows:
        rec[r] = row
    if err == ERR_OK and count > 0:
        j = _put_row(rec, rec_n, t1, iLr, vCr, iLm, vOut, vsw, rect, seg_kind,
                     _iout(sink, rect, iLr, iLm, vOut, n, load_kind, load_val))
        if j < 0:
            err = ERR_RECORD_FULL
        else:
            rec_n = j
    if err == ERR_OK:
        e_load += _span_load(rect, sp_src, sp_dio, sp_cap, sp_tank,
                             iLr, vCr, iLm, vOut, Lr, Cr, Lm, Cout)
        acc[0] += e_src + sp_src
        acc[1] += e_load
        acc[2] += e_dio + sp_dio
    return (err, rec_n, ev_n, rect, clamp_hi,
            iLr, vCr, iLm, vOut, max_ilr, max_vcr, max_ilm, max_vout,
            steps, loc_iters)
