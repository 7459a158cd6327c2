"""Exact piecewise-linear integration kernel for the switched LLC power stage.

The kernel steps the stage's modes through one span of constant gate
state and finds where one mode gives way to the next.  What a mode is, its
A and b, its event functions, what it fixes, its Taylor table and its step
maps, is the business of :mod:`llckit.modes`; the kernel reads the mode
record's fields by name.

Since a step is exact at any length, the length is set by event detection
alone: a span is split into ceil(span / H) equal steps, whatever is
recorded, H the step cap (``modes._step_cap``).  On the reference tank H
is 1.19 us, so a switching period at 110 kHz takes ten steps, and one more
for the rest of each step an event cuts short: 12 into 24 ohm, 14 at
0.1 A.

Waveform rows on the record grid never end a step, and a call does not
evaluate them: it hands back its row plan, the rows at its entry, its
events and its end, and for each step the grid rows that fall in it with
the step's start, state and mode.  ``build_rows`` turns the plans of a
whole run into its record in one numpy pass: each grid row is the Taylor
series of its step, from the mode's table, summed at its own instant by
Horner's rule.  Its numpy calls grow with the run's modes and chunks of
rows, not with its calls, and each row depends on its own step alone.
The state carried from step to step is the map's, so what is recorded
cannot move the trajectory.

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
extremum lies past it).  A turn-back is looked at only where a bound on
the function over the step can pass the threshold, and the bound needs no
Taylor series (``modes._tail``): from the step's start state x, its rate
r = A x + b, its length h and the mode's rho, the terms past the linear one
add at most |D r| (e^(rho h) - 1 - rho h) / rho sum_j |c_j| / D_j to
c . x, D the energy scaling of ``modes.Mode``.  So a vOut ripple minimum
near 12 V, turning back far above the sink's 0 V, costs neither a series
nor a search.  The located instant lies on the fired side, within tol_t of
the crossing.  When several fire inside one step the earliest located one
is applied; a tie goes to the one listed first.

Source energy (the node voltage times the integral of iLr) and diode loss
come from integral maps.  The load energy of each span between
transitions follows from the output capacitor, whose rectifier input is,
while a diode conducts, the source energy less the diode loss and the
tank's gain (``_span_load``).  The peaks per component include the extrema
inside a step, where the component's rate changes sign.  The kernel only
steps: a call queues these crests as candidates in the caller's list (the
step's Taylor terms where it built them for an event, else the start
state, length and mode to build them from) and returns the peaks of its
step ends, which are all the steady-state solvers read.  A caller that
needs an exact peak, as the closed loop does the iLr one, locates the
crests with the bounds of ``_reach`` and the searches of ``_extremum``,
in one place (``sim.PeriodPeaks.exact``).  A search that runs out of
``LOC_MAX`` iterations, for a crest or a turn-back, is a localization
failure.

Gate transitions are segment boundaries handled by the caller; each call
integrates one span of constant gate state and hands back what it wrote:
its row plan, its events appended to the caller's list, and its source,
load and diode energy.  A record stride of 0 plans no rows at all.  The
stepping is scalar float64 arithmetic in a fixed order, and each row's
numpy arithmetic is fixed by its own step, so equal inputs give equal
bits.

A call works in the caller's local time, a switching period's from its
start, and adds ``base`` only to the times it reports: event times and
row times.  So a span's steps, and the step maps they reuse, depend on
its local bounds alone, and the same period gives the same bits whenever
it starts.  A whole step is taken as the call's step length hp long,
though its bounds, rounded in local time, may lie an ulp of the period
further apart or closer, which moves the state by about its own rounding.

On request a call also carries the sensitivity S = dx/dx0 of the state to
an earlier one, as a 4x4 array: the derivative of the map the steps
compute (the shooting method of Aprille & Trick, Proc. IEEE 1972).  Every
step, whole or a part of length tau, multiplies it by Phi(tau) = exp(A tau)
(``modes._phi``), and a state event, whose instant moves with x0, by its
saltation matrix (``modes._saltation``).  Gate edges and the entry settle
sit at fixed instants and leave S alone.  Without the request a step's
arithmetic is the same, at the cost of one branch.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import (
    LOAD_RES, RECT_D1, RECT_D2, RECT_OFF, SINK_HELD, SINK_NONE, SINK_ON,
    _MAPS_MAX, _ROW_K, _SLACK, _TINY, _iout, _mode_of, _node_voltage, _phi,
    _rate, _saltation, _series, _step_cap, _step_map, _tail, _terms)

# switch-phase segments, in the order they occur inside one period
SEG_HIGH = 0
SEG_DEAD_TO_LOW = 1
SEG_LOW = 2
SEG_DEAD_TO_HIGH = 3
# kernel error codes
ERR_OK = 0
ERR_EVENT_LOC = 1
ERR_CHATTER = 2
ERR_MODE_VIOLATION = 3
# event codes (appended to the event log)
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

# invariant slack: events are located far tighter than this, so a breach
# means a genuinely missed transition
I_TOL = 1e-6  # A
V_TOL = 1e-3  # V
EVENT_GUARD = 16
LOC_MAX = 100  # root-search iterations before a localization failure
# an event function's extremum is located to this fraction of a step
_EXT_TOL = 2.0 ** -30
# an event function within this fraction of its terms' magnitude of its
# threshold counts as on it
_NOISE = 2.0 ** -50
# grid rows, and grid blocks, that ``build_rows`` evaluates at once: its
# temporaries stay within about 1 MB
_ROW_CHUNK = 1024
_BLOCK_CHUNK = 256

# record row layout
REC_COLS = 9  # t, iLr, vCr, iLm, vOut, vsw, iload, rect, seg

def _values(w, s, h):
    """The state x(s h) and the integrals of iLr and iLm over [0, s h]
    from the Taylor terms, summed by Horner's rule in one pass: the state
    from w_n, and the integrals from 0 with weights 1 / (k + 1), each as a
    pass of its own would sum it.  Returns (x0, x1, x2, x3, i0, i2); at
    s = 1 ``_values_end`` gives the same bits."""
    k = len(w) - 1
    x0, x1, x2, x3 = w[k]
    r = 1.0 / (k + 1)
    i0 = 0.0 * s + r * x0
    i2 = 0.0 * s + r * x2
    for c0, c1, c2, c3 in w[-2:0:-1]:
        k -= 1
        x0 = x0 * s + c0
        x1 = x1 * s + c1
        x2 = x2 * s + c2
        x3 = x3 * s + c3
        r = 1.0 / (k + 1)
        i0 = i0 * s + r * c0
        i2 = i2 * s + r * c2
    c0, c1, c2, c3 = w[0]
    return (x0 * s + c0, x1 * s + c1, x2 * s + c2, x3 * s + c3,
            (i0 * s + c0) * s * h, (i2 * s + c2) * s * h)


def _values_end(w, h):
    """``_values(w, 1.0, h)``, the state and integrals at the step's end,
    bit for bit without its products by s = 1, which are exact.  The
    integrals start from 0.0 + r x as there, so a sum of signed zeros
    comes out as +0.0 there too."""
    k = len(w) - 1
    x0, x1, x2, x3 = w[k]
    r = 1.0 / (k + 1)
    i0 = 0.0 + r * x0
    i2 = 0.0 + r * x2
    for c0, c1, c2, c3 in w[-2::-1]:
        k -= 1
        x0 += c0
        x1 += c1
        x2 += c2
        x3 += c3
        r = 1.0 / (k + 1)
        i0 += r * c0
        i2 += r * c2
    return x0, x1, x2, x3, i0 * h, i2 * h


def _rates(w, s, h):
    """The rate dx/dt at s h from the Taylor terms, summed by Horner's rule
    from n w_n down to w_1.  Only a crest's resolution needs it, at the end
    of a step an event cut short (``sim.PeriodPeaks``)."""
    k = len(w) - 1
    r0, r1, r2, r3 = (k * c for c in w[k])
    for c0, c1, c2, c3 in w[-2:0:-1]:
        k -= 1
        r0 = r0 * s + k * c0
        r1 = r1 * s + k * c1
        r2 = r2 * s + k * c2
        r3 = r3 * s + k * c3
    return r0 / h, r1 / h, r2 / h, r3 / h


def _peval(P, s):
    """Polynomial sum_k P[k] s^k and its derivative at s."""
    down = reversed(P)
    p = next(down)
    dp = 0.0
    for c in down:
        dp = dp * s + p
        p = p * s + c
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


def _extremum(P, hi, side, a, b):
    """Where polynomial P has its extremum inside (0, hi]: the zero of its
    derivative P', side P' <= 0 at 0 and > 0 at hi (values a and b),
    located to ``_EXT_TOL`` by ``_root``.  Returns (s, iterations), s -1.0
    where the search runs out of iterations."""
    return _root([k * P[k] for k in range(1, len(P))], 0.0, hi, side,
                 _EXT_TOL, a, b)


def _crossing(slot, side, ga, gb, da, db, w, xb, tol):
    """Where event ``slot`` fires inside a step, as a fraction of it.

    w holds the step's Taylor terms (w[0] its start state), xb its end
    state; ga, gb and da, db are the function's values and slopes at the
    ends.  Within rounding of its threshold a function counts as on it: it
    fires only from there or short of it, and only once it ends clear past
    it, or once its extremum inside the step lies clear past it (a graze).
    The caller skips a turn-back whose series-free bound (``_tail``) stays
    short of the threshold.  Returns (s, iterations): s the located
    fraction, -2.0 when the slot does not fire, or -1.0 when localization
    failed, the extremum's search included.
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
        noise = _noise(c0, c1, c2, c3, d, *w[0])
        lo_end, it = _extremum(P, 1.0, -side, da, db)
        if lo_end < 0.0:
            return -1.0, it
        gb = _peval(P, lo_end)[0]
        if side * gb <= noise:
            return -2.0, it
    s, it2 = _root(P, 0.0, lo_end, side, tol, ga, gb)
    return s, it + it2


def _reach(P, s, side):
    """A bound on side p(u), or on |p(u)| at side 0, for the polynomial
    p(u) = sum_k P[k] u^k on [0, s], s <= 1: the larger end of its linear
    part, plus s^2 sum_(k >= 2) |P[k]|, at least what its higher terms add,
    plus a rounding margin.

    A root search on [0, s] evaluates p by Horner's rule at the point it
    locates, within gamma_(2n) sum_k |P[k]| s^k of the exact value (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 5.1; the degree n
    is at most 19 on steps up to the cap, so within 2^-47 of that sum), and
    the bound's own sums are as close.  So a margin of ``_SLACK`` times the
    bound's size, |P[0]| + |P[1]| s plus the higher terms' part, or
    ``_TINY`` where underflow cuts a relative bound, covers what the search
    could return: where the bound cannot pass a threshold, neither can the
    search, and it need not run.  (An extremum search that runs out of
    ``LOC_MAX`` iterations is a localization failure, and nothing is
    evaluated outside [0, s].)  ``_tail`` gives the higher terms' part
    without the terms, as P[2] of a polynomial [p0, p1, tail] at s = 1.
    """
    tail = sum(map(abs, P[2:])) * s * s
    p0 = P[0]
    p1 = P[1] * s
    if side == 0.0:
        top = max(abs(p0), abs(p0 + p1))
    else:
        top = max(side * p0, side * (p0 + p1))
    return top + tail + (_SLACK * (abs(p0) + abs(p1) + tail) + _TINY)


def _transition(sid, g_start, rect, clamp_hi, node_hi, sink, iLr, vCr, iLm,
                vOut, vin, Lr, Lm, n, Vf, load_kind, load_val):
    """The mode after event slot ``sid`` fires at state x.

    Returns (rect, clamp_hi, sink, iLm, vOut, codes): the new mode, the
    resets it imposes (iLm = iLr when a diode turns off, vOut = 0 when the
    sink starts holding it) and the event codes to log, the event's own and
    then a settle's turn-on; a sink's mode change logs none.  g_start is
    the function's value at the step start, and node_hi the bridge node's
    rail in the mode it fires in.
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
        node_hi = clamp_hi
    elif sink == SINK_ON:
        vOut = 0.0  # the sink holds the output at ground
    if codes:
        # the new Off state may sit past the other clamp already
        rect, code = _settle(rect, vCr, vOut, _node_voltage(node_hi, vin),
                             Lr, Lm, n, Vf)
        if code != 0:
            codes.append(code)
    if sid == 3 and sink == SINK_HELD:
        sink = SINK_ON  # the rectifier lifts the output
    else:
        sink = _settle_sink(rect, iLr, iLm, vOut, n, load_kind, load_val)
    return rect, clamp_hi, sink, iLm, vOut, codes


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


def _put_point(points, rec_n, same, row):
    """Add a point row after the call's last row, or, when it falls at the
    last row's instant (``same``), in its place.  Returns the row count."""
    if not same:
        rec_n += 1
    elif points[-1][0] == rec_n - 1:
        points.pop()  # a point row at that instant: this one replaces it
    points.append((rec_n - 1, row))
    return rec_n


def build_rows(plans):
    """The (rows, ``REC_COLS``) float64 record of the row plans that
    consecutive ``integrate_segment`` calls hand back, in call order.

    A plan is (rows, points, blocks, grid): the call's row count; its point
    rows as (row, values), the entry row, the event rows and the end row;
    its grid blocks as its steps reserve them, (row, t_a, (x, 1), count,
    m): the next ``count`` grid rows from row ``row`` on lie inside one
    step of mode m (whose record gives their node voltage, rectifier phase
    and load current) that starts at t_a from state x; and grid = (t0, dt,
    k_first, stride, cap, seg_kind, base): the call's grid rows sit at
    t0 + dt k for k = k_first, k_first + stride, ... of its local time, and
    are labelled base + that.
    A call's first row replaces the last row of the call before when the
    two share an instant.

    Each grid row is its step's Taylor series at its own instant s cap
    past the step start, x(t_a + s cap) = sum_k s^k w_k, with the step's
    terms w_k = (x, 1) . W from its mode's table over the step cap
    (``_terms``), formed mode by mode, and the sum taken by Horner's rule
    for all the rows at once.  So the numpy calls grow with the modes and
    with the rows over ``_ROW_CHUNK``, not with the calls, and every
    operation on a row is elementwise, so its bits depend on its own step
    alone.  Point rows are written last, over a grid row at their own
    instant.
    """
    n_rows = 0
    at, points, blocks = [], [], []
    table_of = {}  # id of a mode record -> its index in tables
    tables = []  # each mode's Taylor table as (unit state, power, component)
    for rec_n, pts, grid_blocks, grid in plans:
        if at and at[-1] == n_rows - 1 and points[-1][0] == pts[0][1][0]:
            at.pop()
            points.pop()
            n_rows -= 1
        at += [n_rows + r for r, _ in pts]
        points += [row for _, row in pts]
        t0, dt, k, stride, cap, seg_kind, base = grid
        for r, ta, x, cnt, m in grid_blocks:
            if id(m) not in table_of:
                table_of[id(m)] = len(tables)
                tables.append(_terms(m, cap).reshape(5, -1))
            blocks.append((table_of[id(m)], n_rows + r, cnt, k, stride, t0, dt,
                           ta, cap, *x, m.vsw, m.rect, seg_kind, *m.load,
                           base))
            k += cnt * stride
        n_rows += rec_n
    out = np.empty((n_rows, REC_COLS))
    if blocks:
        _put_grid_rows(out, np.array(blocks, dtype=float).T, tables)
    if at:
        out[at] = points
    return out


def _put_grid_rows(out, f, tables):
    """Write the grid rows of the blocks f (by field, then block: see
    ``build_rows``) into the record out."""
    end = np.cumsum(f[2])  # past each block's last grid row
    # grid row r of the run: record row r + f[1], grid index f[3] + r f[4]
    f[1] -= end - f[2]
    f[3] -= (end - f[2]) * f[4]
    for b0 in range(0, f.shape[1], _BLOCK_CHUNK):
        fc = f[:, b0:b0 + _BLOCK_CHUNK]
        ends = end[b0:b0 + _BLOCK_CHUNK]
        # the blocks' terms (x, 1) . W, mode by mode, as (power, component,
        # block)
        w = np.empty((4 * (_ROW_K + 1), fc.shape[1]))
        for g, table in enumerate(tables):
            sel = fc[0] == g
            if sel.any():
                x = fc[9:14, sel]
                wg = table[0][:, None] * x[0]
                for i in range(1, 5):
                    wg += table[i][:, None] * x[i]
                w[:, sel] = wg
        w = w.reshape(_ROW_K + 1, 4, -1)
        for a in range(int(ends[0] - fc[2, 0]), int(ends[-1]), _ROW_CHUNK):
            r = np.arange(a, min(a + _ROW_CHUNK, ends[-1]))
            i = np.searchsorted(ends, r, side="right")
            fb = np.take(fc, i, axis=1)
            rows = np.empty((REC_COLS, r.size))
            rows[0] = fb[5] + fb[6] * (fb[3] + r * fb[4])
            s = (rows[0] - fb[7]) / fb[8]
            rows[0] += fb[20]
            # x(t_a + s cap) by Horner's rule, as ``_values`` sums it
            x = rows[1:5]
            np.take(w[_ROW_K], i, axis=1, out=x)
            for k in range(_ROW_K - 1, -1, -1):
                x *= s
                x += np.take(w[k], i, axis=1)
            rows[5] = fb[14]
            # the load rule (g, c, r) of ``_iout``
            rows[6] = np.where(fb[17] != 0.0,
                               fb[17] * np.abs(x[0] - x[2]), fb[18])
            np.divide(x[3], fb[19], out=rows[6], where=fb[19] != 0.0)
            rows[7:] = fb[15:17]
            out[(r + fb[1]).astype(np.intp)] = rows.T


def integrate_segment(iLr, vCr, iLm, vOut, t0, t1, seg_kind, clamp_hi, rect,
                      vin, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val,
                      dt_max, tol_t, stride, events, crests, maps=None,
                      sens=None, base=0.0):
    """Advance one constant-gate span [t0, t1] with event handling.

    t0 and t1 are local times (a switching period's, from its start), and
    the times the call reports, of its events and rows, are base + t.  The
    span is split into count = ceil(span / H) equal steps of length
    hp = span / count, whatever is recorded; a whole step applies its
    mode's map over hp (``_step_map``), read off the mode's Taylor table and
    cached per mode by hp.  Rows are planned at t0, at the grid instants
    t0 + dt (k + 1) for k % stride == 0 (dt = span / ceil(span / dt_max)),
    at every event and at t1, a later row replacing one at the same
    instant; stride 0 plans no rows at all.  A grid row is planned as the
    step it falls in, and ``build_rows`` sums it from that step's Taylor
    terms, so the record never changes the steps taken; rows at events and
    at t1 hold the state the steps carry.
    Each logged event is appended to the list ``events`` as
    (base + t, code), and each crest candidate to the list ``crests``: one
    per whole step in which a component's rate changes sign and one per
    step an event ends, as (w, s, ra, rb, x, h, m), the step's Taylor terms
    w (None where no event check built them), the fraction s of it taken,
    the rates ra at its start and rb at s (None where an event ended it:
    ``_rates`` gives them from w), its start state x, length h and mode
    record m.
    maps is the cache of mode records, with their tables and step maps;
    pass the same dict to every call of one run (a fresh one when None).

    sens, when given, is a 4x4 array S = dx/dx0: the derivative of the
    state at t0 with respect to some earlier state x0.  The call carries it
    to t1 as the derivative of the map it computes: every step, or part of
    a step, of length tau multiplies it by Phi(tau) from the mode's Taylor
    table (``_phi``), and each state event by its saltation matrix
    (``_saltation``).  The entry settle and the gate edges sit at fixed
    times and move nothing.  Returns

        (err, plan, ev_n, rect, clamp_hi,
         iLr, vCr, iLm, vOut, max_iLr, max_vCr, max_iLm, max_vOut,
         steps, loc_iters, e_src, e_load, e_dio, sens)

    with err one of the ERR_* codes, plan the call's row plan for
    ``build_rows`` (None at stride 0), ev_n the events this call logged,
    max_iLr .. max_vOut the largest values at the entry and the steps'
    ends (the queued crests can raise them), steps the propagation steps
    taken, loc_iters the root-search iterations spent locating events and
    grazes, the source energy, load energy and diode loss of the span, and
    S at t1 (None without sens); on err != 0 the state is whatever was
    reached and the caller is expected to abort.
    """
    if maps is None:
        maps = {}
    err = ERR_OK
    steps = 0
    loc_iters = 0
    ev_0 = len(events)
    is_dead = seg_kind in (SEG_DEAD_TO_LOW, SEG_DEAD_TO_HIGH)
    node_hi = clamp_hi if is_dead else int(seg_kind == SEG_HIGH)

    max_ilr = abs(iLr)
    max_vcr = abs(vCr)
    max_ilm = abs(iLm)
    max_vout = abs(vOut)

    # entry settle, then the segment entry row
    rect, code = _settle(rect, vCr, vOut, _node_voltage(node_hi, vin), Lr,
                         Lm, n, Vf)
    sink = _settle_sink(rect, iLr, iLm, vOut, n, load_kind, load_val)
    m = _mode_of(maps, rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf, Cout,
                 load_kind, load_val)
    if code != 0:
        events.append((base + t0, code))
    rows_on = stride > 0
    points = []  # (row, values) of the entry, event and end rows
    if rows_on:
        points.append((0, (base + t0, iLr, vCr, iLm, vOut, m.vsw,
                           _iout(m, iLr, iLm, vOut), rect, seg_kind)))
    rec_n = 1

    span = t1 - t0
    count = 0
    n_cells = 0
    dt = hp = cap = 0.0
    if span > 0.0:
        n_cells = max(1, int(math.ceil(span / dt_max)))
        dt = span / n_cells
        cap = _step_cap(maps, vin, Lr, Cr, Lm, n, Vf, Cout, load_kind,
                        load_val)
        count = max(1, int(math.ceil(span / cap)))
        hp = span / count
    # the grid rows t0 + dt k for k = 1, 1 + stride, ... below n_cells: k_row
    # is the next one's index (past the grid at stride 0) and t_row its
    # instant (inf past the last).  Each step reserves the rows it holds as
    # a block for ``build_rows``; an event row takes the place of the row
    # at its own instant
    k_row = 1 if stride > 0 else n_cells
    t_row = t0 + dt * k_row if k_row < n_cells else math.inf
    k_first = k_row
    blocks = []
    t_last = t0  # the instant of the last row

    # per-mode quantities (set while stale: at entry and after each
    # transition) of the mode record m: its coefficients, its step map
    # over hp (d.., q.., src and dio, loaded once mapped), the rate r and
    # the event-function values g_a and slopes d_a at the current state
    stale = True
    # energy of this call up to the last transition, and of the span since
    # then (see ``_span_load``)
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
                a01, a03, a10, a21, a23, a30, a33 = m.a
                b0, b2, b3 = m.b
                slots = m.dead_slots if is_dead else m.slots
                mmaps = m.maps
                mapped = False  # the mode's step map over hp is loaded
                r0, r1, r2, r3 = _rate(m, iLr, vCr, iLm, vOut)
                g_a = []
                d_a = []
                for _, c0, c1, c2, c3, d, _ in slots:
                    g_a.append(c0 * iLr + c1 * vCr + c2 * iLm + c3 * vOut + d)
                    d_a.append(c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3)
                stale = False
            w = None
            h = hp if full else t_b - t_cur
            if full:
                if not mapped:
                    mp = mmaps.get(hp)
                    if mp is None:
                        if len(mmaps) >= _MAPS_MAX:
                            mmaps.clear()
                        mp = _step_map(m, hp, cap)
                        mmaps[hp] = mp
                    ((d00, d01, d02, d03, d10, d11, d12, d13,
                      d20, d21, d22, d23, d30, d31, d32, d33),
                     (q0, q1, q2, q3), src, dio) = mp
                    mapped = True
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
                ni, nc, nm, no, i0, i2 = _values_end(w, h)
                de_src = m.vsw * i0
                de_dio = m.dio * (i0 - i2)
            steps += 1
            rb0 = a01 * nc + a03 * no + b0
            rb1 = a10 * ni
            rb2 = a21 * nc + a23 * no + b2
            rb3 = a30 * (ni - nm) + a33 * no + b3

            # events: a sign change across the step, or a graze inside it;
            # the values g_b and slopes d_b at the step's end come first
            g_b = []
            d_b = []
            hit = -1
            s_hit = 2.0
            for j, slot in enumerate(slots):
                _, c0, c1, c2, c3, d, side = slot
                gb = c0 * ni + c1 * nc + c2 * nm + c3 * no + d
                db = c0 * rb0 + c1 * rb1 + c2 * rb2 + c3 * rb3
                g_b.append(gb)
                d_b.append(db)
                ga = g_a[j]
                da = d_a[j]
                if side == 0.0:
                    side = -1.0 if ga > 0.0 else 1.0 if ga < 0.0 else 0.0
                if side * gb <= 0.0 and not (
                        side * da > 0.0 and side * db < 0.0
                        and _reach([ga, h * da, _tail(
                            (r0, r1, r2, r3), h, m) * sum(map(abs, map(
                                float.__truediv__, slot[1:5], m.scales)))],
                            1.0, side) > _noise(c0, c1, c2, c3, d, iLr, vCr,
                                                iLm, vOut)):
                    continue  # nothing to look for, no side yet, or a
                    # turn-back whose bound stays short of the threshold
                if w is None:
                    w = _series(iLr, vCr, iLm, vOut, b0, b2, b3, h, m)
                s_j, it = _crossing(slot, side, ga, gb, da, db,
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
                blocks.append((rec_n, t_cur, (iLr, vCr, iLm, vOut, 1.0), c, m))
                rec_n += c
                k_row += c * stride
                t_last = t0 + dt * (k_row - stride)
                t_row = t0 + dt * k_row if k_row < n_cells else math.inf

            if hit < 0:
                # accepted step: sensitivity, energy, extrema, invariants
                if sens is not None:
                    sens = _phi(m, h / cap, cap) @ sens
                sp_src += de_src
                sp_dio += de_dio
                if r0 * rb0 < 0.0 or r1 * rb1 < 0.0 or r2 * rb2 < 0.0 \
                        or r3 * rb3 < 0.0:
                    crests.append((w, 1.0, (r0, r1, r2, r3),
                                   (rb0, rb1, rb2, rb3),
                                   (iLr, vCr, iLm, vOut), h, m))
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
                if (rect == RECT_D1 and n * (iLr - iLm) < -I_TOL
                        or rect == RECT_D2 and n * (iLm - iLr) < -I_TOL
                        or vOut < -V_TOL):
                    err = ERR_MODE_VIOLATION
                    break
                continue

            # advance to the earliest located event
            s = s_hit
            iLr, vCr, iLm, vOut, i0, i2 = _values(w, s, h)
            crests.append((w, s, (r0, r1, r2, r3), None, w[0], h, m))
            sp_src += m.vsw * i0
            sp_dio += m.dio * (i0 - i2)
            if sens is not None:
                sens = _phi(m, s * h / cap, cap) @ sens
                f_a = _rate(m, iLr, vCr, iLm, vOut)
            max_ilr = max(max_ilr, abs(iLr))
            max_vcr = max(max_vcr, abs(vCr))
            max_ilm = max(max_ilm, abs(iLm))
            max_vout = max(max_vout, abs(vOut))
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
            rect, clamp_hi, sink, iLm, vOut, codes = _transition(
                slots[hit][0], g_a[hit], rect, clamp_hi, node_hi, sink,
                iLr, vCr, iLm, vOut, vin, Lr, Lm, n, Vf, load_kind, load_val)
            if is_dead:
                node_hi = clamp_hi
            m = _mode_of(maps, rect, node_hi, sink, vin, Lr, Cr, Lm, n, Vf,
                         Cout, load_kind, load_val)
            if sens is not None:
                # the rate just after the event, in the mode it leads to
                sens = _saltation(slots[hit], f_a,
                                  _rate(m, iLr, vCr, iLm, vOut)) @ sens
            if codes:
                for code in codes:
                    events.append((base + t_ev, code))
                if rows_on:
                    rec_n = _put_point(points, rec_n, t_last == t_ev, (
                        base + t_ev, iLr, vCr, iLm, vOut, m.vsw,
                        _iout(m, iLr, iLm, vOut), rect, seg_kind))
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

    plan = None
    if rows_on:
        if err == ERR_OK and count > 0:
            rec_n = _put_point(points, rec_n, t_last == t1, (
                base + t1, iLr, vCr, iLm, vOut, m.vsw,
                _iout(m, iLr, iLm, vOut), rect, seg_kind))
        plan = (rec_n, points, blocks, (t0, dt, k_first, stride, cap,
                                        seg_kind, base))
    e_load += _span_load(rect, sp_src, sp_dio, sp_cap, sp_tank,
                         iLr, vCr, iLm, vOut, Lr, Cr, Lm, Cout)
    return (err, plan, len(events) - ev_0, rect, clamp_hi,
            iLr, vCr, iLm, vOut, max_ilr, max_vcr, max_ilm, max_vout,
            steps, loc_iters, e_src + sp_src, e_load, e_dio + sp_dio, sens)
