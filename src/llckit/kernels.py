"""Fixed-step integration kernels for the switched LLC power stage.

The power stage is piecewise linear: within one (switch phase, rectifier
phase) mode the four states

    x = (iLr, vCr, iLm, vOut)

obey a constant-coefficient ODE (``_derivs``), integrated here with classic
fixed-step RK4.  Mode boundaries are located by bisection on the event
functions:

  * diode turn-off: secondary current n (iLr - iLm) falling through zero,
  * diode turn-on: open-rectifier magnetizing voltage
    Lm/(Lr+Lm) (vsw - vCr) reaching the output clamp +/- n (vOut + Vf),
  * dead-time node swap: iLr changing sign while both switches are off
    (the body diodes re-clamp the node to the other rail).

When several fire inside one step the earliest located one is applied; a
tie goes to the one listed first.

RK4 of an affine ODE over a fixed step is itself an affine map, so each
kind of step is taken as follows:

  * a full grid step applies the mode's map x+ = x + D x + q, whose
    coefficients ``_mode_map`` reads off ``_rk4`` once per mode (at segment
    entry and after each transition), not once per step;
  * a partial step (the sub-step up to a located event and the rest of the
    step after it) and any step across a current sink's cut-off at
    vOut = 0, where the load is not affine, run the stage form ``_rk4``;
  * a bisection probe runs ``_rk4`` from the step's start state, so a
    located event and the row recorded at it do not depend on the map.

Gate transitions are segment boundaries handled by the caller; each call
integrates one span of constant gate state.  Everything here is scalar
float64 arithmetic in a fixed order so the numba and plain-Python paths
produce identical bits (see _accel).
"""

from __future__ import annotations

import math

from ._accel import maybe_njit

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

# invariant slack: events are located far tighter than this, so a breach
# means a genuinely missed transition
I_TOL = 1e-6  # A
V_TOL = 1e-3  # V
EVENT_GUARD = 16
BISECT_MAX = 200

# record row layout
REC_COLS = 9  # t, iLr, vCr, iLm, vOut, vsw, iload, rect, seg


def _iload(vOut, load_kind, load_val):
    # current sinks cannot pull the output below ground
    if load_kind == LOAD_RES:
        return vOut / load_val
    if vOut > 0.0:
        return load_val
    return 0.0


def _derivs(iLr, vCr, iLm, vOut, vsw, rect, Lr, Cr, Lm, n, Vf, Cout,
            load_kind, load_val):
    il = _iload(vOut, load_kind, load_val)
    if rect == RECT_D1:
        vp = n * (vOut + Vf)
        d_ilr = (vsw - vCr - vp) / Lr
        d_ilm = vp / Lm
        d_vout = (n * (iLr - iLm) - il) / Cout
    elif rect == RECT_D2:
        vp = -n * (vOut + Vf)
        d_ilr = (vsw - vCr - vp) / Lr
        d_ilm = vp / Lm
        d_vout = (n * (iLm - iLr) - il) / Cout
    else:
        d = (vsw - vCr) / (Lr + Lm)
        d_ilr = d
        d_ilm = d
        d_vout = -il / Cout
    return d_ilr, iLr / Cr, d_ilm, d_vout


def _rk4(iLr, vCr, iLm, vOut, h, vsw, rect, Lr, Cr, Lm, n, Vf, Cout,
         load_kind, load_val):
    a1, b1, c1, d1 = _derivs(iLr, vCr, iLm, vOut, vsw, rect,
                             Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
    hh = 0.5 * h
    a2, b2, c2, d2 = _derivs(iLr + hh * a1, vCr + hh * b1, iLm + hh * c1,
                             vOut + hh * d1, vsw, rect,
                             Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
    a3, b3, c3, d3 = _derivs(iLr + hh * a2, vCr + hh * b2, iLm + hh * c2,
                             vOut + hh * d2, vsw, rect,
                             Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
    a4, b4, c4, d4 = _derivs(iLr + h * a3, vCr + h * b3, iLm + h * c3,
                             vOut + h * d3, vsw, rect,
                             Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
    s = h / 6.0
    return (iLr + s * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            vCr + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            iLm + s * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
            vOut + s * (d1 + 2.0 * d2 + 2.0 * d3 + d4))


def _event_values(iLr, vCr, iLm, vOut, vsw, rect, is_dead, Lr, Lm, n, Vf):
    """Event-function triple (rect primary, rect secondary, dead clamp)."""
    e0 = 0.0
    e1 = 0.0
    e2 = 0.0
    if rect == RECT_D1:
        e0 = iLr - iLm
    elif rect == RECT_D2:
        e0 = iLm - iLr
    else:
        vp_open = Lm / (Lr + Lm) * (vsw - vCr)
        nv = n * (vOut + Vf)
        e0 = vp_open - nv
        e1 = -vp_open - nv
    if is_dead:
        e2 = iLr
    return e0, e1, e2


def _fired(g_a, g_b, direction):
    # direction: 0 rising (<=0 to >0), 1 falling (>=0 to <0), 2 either sign flip
    if direction == 0:
        return g_a <= 0.0 and g_b > 0.0
    if direction == 1:
        return g_a >= 0.0 and g_b < 0.0
    return (g_a > 0.0 and g_b < 0.0) or (g_a < 0.0 and g_b > 0.0)


def _bisect_event(iLr, vCr, iLm, vOut, h_full, vsw, rect, slot, direction, g_a,
                  is_dead, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val, tol_t):
    """Locate the crossing of event ``slot`` inside (0, h_full].

    Returns (ok, h_star): the first h where the event condition has fired,
    narrowed to within tol_t by bisection on single RK4 steps from the base
    state.  ok = 0 flags a localization failure (iteration cap).
    """
    lo = 0.0
    hi = h_full
    g_lo = g_a
    it = 0
    while hi - lo > tol_t:
        if it >= BISECT_MAX:
            return 0, hi
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float exhaustion: bracket cannot shrink further
        mi, mc, mm, mo = _rk4(iLr, vCr, iLm, vOut, mid, vsw, rect,
                              Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
        e0, e1, e2 = _event_values(mi, mc, mm, mo, vsw, rect, is_dead,
                                   Lr, Lm, n, Vf)
        g_m = e0
        if slot == 1:
            g_m = e1
        elif slot == 2:
            g_m = e2
        if _fired(g_lo, g_m, direction):
            hi = mid
        else:
            lo = mid
            g_lo = g_m
        it += 1
    return 1, hi


def _settle(rect, iLr, vCr, iLm, vOut, vsw, Lr, Lm, n, Vf):
    """Close a diode the open rectifier already sits past.

    A gate edge, the caller's clamp choice or a transition can leave the
    open-rectifier magnetizing voltage beyond a clamp threshold.  Returns
    (rect, code): the new phase and its turn-on event code, or the phase
    unchanged and 0.
    """
    if rect == RECT_OFF:
        e0, e1, _ = _event_values(iLr, vCr, iLm, vOut, vsw, rect, False,
                                  Lr, Lm, n, Vf)
        if e0 > 0.0:
            return RECT_D1, EV_D1_ON
        if e1 > 0.0:
            return RECT_D2, EV_D2_ON
    return rect, 0


def _put_event(ev, ev_n, t, code):
    """Append (t, code) to the event log; the new count, or -1 when full."""
    if ev_n >= ev.shape[0]:
        return -1
    ev[ev_n, 0] = t
    ev[ev_n, 1] = code
    return ev_n + 1


def _put_row(rec, rec_n, t, iLr, vCr, iLm, vOut, vsw, rect, seg_kind,
             load_kind, load_val):
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
    rec[r, 0] = t
    rec[r, 1] = iLr
    rec[r, 2] = vCr
    rec[r, 3] = iLm
    rec[r, 4] = vOut
    rec[r, 5] = vsw
    rec[r, 6] = _iload(vOut, load_kind, load_val)
    rec[r, 7] = rect
    rec[r, 8] = seg_kind
    return rec_n


def _mode_map(h, vsw, rect, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val):
    """One RK4 step of length h in one mode as x+ = x + D x + q.

    Read off ``_rk4`` itself, so the mode ODE stays defined only in
    ``_derivs``: each unit vector stepped with the inputs off (no bridge
    voltage, diode drop or sink current) gives a column of I + D, and a
    base point stepped with them on gives q.  A current sink's base point
    sits above ground by more than the sink can pull in one step, so every
    RK4 stage from it sees the sink on.  Returns D row by row, then q.
    """
    lin = load_val if load_kind == LOAD_RES else 0.0
    p00, p10, p20, p30 = _rk4(1.0, 0.0, 0.0, 0.0, h, 0.0, rect,
                              Lr, Cr, Lm, n, 0.0, Cout, load_kind, lin)
    p01, p11, p21, p31 = _rk4(0.0, 1.0, 0.0, 0.0, h, 0.0, rect,
                              Lr, Cr, Lm, n, 0.0, Cout, load_kind, lin)
    p02, p12, p22, p32 = _rk4(0.0, 0.0, 1.0, 0.0, h, 0.0, rect,
                              Lr, Cr, Lm, n, 0.0, Cout, load_kind, lin)
    p03, p13, p23, p33 = _rk4(0.0, 0.0, 0.0, 1.0, h, 0.0, rect,
                              Lr, Cr, Lm, n, 0.0, Cout, load_kind, lin)
    vb = 0.0
    if load_kind == LOAD_CUR:
        vb = 1.0 + 2.0 * h * load_val / Cout
    b0, b1, b2, b3 = _rk4(0.0, 0.0, 0.0, vb, h, vsw, rect,
                          Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
    return (p00 - 1.0, p01, p02, p03,
            p10, p11 - 1.0, p12, p13,
            p20, p21, p22 - 1.0, p23,
            p30, p31, p32, p33 - 1.0,
            b0 - vb * p03, b1 - vb * p13, b2 - vb * p23, b3 - vb * p33)


def integrate_segment(iLr, vCr, iLm, vOut, t0, t1, seg_kind, clamp_hi, rect,
                      vin, Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val,
                      dt_max, tol_t, stride, rec, rec_n, ev, ev_n, acc):
    """Advance one constant-gate span [t0, t1] with event handling.

    rec is a (cap, 9) float64 record buffer filled from row ``rec_n``; ev a
    (cap, 2) event log (t, code).  acc[0] accumulates source energy and
    acc[1] load energy (trapezoid per accepted substep, summed over the
    span and added once at its end).  Returns

        (err, rec_n, ev_n, rect, clamp_hi,
         iLr, vCr, iLm, vOut, max_iLr, max_vCr, max_iLm, max_vOut)

    with err one of the ERR_* codes; on err != 0 the state is whatever was
    reached and the caller is expected to abort, or to grow the full buffer
    (ERR_RECORD_FULL, ERR_EVENT_FULL) and run the span again.
    """
    err = ERR_OK
    is_dead = seg_kind == SEG_DEAD_TO_LOW or seg_kind == SEG_DEAD_TO_HIGH
    if seg_kind == SEG_HIGH:
        vsw = vin
        node_hi = 1
    elif seg_kind == SEG_LOW:
        vsw = 0.0
        node_hi = 0
    else:
        node_hi = clamp_hi
        vsw = vin if clamp_hi == 1 else 0.0

    max_ilr = abs(iLr)
    max_vcr = abs(vCr)
    max_ilm = abs(iLm)
    max_vout = abs(vOut)

    # entry settle, then the segment entry row (overwrites a sample left at
    # the same t)
    rect, code = _settle(rect, iLr, vCr, iLm, vOut, vsw, Lr, Lm, n, Vf)
    if code != 0:
        j = _put_event(ev, ev_n, t0, code)
        if j < 0:
            err = ERR_EVENT_FULL
        else:
            ev_n = j
    if err == ERR_OK:
        j = _put_row(rec, rec_n, t0, iLr, vCr, iLm, vOut, vsw, rect,
                     seg_kind, load_kind, load_val)
        if j < 0:
            err = ERR_RECORD_FULL
        else:
            rec_n = j

    span = t1 - t0
    n_steps = 0
    dt = 0.0
    if err == ERR_OK and span > 0.0:
        n_steps = int(math.ceil(span / dt_max))
        if n_steps < 1:
            n_steps = 1
        dt = span / n_steps

    # per-mode quantities, refreshed at entry and after each transition:
    # the full-step map, the start-of-step event values and slot-0
    # direction, and the source and load power at the current state
    stale = True
    d00 = d01 = d02 = d03 = d10 = d11 = d12 = d13 = 0.0
    d20 = d21 = d22 = d23 = d30 = d31 = d32 = d33 = 0.0
    q0 = q1 = q2 = q3 = 0.0
    a0 = a1_ = a2_ = 0.0
    dir0 = 0
    p_src = p_load = 0.0
    # energy of this call, added to acc once at the end
    e_src = e_load = 0.0

    for k in range(n_steps):
        t_b = t1 if k == n_steps - 1 else t0 + dt * (k + 1)
        t_cur = t0 + dt * k if k > 0 else t0
        guard = 0
        while t_cur < t_b:
            if stale:
                (d00, d01, d02, d03, d10, d11, d12, d13,
                 d20, d21, d22, d23, d30, d31, d32, d33,
                 q0, q1, q2, q3) = _mode_map(dt, vsw, rect, Lr, Cr, Lm, n, Vf,
                                             Cout, load_kind, load_val)
                a0, a1_, a2_ = _event_values(iLr, vCr, iLm, vOut, vsw, rect,
                                             is_dead, Lr, Lm, n, Vf)
                # slot directions: rect event rises in Off (clamp reached)
                # and falls in D1/D2 (current zero); dead-clamp flips either
                # way
                dir0 = 0 if rect == RECT_OFF else 1
                p_src = vin * iLr if node_hi == 1 else 0.0
                p_load = vOut * _iload(vOut, load_kind, load_val)
                stale = False
            h = t_b - t_cur
            # a full step by the mode's map, unless a current sink is off
            # at the step's start or end
            affine = guard == 0 and (load_kind == LOAD_RES or vOut > 0.0)
            if affine:
                # an open rectifier moves iLm by iLr's increment, so the two
                # stay equal
                di = d00 * iLr + d01 * vCr + d02 * iLm + d03 * vOut + q0
                ni = iLr + di
                if rect != RECT_OFF:
                    di = d20 * iLr + d21 * vCr + d22 * iLm + d23 * vOut + q2
                nm = iLm + di
                nc = vCr + (d10 * iLr + d11 * vCr + d12 * iLm + d13 * vOut
                            + q1)
                no = vOut + (d30 * iLr + d31 * vCr + d32 * iLm + d33 * vOut
                             + q3)
                affine = load_kind == LOAD_RES or no > 0.0
            if not affine:
                ni, nc, nm, no = _rk4(iLr, vCr, iLm, vOut, h, vsw, rect,
                                      Lr, Cr, Lm, n, Vf, Cout, load_kind,
                                      load_val)
            b0, b1_, b2_ = _event_values(ni, nc, nm, no, vsw, rect,
                                         is_dead, Lr, Lm, n, Vf)
            fired0 = _fired(a0, b0, dir0)
            fired1 = rect == RECT_OFF and _fired(a1_, b1_, 0)
            fired2 = is_dead and _fired(a2_, b2_, 2)
            if not (fired0 or fired1 or fired2):
                # accepted step: energy, extrema, invariants, record
                p_src_b = vin * ni if node_hi == 1 else 0.0
                p_load_b = no * _iload(no, load_kind, load_val)
                e_src += 0.5 * (p_src + p_src_b) * h
                e_load += 0.5 * (p_load + p_load_b) * h
                p_src = p_src_b
                p_load = p_load_b
                a0, a1_, a2_ = b0, b1_, b2_
                iLr, vCr, iLm, vOut = ni, nc, nm, no
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
                if k % stride == 0 or k == n_steps - 1:
                    j = _put_row(rec, rec_n, t_b, iLr, vCr, iLm, vOut, vsw,
                                 rect, seg_kind, load_kind, load_val)
                    if j < 0:
                        err = ERR_RECORD_FULL
                        break
                    rec_n = j
                continue

            # localize the earliest fired event; a tie goes to the lower slot
            h_star = h
            slot_star = -1
            for slot in range(3):
                if slot == 0:
                    fired = fired0
                    direction = dir0
                    g_a = a0
                elif slot == 1:
                    fired = fired1
                    direction = 0
                    g_a = a1_
                else:
                    fired = fired2
                    direction = 2
                    g_a = a2_
                if not fired:
                    continue
                ok, hs = _bisect_event(iLr, vCr, iLm, vOut, h, vsw, rect,
                                       slot, direction, g_a, is_dead,
                                       Lr, Cr, Lm, n, Vf, Cout, load_kind,
                                       load_val, tol_t)
                if ok == 0:
                    err = ERR_EVENT_LOC
                    break
                if slot_star < 0 or hs < h_star:
                    h_star = hs
                    slot_star = slot
            if err != ERR_OK:
                break

            ei, ec, em, eo = _rk4(iLr, vCr, iLm, vOut, h_star, vsw, rect,
                                  Lr, Cr, Lm, n, Vf, Cout, load_kind, load_val)
            p_src_b = vin * ei if node_hi == 1 else 0.0
            e_src += 0.5 * (p_src + p_src_b) * h_star
            e_load += 0.5 * (p_load + eo * _iload(eo, load_kind, load_val)
                             ) * h_star
            iLr, vCr, iLm, vOut = ei, ec, em, eo
            t_ev = t_cur + h_star
            t_cur = t_ev
            if abs(iLr) > max_ilr:
                max_ilr = abs(iLr)
            if abs(vCr) > max_vcr:
                max_vcr = abs(vCr)
            if abs(iLm) > max_ilm:
                max_ilm = abs(iLm)
            if abs(vOut) > max_vout:
                max_vout = abs(vOut)

            # apply the transition
            stale = True
            code = 0
            if slot_star == 0:
                if rect == RECT_D1:
                    rect = RECT_OFF
                    iLm = iLr  # series constraint is exact at turn-off
                    code = EV_D1_OFF
                elif rect == RECT_D2:
                    rect = RECT_OFF
                    iLm = iLr
                    code = EV_D2_OFF
                else:
                    rect = RECT_D1
                    code = EV_D1_ON
            elif slot_star == 1:
                rect = RECT_D2
                code = EV_D2_ON
            else:
                # node swaps rails when iLr reverses during dead time
                if a2_ > 0.0:
                    clamp_hi = 1
                    code = EV_CLAMP_HIGH
                else:
                    clamp_hi = 0
                    code = EV_CLAMP_LOW
                node_hi = clamp_hi
                vsw = vin if clamp_hi == 1 else 0.0
            j = _put_event(ev, ev_n, t_ev, code)
            if j < 0:
                err = ERR_EVENT_FULL
                break
            ev_n = j

            # settle: the new Off state may sit past the other clamp already
            rect, code = _settle(rect, iLr, vCr, iLm, vOut, vsw, Lr, Lm, n, Vf)
            if code != 0:
                j = _put_event(ev, ev_n, t_ev, code)
                if j < 0:
                    err = ERR_EVENT_FULL
                    break
                ev_n = j

            # record the instant with the post-transition mode
            j = _put_row(rec, rec_n, t_ev, iLr, vCr, iLm, vOut, vsw, rect,
                         seg_kind, load_kind, load_val)
            if j < 0:
                err = ERR_RECORD_FULL
                break
            rec_n = j

            guard += 1
            if guard > EVENT_GUARD:
                err = ERR_CHATTER
                break
        if err != ERR_OK:
            break

    acc[0] += e_src
    acc[1] += e_load
    return (err, rec_n, ev_n, rect, clamp_hi,
            iLr, vCr, iLm, vOut, max_ilr, max_vcr, max_ilm, max_vout)


_iload = maybe_njit(_iload)
_derivs = maybe_njit(_derivs)
_rk4 = maybe_njit(_rk4)
_event_values = maybe_njit(_event_values)
_fired = maybe_njit(_fired)
_bisect_event = maybe_njit(_bisect_event)
_settle = maybe_njit(_settle)
_mode_map = maybe_njit(_mode_map)
_put_event = maybe_njit(_put_event)
_put_row = maybe_njit(_put_row)
integrate_segment = maybe_njit(integrate_segment)
