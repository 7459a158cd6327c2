"""Invariants of one integrate_segment call over random inputs.

Whatever the initial state, segment kind, load and tolerances, a call must
keep its bookkeeping straight: clamp events only while both switches are
off, a fixed bridge voltage while one is on, a time-ordered record, events
inside the span, and the same bytes from the same inputs.  A call may end
in a mode violation or chatter; the rows and events written up to that
point must still obey the invariants.

What is recorded must not move the run: every record stride takes the
same steps to the same end, events and energy.  An event-free span must
end, and record every row, where the matrix exponential of its mode takes
it, in every rectifier phase, on both rails and for both load kinds, and
its source energy and diode loss are those of its integral.

The sensitivity a call carries is the derivative of its end state: where
the end state is differentiable in the start state, it matches central
differences.
"""

import math
import struct
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llckit import kernels, modes, sim

from eager_peaks import eager_segment

LR = 37e-6
CR = 68e-9
LM = 75e-6
N = 1.83

DEAD = (kernels.SEG_DEAD_TO_LOW, kernels.SEG_DEAD_TO_HIGH)
CLAMPS = (kernels.EV_CLAMP_HIGH, kernels.EV_CLAMP_LOW)


@st.composite
def segments(draw):
    seg = draw(st.sampled_from((kernels.SEG_HIGH, kernels.SEG_DEAD_TO_LOW,
                                kernels.SEG_LOW, kernels.SEG_DEAD_TO_HIGH)))
    clamp = draw(st.integers(0, 1))
    vin = draw(st.floats(0.0, 100.0))
    if seg == kernels.SEG_HIGH or (seg in DEAD and clamp == 1):
        vsw = vin
    else:
        vsw = 0.0
    vf = draw(st.floats(0.0, 1.0))
    vout = draw(st.floats(0.0, 30.0))
    rect = draw(st.sampled_from((modes.RECT_OFF, modes.RECT_D1,
                                 modes.RECT_D2)))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == modes.RECT_OFF:
        # the open-rectifier magnetizing voltage at a fraction u of the
        # clamp level n (vOut + Vf); |u| > 1 starts past a clamp
        u = draw(st.floats(-1.2, 1.2))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        # a conducting pair carries a secondary current in its own direction
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.0, 1.0))
        ilm = ilr - isec if rect == modes.RECT_D1 else ilr + isec
    dt_max = draw(st.floats(1e-9, 5e-8))
    steps = draw(st.integers(0, 150))
    t0 = draw(st.floats(0.0, 1e-3))
    t1 = t0 + steps * dt_max * draw(st.floats(0.5, 1.0))
    load_kind = draw(st.sampled_from((modes.LOAD_RES, modes.LOAD_CUR)))
    if load_kind == modes.LOAD_RES:
        load_val = draw(st.floats(1.0, 1e4))
    else:
        load_val = draw(st.floats(0.0, 2.0))
    # down to float exhaustion, and as wide as a step or wider so that
    # bisection hands back the whole step
    tol_t = draw(st.sampled_from((1e-18, 1e-12, 1.0, 2.0)))
    if tol_t >= 1.0:
        tol_t = tol_t * dt_max
    return dict(
        x0=(ilr, vcr, ilm, vout), t0=t0, t1=t1, seg=seg, clamp=clamp,
        rect=rect, vin=vin, Vf=vf, Cout=draw(st.floats(1e-6, 1e-4)),
        load_kind=load_kind, load_val=load_val, dt_max=dt_max, tol_t=tol_t,
        stride=draw(st.integers(1, 5)))


def run(p):
    """The call's outputs with its crests located at its end
    (``eager_segment``) and its row plan replaced by its row count, the
    rows built from the plan (``kernels.build_rows``), its events as a
    (count, 2) array and its (source, load, diode) energy."""
    events = []
    x = p["x0"]
    out = eager_segment(
        x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
        p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
        p["load_kind"], p["load_val"], p["dt_max"], p["tol_t"], p["stride"],
        events, [])
    assert out[2] == len(events)
    rows = kernels.build_rows([] if out[1] is None else [out[1]])
    return (out[:1] + (rows.shape[0],) + out[2:], rows,
            np.array(events, dtype=float).reshape(-1, 2),
            np.array(out[15:18]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_segment_invariants(p):
    out, rows, events, _ = run(p)
    assert out[0] in (kernels.ERR_OK, kernels.ERR_MODE_VIOLATION,
                      kernels.ERR_CHATTER)
    assert out[1] >= 1

    if p["seg"] not in DEAD:
        assert not np.any(np.isin(events[:, 1], CLAMPS))
        vsw = p["vin"] if p["seg"] == kernels.SEG_HIGH else 0.0
        assert np.all(rows[:, 5] == vsw)

    assert np.all(np.diff(rows[:, 0]) > 0.0)  # one row per instant
    assert np.all((events[:, 0] >= p["t0"]) & (events[:, 0] <= p["t1"]))

    again = run(p)
    assert again[0] == out
    assert again[1].tobytes() == rows.tobytes()
    assert again[2].tobytes() == events.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_record_stride_leaves_the_run_alone(p):
    # rows are read off the steps' Taylor terms, so whatever is recorded,
    # the call returns the same steps, end state, peaks and localization
    # work, and logs the same events and energy, bit for bit
    runs = [run(dict(p, stride=stride)) for stride in (1, 7, 1 << 30, 0)]
    out, _, ev, acc = runs[0]
    for o, _, e, a in runs[1:]:
        assert o[:1] + o[2:] == out[:1] + out[2:]
        assert e.tobytes() == ev.tobytes()
        assert a.tobytes() == acc.tobytes()


def state_at(w, s):
    """x(s h) from a step's Taylor terms w, by Horner's rule."""
    p0, p1, p2, p3 = w[-1]
    for k in range(len(w) - 2, -1, -1):
        c0, c1, c2, c3 = w[k]
        p0 = p0 * s + c0
        p1 = p1 * s + c1
        p2 = p2 * s + c2
        p3 = p3 * s + c3
    return p0, p1, p2, p3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(segments())
def test_grid_rows_are_their_steps_series(p):
    # every grid row of a call sits at t0 + dt k and holds the Taylor series
    # of the step it falls in, summed in plain Python at its own instant
    # (``_series`` and ``state_at``): numpy sums it in another order, so they
    # agree to a few ulps of the magnitude of the series' terms, taken in
    # energy coordinates, where all four states weigh alike
    scale = np.sqrt(np.array([LR, CR, LM, p["Cout"]]))
    for stride in (1, 7, 64):
        events = []
        x = p["x0"]
        out = kernels.integrate_segment(
            x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
            p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
            p["load_kind"], p["load_val"], p["dt_max"], p["tol_t"], stride,
            events, [])
        rows = kernels.build_rows([out[1]])
        _, points, blocks, (t0, dt, k, _, _, seg, _) = out[1]
        at_points = {r for r, _ in points}
        for r, ta, xs, count, m in blocks:
            vsw, rect = m.vsw, m.rect
            for i, row in enumerate(rows[r:r + count]):
                t = t0 + dt * k
                k += stride
                if r + i in at_points:  # a point row took its place
                    continue
                assert row[0] == t and row[5] == vsw
                assert row[7] == rect and row[8] == seg
                w = modes._series(*xs[:4], *m.b, t - ta, m)
                ref = state_at(w, 1.0)
                size = np.max(scale * np.sum(np.abs(np.array(w)), axis=0))
                assert np.max(scale * np.abs(row[1:5] - ref)) \
                    <= 8 * 2.0 ** -52 * size


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_grid_and_coarse_steps_find_the_same_events(p):
    # recording every grid instant and recording only the span's ends
    # step alike, so both must log the same events, each within tol_t of
    # the same crossing (since rows stopped setting the steps, the same
    # instants, in no more steps); tol_t is the period driver's 1e-12
    # periods at 100 kHz
    p = dict(p, tol_t=1e-17)
    fine = run(dict(p, stride=1))
    coarse = run(dict(p, stride=1 << 30))
    assume(fine[0][0] == kernels.ERR_OK and coarse[0][0] == kernels.ERR_OK)
    ev_f = fine[2][:fine[0][2]]
    ev_c = coarse[2][:coarse[0][2]]
    assert ev_f[:, 1].tolist() == ev_c[:, 1].tolist()
    assert np.all(np.abs(ev_f[:, 0] - ev_c[:, 0]) <= p["tol_t"])
    assert coarse[0][13] <= fine[0][13]


def _stage_matrix(rect, vsw, vf, cout, load_kind, load_val):
    """The augmented 5x5 matrix of one mode, from the circuit equations."""
    mat = np.zeros((5, 5))
    mat[1, 0] = 1.0 / CR  # Cr carries iLr
    if rect == modes.RECT_OFF:
        # Lr and Lm in series across vsw - vCr
        mat[0, 1] = mat[2, 1] = -1.0 / (LR + LM)
        mat[0, 4] = mat[2, 4] = vsw / (LR + LM)
    else:
        # the conducting diode clamps Lm at +/- n (vOut + Vf)
        s = 1.0 if rect == modes.RECT_D1 else -1.0
        mat[0, 1] = -1.0 / LR
        mat[0, 3] = -s * N / LR
        mat[0, 4] = (vsw - s * N * vf) / LR
        mat[2, 3] = s * N / LM
        mat[2, 4] = s * N * vf / LM
        mat[3, 0] = s * N / cout
        mat[3, 2] = -s * N / cout
    if load_kind == modes.LOAD_RES:
        mat[3, 3] = -1.0 / (load_val * cout)
    else:
        mat[3, 4] = -load_val / cout
    return mat


@st.composite
def mode_spans(draw):
    rect = draw(st.sampled_from((modes.RECT_OFF, modes.RECT_D1,
                                 modes.RECT_D2)))
    seg = draw(st.sampled_from((kernels.SEG_HIGH, kernels.SEG_LOW)))
    vin = draw(st.floats(0.0, 100.0))
    vsw = vin if seg == kernels.SEG_HIGH else 0.0
    vf = draw(st.floats(0.0, 1.0))
    load_kind = draw(st.sampled_from((modes.LOAD_RES, modes.LOAD_CUR)))
    if load_kind == modes.LOAD_RES:
        load_val = draw(st.floats(1.0, 1e4))
        vout = draw(st.floats(0.0, 30.0))
    else:
        # the sink stays on through the span only well above ground
        load_val = draw(st.floats(0.0, 2.0))
        vout = draw(st.floats(1.0, 30.0))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == modes.RECT_OFF:
        # short of either clamp, so no diode turns on early in the span
        u = draw(st.floats(-0.9, 0.9))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.05, 1.0))
        ilm = ilr - isec if rect == modes.RECT_D1 else ilr + isec
    return dict(x0=(ilr, vcr, ilm, vout), seg=seg, rect=rect, vin=vin,
                vsw=vsw, Vf=vf, Cout=draw(st.floats(1e-6, 1e-4)),
                load_kind=load_kind, load_val=load_val,
                span=draw(st.floats(1e-9, 3e-6)),
                dt_max=draw(st.floats(1e-9, 5e-8)),
                stride=draw(st.sampled_from((1, 7, 1 << 30))),
                t0=draw(st.floats(0.0, 1e-3)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mode_spans())
@example(p={"x0": (1.0, 2.2250738585e-313, 1.0, 12.0), "seg": 0, "rect": 0,
            "vin": 2.2250738585e-313, "vsw": 2.2250738585e-313, "Vf": 0.0,
            "Cout": 6.311761673462242e-05, "load_kind": 0, "load_val": 1.0,
            "span": 2.297623015483926e-06, "dt_max": 8.062620804781005e-09,
            "stride": 1, "t0": 0.0})
def test_span_matches_matrix_exponential(p):
    # an event-free span in one mode ends where exp(M h) takes its start,
    # with M the mode's augmented matrix, and records every row where
    # exp(M (t_row - t0)) takes it; its source energy is vin times the
    # integral of iLr, and its diode loss while D1 or D2 conducts is
    # +/- Vf n times that of iLr - iLm, from exp of [[M, I], [0, 0]] h
    expm = pytest.importorskip("scipy.linalg").expm
    x = p["x0"]
    t0 = p["t0"]
    t1 = t0 + p["span"]
    h = t1 - t0
    out, rec, ev, acc = run(dict(
        p, t1=t1, clamp=0, tol_t=1e-18))
    assume(out[0] == kernels.ERR_OK and out[2] == 0 and out[3] == p["rect"])
    m = _stage_matrix(p["rect"], p["vsw"], p["Vf"], p["Cout"],
                      p["load_kind"], p["load_val"])
    big = np.zeros((10, 10))
    big[:5, :5] = m
    big[:5, 5:] = np.eye(5)
    e = expm(big * h)
    z0 = np.array(list(x) + [1.0])
    ref = e[:5, :5] @ z0
    rows = rec[:out[1]]
    ref_rows = (expm(m * (rows[:, :1, None] - t0)) @ z0)[:, :4]
    assume(p["load_kind"] == modes.LOAD_RES
           or (ref[3] > 0.0 and np.all(ref_rows[:, 3] > 0.0)))
    # compare in energy coordinates, where all four states weigh alike
    scale = np.sqrt(np.array([LR, CR, LM, p["Cout"]]))
    err = np.max(np.abs(scale * (np.array(out[5:9]) - ref[:4])))
    size = max(np.max(np.abs(scale * ref[:4])), np.max(np.abs(scale * x)))
    assert err <= 1e-12 * size
    size = max(size, np.max(np.abs(scale * ref_rows)))
    assert np.max(np.abs(scale * (rows[:, 1:5] - ref_rows))) <= 1e-12 * size
    if p["rect"] == modes.RECT_OFF:
        assert out[5] == out[7]
        assert np.all(rows[:, 1] == rows[:, 3])
    if p["seg"] == kernels.SEG_HIGH:
        # the relative bound underflows on subnormal energies (the example
        # above: 9 subnormal ulps apart), so it has a floor of 64 of them
        src = p["vin"] * (e[0, 5:] @ z0)
        assert abs(acc[0] - src) <= max(1e-12 * (abs(src) + p["vin"] * h * (
            abs(x[0]) + size / math.sqrt(LR))), 64 * 2.0 ** -1074)
    else:
        assert acc[0] == 0.0
    if p["rect"] != modes.RECT_OFF and p["Vf"] != 0.0:
        f = p["Vf"] * N if p["rect"] == modes.RECT_D1 else -p["Vf"] * N
        dio = f * ((e[0, 5:] - e[2, 5:]) @ z0)
        assert abs(acc[2] - dio) <= max(1e-12 * (abs(dio) + p["Vf"] * N * h * (
            size / math.sqrt(LR) + size / math.sqrt(LM))), 64 * 2.0 ** -1074)
    else:
        assert acc[2] == 0.0


def end_state(p, x, sens=None):
    """An unrecorded call from state x: its outputs and its events."""
    events = []
    out = kernels.integrate_segment(
        x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
        p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
        p["load_kind"], p["load_val"], p["dt_max"], 1e-18, 0, events, [],
        None, sens)
    return out, events


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_sensitivity_matches_central_differences(p):
    # where the end state is differentiable in the start state, the carried
    # S = d(end)/d(start) is its derivative: compare with central
    # differences at a smooth draw, one with no logged event within 1e-3
    # of the span of its ends, the same events on both sides of every
    # perturbation, and one-sided differences that agree (so that an
    # unlogged sink change sits on no kink either).  In energy coordinates,
    # where all four states weigh alike; a step of 1e-5 keeps the noise of
    # event localization (tol_t times a rate, over the step) near 1e-7
    x0 = np.array(p["x0"])
    out, events = end_state(p, x0, np.eye(4))
    span = p["t1"] - p["t0"]
    assume(out[0] == kernels.ERR_OK and span > 0.0)
    margin = 1e-3 * span
    assume(all(p["t0"] + margin < t < p["t1"] - margin for t, _ in events))
    codes = [c for _, c in events]
    w = np.sqrt(np.array([LR, CR, LM, p["Cout"]]))
    x1 = np.array(out[5:9])
    sens = out[18] * w[:, None] / w[None, :]
    size = max(1.0, float(np.max(np.abs(sens))))
    central = np.empty((4, 4))
    for j in range(4):
        h = 1e-5 * max(abs(x0[j]), 1.0)
        ends = []
        for sign in (1.0, -1.0):
            x = x0.copy()
            x[j] += sign * h
            o, ev = end_state(p, x)
            assume(o[0] == kernels.ERR_OK and [c for _, c in ev] == codes)
            ends.append(np.array(o[5:9]))
        kink = (ends[0] - x1) - (x1 - ends[1])
        assume(np.max(np.abs(kink * w)) <= 1e-3 * size * h * w[j])
        central[:, j] = (ends[0] - ends[1]) / (2.0 * h) * w / w[j]
    assert np.max(np.abs(sens - central)) <= 1e-5 * size


# Root searches skipped by a bound: ``sim.PeriodPeaks.exact`` and the graze
# branch of ``_crossing`` must give what locating every crest and every
# turn-back gives.  The references below are the plain sums and searches.

def rate_at(w, s, h):
    """dx/dt at s h from the Taylor terms, by Horner's rule."""
    k = len(w) - 1
    p0, p1, p2, p3 = (k * c for c in w[k])
    for k in range(k - 1, 0, -1):
        c0, c1, c2, c3 = w[k]
        p0 = p0 * s + k * c0
        p1 = p1 * s + k * c1
        p2 = p2 * s + k * c2
        p3 = p3 * s + k * c3
    return p0 / h, p1 / h, p2 / h, p3 / h


def integrals_at(w, s, h):
    """The integrals of iLr and iLm over [0, s h], by Horner's rule."""
    i0 = i2 = 0.0
    for k in range(len(w) - 1, -1, -1):
        c = w[k]
        r = 1.0 / (k + 1)
        i0 = i0 * s + r * c[0]
        i2 = i2 * s + r * c[2]
    return i0 * s * h, i2 * s * h


def filled(crests):
    """Queued crest candidates (``kernels.integrate_segment``) as (terms,
    s, rates at 0, rates at s), their terms and end rates built where the
    kernel left them out."""
    out = []
    for w, s, ra, rb, x, h, m in crests:
        w = w or modes._series(*x, *m.b, h, m)
        out.append((w, s, ra, rb or rate_at(w, s, h)))
    return out


def every_crest(crests, peaks):
    """The peaks raised by every crest of the queued candidates, located in
    turn: (peaks, crests located, root iterations)."""
    peaks = list(peaks)
    located = it = 0
    for w, s, ra, rb in filled(crests):
        for j in range(4):
            if ra[j] * rb[j] < 0.0:
                dP = [k * w[k][j] for k in range(1, len(w))]
                u, n = kernels._root(dP, 0.0, s, 1.0 if rb[j] > 0.0 else -1.0,
                                     kernels._EXT_TOL, ra[j], rb[j])
                located += 1
                it += n
                peaks[j] = max(peaks[j],
                               abs(kernels._peval([c[j] for c in w], u)[0]))
    return peaks, located, it


def every_crest_exact(self, comps=(0, 1, 2, 3)):
    """``sim.PeriodPeaks.exact`` locating every crest of its candidates."""
    peaks, located, it = every_crest(self.crests, self.ends)
    self._counter[0] += located
    self._counter[1] += it
    return tuple(peaks[j] for j in comps)


def every_turn_back(slot, side, ga, gb, da, db, w, xb, tol):
    """``_crossing`` locating every turn-back's extremum."""
    _, c0, c1, c2, c3, d, _ = slot
    if side * ga > 0.0 and side * ga > kernels._noise(c0, c1, c2, c3, d,
                                                      *w[0]):
        return -2.0, 0
    P = [c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 for u0, u1, u2, u3 in w]
    P[0] = ga
    it = 0
    lo_end = 1.0
    if side * gb <= 0.0 or side * gb <= kernels._noise(c0, c1, c2, c3, d,
                                                       *xb):
        if not (side * da > 0.0 and side * db < 0.0):
            return -2.0, 0
        dP = [k * P[k] for k in range(1, len(P))]
        lo_end, it = kernels._root(dP, 0.0, 1.0, -side, kernels._EXT_TOL,
                                   da, db)
        gb = kernels._peval(P, lo_end)[0]
        if side * gb <= kernels._noise(c0, c1, c2, c3, d, *w[0]):
            return -2.0, it
    s, it2 = kernels._root(P, 0.0, lo_end, side, tol, ga, gb)
    return s, it + it2


def mode_matrices(m):
    """A and b of a mode record."""
    a01, a03, a10, a21, a23, a30, a33 = m.a
    b0, b2, b3 = m.b
    return (np.array([[0.0, a01, 0.0, a03], [a10, 0.0, 0.0, 0.0],
                      [0.0, a21, 0.0, a23], [a30, 0.0, -a30, a33]]),
            np.array([b0, 0.0, b2, b3]))


def rate(m, x):
    """dx/dt at state x, as the kernel forms it."""
    a01, a03, a10, a21, a23, a30, a33 = m.a
    b0, b2, b3 = m.b
    return (a01 * x[1] + a03 * x[3] + b0, a10 * x[0],
            a21 * x[1] + a23 * x[3] + b2,
            a30 * (x[0] - x[2]) + a33 * x[3] + b3)


def with_crest(m, x, c, sigma, h):
    """A start state from which c . x has an extremum sigma h into a step
    of length h: x moved so that c . dx/dt = 0 there, then taken back
    sigma h along the mode.  None where c . dx/dt does not depend on x."""
    A, b = mode_matrices(m)
    c = np.asarray(c)
    x = np.array(x, dtype=float)
    lin = c @ A
    i = int(np.argmax(np.abs(lin)))
    if lin[i] == 0.0:
        return None, None
    x[i] = 0.0
    x[i] = -(c @ b + lin @ x) / lin[i]
    tau = -sigma * h
    u = tau * (A @ x + b)
    start = x + u
    for k in range(2, 40):
        u = tau / k * (A @ u)
        start = start + u
    return tuple(float(v) for v in start), x


@st.composite
def mode_steps(draw):
    """A mode of the stage, a step of it up to the cap and a state."""
    rect = draw(st.sampled_from((modes.RECT_OFF, modes.RECT_D1,
                                 modes.RECT_D2)))
    vsw = draw(st.sampled_from((0.0, 48.0)))
    vf = draw(st.floats(0.0, 1.0))
    cout = draw(st.floats(1e-6, 1e-4))
    load_kind = draw(st.sampled_from((modes.LOAD_RES, modes.LOAD_CUR)))
    if load_kind == modes.LOAD_RES:
        sink = modes.SINK_NONE
        load_val = draw(st.floats(1.0, 1e4))
    else:
        sink = draw(st.sampled_from((modes.SINK_ON, modes.SINK_HELD)))
        load_val = draw(st.floats(0.0, 2.0))
    m = modes.Mode(rect, vsw, sink, LR, CR, LM, N, vf, cout, load_kind,
                   load_val)
    cap = modes._step_cap({}, vsw, LR, CR, LM, N, vf, cout, load_kind,
                          load_val)
    h = cap * draw(st.sampled_from((1.0, 1e-9))
                   | st.floats(1e-6, 1.0))
    x = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-100.0, 150.0)),
         draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 30.0)))
    return m, h, x


def fractions():
    return st.sampled_from((0.0, 1e-15, 0.5, 1.0)) | st.floats(0.0, 1.0)


def bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mode_steps(), fractions())
def test_one_pass_values_are_the_separate_sums(p, s):
    # state and integrals at s and at 1 in one pass, and the rate at s in
    # its own (``_rates``), each bit for bit as its own Horner pass sums it
    m, h, x = p
    w = modes._series(*x, *m.b, h, m)
    for u in (s, 1.0):
        got = kernels._values(w, u, h)
        assert bits(got) == bits(state_at(w, u) + integrals_at(w, u, h))
    assert bits(kernels._rates(w, s, h)) == bits(rate_at(w, s, h))


def term_lists():
    """Taylor-term lists: a mode's series from a random state, or terms
    drawn alone, signed zeros and all-zero terms among them."""
    entry = st.sampled_from((0.0, -0.0, 5e-324, -5e-324)) | st.floats(-1e6,
                                                                      1e6)
    drawn = st.lists(st.tuples(entry, entry, entry, entry), min_size=2,
                     max_size=20)
    series = mode_steps().map(
        lambda p: modes._series(*p[2], *p[0].b, p[1], p[0]))
    return series | drawn


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(term_lists(), st.sampled_from((1e-6, 1.0)) | st.floats(0.0, 1e-5))
@example(w=[(-0.0, -0.0, -0.0, -0.0)] * 3, h=1e-6)
@example(w=[(0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0, 0.0)], h=0.0)
def test_end_values_are_the_values_at_one(w, h):
    # the sum at a step's end skips the products by s = 1, which are exact:
    # the same bits as ``_values`` at s = 1, the sign of a zero included
    got = kernels._values_end(w, h)
    want = kernels._values(w, 1.0, h)
    assert struct.pack("<6d", *got) == struct.pack("<6d", *want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mode_steps(), st.data())
def test_bounded_crests_give_the_peaks_of_every_crest(p, data):
    # a queue of a few candidates, as the kernel queues them: some from a
    # state with an extremum of one component placed in the step (within
    # rounding of its start at sigma = 0 or 1e-15), some from random states,
    # whose components may cross zero inside the step, some with random
    # terms, and steps cut short at an event (s < 1).  A candidate from a
    # state carries its terms and no end rate, as an event leaves it, or
    # its end rate with or without its terms, as a whole step.  The peaks
    # start at 0, below a step's start value (as iLm can just after a diode
    # turn-off reset), or on a located crest's value and its neighbours
    m, h, x = p
    crests = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("crest", "state", "terms")))
        s = data.draw(st.sampled_from((1.0, 1e-12)) | st.floats(0.0, 1.0))
        if kind == "terms":
            w = [tuple(data.draw(st.floats(-1.0, 1.0)) for _ in range(4))
                 for _ in range(data.draw(st.integers(2, 19)))]
            crests.append((w, s, rate_at(w, 0.0, h), rate_at(w, s, h),
                           None, h, None))
            continue
        if kind == "crest":
            c = [0.0] * 4
            c[data.draw(st.integers(0, 3))] = 1.0
            x0, _ = with_crest(m, x, c, data.draw(fractions()), h)
            if x0 is None:
                x0 = x
        else:
            x0 = tuple(data.draw(st.floats(-1.0, 1.0)) * v for v in x)
        w = modes._series(*x0, *m.b, h, m)
        rb = rate_at(w, s, h)
        if s < 1.0 and data.draw(st.booleans()):
            rb = None  # ended by an event: the end rate comes from w
        elif data.draw(st.booleans()):
            w = None  # queued from its start state, length and mode
        crests.append((w, s, rate(m, x0), rb, x0, h, m))
    assume(any(a * b < 0.0 for _, _, ra, rb in filled(crests)
               for a, b in zip(ra, rb)))
    values = every_crest(crests, [0.0] * 4)[0]
    peaks = []
    for j in range(4):
        start = max(abs(w[0][j]) for w, _, _, _ in filled(crests))
        v = values[j]
        peaks.append(data.draw(st.sampled_from((
            0.0, v, math.nextafter(v, 0.0), math.nextafter(v, math.inf),
            v * (1.0 - 2.0 ** -45), start))
            | st.floats(0.0, 1.0).map(lambda u, a=start: u * a)))
    counter = [0, 0]
    resolver = sim.PeriodPeaks(0.0, counter)
    resolver.ends = peaks
    resolver.crests = crests
    got = resolver.exact()
    ref, all_located, all_it = every_crest(crests, peaks)
    assert bits(got) == bits(ref)
    assert counter[0] <= all_located and counter[1] <= all_it


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=20),
       st.sampled_from((1.0, 1e-9)) | st.floats(0.0, 1.0),
       st.sampled_from((0.0, 1.0, -1.0)))
def test_reach_bounds_its_polynomial(P, s, side):
    # the bound of ``_reach`` holds p(u) = sum_k P[k] u^k on a dense grid
    # of [0, s]: side p, or |p| at side 0
    u = np.linspace(0.0, s, 513)
    p = np.polyval(P[::-1], u)
    p = np.abs(p) if side == 0.0 else side * p
    assert np.all(p <= kernels._reach(P, s, side))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mode_steps(), st.data())
def test_bounded_graze_fires_as_every_turn_back(p, data):
    # an event function with an extremum placed inside the step, and its
    # threshold moved to the extremum's value plus delta times the size of
    # its terms: on both sides of the rounding band 2^-50, on it, and
    # clear past it, where the graze must fire.  Clear past means clear of
    # what the computed function resolves too: an offset within the kernel's
    # rounding margin ``_SLACK`` of the step's terms, sum_j |c_j| times
    # sum_k |w_kj| and the products h (|A| |x| + |b|)_j that form the rate,
    # is lost in them (a crest at 1e-253 A of a current that starts at 1e-4 A)
    m, h, x = p
    slot = data.draw(st.sampled_from(m.dead_slots))
    _, c0, c1, c2, c3, d, _ = slot
    x0, xc = with_crest(m, x, (c0, c1, c2, c3), data.draw(fractions()), h)
    assume(x0 is not None)
    A, b = mode_matrices(m)
    c = np.array([c0, c1, c2, c3])
    side = 1.0 if c @ A @ (A @ xc + b) < 0.0 else -1.0
    delta = data.draw(st.sampled_from((
        -1e-3, -1e-9, -2.0 ** -46, -2.0 ** -50, -2.0 ** -53, 0.0,
        2.0 ** -53, 2.0 ** -50, 2.0 ** -46, 1e-9, 1e-3)))
    size = float(np.sum(np.abs(c * xc)))
    d = side * delta * size - float(c @ xc)
    slot = slot[:5] + (d, slot[6])
    w = modes._series(*x0, *m.b, h, m)
    xb = state_at(w, 1.0)
    ga, gb = (c0 * v[0] + c1 * v[1] + c2 * v[2] + c3 * v[3] + d
              for v in (x0, xb))
    da, db = (c0 * r[0] + c1 * r[1] + c2 * r[2] + c3 * r[3]
              for r in (rate(m, x0), rate(m, xb)))
    args = (slot, side, ga, gb, da, db, w, xb, 1e-12)
    got = kernels._crossing(*args)
    ref = every_turn_back(*args)
    assert got[0] == ref[0] and got[1] <= ref[1]
    terms = float(np.abs(c) @ (np.sum(np.abs(np.array(w)), axis=0) + h * (
        np.abs(A) @ np.abs(x0) + np.abs(b))))
    if (delta >= 1e-9 and delta * size > modes._SLACK * terms
            and side * ga < 0.0 and side * gb < 0.0):
        assert got[0] >= 0.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_skipped_searches_leave_the_call_alone(p):
    # the whole call with every crest and every turn-back located, the
    # series-free graze bound made useless so that no turn-back is skipped
    # before ``_crossing``, gives the same outputs, rows, events and
    # energy, in no fewer searches and iterations
    out, rows, events, acc = run(p)
    with patch.object(sim.PeriodPeaks, "exact", every_crest_exact), \
            patch.object(kernels, "_crossing", every_turn_back), \
            patch.object(kernels, "_tail", lambda *args: math.inf):
        ref = run(p)
    assert out[:14] + out[15:19] == ref[0][:14] + ref[0][15:19]
    assert all(a <= b for a, b in zip(out[19:] + out[14:15],
                                      ref[0][19:] + ref[0][14:15]))
    assert bits(rows) == bits(ref[1]) and bits(events) == bits(ref[2])
    assert bits(acc) == bits(ref[3])


# The bound from a step's start state and rate alone (``modes._tail``):
# where it cannot pass a threshold, no search could, so the kernel rejects
# a graze without the step's Taylor terms.  ``sim.PeriodPeaks.exact``
# bounds a crest from the terms (``kernels._reach``).

def graze_bound(slot, side, ga, da, r, h, m):
    """The kernel's bound on side g over a step from a state with rate r,
    where g = c . x + d is ga and its slope da."""
    weight = sum(abs(c) / e for c, e in zip(slot[1:5], m.scales))
    return kernels._reach([ga, h * da, modes._tail(r, h, m) * weight],
                          1.0, side)


def crest_bounds(w, s):
    """The bound on each component's |x_j| over [0, s] of a step with
    Taylor terms w that ``sim.PeriodPeaks.exact`` sorts its crests by."""
    return [kernels._reach([c[j] for c in w], s, 0.0) for j in range(4)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mode_steps(), fractions(), st.data())
def test_series_free_bound_holds_what_a_search_can_locate(p, s, data):
    # on [0, s] of a step, each component's bound is at least its value
    # on a dense grid and at its located crest; on the whole step, each
    # event function's bound is at least its value on the grid and at
    # the turn-back a graze search locates, on either side.  Some states
    # have a crest of a component or an event function placed inside
    m, h, x = p
    slots = m.dead_slots
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from([s_[1:5] for s_ in slots]
                                      + [(1.0, 0.0, 0.0, 0.0),
                                         (0.0, 1.0, 0.0, 0.0),
                                         (0.0, 0.0, 1.0, 0.0),
                                         (0.0, 0.0, 0.0, 1.0)]))
        x0, _ = with_crest(m, x, c, data.draw(fractions()), h)
        if x0 is not None:
            x = x0
    r = rate(m, x)
    w = modes._series(*x, *m.b, h, m)
    u = np.linspace(0.0, s, 257)
    located = every_crest([(w, s, r, rate_at(w, s, h), x, h, m)],
                          [0.0] * 4)[0]
    bounds = crest_bounds(w, s)
    for j in range(4):
        if not r[j] * r[j] > 0.0:
            continue  # no sign change seen (a rate of 0, or one whose
            # product underflows): no crest queued
        P = [c[j] for c in w]
        assert np.all(np.abs(np.polyval(P[::-1], u)) <= bounds[j])
        assert located[j] <= bounds[j]
    u = np.linspace(0.0, 1.0, 257)
    xb = state_at(w, 1.0)
    rb = rate(m, xb)
    for slot in slots:
        _, c0, c1, c2, c3, d, _ = slot
        P = [c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3 for u0, u1, u2, u3 in w]
        ga = c0 * x[0] + c1 * x[1] + c2 * x[2] + c3 * x[3] + d
        P[0] = ga
        da = c0 * r[0] + c1 * r[1] + c2 * r[2] + c3 * r[3]
        db = c0 * rb[0] + c1 * rb[1] + c2 * rb[2] + c3 * rb[3]
        for side in (1.0, -1.0):
            top = graze_bound(slot, side, ga, da, r, h, m)
            assert np.all(side * np.polyval(P[::-1], u) <= top)
            if side * da > 0.0 and side * db < 0.0:
                dP = [k * P[k] for k in range(1, len(P))]
                lo_end, _ = kernels._root(dP, 0.0, 1.0, -side,
                                          kernels._EXT_TOL, da, db)
                assert side * kernels._peval(P, lo_end)[0] <= top


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mode_steps(), st.data())
def test_grazes_the_bound_rejects_do_not_fire(p, data):
    # an event function turning back inside the step, its threshold at the
    # extremum's value plus delta times the size of its terms: where the
    # kernel's bound rejects the graze, ``_crossing`` and locating every
    # turn-back both report that the slot does not fire
    m, h, x = p
    slot = data.draw(st.sampled_from(m.dead_slots))
    _, c0, c1, c2, c3, d, _ = slot
    x0, xc = with_crest(m, x, (c0, c1, c2, c3), data.draw(fractions()), h)
    assume(x0 is not None)
    A, b = mode_matrices(m)
    c = np.array([c0, c1, c2, c3])
    side = 1.0 if c @ A @ (A @ xc + b) < 0.0 else -1.0
    delta = data.draw(st.sampled_from((
        -1.0, -0.3, -0.1, -1e-2, -1e-3, -1e-6, -2.0 ** -46, 0.0, 1e-3)))
    size = float(np.sum(np.abs(c * xc)))
    d = side * delta * size - float(c @ xc)
    slot = slot[:5] + (d, slot[6])
    w = modes._series(*x0, *m.b, h, m)
    xb = state_at(w, 1.0)
    r = rate(m, x0)
    ga, gb = (c0 * v[0] + c1 * v[1] + c2 * v[2] + c3 * v[3] + d
              for v in (x0, xb))
    da, db = (c0 * v[0] + c1 * v[1] + c2 * v[2] + c3 * v[3]
              for v in (r, rate(m, xb)))
    assume(side * gb <= 0.0 and side * da > 0.0 and side * db < 0.0)
    if graze_bound(slot, side, ga, da, r, h, m) \
            <= kernels._noise(c0, c1, c2, c3, d, *x0):
        args = (slot, side, ga, gb, da, db, w, xb, 1e-12)
        assert kernels._crossing(*args)[0] == -2.0
        assert every_turn_back(*args)[0] == -2.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments())
def test_graze_bound_leaves_the_call_alone(p):
    # with the bound made useless, every turn-back goes to the kernel's own
    # ``_crossing`` (only the kernel reads ``_tail``): the call gives the
    # same outputs, rows, events and energy, in no fewer localization
    # iterations
    out, rows, events, acc = run(p)
    with patch.object(kernels, "_tail", lambda *args: math.inf):
        ref = run(p)
    assert out[:14] + out[15:] == ref[0][:14] + ref[0][15:]
    assert out[14] <= ref[0][14]
    assert bits(rows) == bits(ref[1]) and bits(events) == bits(ref[2])
    assert bits(acc) == bits(ref[3])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segments(), st.permutations(range(4)))
def test_queued_crests_resolve_to_the_eager_peaks(p, order):
    # a call that queues its crest candidates returns the peaks of its
    # step ends; resolved on demand (``sim.PeriodPeaks``), all four at
    # once, or one at a time, they are the peaks of the call with its
    # crests located at its end, bit for bit
    eager = run(p)[0]
    queue = []
    x = p["x0"]
    out = kernels.integrate_segment(
        x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
        p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
        p["load_kind"], p["load_val"], p["dt_max"], p["tol_t"], 0, [],
        queue)
    assert len(out) == 19
    assert out[:1] + out[2:9] + out[13:19] \
        == eager[:1] + eager[2:9] + eager[13:19]
    assert all(a <= b for a, b in zip(out[9:13], eager[9:13]))
    peaks = sim.PeriodPeaks(0.0, [0, 0])
    peaks.ends = list(out[9:13])
    peaks.crests = queue
    assert bits(peaks.exact()) == bits(eager[9:13])
    peaks = sim.PeriodPeaks(0.0, [0, 0])
    peaks.ends = list(out[9:13])
    peaks.crests = queue
    for j in order:
        assert bits(peaks.exact((j,))) == bits(eager[9 + j:10 + j])


def test_failed_turn_back_search_fails_the_localization():
    # a graze clear past its threshold fires; with one root iteration its
    # extremum cannot be located, and the search reports a failure instead
    # of evaluating outside the step
    m = modes.Mode(modes.RECT_D1, 48.0, modes.SINK_NONE, LR, CR, LM, N, 0.7,
                   20e-6, modes.LOAD_RES, 24.0)
    h = modes._step_cap({}, 48.0, LR, CR, LM, N, 0.7, 20e-6, modes.LOAD_RES,
                        24.0)
    slot = m.slots[0]
    _, c0, c1, c2, c3, _, _ = slot
    x0, xc = with_crest(m, (1.0, 10.0, 0.2, 12.0), (c0, c1, c2, c3), 0.5, h)
    A, b = mode_matrices(m)
    c = np.array([c0, c1, c2, c3])
    side = 1.0 if c @ A @ (A @ xc + b) < 0.0 else -1.0
    d = side * 1e-3 * float(np.sum(np.abs(c * xc))) - float(c @ xc)
    slot = slot[:5] + (d, slot[6])
    w = modes._series(*x0, *m.b, h, m)
    xb = state_at(w, 1.0)
    ga, gb = (c0 * v[0] + c1 * v[1] + c2 * v[2] + c3 * v[3] + d
              for v in (x0, xb))
    da, db = (c0 * v[0] + c1 * v[1] + c2 * v[2] + c3 * v[3]
              for v in (rate(m, x0), rate(m, xb)))
    assert side * gb <= 0.0 and side * da > 0.0 and side * db < 0.0
    args = (slot, side, ga, gb, da, db, w, xb, 1e-12)
    assert 0.0 < kernels._crossing(*args)[0] < 1.0
    with patch.object(kernels, "LOC_MAX", 1):
        assert kernels._crossing(*args) == (-1.0, 1)
