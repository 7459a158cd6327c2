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

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llckit import kernels

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
    rect = draw(st.sampled_from((kernels.RECT_OFF, kernels.RECT_D1,
                                 kernels.RECT_D2)))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == kernels.RECT_OFF:
        # the open-rectifier magnetizing voltage at a fraction u of the
        # clamp level n (vOut + Vf); |u| > 1 starts past a clamp
        u = draw(st.floats(-1.2, 1.2))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        # a conducting pair carries a secondary current in its own direction
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.0, 1.0))
        ilm = ilr - isec if rect == kernels.RECT_D1 else ilr + isec
    dt_max = draw(st.floats(1e-9, 5e-8))
    steps = draw(st.integers(0, 150))
    t0 = draw(st.floats(0.0, 1e-3))
    t1 = t0 + steps * dt_max * draw(st.floats(0.5, 1.0))
    load_kind = draw(st.sampled_from((kernels.LOAD_RES, kernels.LOAD_CUR)))
    if load_kind == kernels.LOAD_RES:
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
    """The call's outputs with its row plan replaced by its row count, the
    rows built from the plan (``kernels.build_rows``), its events as a
    (count, 2) array and its (source, load, diode) energy."""
    events = []
    x = p["x0"]
    out = kernels.integrate_segment(
        x[0], x[1], x[2], x[3], p["t0"], p["t1"], p["seg"], p["clamp"],
        p["rect"], p["vin"], LR, CR, LM, N, p["Vf"], p["Cout"],
        p["load_kind"], p["load_val"], p["dt_max"], p["tol_t"], p["stride"],
        events)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(segments())
def test_grid_rows_are_their_steps_series(p):
    # every grid row of a call sits at t0 + dt k and holds the Taylor series
    # of the step it falls in, summed in plain Python at its own instant
    # (``_series`` and ``_at``): numpy sums it in another order, so they
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
            events)
        rows = kernels.build_rows([out[1]])
        _, points, blocks, (t0, dt, k, _, _, seg, *_) = out[1]
        at_points = {r for r, _ in points}
        for r, ta, xs, count, m, vsw, rect, _ in blocks:
            for i, row in enumerate(rows[r:r + count]):
                t = t0 + dt * k
                k += stride
                if r + i in at_points:  # a point row took its place
                    continue
                assert row[0] == t and row[5] == vsw
                assert row[7] == rect and row[8] == seg
                w = kernels._series(*xs[:4], m[7], m[8], m[9], t - ta, m)
                ref = kernels._at(w, 1.0)
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
    m = np.zeros((5, 5))
    m[1, 0] = 1.0 / CR  # Cr carries iLr
    if rect == kernels.RECT_OFF:
        # Lr and Lm in series across vsw - vCr
        m[0, 1] = m[2, 1] = -1.0 / (LR + LM)
        m[0, 4] = m[2, 4] = vsw / (LR + LM)
    else:
        # the conducting diode clamps Lm at +/- n (vOut + Vf)
        s = 1.0 if rect == kernels.RECT_D1 else -1.0
        m[0, 1] = -1.0 / LR
        m[0, 3] = -s * N / LR
        m[0, 4] = (vsw - s * N * vf) / LR
        m[2, 3] = s * N / LM
        m[2, 4] = s * N * vf / LM
        m[3, 0] = s * N / cout
        m[3, 2] = -s * N / cout
    if load_kind == kernels.LOAD_RES:
        m[3, 3] = -1.0 / (load_val * cout)
    else:
        m[3, 4] = -load_val / cout
    return m


@st.composite
def mode_spans(draw):
    rect = draw(st.sampled_from((kernels.RECT_OFF, kernels.RECT_D1,
                                 kernels.RECT_D2)))
    seg = draw(st.sampled_from((kernels.SEG_HIGH, kernels.SEG_LOW)))
    vin = draw(st.floats(0.0, 100.0))
    vsw = vin if seg == kernels.SEG_HIGH else 0.0
    vf = draw(st.floats(0.0, 1.0))
    load_kind = draw(st.sampled_from((kernels.LOAD_RES, kernels.LOAD_CUR)))
    if load_kind == kernels.LOAD_RES:
        load_val = draw(st.floats(1.0, 1e4))
        vout = draw(st.floats(0.0, 30.0))
    else:
        # the sink stays on through the span only well above ground
        load_val = draw(st.floats(0.0, 2.0))
        vout = draw(st.floats(1.0, 30.0))
    ilr = draw(st.floats(-2.0, 2.0))
    if rect == kernels.RECT_OFF:
        # short of either clamp, so no diode turns on early in the span
        u = draw(st.floats(-0.9, 0.9))
        vcr = vsw - (LR + LM) / LM * u * N * (vout + vf)
        ilm = ilr
    else:
        vcr = draw(st.floats(-100.0, 150.0))
        isec = draw(st.floats(0.05, 1.0))
        ilm = ilr - isec if rect == kernels.RECT_D1 else ilr + isec
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
    assume(p["load_kind"] == kernels.LOAD_RES
           or (ref[3] > 0.0 and np.all(ref_rows[:, 3] > 0.0)))
    # compare in energy coordinates, where all four states weigh alike
    scale = np.sqrt(np.array([LR, CR, LM, p["Cout"]]))
    err = np.max(np.abs(scale * (np.array(out[5:9]) - ref[:4])))
    size = max(np.max(np.abs(scale * ref[:4])), np.max(np.abs(scale * x)))
    assert err <= 1e-12 * size
    size = max(size, np.max(np.abs(scale * ref_rows)))
    assert np.max(np.abs(scale * (rows[:, 1:5] - ref_rows))) <= 1e-12 * size
    if p["rect"] == kernels.RECT_OFF:
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
    if p["rect"] != kernels.RECT_OFF and p["Vf"] != 0.0:
        f = p["Vf"] * N if p["rect"] == kernels.RECT_D1 else -p["Vf"] * N
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
        p["load_kind"], p["load_val"], p["dt_max"], 1e-18, 0, events, None,
        sens)
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
